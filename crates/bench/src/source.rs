//! Which of the workspace's Rust source is product and which is test —
//! the one rule behind the size ledger (`results/size.json`) and the
//! public-surface guard (`tests/public_surface.rs`).
//!
//! Test code starts at a [`TEST_MARKER`] line whose next line opens an
//! inline module (`mod … {`) and runs to the end of the file. A lone
//! marker gates one item — `mod tests;`, a `use` — so it and the line
//! after it are test code and the file goes on. A file pulled in by a
//! marked `mod x;` is test code from its first line.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The attribute that marks unit-test code, alone on its line.
pub const TEST_MARKER: &str = "#[cfg(test)]";

/// The module a line declares — `mod x;` or `mod x {`, whatever its
/// visibility — as `(name, is_inline)`.
fn mod_decl(line: &str) -> Option<(&str, bool)> {
    let mut words = line.split_whitespace().peekable();
    words.next_if(|w| w.starts_with("pub"));
    let (kw, name, brace) = (words.next()?, words.next()?, words.next());
    match (kw, name.strip_suffix(';'), brace) {
        ("mod", Some(name), None) => Some((name, false)),
        ("mod", None, Some("{")) => Some((name, true)),
        _ => None,
    }
}

/// The non-test lines of one source file, in order: lone test items
/// blanked (so line numbers survive), the inline test module cut off.
pub fn product_lines(text: &str) -> Vec<&str> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::with_capacity(lines.len());
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() == TEST_MARKER {
            if let Some((_, true)) = lines.get(i + 1).and_then(|l| mod_decl(l)) {
                break;
            }
            out.extend(["", ""]);
            i += 2;
        } else {
            out.push(lines[i]);
            i += 1;
        }
    }
    out
}

/// The files `text` (the source at `path`) pulls in with a marked
/// `mod x;`, as paths without extension: `foo.rs` declares `foo/x`;
/// `mod.rs`, `lib.rs` and `main.rs` declare their siblings.
fn test_only_children(path: &Path, text: &str) -> Vec<PathBuf> {
    let dir = path.parent().expect("source file has a directory");
    let base = match path.file_stem().and_then(|s| s.to_str()) {
        Some("mod" | "lib" | "main") | None => dir.to_path_buf(),
        Some(stem) => dir.join(stem),
    };
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    lines
        .windows(2)
        .filter(|w| w[0] == TEST_MARKER)
        .filter_map(|w| mod_decl(w[1]))
        .filter(|&(_, inline)| !inline)
        .map(|(child, _)| base.join(child))
        .collect()
}

/// Every `.rs` file under `dir` (recursively, sorted by path) with its
/// text and whether it is test code from its first line. A missing
/// directory is empty.
pub fn rust_files(dir: &Path) -> Vec<(PathBuf, String, bool)> {
    let mut out = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(dir) else {
            continue;
        };
        for path in entries.map(|e| e.expect("dir entry").path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&path).expect("read source");
                out.push((path, text, false));
            }
        }
    }
    out.sort();
    let test_only: BTreeSet<PathBuf> = out
        .iter()
        .flat_map(|(path, text, _)| test_only_children(path, text))
        .collect();
    for (path, _, is_test) in &mut out {
        // `x.rs`, or anything under `x/`.
        *is_test = path
            .ancestors()
            .any(|a| test_only.contains(&a.with_extension("")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_declarations_parse_at_any_visibility() {
        assert_eq!(mod_decl("mod tests {"), Some(("tests", true)));
        assert_eq!(
            mod_decl("    pub(crate) mod tests {"),
            Some(("tests", true))
        );
        assert_eq!(mod_decl("mod tests;"), Some(("tests", false)));
        assert_eq!(mod_decl("pub mod x;"), Some(("x", false)));
        assert_eq!(mod_decl("use crate::config::IpsPolicy;"), None);
        assert_eq!(mod_decl("fn mod_like() {"), None);
    }

    #[test]
    fn marked_out_of_line_modules_resolve_beside_or_below_their_parent() {
        let text = format!("{TEST_MARKER}\nmod tests;\nmod live;\n");
        for parent in ["sim/mod.rs", "sim/lib.rs", "sim/main.rs"] {
            assert_eq!(
                test_only_children(Path::new(parent), &text),
                [Path::new("sim/tests")]
            );
        }
        assert_eq!(
            test_only_children(Path::new("sim/engine.rs"), &text),
            [Path::new("sim/engine/tests")]
        );
    }

    #[test]
    fn a_file_behind_a_marked_mod_is_test_from_its_first_line() {
        // The case that used to be miscounted: `sim/mod.rs` declares its
        // out-of-line suite near the top and is product code after it.
        let core = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
        let files = rust_files(&core);
        let is_test = |suffix: &str| {
            let (_, _, t) = files
                .iter()
                .find(|(p, _, _)| p.ends_with(suffix))
                .unwrap_or_else(|| panic!("{suffix} not found"));
            *t
        };
        assert!(is_test("sim/tests.rs"));
        assert!(!is_test("sim/mod.rs"));
        assert!(!is_test("sim/events.rs"));
    }
}
