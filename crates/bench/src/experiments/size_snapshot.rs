//! Size snapshot — writes `results/size.json`: code lines per crate,
//! non-test versus test, so a PR that grows or shrinks a crate shows up
//! as a diff in a committed file (CI fails when the committed file is
//! stale). The file is host- and mode-independent.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::{write_json, Checks};

/// The attribute that opens a source file's unit tests (spelled in two
/// halves so this file does not trip its own rule).
const TEST_MARKER: &str = concat!("#[cfg(", "test)]");

/// Code lines of one Rust source as `(non_test, test)`. A code line is
/// non-blank and does not start with `//`; everything from the first
/// [`TEST_MARKER`] on is test code.
fn code_lines(text: &str) -> (u64, u64) {
    let (mut non_test, mut test, mut in_tests) = (0, 0, false);
    for line in text.lines().map(str::trim_start) {
        in_tests |= line.contains(TEST_MARKER);
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        *if in_tests { &mut test } else { &mut non_test } += 1;
    }
    (non_test, test)
}

/// Code lines of every `.rs` file under `dir` (recursively, in sorted
/// order), summed as `(non_test, test)`. A missing directory is empty.
fn dir_code_lines(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    paths.iter().fold((0, 0), |(n, t), path| {
        let (dn, dt) = if path.is_dir() {
            dir_code_lines(path)
        } else if path.extension().is_some_and(|x| x == "rs") {
            code_lines(&std::fs::read_to_string(path).expect("read source"))
        } else {
            (0, 0)
        };
        (n + dn, t + dt)
    })
}

/// Write `results/size.json`: per package, `src/` by the rule of
/// [`code_lines`], plus `tests/` and `benches/` counted wholly as test
/// code. One package per line, sorted, so growth reads as a line diff.
pub fn experiment(_quick: bool, _checks: &mut Checks) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut packages = vec![("affinity-sched".to_string(), root.clone())];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("list crates/")
        .map(|e| e.expect("dir entry").path())
        .collect();
    crates.sort();
    for dir in crates {
        let name = dir.file_name().expect("crate dir name").to_string_lossy();
        packages.push((format!("crates/{name}"), dir));
    }
    let mut body = format!(
        "{{\n  \"rule\": \"code line = non-blank, not starting with //; src/ from the first \
         {TEST_MARKER} on, tests/ and benches/ count as test\",\n  \"packages\": {{\n"
    );
    let (mut all_non_test, mut all_test) = (0, 0);
    for (i, (name, dir)) in packages.iter().enumerate() {
        let (non_test, unit) = dir_code_lines(&dir.join("src"));
        let (a, b) = dir_code_lines(&dir.join("tests"));
        let (c, d) = dir_code_lines(&dir.join("benches"));
        let test = unit + a + b + c + d;
        all_non_test += non_test;
        all_test += test;
        let sep = if i + 1 < packages.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "    \"{name}\": {{\"non_test\": {non_test}, \"test\": {test}}}{sep}"
        );
    }
    let _ = write!(
        body,
        "  }},\n  \"total\": {{\"non_test\": {all_non_test}, \"test\": {all_test}}}\n}}\n"
    );
    write_json("size", &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_skips_blanks_and_comments_and_splits_at_the_test_marker() {
        let marker = TEST_MARKER;
        let text = format!(
            "//! crate doc\n\nuse a::b;\n   // indented comment\n/// item doc\nfn f() {{\n    g(); // trailing comment still counts\n}}\n\n{marker}\nmod tests {{\n    // helper\n\n    fn t() {{}}\n}}\n"
        );
        // Non-test: `use`, `fn f() {`, `g();`, `}`. Test: the marker line
        // itself and every code line after it.
        assert_eq!(code_lines(&text), (4, 4));
        // No marker: everything is non-test; an empty file has no lines.
        assert_eq!(code_lines("fn f() {}\n\n// c\n"), (1, 0));
        assert_eq!(code_lines(""), (0, 0));
    }
}
