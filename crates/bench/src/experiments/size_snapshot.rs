//! Size snapshot — `results/size.json`: code lines per crate,
//! non-test versus test, so a PR that grows or shrinks a crate shows up
//! as a diff in a committed file (CI fails when the committed file is
//! stale). The file is host- and mode-independent.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::source::{product_lines, rust_files, TEST_MARKER};
use crate::{Artifact, Checks};

/// A code line is non-blank and does not start with `//`.
fn count_code<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    lines
        .into_iter()
        .map(str::trim_start)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count() as u64
}

/// Code lines of one Rust source as `(non_test, test)`: the product
/// part by the rule of [`crate::source`], everything in a `test_file`
/// as test.
fn code_lines(text: &str, test_file: bool) -> (u64, u64) {
    let non_test = if test_file {
        0
    } else {
        count_code(product_lines(text))
    };
    (non_test, count_code(text.lines()) - non_test)
}

/// Code lines of every `.rs` file under `dir`, summed as
/// `(non_test, test)`. A missing directory is empty.
fn dir_code_lines(dir: &Path) -> (u64, u64) {
    rust_files(dir)
        .iter()
        .map(|(_, text, test_file)| code_lines(text, *test_file))
        .fold((0, 0), |(n, t), (dn, dt)| (n + dn, t + dt))
}

/// `results/size.json`: per package, `src/` by the rule of
/// [`code_lines`], plus `tests/` and `benches/` counted wholly as test
/// code. One package per line, sorted, so growth reads as a line diff.
pub fn experiment(_quick: bool, _checks: &mut Checks) -> Vec<Artifact> {
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
        "{{\n  \"rule\": \"code line = non-blank, not starting with //; test = src/ from a \
         {TEST_MARKER} that opens an inline mod on, a lone {TEST_MARKER} and the line it gates, \
         files behind a {TEST_MARKER} mod x;, and all of tests/ and benches/\",\n  \
         \"packages\": {{\n"
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
    vec![Artifact {
        file: "size.json",
        body,
    }]
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
        assert_eq!(code_lines(&text, false), (4, 4));
        // No marker: everything is non-test; an empty file has no lines.
        assert_eq!(code_lines("fn f() {}\n\n// c\n", false), (1, 0));
        assert_eq!(code_lines("", false), (0, 0));
        // A lone marker gates one item: it and that item are the test
        // code, and what follows is product code again.
        let lone = format!(
            "mod a;\n{marker}\nmod tests;\n\n{marker}\nuse x::Y;\nfn f() {{\n    g();\n}}\n"
        );
        assert_eq!(code_lines(&lone, false), (4, 4));
        // ... until a marker that opens an inline module.
        let both = format!("{lone}{marker}\nmod more {{\n    fn t() {{}}\n}}\n");
        assert_eq!(code_lines(&both, false), (4, 8));
        // A file behind a marked `mod x;` is test from its first line,
        // whatever it holds.
        assert_eq!(code_lines(&text, true), (0, 8));
        assert_eq!(code_lines("#![allow(x)]\nfn helper() {}\n", true), (0, 2));
    }
}
