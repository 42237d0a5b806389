//! The benchmark is a workspace of its own, so the root manifest's
//! `[profile.release]` does not reach it. This test parses both
//! manifests and fails on any drift: the benchmark must measure the code
//! `cargo build --release` ships, not a differently-compiled copy.

use std::collections::BTreeMap;

/// The `key = value` pairs of `[section]` in a manifest, comments and
/// blank lines dropped, values kept as written (quotes included).
fn section(manifest: &str, section: &str) -> BTreeMap<String, String> {
    let header = format!("[{section}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| {
            let value = v.split('#').next().unwrap_or(v);
            (k.trim().to_string(), value.trim().to_string())
        })
        .collect()
}

#[test]
fn section_parser_reads_keys_and_skips_comments() {
    let toml =
        "[a]\nx = 1\n\n[profile.release]\n# why\nlto = \"thin\" # note\ndebug = true\n[b]\ny = 2\n";
    let got = section(toml, "profile.release");
    assert_eq!(got.len(), 2);
    assert_eq!(got["lto"], "\"thin\"");
    assert_eq!(got["debug"], "true");
    assert!(section(toml, "profile.bench").is_empty());
}

#[test]
fn release_profile_mirrors_the_root_manifest() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let own = std::fs::read_to_string(format!("{dir}/Cargo.toml")).expect("benchmark/Cargo.toml");
    let root = std::fs::read_to_string(format!("{dir}/../Cargo.toml"))
        .expect("the root Cargo.toml (the benchmark runs inside its repository)");
    let (own, root) = (
        section(&own, "profile.release"),
        section(&root, "profile.release"),
    );
    assert!(!root.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml [profile.release] drifted from the root manifest"
    );
    // The settings the issue pins, spelled out so a simultaneous edit of
    // both manifests is still a conscious act.
    assert_eq!(root["lto"], "\"thin\"");
    assert_eq!(root["codegen-units"], "1");
    assert_eq!(root["debug"], "true");
}
