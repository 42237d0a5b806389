//! Nothing public without a caller. Every `pub fn | const | struct |
//! enum | trait | type NAME` in the non-test part of `crates/*/src`
//! must be named, as a whole word, somewhere in non-test source other
//! than its own definition — `crates/*/src` outside unit-test code (by
//! the rule of `afs_bench::source`, the size ledger's), `examples/`,
//! `benchmark/src` — or appear in [`TEST_SUPPORT`] with the test that
//! needs it. Comments, `use` declarations and the type an `impl` block
//! is for are not callers. The scan is by name, not by path: a collision
//! can only hide a dead item, never fail a live one.
//!
//! The vendored stubs (`vendor/*/src`) are scanned too. A stub stands in
//! for a crates.io API, so any workspace code calls it, test code
//! included; the stub's own unit tests do not.
//!
//! Nothing depended on without a user, either: every `[dependencies]`
//! and `[dev-dependencies]` key of the root and `crates/*` manifests,
//! `-` read as `_`, must be a whole word in some `.rs` file of its own
//! package (`src/`, `tests/`, `benches/`, `examples/`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use afs_bench::source::{product_lines, rust_files};

/// Public items kept for a test alone: `(name as the failure prints it,
/// the test that needs it)`. Capped at [`TEST_SUPPORT_MAX`].
const TEST_SUPPORT: &[(&str, &str)] = &[
    (
        "Artifact::csv_bytes",
        "tests/golden_artifacts.rs compares a built artifact to the committed file without writing it",
    ),
    (
        "Cache::total_occupancy",
        "crates/cache/tests/proptests.rs: occupancy never exceeds the geometry, a flush empties it",
    ),
    (
        "TraceBuffer",
        "the reference-capturing sink of afs-xkernel's mem.rs and msg.rs unit tests",
    ),
    (
        "STEERING_AGREEMENT_FACTOR",
        "tests/crossval_native.rs: the documented sim/native steering band",
    ),
    (
        "ExecParams::cold_service_us",
        "crates/core/tests/proptests.rs: the upper service-time bound of every run",
    ),
    (
        "FLUSH_RATE_TOL",
        "tests/obs_differential.rs::backends_agree_on_trace_derived_rates",
    ),
    (
        "STEAL_RATE_MAX",
        "tests/obs_differential.rs::backends_agree_on_trace_derived_rates",
    ),
    (
        "HashedLru::keys_mru_first",
        "crates/sched/tests/lru_proptests.rs compares the recency order to its oracle",
    ),
    (
        "CostModel::total_instrs",
        "the instruction-count oracle of afs-xkernel's engine.rs and calib.rs unit tests",
    ),
    (
        "PSH",
        "crates/xkernel/tests/proptests.rs: a second flag bit for the TCP header round trip",
    ),
    (
        "TcpSession::reorder_depth",
        "crates/xkernel/tests/proptests.rs: the reassembly queue must drain",
    ),
    (
        "build_datagram",
        "the layer-builder reference PacketFactory::frame_into is pinned against, and tests/proptests.rs",
    ),
];

const TEST_SUPPORT_MAX: usize = 20;

const ITEM_KEYWORDS: [&str; 6] = ["fn", "const", "struct", "enum", "trait", "type"];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The text of `product` that can hold a caller: not comments, not
/// `use` declarations (to their closing `;`), and of an `impl` header
/// only the trait it names — implementing a trait uses the trait, not
/// the type.
fn caller_lines<'a>(product: &[&'a str]) -> Vec<&'a str> {
    let mut in_use = false;
    product
        .iter()
        .filter_map(|raw| {
            let line = raw.trim();
            in_use |= line.starts_with("use ") || line.starts_with("pub use ");
            let skip = in_use || line.starts_with("//");
            in_use &= !line.ends_with(';');
            match line.strip_prefix("impl") {
                _ if skip => None,
                Some(header) => header.rsplit_once(" for ").map(|(the_trait, _)| the_trait),
                None => Some(*raw),
            }
        })
        .collect()
}

/// The name a `pub` item line defines, if it is one of the six kinds.
fn defined_name(line: &str) -> Option<&str> {
    let mut words = line.strip_prefix("pub ")?.split_whitespace().peekable();
    // `pub const fn`, `pub unsafe fn`: the item is the `fn`.
    while matches!(words.peek(), Some(&"const" | &"unsafe")) && words.clone().nth(1) == Some("fn") {
        words.next();
    }
    let (kind, rest) = (words.next()?, words.next()?);
    if !ITEM_KEYWORDS.contains(&kind) {
        return None;
    }
    let end = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The type an `impl` header at column 0 is for.
fn impl_target(line: &str) -> Option<&str> {
    let head = line.strip_prefix("impl")?;
    let head = head.rsplit(" for ").next()?;
    // Skip the generics of a bare `impl<T> Type<T>`.
    let head = match head.strip_prefix('<') {
        Some(rest) => rest.split_once("> ")?.1,
        None => head,
    };
    let head = head.trim_start();
    let end = head.find(|c| !is_ident(c)).unwrap_or(head.len());
    (end > 0).then(|| &head[..end])
}

fn count_words<'a>(corpus: &[&'a str]) -> BTreeMap<&'a str, usize> {
    let mut counts = BTreeMap::new();
    for line in corpus {
        for word in line.split(|c| !is_ident(c)).filter(|w| !w.is_empty()) {
            *counts.entry(word).or_insert(0) += 1;
        }
    }
    counts
}

/// The `leaf` directory of every immediate subdirectory of `dir`
/// (`crates/*/src`, `vendor/*/src`, …), sorted.
fn member_dirs(dir: &Path, leaf: &str) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("list {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path().join(leaf))
        .collect();
    dirs.sort();
    dirs
}

type SourceFile = (PathBuf, String, bool);

fn files_under(dirs: &[PathBuf]) -> Vec<SourceFile> {
    dirs.iter().flat_map(|d| rust_files(d)).collect()
}

/// `(display path, qualified name, bare name)` of every `pub` item in
/// the product part of `files`.
fn definitions<'a>(root: &Path, files: &'a [SourceFile]) -> Vec<(String, String, &'a str)> {
    let mut defs = Vec::new();
    for (path, text, test_only) in files {
        if *test_only {
            continue;
        }
        let shown = path.strip_prefix(root).unwrap_or(path).display();
        let mut owner: Option<&str> = None;
        for raw in product_lines(text) {
            if raw.starts_with("impl") {
                owner = impl_target(raw);
            } else if raw.starts_with('}') {
                owner = None;
            }
            if let Some(name) = defined_name(raw.trim_start()) {
                let qualified = match owner.filter(|_| raw.starts_with(' ')) {
                    Some(ty) => format!("{ty}::{name}"),
                    None => name.to_string(),
                };
                defs.push((shown.to_string(), qualified, name));
            }
        }
    }
    defs
}

/// The caller lines of the product part of `files`.
fn product_callers(files: &[SourceFile]) -> Vec<&str> {
    files
        .iter()
        .filter(|(_, _, test_only)| !test_only)
        .flat_map(|(_, text, _)| caller_lines(&product_lines(text)))
        .collect()
}

/// The caller lines of the test part of `files`: whole test-only
/// files, and what follows the product part of the others.
fn test_callers(files: &[SourceFile]) -> Vec<&str> {
    files
        .iter()
        .flat_map(|(_, text, test_only)| {
            let skip = if *test_only {
                0
            } else {
                product_lines(text).len()
            };
            let lines: Vec<&str> = text.lines().skip(skip).collect();
            caller_lines(&lines)
        })
        .collect()
}

#[test]
fn every_public_item_has_a_non_test_caller() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let crates = files_under(&member_dirs(&root.join("crates"), "src"));
    let vendor = files_under(&member_dirs(&root.join("vendor"), "src"));
    let others = files_under(&[root.join("examples"), root.join("benchmark/src")]);
    let mut test_dirs = member_dirs(&root.join("crates"), "tests");
    test_dirs.extend([root.join("tests"), root.join("benchmark/tests")]);
    let mut tests = files_under(&test_dirs);
    for (_, _, test_only) in &mut tests {
        *test_only = true;
    }

    let mut corpus = product_callers(&crates);
    corpus.extend(product_callers(&others));
    let mut vendor_corpus = corpus.clone();
    vendor_corpus.extend(product_callers(&vendor));
    vendor_corpus.extend(test_callers(&crates));
    vendor_corpus.extend(test_callers(&others));
    vendor_corpus.extend(test_callers(&tests));
    let crate_defs = definitions(&root, &crates);
    let vendor_defs = definitions(&root, &vendor);

    let mut defined: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, _, name) in crate_defs.iter().chain(&vendor_defs) {
        *defined.entry(name).or_insert(0) += 1;
    }

    assert!(
        TEST_SUPPORT.len() <= TEST_SUPPORT_MAX,
        "TEST_SUPPORT has {} entries, the cap is {TEST_SUPPORT_MAX}",
        TEST_SUPPORT.len()
    );
    let excused: BTreeSet<&str> = TEST_SUPPORT.iter().map(|&(name, _)| name).collect();
    let mut offenders = Vec::new();
    let mut used_excuses = BTreeSet::new();
    for (defs, corpus) in [(&crate_defs, &corpus), (&vendor_defs, &vendor_corpus)] {
        let words = count_words(corpus);
        for (file, qualified, name) in defs {
            if words.get(name).copied().unwrap_or(0) > defined[name] {
                continue;
            }
            if excused.contains(qualified.as_str()) {
                used_excuses.insert(qualified.as_str());
            } else {
                offenders.push(format!("{file}: {qualified}"));
            }
        }
    }
    let stale: Vec<&&str> = excused.difference(&used_excuses).collect();
    assert!(
        stale.is_empty(),
        "TEST_SUPPORT entries that excuse nothing (item gone, or it has a caller now): {stale:?}"
    );
    assert!(
        offenders.is_empty(),
        "{} public item(s) with no non-test caller — delete them, or list them in \
         TEST_SUPPORT with the test that needs them:\n{}",
        offenders.len(),
        offenders.join("\n")
    );
}

/// The `[dependencies]` and `[dev-dependencies]` keys of a manifest,
/// in file order.
fn dependency_keys(manifest: &str) -> Vec<&str> {
    let mut in_deps = false;
    let mut keys = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = matches!(line, "[dependencies]" | "[dev-dependencies]");
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let end = line.find(['.', '=', ' ']).unwrap_or(line.len());
            keys.push(&line[..end]);
        }
    }
    keys
}

#[test]
fn every_dependency_is_named_in_its_package() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.clone()];
    packages.extend(member_dirs(&root.join("crates"), ""));
    let mut unused = Vec::new();
    for package in &packages {
        let manifest = std::fs::read_to_string(package.join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("read {}: {e}", package.display()));
        let dirs = ["src", "tests", "benches", "examples"].map(|d| package.join(d));
        let files = files_under(&dirs);
        let words: BTreeSet<&str> = files
            .iter()
            .flat_map(|(_, text, _)| text.split(|c| !is_ident(c)))
            .collect();
        for key in dependency_keys(&manifest) {
            if !words.contains(key.replace('-', "_").as_str()) {
                let shown = package.strip_prefix(&root).unwrap_or(package);
                unused.push(format!("{}: {key}", shown.join("Cargo.toml").display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "{} dependency edge(s) no .rs file of the package names — delete them:\n{}",
        unused.len(),
        unused.join("\n")
    );
}
