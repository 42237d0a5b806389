//! Nothing public without a caller. Every `pub fn | const | struct |
//! enum | trait | type NAME` in the non-test part of `crates/*/src`
//! must be named, as a whole word, somewhere in non-test source other
//! than its own definition — `crates/*/src` outside unit-test code (by
//! the rule of `afs_bench::source`, the size ledger's), `examples/`,
//! `benchmark/src` — or appear in [`TEST_SUPPORT`] with the test that
//! needs it. Comments, `use` declarations and the type an `impl` block
//! is for are not callers. The scan is by name, not by path: a collision
//! can only hide a dead item, never fail a live one.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

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
        "validate_warmup",
        "tests/extensions.rs::mser_validates_experiment_scale_warmup",
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
        "RxOutcome::observe_into",
        "crates/xkernel/tests/fuzz_receive.rs folds every outcome into afs-obs counters",
    ),
    (
        "FaultStats::observe_into",
        "crates/xkernel/tests/fuzz_receive.rs reports what the injected wire did",
    ),
    (
        "FaultInjector::from_factory",
        "crates/xkernel/tests/fuzz_receive.rs: the wire-fault harness draws from the named substream",
    ),
    (
        "Message::from_wire",
        "every afs-xkernel layer's unit tests and tests/proptests.rs parse from a fresh message",
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

#[test]
fn every_public_item_has_a_non_test_caller() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("list crates/")
        .map(|e| e.expect("dir entry").path().join("src"))
        .collect();
    crates.sort();
    let mut files: Vec<_> = crates.iter().flat_map(|src| rust_files(src)).collect();
    let n_crate_files = files.len();
    files.extend(rust_files(&root.join("examples")));
    files.extend(rust_files(&root.join("benchmark/src")));

    // (display path, qualified name, bare name) per definition; the
    // corpus is every caller line of every file.
    let mut defs: Vec<(String, String, &str)> = Vec::new();
    let mut corpus: Vec<&str> = Vec::new();
    for (i, (path, text, test_only)) in files.iter().enumerate() {
        if *test_only {
            continue;
        }
        let product = product_lines(text);
        corpus.extend(caller_lines(&product));
        if i >= n_crate_files {
            continue;
        }
        let shown = path.strip_prefix(&root).unwrap_or(path).display();
        let mut owner: Option<&str> = None;
        for raw in product {
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
    let words = count_words(&corpus);
    let mut defined: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, _, name) in &defs {
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
    for (file, qualified, name) in &defs {
        if words[name] > defined[name] {
            continue;
        }
        if excused.contains(qualified.as_str()) {
            used_excuses.insert(qualified.as_str());
        } else {
            offenders.push(format!("{file}: {qualified}"));
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
