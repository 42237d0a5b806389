//! Nothing public without a caller. Every `pub fn | const | struct |
//! enum | trait | type NAME` in the non-test part of `crates/*/src`
//! must be called somewhere in non-test source other than its own
//! definition — `crates/*/src` outside unit-test code (by the rule of
//! `afs_bench::source`, the size ledger's), `examples/`, `benchmark/src`
//! — or appear in [`TEST_SUPPORT`] with the test that needs it. What
//! counts as a call depends on the item:
//!
//! * a method (a `fn` of an `impl` block whose first parameter is
//!   `self`, in any form): `.name(` or `::name`;
//! * any other item of an `impl` block: `Type::name` or `Self::name`;
//! * a free item: its name as a whole word, more often than it is
//!   defined.
//!
//! Comments, `use` and `mod` declarations and the type an `impl` block
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
        "Cache::total_occupancy",
        "crates/cache/tests/proptests.rs: occupancy never exceeds the geometry, a flush empties it",
    ),
    (
        "TraceBuffer",
        "the reference-capturing sink of afs-xkernel's mem.rs and msg.rs unit tests",
    ),
    (
        "ExecParams::cold_service_us",
        "crates/core/tests/proptests.rs: the upper service-time bound of every run",
    ),
    (
        "STEAL_RATE_MAX",
        "tests/obs_differential.rs::backends_agree_on_trace_derived_rates",
    ),
    (
        "STREAM_MIGRATION_RATE_TOL",
        "tests/obs_differential.rs::backends_agree_on_trace_derived_rates",
    ),
    (
        "THREAD_MIGRATION_RATE_TOL",
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
/// `use` declarations (to their closing `;`) or `mod` lines, and of an
/// `impl` header only the trait it names — implementing a trait uses
/// the trait, not the type.
fn caller_lines<'a>(product: &[&'a str]) -> Vec<&'a str> {
    let mut in_use = false;
    product
        .iter()
        .filter_map(|raw| {
            let line = raw.trim();
            let item = line.strip_prefix("pub ").unwrap_or(line);
            in_use |= item.starts_with("use ");
            let skip = in_use || line.starts_with("//") || item.starts_with("mod ");
            in_use &= !line.ends_with(';');
            match line.strip_prefix("impl") {
                _ if skip => None,
                Some(header) => header.rsplit_once(" for ").map(|(the_trait, _)| the_trait),
                None => Some(*raw),
            }
        })
        .collect()
}

/// The kind and name a `pub` item line defines, if it is one of the
/// six kinds.
fn defined_item(line: &str) -> Option<(&str, &str)> {
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
    (end > 0).then(|| (kind, &rest[..end]))
}

/// Whether the `fn` whose signature starts `signature` takes `self`:
/// its first parameter, past any generics, is `self`, `&self`,
/// `&'a mut self`, `self: Rc<Self>`, ….
fn takes_self(signature: &str) -> bool {
    let mut depth = 0;
    let Some(open) = signature.find(|c| {
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            _ => {}
        }
        c == '(' && depth == 0
    }) else {
        return false;
    };
    let params = &signature[open + 1..];
    let first = params[..params.find([',', ')']).unwrap_or(params.len())].trim();
    let first = first.trim_start_matches('&');
    let first = match first.strip_prefix('\'') {
        Some(lifetime) => lifetime.trim_start_matches(is_ident).trim_start(),
        None => first,
    };
    let first = first.strip_prefix("mut ").unwrap_or(first);
    first == "self" || first.starts_with("self:")
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

/// A `pub` item of the product code.
struct Def<'a> {
    /// Its file, as the failure prints it.
    file: String,
    /// The type of the `impl` block it is in, if any.
    owner: Option<&'a str>,
    name: &'a str,
    /// A `fn` that takes `self`.
    method: bool,
}

impl Def<'_> {
    /// The name as the failure prints it.
    fn qualified(&self) -> String {
        match self.owner {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Every `pub` item in the product part of `files`.
fn definitions<'a>(root: &Path, files: &'a [SourceFile]) -> Vec<Def<'a>> {
    let mut defs = Vec::new();
    for (path, text, test_only) in files {
        if *test_only {
            continue;
        }
        let shown = path.strip_prefix(root).unwrap_or(path).display();
        let lines = product_lines(text);
        let mut owner: Option<&str> = None;
        for (i, raw) in lines.iter().enumerate() {
            if raw.starts_with("impl") {
                // A one-line `impl … {}` opens no block.
                owner = impl_target(raw).filter(|_| !raw.ends_with("{}"));
            } else if raw.starts_with('}') {
                owner = None;
            }
            let Some((kind, name)) = defined_item(raw.trim_start()) else {
                continue;
            };
            let owner = owner.filter(|_| raw.starts_with(' '));
            // A signature can wrap; its first parameter is on one of
            // the next few lines.
            let signature = lines[i..lines.len().min(i + 4)].join(" ");
            let after_name = signature
                .split_once(&format!("fn {name}"))
                .map_or("", |(_, rest)| rest);
            defs.push(Def {
                file: shown.to_string(),
                owner,
                name,
                method: owner.is_some() && kind == "fn" && takes_self(after_name),
            });
        }
    }
    defs
}

/// How caller text names things.
#[derive(Default)]
struct Calls<'a> {
    /// Whole-word counts.
    words: BTreeMap<&'a str, usize>,
    /// Names called as a method (`.name(`) or reached by a path (`::name`).
    dotted: BTreeSet<&'a str>,
    /// `(A, name)` of every `A::name`.
    paths: BTreeSet<(&'a str, &'a str)>,
}

fn calls<'a>(corpus: &[&'a str]) -> Calls<'a> {
    let mut calls = Calls::default();
    for line in corpus {
        let mut start = 0;
        for word in line.split(|c| !is_ident(c)) {
            let (before, after) = (&line[..start], &line[start + word.len()..]);
            start += word.len() + after.chars().next().map_or(0, char::len_utf8);
            if word.is_empty() {
                continue;
            }
            *calls.words.entry(word).or_insert(0) += 1;
            if let Some(head) = before.strip_suffix("::") {
                calls.dotted.insert(word);
                let prefix = head.rsplit(|c| !is_ident(c)).next().unwrap_or("");
                if !prefix.is_empty() {
                    calls.paths.insert((prefix, word));
                }
            } else if before.ends_with('.') && (after.starts_with('(') || after.starts_with("::<"))
            {
                calls.dotted.insert(word);
            }
        }
    }
    calls
}

/// How many items of `defs` share each bare name.
fn defined_counts<'d, 'a: 'd>(
    defs: impl IntoIterator<Item = &'d Def<'a>>,
) -> BTreeMap<&'a str, usize> {
    let mut defined = BTreeMap::new();
    for def in defs {
        *defined.entry(def.name).or_insert(0) += 1;
    }
    defined
}

/// Whether `calls` calls `def`; `defined` counts the definitions of
/// each bare name, which the whole-word count includes.
fn is_called(def: &Def, calls: &Calls, defined: &BTreeMap<&str, usize>) -> bool {
    match def.owner {
        _ if def.method => calls.dotted.contains(def.name),
        Some(ty) => [ty, "Self"]
            .iter()
            .any(|&prefix| calls.paths.contains(&(prefix, def.name))),
        None => calls.words.get(def.name).copied().unwrap_or(0) > defined[def.name],
    }
}

/// The items of `defs` that `calls` never calls.
fn uncalled<'d, 'a>(
    defs: &'d [Def<'a>],
    calls: &Calls<'_>,
    defined: &BTreeMap<&str, usize>,
) -> Vec<&'d Def<'a>> {
    defs.iter()
        .filter(|def| !is_called(def, calls, defined))
        .collect()
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
    let defined = defined_counts(crate_defs.iter().chain(&vendor_defs));

    assert!(
        TEST_SUPPORT.len() <= TEST_SUPPORT_MAX,
        "TEST_SUPPORT has {} entries, the cap is {TEST_SUPPORT_MAX}",
        TEST_SUPPORT.len()
    );
    let excused: BTreeSet<&str> = TEST_SUPPORT.iter().map(|&(name, _)| name).collect();
    let mut offenders = Vec::new();
    let mut used_excuses = BTreeSet::new();
    for (defs, corpus) in [(&crate_defs, &corpus), (&vendor_defs, &vendor_corpus)] {
        for def in uncalled(defs, &calls(corpus), &defined) {
            let qualified = def.qualified();
            match excused.get(qualified.as_str()) {
                Some(&name) => {
                    used_excuses.insert(name);
                }
                None => offenders.push(format!("{}: {qualified}", def.file)),
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

/// Two dead items the whole-word rule let through, because other
/// product code supplies their words: an associated fn whose name
/// another type's associated fn shares, and a method whose name a local
/// and a field share.
#[test]
fn a_shared_name_does_not_call_an_item() {
    let product = "\
pub mod plan;
impl FaultPlan {
    pub fn uniform(p: f64) -> Self {
        FaultPlan { p }
    }
}
impl ComponentAges {
    pub fn uniform(age: Age) -> Self {
        Self { age }
    }
    pub fn age(
        &self,
    ) -> Age {
        self.age
    }
}
impl FaultInjector {
    pub fn plan(&'a mut self) -> &FaultPlan {
        &self.plan
    }
}
pub fn run() -> Age {
    let plan = frontend_plan();
    ComponentAges::uniform(plan.age).age()
}
";
    let files = vec![(PathBuf::from("lib.rs"), product.to_string(), false)];
    let defs = definitions(Path::new(""), &files);
    let methods: Vec<String> = defs
        .iter()
        .filter(|d| d.method)
        .map(Def::qualified)
        .collect();
    assert_eq!(methods, ["ComponentAges::age", "FaultInjector::plan"]);
    let corpus = product_callers(&files);
    let defined = defined_counts(&defs);
    let dead: Vec<String> = uncalled(&defs, &calls(&corpus), &defined)
        .into_iter()
        .map(Def::qualified)
        .collect();
    assert_eq!(dead, ["FaultPlan::uniform", "FaultInjector::plan", "run"]);
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
