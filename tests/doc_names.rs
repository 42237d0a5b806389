//! Nothing a document names is gone. Every backticked code name in
//! DESIGN.md, README.md, EXPERIMENTS.md and the `//!` docs of
//! `crates/*/src` must name something in the tree, in one of four
//! shapes:
//!
//! * `Type::item` or `module::item` (also `a::b::c`, a trailing call
//!   `(…)` or generics `<…>`, and a group `Type::{A, B(x)}`): every
//!   segment is a defined name, a module or a crate, and a segment after
//!   a type is one of that type's members — a method or associated
//!   item of an `impl` of it, a field, a variant, a trait method;
//! * `fn_name()` or `fn_name(args)`: a `fn` of that name exists;
//! * `path/to/file.ext`: a file at that path from the repository root,
//!   or at the end of some path in the tree (`sim/dispatch.rs`).
//!
//! Definitions are read line by line from every `.rs` file under
//! `crates/`, `src/`, `tests/`, `examples/`, `benchmark/src` and
//! `vendor/`, test code included (documents cite tests). Paths rooted
//! in the standard library or a primitive type ([`STD_ROOTS`]) and
//! spans with a glob, a placeholder or prose in them are not names and
//! are skipped; a name of something gone that a document cites on
//! purpose goes in [`ALLOWED`] with its reason.
//!
//! Every `DESIGN.md §N` or `DESIGN §N` outside CHANGES.md and
//! `benchmark/`, and every `§N` inside DESIGN.md, must name a
//! `## N.` heading of DESIGN.md, and those headings run 1…N with no gap.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use afs_bench::source::rust_files;

/// Cited names that name nothing in the tree on purpose:
/// `(span as the document writes it, why it stays)`. Capped at
/// [`ALLOWED_MAX`].
const ALLOWED: &[(&str, &str)] = &[];

const ALLOWED_MAX: usize = 10;

/// First segments of paths that are not this workspace's: the standard
/// library, primitive types and std types, space-separated.
const STD_ROOTS: &str = "std alloc u8 u16 u32 u64 u128 usize i8 i16 i32 i64 i128 isize f32 f64 \
    bool char str Vec VecDeque BinaryHeap BTreeMap BTreeSet HashMap HashSet Option Result Box \
    String Mutex Arc Ordering Reverse Instant Duration Cow";

/// Words that are maths in the documents, not calls: `max(a, b)`.
const MATH: &[&str] = &[
    "max", "min", "ceil", "argmin", "np", "u", "exp", "ln", "log",
];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn ident_prefix(s: &str) -> &str {
    &s[..s.find(|c| !is_ident(c)).unwrap_or(s.len())]
}

const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// What an item line defines: `(keyword, name)`, after visibility and
/// qualifiers (`pub(crate) const unsafe fn x` is `("fn", "x")`).
fn item_def(line: &str) -> Option<(&str, &str)> {
    let mut words = line.split_whitespace().peekable();
    while let Some(word) = words.next() {
        if word.starts_with("pub") || matches!(word, "unsafe" | "async" | "default" | "extern") {
            continue;
        }
        if word.starts_with('"') {
            continue;
        }
        if word == "const" && words.peek().is_some_and(|w| matches!(*w, "fn" | "unsafe")) {
            continue;
        }
        if word == "macro_rules!" {
            return Some(("macro", ident_prefix(words.next()?)));
        }
        if !ITEM_KEYWORDS.contains(&word) {
            return None;
        }
        let name = ident_prefix(words.next()?);
        return (!name.is_empty()).then_some((word, name));
    }
    None
}

/// The type an `impl` header is for.
fn impl_target(line: &str) -> Option<&str> {
    let head = line.strip_prefix("impl")?;
    let head = head.rsplit(" for ").next()?;
    let head = match head.strip_prefix('<') {
        Some(rest) => rest.split_once("> ")?.1,
        None => head,
    };
    let name = ident_prefix(head.trim_start());
    (!name.is_empty()).then_some(name)
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// Every name the Rust source of the tree defines.
#[derive(Default)]
struct Defs {
    /// Items, fields, variants, modules and crates.
    names: BTreeSet<String>,
    /// Every `fn`, free or a member.
    fns: BTreeSet<String>,
    /// What a module or a crate holds: the names its files define or
    /// re-export, and its child modules. Keyed by module name (a file
    /// stem, a directory, a `mod`) and by crate (`core`, `afs_core`).
    scopes: BTreeMap<String, BTreeSet<String>>,
    /// A type's or trait's members.
    members: BTreeMap<String, BTreeSet<String>>,
}

impl Defs {
    /// Read the source at `rel` (from the root) into the scopes of its
    /// module and of `krate`.
    fn read(&mut self, rel: &Path, krate: Option<&str>, text: &str) {
        let stem = rel.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
        let parent = rel
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|p| p.to_str());
        let grandparent = rel
            .parent()
            .and_then(|p| p.parent())
            .and_then(|p| p.file_name());
        let (module, outer) = match stem {
            "mod" => (parent, grandparent.and_then(|p| p.to_str())),
            "lib" | "main" => (krate, None),
            _ => (Some(stem), parent),
        };
        let outer = if outer == Some("src") { krate } else { outer };
        let mut scope = BTreeSet::new();
        if !matches!(stem, "mod" | "lib" | "main") {
            scope.insert(stem.to_string());
        }
        // The innermost open block that has members: (its indent, owner, kind).
        let mut open: Vec<(usize, String, &str)> = Vec::new();
        let mut in_use = false;
        for raw in text.lines() {
            let line = raw.trim_start();
            let depth = indent(raw);
            if in_use || line.starts_with("pub use ") || line.starts_with("pub(crate) use ") {
                let words = line.split(|c| !is_ident(c)).filter(|w| !w.is_empty());
                scope.extend(words.map(String::from));
                in_use = !line.trim_end().ends_with(';');
                continue;
            }
            if line.starts_with('}') {
                open.retain(|&(d, _, _)| d < depth);
                continue;
            }
            if line.starts_with("//") || line.starts_with('#') || line.is_empty() {
                continue;
            }
            let owner = open.last().filter(|&&(d, _, _)| depth > d).cloned();
            if let Some((_, ty, kind)) = &owner {
                let member = match *kind {
                    "struct" => line
                        .trim_start_matches("pub(crate) ")
                        .trim_start_matches("pub ")
                        .split_once(':')
                        .map(|(f, _)| f.trim())
                        .filter(|f| f.chars().all(is_ident)),
                    "enum" => Some(ident_prefix(line))
                        .filter(|v| v.starts_with(|c: char| c.is_uppercase())),
                    _ => None,
                };
                if let Some(m) = member.filter(|m| !m.is_empty()) {
                    self.names.insert(m.to_string());
                    self.members
                        .entry(ty.clone())
                        .or_default()
                        .insert(m.to_string());
                }
            }
            if let Some(target) = line.strip_prefix("impl").and(impl_target(line)) {
                if line.trim_end().ends_with('{') {
                    open.push((depth, target.to_string(), "impl"));
                }
                continue;
            }
            let Some((kind, name)) = item_def(line) else {
                continue;
            };
            self.names.insert(name.to_string());
            scope.insert(name.to_string());
            if kind == "fn" {
                self.fns.insert(name.to_string());
            }
            if let Some((_, ty, "impl" | "trait")) = &owner {
                self.members
                    .entry(ty.clone())
                    .or_default()
                    .insert(name.to_string());
            }
            let opens = line.trim_end().ends_with('{');
            if opens && matches!(kind, "struct" | "enum" | "trait") {
                self.members.entry(name.to_string()).or_default();
                open.push((depth, name.to_string(), kind));
            } else if opens && kind != "fn" && kind != "mod" {
                // A `const X: T = T {` literal: its fields are not members.
                open.push((depth, String::new(), "literal"));
            }
        }
        let mut add = |key: Option<&str>, names: &BTreeSet<String>| {
            if let Some(key) = key {
                self.scopes
                    .entry(key.to_string())
                    .or_default()
                    .extend(names.iter().cloned());
            }
        };
        add(module, &scope);
        add(krate, &scope);
        // A file is a child of the module its directory is (or its crate).
        let child = BTreeSet::from([module.unwrap_or(stem).to_string()]);
        add(outer, &child);
    }

    fn is_known(&self, name: &str) -> bool {
        self.names.contains(name) || self.scopes.contains_key(name)
    }
}

/// Every file below `root` as a path relative to it, build output and
/// version control left out.
fn tree_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.map(|e| e.expect("dir entry").path()) {
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .into_owned();
            if path.is_dir() {
                let skip = [".git", "target", ".bench_build"];
                if !skip
                    .iter()
                    .any(|s| path.file_name().is_some_and(|n| n == *s))
                {
                    dirs.push(path);
                }
            } else {
                out.push(rel);
            }
        }
    }
    out.sort();
    out
}

fn definitions(root: &Path, files: &[String]) -> Defs {
    // A crate is known by its directory and by its package name.
    let mut packages: Vec<(String, String)> = Vec::new();
    for manifest in files.iter().filter(|f| f.ends_with("Cargo.toml")) {
        let text = std::fs::read_to_string(root.join(manifest)).expect("read manifest");
        let name = text
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|l| l.strip_suffix('"'));
        let dir = Path::new(manifest).parent().and_then(|d| d.file_name());
        let dir = dir.map_or("affinity_sched".into(), |d| {
            d.to_string_lossy().into_owned()
        });
        if let Some(name) = name {
            packages.push((dir, name.replace('-', "_")));
        }
    }
    let mut defs = Defs::default();
    for top in [
        "crates",
        "src",
        "tests",
        "examples",
        "benchmark/src",
        "vendor",
    ] {
        for (path, text, _) in rust_files(&root.join(top)) {
            let rel = path.strip_prefix(root).expect("under root");
            let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
            let krate = match parts[..] {
                ["crates" | "vendor", dir, ..] => Some(dir),
                ["benchmark", ..] => Some("benchmark"),
                ["src", ..] => Some("affinity_sched"),
                _ => None,
            };
            defs.read(rel, krate, &text);
        }
    }
    for (dir, name) in packages {
        let scope = defs.scopes.get(&dir).cloned().unwrap_or_default();
        defs.scopes.entry(name).or_default().extend(scope);
    }
    defs
}

/// The backticked spans of `text`, each with the line it starts on.
fn spans(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let mut parts = line.split('`');
        parts.next();
        while let (Some(span), Some(_)) = (parts.next(), parts.clone().next()) {
            out.push((n + 1, span.to_string()));
            parts.next();
        }
    }
    out
}

/// The names one `a::b::{c, d(x)}` path span cites, segment by segment.
fn path_names(span: &str) -> Vec<Vec<String>> {
    let span = span.trim_start_matches('&');
    let end = span
        .find(|c: char| !(is_ident(c) || c == ':' || c == '-'))
        .unwrap_or(span.len());
    let head = span[..end].trim_end_matches(':');
    let segments: Vec<String> = head.split("::").map(|s| s.replace('-', "_")).collect();
    let rest = &span[end..];
    match rest.strip_prefix('{').and_then(|r| r.split_once('}')) {
        Some((group, _)) if span[..end].ends_with("::") => group
            .split(',')
            .map(|item| ident_prefix(item.trim()).to_string())
            .filter(|item| !item.is_empty())
            .map(|item| segments.iter().cloned().chain([item]).collect())
            .collect(),
        _ => vec![segments],
    }
}

/// Why `span` names nothing, or `None` when it names something (or is
/// not a code name of a checked shape).
fn check(span: &str, defs: &Defs, files: &[String]) -> Option<String> {
    let prose = span.contains(['*', '…', '<', '>', '|']) || span.contains("...");
    if span.contains("::") {
        for mut segments in path_names(span) {
            if matches!(segments[0].as_str(), "crate" | "self" | "super") {
                segments.remove(0);
            }
            if STD_ROOTS.split_whitespace().any(|r| r == segments[0]) {
                continue;
            }
            for (i, seg) in segments.iter().enumerate() {
                if seg.is_empty() || !seg.chars().all(is_ident) {
                    return Some(format!("`{seg}` is not a name"));
                }
                if !defs.is_known(seg) {
                    return Some(format!("nothing is named `{seg}`"));
                }
                let Some(parent) = i.checked_sub(1).map(|p| segments[p].as_str()) else {
                    continue;
                };
                let holds = defs.scopes.get(parent).or_else(|| defs.members.get(parent));
                if holds.is_some_and(|names| !names.contains(seg)) {
                    return Some(format!("`{parent}` holds no `{seg}`"));
                }
            }
        }
        return None;
    }
    let ascii = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let name = &span[..span.find(|c| !ascii(c)).unwrap_or(span.len())];
    let call = span[name.len()..].starts_with('(') && span.ends_with(')');
    if call && !name.is_empty() && name.starts_with(|c: char| c.is_lowercase()) {
        return (!MATH.contains(&name) && !defs.fns.contains(name))
            .then(|| format!("no fn is named `{name}`"));
    }
    let file = span.rsplit_once('.').filter(|(_, ext)| {
        !ext.is_empty() && ext.len() <= 5 && ext.chars().all(|c| c.is_ascii_alphanumeric())
    });
    if span.contains('/') && file.is_some() && !prose && !span.contains(char::is_whitespace) {
        let span = span.trim_start_matches("./");
        let suffix = format!("/{span}");
        let found = files.iter().any(|f| f == span || f.ends_with(&suffix));
        return (!found).then(|| "no such file".to_string());
    }
    None
}

/// The `//!` lines of every source file under `crates/*/src`, as one
/// text per file.
fn crate_docs(root: &Path) -> Vec<(String, String)> {
    rust_files(&root.join("crates"))
        .into_iter()
        .filter(|(path, _, _)| path.components().any(|c| c.as_os_str() == "src"))
        .map(|(path, text, _)| {
            let docs: Vec<&str> = text
                .lines()
                .map(|l| l.trim_start().strip_prefix("//!").unwrap_or(""))
                .collect();
            let shown = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            (shown, docs.join("\n"))
        })
        .collect()
}

#[test]
fn every_cited_code_name_names_something_in_the_tree() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let files = tree_files(&root);
    let defs = definitions(&root, &files);
    assert!(
        ALLOWED.len() <= ALLOWED_MAX,
        "ALLOWED has {} entries, the cap is {ALLOWED_MAX}",
        ALLOWED.len()
    );
    let mut docs: Vec<(String, String)> = ["DESIGN.md", "README.md", "EXPERIMENTS.md"]
        .iter()
        .map(|d| {
            let text = std::fs::read_to_string(root.join(d)).expect("read document");
            (d.to_string(), text)
        })
        .collect();
    docs.extend(crate_docs(&root));
    let mut used = BTreeSet::new();
    let mut dead = Vec::new();
    for (doc, text) in &docs {
        for (line, span) in spans(text) {
            let Some(why) = check(&span, &defs, &files) else {
                continue;
            };
            match ALLOWED.iter().find(|(a, _)| *a == span) {
                Some((a, _)) => {
                    used.insert(*a);
                }
                None => dead.push(format!("{doc}:{line}: `{span}`: {why}")),
            }
        }
    }
    let stale: Vec<&str> = ALLOWED
        .iter()
        .map(|(a, _)| *a)
        .filter(|a| !used.contains(a))
        .collect();
    assert!(
        stale.is_empty(),
        "ALLOWED entries no document needs (cited name gone, or it names something now): {stale:?}"
    );
    assert!(
        dead.is_empty(),
        "{} cited name(s) that name nothing in the tree — fix the document, or list the \
         span in ALLOWED with the reason it stays:\n{}",
        dead.len(),
        dead.join("\n")
    );
}

/// The numbers of DESIGN.md's `## N.` headings, in order.
fn design_sections(design: &str) -> Vec<u32> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split_once('.'))
        .filter_map(|(n, _)| n.parse().ok())
        .collect()
}

/// Every `§N` that `text` cites of DESIGN: after a `DESIGN` or
/// `DESIGN.md` word (any line break, comment marker or backtick
/// between), or anywhere when `text` is DESIGN.md itself.
fn design_refs(text: &str, is_design: bool) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    let mut after_design = false;
    for (n, line) in text.lines().enumerate() {
        for word in line.split_whitespace() {
            if matches!(word, "//!" | "///" | "//" | "#") {
                continue;
            }
            if let Some(num) = word.strip_prefix('§') {
                let digits = &num[..num.find(|c: char| !c.is_ascii_digit()).unwrap_or(num.len())];
                if let (true, Ok(k)) = (after_design || is_design, digits.parse()) {
                    out.push((n + 1, k));
                }
            }
            let bare = word.trim_matches(|c: char| !c.is_alphanumeric() && c != '.');
            after_design = matches!(bare.trim_end_matches('.'), "DESIGN" | "DESIGN.md");
        }
    }
    out
}

#[test]
fn every_design_section_reference_names_a_heading() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let sections = design_sections(&design);
    let expected: Vec<u32> = (1..=sections.len() as u32).collect();
    assert_eq!(
        sections, expected,
        "DESIGN.md's sections must run 1…N with no gap"
    );
    let mut bad = Vec::new();
    for file in tree_files(&root) {
        let text_like = [".md", ".rs", ".sh", ".toml", ".yml"];
        if file == "CHANGES.md"
            || file.starts_with("benchmark/")
            || !text_like.iter().any(|x| file.ends_with(x))
        {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(root.join(&file)) else {
            continue;
        };
        for (line, k) in design_refs(&text, file == "DESIGN.md") {
            if !sections.contains(&k) {
                bad.push(format!("{file}:{line}: DESIGN §{k}"));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "{} reference(s) to a DESIGN.md section that does not exist:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
