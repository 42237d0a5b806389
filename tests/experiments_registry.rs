//! The experiment registry and `results/` describe each other: ids are
//! unique, every file a registry entry owns is committed, and every
//! committed file (the README aside) has exactly one owner — so an
//! artifact nothing regenerates, or one two experiments fight over,
//! fails here instead of going stale unnoticed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use afs_bench::experiments::REGISTRY;

#[test]
fn ids_are_unique() {
    let ids: BTreeSet<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), REGISTRY.len(), "duplicate experiment id");
}

#[test]
fn registry_and_results_dir_own_each_other() {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut owners: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in REGISTRY {
        for &file in e.files {
            assert!(
                results.join(file).is_file(),
                "{} owns results/{file}, which is not committed",
                e.id
            );
            owners.entry(file).or_default().push(e.id);
        }
    }
    for entry in std::fs::read_dir(&results).expect("list results/") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        if name == "README.md" {
            continue;
        }
        let owned_by = owners.get(&*name).map_or(&[][..], Vec::as_slice);
        assert_eq!(
            owned_by.len(),
            1,
            "results/{name} must have exactly one owner, has {owned_by:?}"
        );
    }
}
