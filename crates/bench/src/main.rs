//! `afs-bench` — the one experiment runner.
//!
//! ```text
//! afs-bench list                      # every experiment id and its title
//! afs-bench run <id>... [--smoke]     # run the named experiments, in the order given
//! afs-bench run all [--smoke]         # run the whole registry
//! ```
//!
//! `--smoke` (or `AFS_QUICK=1`) is the one switch,
//! [`afs_bench::quick_mode`]. Each experiment prints its banner, its
//! paper-style rows and its PASS/FAIL shape checks, and rewrites the
//! `results/` files its registry entry owns; the run ends with one
//! verdict line per experiment. Exit status: 0 every check passed, 1 a
//! shape check failed, 2 usage error (a panic stays 101).

use std::process::ExitCode;

use afs_bench::experiments::{Experiment, REGISTRY};
use afs_bench::{quick_mode, Checks};

fn main() -> ExitCode {
    let quick = quick_mode();
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--smoke")
        .collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let selected: Vec<&Experiment> = match args.as_slice() {
        ["list"] => {
            for e in REGISTRY {
                println!("{:<22} {}", e.id, e.title);
            }
            return ExitCode::SUCCESS;
        }
        ["run", "all"] => REGISTRY.iter().collect(),
        ["run", ids @ ..] if !ids.is_empty() => {
            let find = |&id| REGISTRY.iter().find(|e| e.id == id).ok_or(id);
            match ids.iter().map(find).collect() {
                Ok(selected) => selected,
                Err(unknown) => {
                    let valid: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
                    eprintln!(
                        "afs-bench: unknown experiment `{unknown}`; valid ids: all {}",
                        valid.join(" ")
                    );
                    return ExitCode::from(2);
                }
            }
        }
        _ => {
            eprintln!("usage: afs-bench list | afs-bench run <id>...|all [--smoke]");
            return ExitCode::from(2);
        }
    };

    let mut verdicts = Vec::new();
    for e in selected {
        println!("================================================================");
        println!("{}: {}", e.id, e.title);
        println!("  paper: {}", e.paper);
        println!("================================================================");
        let mut checks = Checks::new();
        (e.run)(quick, &mut checks);
        verdicts.push((e.id, checks));
    }
    println!("verdict:");
    for (id, checks) in &verdicts {
        println!(
            "  {id:<22} {} {}/{} shape checks",
            if checks.failures() == 0 {
                "PASS"
            } else {
                "FAIL"
            },
            checks.total() - checks.failures(),
            checks.total()
        );
    }
    if verdicts.iter().all(|(_, checks)| checks.failures() == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
