//! Command line of the repo benchmark.
//!
//! ```text
//! afs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON result line
//! afs-benchmark run [--seed <n>] [--quick] [--out <path>]                  all five workloads + traced passes
//! afs-benchmark spec                                                     print BENCHMARK.json
//! ```
//!
//! `child`, `setup-child` and `trace-child` are the modes the parent
//! spawns itself in.

use std::path::PathBuf;
use std::process::exit;

use afs_benchmark::driver;
use afs_benchmark::metrics::{benchmark_json, RUN_SECONDS};
use afs_benchmark::workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  afs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  afs-benchmark run [--seed <n>] [--quick] [--out <path>]
  afs-benchmark spec
workloads: sim_mru_16 sim_zipf_fdir_100k serve_fdir_steady serve_ips_overload_4k replay_locking_recorded";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    exit(2);
}

/// Flags after the optional mode word: `--key value` pairs plus the
/// bare `--quick` switch. Unknown flags are errors, not ignored.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Flags {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .unwrap_or_else(|| fail(&format!("unexpected argument `{a}`")));
            if !known.contains(&key) {
                fail(&format!("unknown flag `--{key}`"));
            }
            if key == "quick" {
                out.push((key.to_string(), "1".to_string()));
            } else {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail(&format!("`--{key}` needs a value")));
                out.push((key.to_string(), v.clone()));
            }
        }
        Flags(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> u64 {
        match self.get("seed") {
            None => DEFAULT_SEED,
            Some(s) => s
                .strip_prefix("0x")
                .map_or_else(|| s.parse(), |h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|_| fail(&format!("`--seed {s}` is not a whole number"))),
        }
    }

    fn number(&self, key: &str) -> Option<f64> {
        self.get(key).map(|s| {
            s.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .unwrap_or_else(|| fail(&format!("`--{key} {s}` is not a positive number")))
        })
    }

    fn workload(&self) -> Workload {
        let name = self
            .get("workload")
            .unwrap_or_else(|| fail("`--workload <name>` is required"));
        Workload::from_name(name).unwrap_or_else(|| fail(&format!("unknown workload `{name}`")))
    }
}

fn main() {
    let started = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("");
    let code = match mode {
        "run" => {
            let f = Flags::parse(&args[1..], &["seed", "quick", "out"]);
            driver::suite_main(
                f.seed(),
                f.get("quick").is_some(),
                f.get("out").map(PathBuf::from),
            )
        }
        "spec" => {
            Flags::parse(&args[1..], &[]);
            print!("{}", benchmark_json().render_pretty());
            0
        }
        "child" | "setup-child" | "trace-child" => {
            let f = Flags::parse(
                &args[1..],
                &["workload", "seed", "scale", "full", "slice-seconds"],
            );
            let scale = f.number("scale").unwrap_or(1.0);
            let line = match mode {
                "trace-child" => driver::trace_child_main(f.workload(), f.seed(), scale),
                "child" => {
                    // 0 is a legal budget: the minimum slice count.
                    let slice_seconds = f
                        .get("slice-seconds")
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|x| x.is_finite() && *x >= 0.0)
                        .unwrap_or_else(|| fail("`child` needs `--slice-seconds <s>`"));
                    let plan = driver::ChildPlan::Measure {
                        full: f.get("full") == Some("1"),
                        slice_seconds,
                    };
                    driver::child_main(f.workload(), f.seed(), scale, started, plan)
                }
                _ => driver::child_main(
                    f.workload(),
                    f.seed(),
                    scale,
                    started,
                    driver::ChildPlan::SetupOnly,
                ),
            };
            println!("{}", line.render());
            0
        }
        _ => {
            let f = Flags::parse(&args, &["workload", "seed", "seconds", "trace", "quick"]);
            let trace = match f.get("trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => fail(&format!("`--trace {other}`: expected 0 or 1")),
            };
            driver::contract_main(
                f.workload(),
                f.seed(),
                f.number("seconds").unwrap_or(RUN_SECONDS as f64),
                trace,
                f.get("quick").is_some(),
            )
        }
    };
    exit(code);
}
