//! The run protocol: one child process at a time, several per workload;
//! inside one the full horizon at most once and then the same short
//! prefix again and again (*slices*), each a fresh call of the public
//! entry point with the calibration kernel timed beside it; the
//! second-fastest slice per reference second as the host-time rate; the
//! noise guard over every slice; and the correctness gate over every run
//! made.
//!
//! Two front ends share it. The *contract* mode measures one workload
//! for a time budget and prints one JSON result line (what
//! `BENCHMARK.json`'s `command` runs). The *suite* mode runs all five
//! workloads round-robin — so a slow host episode hits every workload
//! alike — to the same time budget per workload, then one traced pass
//! each, and writes a results file. Both spread a workload's slices over
//! [`CHILDREN`] processes.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::ledger;
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::Summary;
use crate::workloads::{build, Outcome, Workload};

/// A traced pass across which the calibration reading moved by more than
/// this share is run again. The issue proposed 0.15; on the sizing host
/// single-thread speed flips by ±25 % every second or so, which trips a
/// 0.15 guard on ≈40 % of all runs (results/steadiness.md). At 0.5 the
/// drift check catches drastic throttling only; the steal check does the
/// work.
pub const NOISE_DRIFT: f64 = 0.5;

/// A slice (or traced pass) during which the hypervisor stole more than
/// this share of the guest's CPU time is set aside.
pub const NOISE_STEAL: f64 = 0.02;

/// Fewest slices a child times, whatever its time budget.
pub const MIN_SLICES: usize = 3;

/// Measuring children per workload, each with an equal share of the
/// slice budget. A process keeps the pages it was given, and on the
/// sizing host that sets its pace for as long as it lives — whole
/// children of a memory-bound workload run a third slower than their
/// neighbours, every slice alike (results/steadiness.md; it may be the
/// half-minute rather than the process) — so one child is one draw, and
/// the slices are pooled over several. The suite takes the workloads in
/// turn, child by child, so a slow host episode hits them alike.
pub const CHILDREN: usize = 5;

/// How many of them also run the full horizon (first): one gives the
/// virtual report and `peak_rss_kb`; the suite makes it two, so that full
/// reports are gated across processes as well.
pub const FULL_CHILDREN_CONTRACT: usize = 1;
/// See [`FULL_CHILDREN_CONTRACT`].
pub const FULL_CHILDREN_SUITE: usize = 2;

/// `setup_s` samples behind one reported value: the measuring
/// children's plus as many set-up-only children as it takes to reach
/// this count.
pub const SETUP_SAMPLES: usize = 15;

/// Where traces and suite results go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// The correctness gate over repeated runs of one input: every run's
/// virtual report must equal the first's, field by field, and carry no
/// ledger problem of its own.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    first: Option<Outcome>,
    /// Runs taken.
    pub runs: usize,
    /// Packets offered across them.
    pub attempted: u64,
    /// Operations failed across them; a run that differs from the first
    /// fails all its packets.
    pub failed: u64,
    /// What was found wrong (empty = clean).
    pub problems: Vec<String>,
}

impl Gate {
    /// Take one more run of `what` and gate it against the first.
    pub fn take(&mut self, what: &str, o: Outcome) {
        self.runs += 1;
        self.attempted += o.offered;
        for p in &o.problems {
            self.problems.push(format!("{what}: {p}"));
        }
        let Some(first) = &self.first else {
            self.failed += o.failed;
            self.first = Some(o);
            return;
        };
        match first.first_difference(&o) {
            Some(diff) => {
                self.failed += o.offered;
                self.problems
                    .push(format!("{what}: run {} differs from run 1 in {diff}", self.runs));
            }
            None => self.failed += o.failed,
        }
    }

    /// The first run taken.
    pub fn first(&self) -> Option<&Outcome> {
        self.first.as_ref()
    }
}

/// What a child does besides setting the workload up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChildPlan {
    /// Nothing: one `setup_s` sample.
    SetupOnly,
    /// Slices for this many seconds, after the full horizon once when
    /// `full` is set.
    Measure {
        /// Whether the child runs the full horizon.
        full: bool,
        /// Time budget of the slices, s.
        slice_seconds: f64,
    },
}

/// One child, run inside the child process: set-up, the entry point on
/// a one-packet horizon (`setup_s` ends here), one slice as warm-up, the
/// full horizon once if the plan asks for it (the virtual report,
/// `peak_rss_kb`), then slices — the first [`Workload::slice_frac`] of the horizon
/// from a fresh start, timed one by one — until the plan's seconds have
/// passed. `started` is the instant `main` was entered. Returns the JSON
/// line the child prints.
pub fn child_main(
    workload: Workload,
    seed: u64,
    scale: f64,
    started: Instant,
    plan: ChildPlan,
) -> Json {
    // Counted before binding: the mask shrinks what the OS reports.
    let nproc = host::nproc();
    let workers = host::native_workers(nproc);
    host::pin_current(nproc - 1);
    let input = build(workload, seed, workers, scale);
    std::hint::black_box(input.one_packet().execute());
    // Process entry → here is `setup_s`, paid once per process and so
    // sampled once per child: config (with the execution model's
    // one-time calibration), population / Zipf CDF, input
    // materialisation, and the run's fixed cost (session binding, pool
    // minting, model folds) as the one-packet horizon shows it.
    let setup_s = started.elapsed().as_secs_f64();
    let ChildPlan::Measure {
        full,
        slice_seconds,
    } = plan
    else {
        return Json::obj([("setup_s", Json::Num(setup_s))]);
    };
    let slice = input.fraction(workload.slice_frac());
    std::hint::black_box(slice.clone().execute());
    let full_run = full.then(|| {
        let t = Instant::now();
        let outcome = input.execute();
        let wall_s = t.elapsed().as_secs_f64();
        Json::obj([
            ("wall_s", Json::Num(wall_s)),
            ("peak_rss_kb", Json::Num(host::peak_rss_kb() as f64)),
            ("outcome", outcome_json(&outcome)),
        ])
    });

    let mut gate = Gate::default();
    let mut timings = Vec::new();
    let slicing = Instant::now();
    // The calibration kernel is timed between slices on the processors
    // that do the work — this thread for the simulator, the workers'
    // for the native pipeline — so every slice has a reading from just
    // before it and one from just after. It is rated by the faster of
    // the two: if the host changed speed in between, the slice is
    // under-credited, never over-credited.
    let cores: Vec<usize> = if workload.is_sim() {
        Vec::new()
    } else {
        (0..workers).collect()
    };
    let calibrate = || host::calibrate_on(&cores, host::SLICE_CALIB_ITERS);
    let mut calib_before = calibrate();
    // Never start a slice that would end past the budget.
    let mut last_wall_s = 0.0;
    while timings.len() < MIN_SLICES
        || slicing.elapsed().as_secs_f64() + last_wall_s < slice_seconds
    {
        let run = slice.clone();
        let (steal0, t) = (host::steal_seconds(), Instant::now());
        let o = run.execute();
        let wall_s = t.elapsed().as_secs_f64();
        let steal_share =
            (host::steal_seconds() - steal0) / (wall_s * nproc as f64).max(1e-9);
        let calib_after = calibrate();
        timings.push(Json::Arr(
            [wall_s, steal_share, calib_before.min(calib_after)]
                .map(Json::Num)
                .to_vec(),
        ));
        calib_before = calib_after;
        last_wall_s = wall_s;
        gate.take("slice", o);
    }
    Json::obj([
        ("setup_s", Json::Num(setup_s)),
        ("full", full_run.unwrap_or(Json::Null)),
        (
            "slice_outcome",
            gate.first().map_or(Json::Null, outcome_json),
        ),
        ("slices", Json::Arr(timings)),
        ("slices_attempted", Json::Num(gate.attempted as f64)),
        ("slices_failed", Json::Num(gate.failed as f64)),
        (
            "problems",
            Json::Arr(gate.problems.iter().map(Json::str).collect()),
        ),
    ])
}

/// The traced pass, run inside the child process. Writes the Chrome
/// trace under `out/` and prints one JSON line.
pub fn trace_child_main(workload: Workload, seed: u64, scale: f64) -> Json {
    let nproc = host::nproc();
    let workers = host::native_workers(nproc);
    if !workload.is_sim() {
        // The dispatcher's processor (see `NATIVE_PINNING`). Not for the
        // simulator: its `core.par_speedup` jobs would inherit the mask.
        host::pin_current(nproc - 1);
    }
    let mut ledger = ledger::traced_pass(workload, seed, workers, scale);
    if let Some(spans) = ledger.spans.take() {
        let dir = out_dir();
        let path = dir.join(format!("{}.trace.json", workload.name()));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, spans.chrome_trace().render()))
        {
            ledger
                .problems
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    Json::obj([
        ("attempted", Json::Num(ledger.attempted as f64)),
        ("failed", Json::Num(ledger.failed as f64)),
        (
            "values",
            Json::obj(ledger.values.iter().map(|(k, v)| (*k, Json::num(*v)))),
        ),
        (
            "unmeasured",
            Json::obj(
                ledger
                    .unmeasured
                    .iter()
                    .map(|(k, why)| (*k, Json::str(why))),
            ),
        ),
        (
            "problems",
            Json::Arr(ledger.problems.iter().map(Json::str).collect()),
        ),
    ])
}

fn outcome_json(o: &Outcome) -> Json {
    Json::obj([
        ("offered", Json::Num(o.offered as f64)),
        ("delivered", Json::Num(o.delivered as f64)),
        ("dropped", Json::Num(o.dropped as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("mean_delay_us", Json::Num(o.mean_delay_us)),
        ("goodput_pps", Json::Num(o.goodput_pps)),
        (
            "fields",
            Json::Arr(
                o.fields
                    .iter()
                    .map(|(k, bits)| Json::Arr(vec![Json::str(k), Json::str(format!("{bits:x}"))]))
                    .collect(),
            ),
        ),
        (
            "problems",
            Json::Arr(o.problems.iter().map(Json::str).collect()),
        ),
    ])
}

/// The `problems` string array of a child's JSON (empty when absent).
fn problems_of(j: &Json) -> Vec<String> {
    j.get("problems")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| p.as_str().map(str::to_string))
        .collect()
}

fn outcome_from_json(j: &Json) -> Result<Outcome, String> {
    let num = |k: &str| {
        j.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("child outcome lacks `{k}`"))
    };
    let fields = j
        .get("fields")
        .and_then(Json::as_arr)
        .ok_or("child outcome lacks `fields`")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().unwrap_or(&[]);
            let name = pair.first().and_then(Json::as_str);
            let bits = pair
                .get(1)
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            name.zip(bits)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "malformed field pair in child outcome".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let problems = problems_of(j);
    Ok(Outcome {
        offered: num("offered")? as u64,
        delivered: num("delivered")? as u64,
        dropped: num("dropped")? as u64,
        failed: num("failed")? as u64,
        mean_delay_us: num("mean_delay_us")?,
        goodput_pps: num("goodput_pps")?,
        fields,
        problems,
        ..Outcome::default()
    })
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// How the parent runs children.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Seed fed to every RNG of every workload.
    pub seed: u64,
    /// Horizon multiplier (1.0, or 0.1 under `--quick`).
    pub scale: f64,
    /// Calibration-kernel iterations.
    pub calib_iters: u64,
    /// Last calibration reading, reused as the next child's "before".
    last_calib_ns: Option<f64>,
}

/// What the parent observes around one traced pass: the host's speed
/// before and after it, and how much of the guest's CPU time went
/// elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct Bracket {
    /// Calibration reading before the child, ns.
    pub calib_before_ns: f64,
    /// Calibration reading after the child, ns.
    pub calib_after_ns: f64,
    /// Share of the guest's CPU time (all CPUs) stolen by the hypervisor
    /// while the child ran.
    pub steal_share: f64,
    /// Wall of the whole child, s.
    pub child_wall_s: f64,
}

impl Bracket {
    /// Calibration drift across the child, as a share.
    pub fn drift(&self) -> f64 {
        (self.calib_after_ns - self.calib_before_ns).abs() / self.calib_before_ns
    }

    /// Whether the host changed speed, or lent its CPUs elsewhere,
    /// while the child ran (the traced pass is run again then).
    pub fn noisy(&self) -> bool {
        self.drift() > NOISE_DRIFT || self.steal_share > NOISE_STEAL
    }
}

/// One timed slice as the child reported it.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall of the slice, s.
    pub wall_s: f64,
    /// Share of the guest's CPU time (all CPUs) stolen by the hypervisor
    /// while it ran.
    pub steal_share: f64,
    /// The calibration kernel on the processors that did the slice's
    /// work, ns per iteration: the faster of the readings just before
    /// and just after.
    pub calib_ns_per_iter: f64,
}

impl Slice {
    /// Whether the noise guard sets the slice aside.
    pub fn noisy(&self) -> bool {
        self.steal_share > NOISE_STEAL
    }
}

/// The full-horizon run of a measuring child.
#[derive(Debug, Clone)]
pub struct FullRun {
    /// Wall of the run, s.
    pub wall_s: f64,
    /// `VmHWM` of the child right after it, KiB.
    pub peak_rss_kb: f64,
    /// Its virtual report.
    pub outcome: Outcome,
}

impl FullRun {
    /// Offered packets per wall second over the full horizon (printed
    /// for reference; it averages whatever the host did meanwhile).
    pub fn rate(&self) -> f64 {
        self.outcome.offered as f64 / self.wall_s.max(1e-9)
    }
}

/// One measuring child.
#[derive(Debug, Clone)]
pub struct Repeat {
    /// Child entry to first timed packet (warm-up excluded), s.
    pub setup_s: f64,
    /// The full-horizon run, in the children that made one.
    pub full: Option<FullRun>,
    /// The first slice's virtual report (every other slice of the child
    /// equalled it, or `slice_problems` says which did not).
    pub slice_outcome: Outcome,
    /// The slices, in run order.
    pub slices: Vec<Slice>,
    /// Packets offered across the slices.
    pub slices_attempted: u64,
    /// Operations failed across the slices (the child's own gate: every
    /// slice bit-identical to the first, ledgers balanced).
    pub slices_failed: u64,
    /// What that gate found wrong.
    pub slice_problems: Vec<String>,
}

impl Repeat {
    /// Offered packets given a verdict per wall second of one slice.
    pub fn slice_rate(&self, s: &Slice) -> f64 {
        self.slice_outcome.offered as f64 / s.wall_s.max(1e-9)
    }

    /// The same per *reference* second
    /// ([`host::CALIB_REF_NS_PER_ITER`]): the slice's wall scaled by how
    /// fast the calibration kernel ran beside it.
    pub fn slice_ref_rate(&self, s: &Slice) -> f64 {
        self.slice_rate(s) * s.calib_ns_per_iter / host::CALIB_REF_NS_PER_ITER
    }
}

impl Runner {
    /// A runner; `quick` divides horizons by ten and shortens the
    /// calibration kernel so the smoke mode stays under ten seconds.
    pub fn new(seed: u64, quick: bool) -> Self {
        Runner {
            seed,
            scale: if quick { 0.1 } else { 1.0 },
            calib_iters: if quick {
                host::CALIB_ITERS / 10
            } else {
                host::CALIB_ITERS
            },
            last_calib_ns: None,
        }
    }

    fn calibrate(&mut self) -> f64 {
        let ns = host::calibrate(self.calib_iters);
        self.last_calib_ns = Some(ns);
        ns
    }

    /// Spawn this executable as a child in `mode` and parse the JSON
    /// line it prints last. The child is waited for before returning.
    fn spawn(&self, mode: &str, workload: Workload, extra: &[String]) -> Result<Json, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let out = Command::new(exe)
            .arg(mode)
            .args(["--workload", workload.name()])
            .args(["--seed", &self.seed.to_string()])
            .args(["--scale", &self.scale.to_string()])
            .args(extra)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning {mode} child: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "{mode} child for {} exited with {}",
                workload.name(),
                out.status
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{mode} child for {} printed nothing", workload.name()))?;
        Json::parse(line).map_err(|e| format!("{mode} child output: {e}"))
    }

    /// Run one child in `mode`, bracketed by calibration readings (the
    /// previous bracket's "after" is reused as this one's "before") and
    /// steal-counter readings. For traced passes; measuring children
    /// calibrate between their own slices.
    fn bracketed(
        &mut self,
        mode: &str,
        workload: Workload,
        extra: &[String],
    ) -> Result<(Json, Bracket), String> {
        let before = match self.last_calib_ns {
            Some(ns) => ns,
            None => self.calibrate(),
        };
        let (steal0, t) = (host::steal_seconds(), Instant::now());
        let json = self.spawn(mode, workload, extra)?;
        let child_wall_s = t.elapsed().as_secs_f64();
        let cpu_s = child_wall_s * host::nproc() as f64;
        let steal_share = (host::steal_seconds() - steal0) / cpu_s.max(1e-9);
        let bracket = Bracket {
            calib_before_ns: before,
            calib_after_ns: self.calibrate(),
            steal_share,
            child_wall_s,
        };
        Ok((json, bracket))
    }

    /// One measuring child of `workload`: the full horizon first if
    /// `full`, then `slice_seconds` of slices.
    pub fn repeat(
        &mut self,
        workload: Workload,
        full: bool,
        slice_seconds: f64,
    ) -> Result<Repeat, String> {
        let extra = [
            "--full".to_string(),
            u8::from(full).to_string(),
            "--slice-seconds".to_string(),
            slice_seconds.to_string(),
        ];
        let j = self.spawn("child", workload, &extra)?;
        let field = |k: &str| j.get(k).ok_or_else(|| format!("child result lacks `{k}`"));
        let num = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("child result lacks `{k}`"))
        };
        let slices = field("slices")?
            .as_arr()
            .ok_or("child result: `slices` is not an array")?
            .iter()
            .map(|pair| {
                let at = |i: usize| pair.as_arr().and_then(|p| p.get(i)).and_then(Json::as_f64);
                at(0)
                    .zip(at(1))
                    .zip(at(2))
                    .map(|((wall_s, steal_share), calib_ns_per_iter)| Slice {
                        wall_s,
                        steal_share,
                        calib_ns_per_iter,
                    })
                    .ok_or_else(|| "malformed slice in child result".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let full = match field("full")? {
            Json::Null => None,
            f => Some(FullRun {
                wall_s: num(f, "wall_s")?,
                peak_rss_kb: num(f, "peak_rss_kb")?,
                outcome: outcome_from_json(f.get("outcome").ok_or("full run lacks `outcome`")?)?,
            }),
        };
        Ok(Repeat {
            setup_s: num(&j, "setup_s")?,
            full,
            slice_outcome: outcome_from_json(field("slice_outcome")?)?,
            slices,
            slices_attempted: num(&j, "slices_attempted")? as u64,
            slices_failed: num(&j, "slices_failed")? as u64,
            slice_problems: problems_of(&j),
        })
    }

    /// One more `setup_s` sample: a child that sets `workload` up and
    /// exits.
    pub fn setup_sample(&self, workload: Workload) -> Result<f64, String> {
        self.spawn("setup-child", workload, &[])?
            .get("setup_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| "setup child result lacks `setup_s`".to_string())
    }

    /// The traced pass of `workload` in a child; re-run once if the
    /// noise guard trips.
    pub fn traced(&mut self, workload: Workload) -> Result<Traced, String> {
        let (mut json, mut host) = self.bracketed("trace-child", workload, &[])?;
        let noisy_reruns = u64::from(host.noisy());
        if host.noisy() {
            (json, host) = self.bracketed("trace-child", workload, &[])?;
        }
        Ok(Traced {
            json,
            host,
            noisy_reruns,
        })
    }
}

/// A traced pass as the parent sees it.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The child's JSON line.
    pub json: Json,
    /// The host around the pass.
    pub host: Bracket,
    /// Passes discarded by the noise guard.
    pub noisy_reruns: u64,
}

impl Traced {
    /// Every per-layer metric by name; unexercised layers read 0.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = match m.name {
                    "host.calib_ns" => self.host.calib_before_ns,
                    "host.noisy_reruns" => self.noisy_reruns as f64,
                    name => self
                        .json
                        .get("values")
                        .and_then(|v| v.get(name))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                };
                (m.name, v)
            })
            .collect()
    }

    /// Why `name` was not measured, if the pass said so.
    pub fn unmeasured(&self, name: &str) -> Option<&str> {
        self.json.get("unmeasured")?.get(name)?.as_str()
    }

    /// Correctness-gate findings of the pass.
    pub fn problems(&self) -> Vec<String> {
        problems_of(&self.json)
    }

    fn count(&self, key: &str) -> u64 {
        self.json.get(key).and_then(Json::as_u64).unwrap_or(0)
    }
}

/// The measuring children of one workload and what the gate found.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The workload measured.
    pub workload: Workload,
    /// Every measuring child, in run order.
    pub all: Vec<Repeat>,
    /// The gate over the children's full-horizon runs: virtual results
    /// do not depend on the process or on how fast the host was.
    pub full_runs: Gate,
    /// The gate over the children's first slices (each child gates its
    /// own slices against its first).
    pub first_slices: Gate,
    /// `setup_s` of the children that set the workload up and exited
    /// without a timed run: set-up takes tens of milliseconds, so a
    /// handful of samples is noisy and more of them are cheap.
    pub setup_only_s: Vec<f64>,
}

/// One end-to-end metric as reported.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// The reported value: the second-fastest sample for
    /// `pkts_per_wall_s` and `setup_s`, the median for everything else.
    pub value: f64,
    /// Summary of the samples, printed beside the value.
    pub samples: Summary,
}

impl Measured {
    /// An empty measurement of `workload`.
    pub fn new(workload: Workload) -> Self {
        Measured {
            workload,
            all: Vec::new(),
            full_runs: Gate::default(),
            first_slices: Gate::default(),
            setup_only_s: Vec::new(),
        }
    }

    /// Take one more child and gate its runs against the first child's.
    pub fn take(&mut self, r: Repeat) {
        let name = self.workload.name();
        if let Some(full) = &r.full {
            self.full_runs.take(name, full.outcome.clone());
        }
        // The child already reported its first slice's own ledger
        // problems; here only the comparison across children is new.
        let slice = Outcome {
            problems: Vec::new(),
            ..r.slice_outcome.clone()
        };
        self.first_slices.take(&format!("{name} slice"), slice);
        self.all.push(r);
    }

    /// Run set-up-only children until [`SETUP_SAMPLES`] processes have
    /// timed the workload's set-up (`--quick` divides the count, like
    /// the horizons, by ten: the measuring children already cover it).
    pub fn top_up_setup(&mut self, runner: &Runner) -> Result<(), String> {
        let want = (SETUP_SAMPLES as f64 * runner.scale).ceil() as usize;
        while self.all.len() + self.setup_only_s.len() < want {
            self.setup_only_s.push(runner.setup_sample(self.workload)?);
        }
        Ok(())
    }

    /// Correctness-gate findings across every run of every child.
    pub fn problems(&self) -> Vec<String> {
        let name = self.workload.name();
        let own = self.all.iter().flat_map(|r| &r.slice_problems);
        (self.full_runs.problems.iter().cloned())
            .chain(self.first_slices.problems.iter().cloned())
            .chain(own.map(|p| format!("{name}: {p}")))
            .collect()
    }

    /// Packets offered across all runs: full horizons and slices.
    pub fn attempted(&self) -> u64 {
        self.full_runs.attempted + self.all.iter().map(|r| r.slices_attempted).sum::<u64>()
    }

    /// Operations failed across all runs. A child whose first slice
    /// differs from the first child's fails all its slices.
    pub fn failed(&self) -> u64 {
        let slices = self.all.iter().zip(self.first_slices_differ()).map(|(r, differs)| {
            if differs {
                r.slices_attempted
            } else {
                r.slices_failed
            }
        });
        self.full_runs.failed + slices.sum::<u64>()
    }

    fn first_slices_differ(&self) -> impl Iterator<Item = bool> + '_ {
        let first = self.all.first().map(|r| &r.slice_outcome);
        self.all.iter().map(move |r| {
            first.is_some_and(|f| f.first_difference(&r.slice_outcome).is_some())
        })
    }

    /// Slices the noise guard set aside.
    pub fn noisy_reruns(&self) -> u64 {
        let noisy = |r: &Repeat| r.slices.iter().filter(|s| s.noisy()).count();
        self.all.iter().map(noisy).sum::<usize>() as u64
    }

    /// `pkts_per_wall_s` of every slice the noise guard passed, or of
    /// every slice when it passed fewer than [`MIN_SLICES`] (a result
    /// from a noisy host beats none, and `host.noisy_reruns` says so):
    /// packets per reference second, ascending, over all children.
    pub fn slice_rates(&self) -> Vec<f64> {
        let rates = |keep_noisy: bool| -> Vec<f64> {
            self.all
                .iter()
                .flat_map(|r| {
                    r.slices
                        .iter()
                        .filter(move |s| keep_noisy || !s.noisy())
                        .map(move |s| r.slice_ref_rate(s))
                })
                .collect()
        };
        let clean = rates(false);
        crate::stats::sorted(&if clean.len() >= MIN_SLICES {
            clean
        } else {
            rates(true)
        })
    }

    /// The full-horizon runs, in run order.
    pub fn fulls(&self) -> impl Iterator<Item = &FullRun> {
        self.all.iter().filter_map(|r| r.full.as_ref())
    }

    fn full_summary(&self, f: impl Fn(&FullRun) -> f64) -> Option<Summary> {
        let xs: Vec<f64> = self.fulls().map(f).collect();
        Summary::of(&xs)
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. The two host
    /// times are read at their fast end: `pkts_per_wall_s` is the
    /// second-fastest slice of all children and `setup_s` the
    /// second-fastest set-up of all processes. Beyond its speed states,
    /// which the reference second takes out of the slices, the host only
    /// ever slows work down — neighbours on the memory system from minute
    /// to minute, and where a process's pages landed for as long as it
    /// lives — so the fast end is what repeats; the very fastest is left
    /// out because a speed state that came and went inside one slice is
    /// seen by neither reading beside it. Everything else is the median
    /// of its samples; virtual metrics repeat exactly, so their summaries
    /// are degenerate.
    pub fn end_to_end(&self) -> Vec<Reported> {
        // Every process that set the workload up: measuring children and
        // set-up-only children. Ascending, like the slice rates.
        let measuring = self.all.iter().map(|r| r.setup_s);
        let setups: Vec<f64> = measuring.chain(self.setup_only_s.iter().copied()).collect();
        let setups = crate::stats::sorted(&setups);
        let rates = self.slice_rates();
        END_TO_END
            .iter()
            .map(|m| {
                let (samples, fast_end) = match m.name {
                    "pkts_per_wall_s" => (Summary::of(&rates), rates.iter().rev().nth(1)),
                    "setup_s" => (Summary::of(&setups), setups.get(1)),
                    "virt_mean_delay_us" => {
                        (self.full_summary(|r| r.outcome.mean_delay_us), None)
                    }
                    "virt_goodput_pps" => (self.full_summary(|r| r.outcome.goodput_pps), None),
                    "peak_rss_kb" => (self.full_summary(|r| r.peak_rss_kb), None),
                    other => unreachable!("no measurement for end-to-end metric {other}"),
                };
                let samples = samples.expect("at least one measuring child with a full run");
                Reported {
                    name: m.name,
                    value: fast_end.copied().unwrap_or(samples.median),
                    samples,
                }
            })
            .collect()
    }

    /// `virt_drop_frac` and `failed_frac`, the two end-to-end metrics
    /// that are 0 on most workloads.
    pub fn fractions(&self) -> (f64, f64) {
        let drop = self.fulls().next().map_or(0.0, |r| r.outcome.drop_frac());
        (drop, self.failed() as f64 / self.attempted().max(1) as f64)
    }
}

fn reported_json(r: &Reported) -> Json {
    let s = &r.samples;
    Json::obj([
        ("value", Json::num(r.value)),
        ("median", Json::num(s.median)),
        ("min", Json::num(s.min)),
        ("q1", Json::num(s.q1)),
        ("q3", Json::num(s.q3)),
        ("max", Json::num(s.max)),
        ("n", Json::Num(s.n as f64)),
    ])
}

fn print_end_to_end(workload: Workload, m: &Measured) {
    println!("## {} — end to end (tracing off)", workload.name());
    for (r, def) in m.end_to_end().into_iter().zip(&END_TO_END) {
        let s = r.samples;
        println!(
            "{:<22} {:>16.6} {:<7} median {:.6} min {:.6} q1 {:.6} q3 {:.6} max {:.6} n {}",
            r.name, r.value, def.unit, s.median, s.min, s.q1, s.q3, s.max, s.n
        );
    }
    for (i, r) in m.all.iter().enumerate() {
        let full = r.full.as_ref().map_or("no full run".to_string(), |f| {
            format!("full run {:.4} s  {:.1} pkts/s", f.wall_s, f.rate())
        });
        println!("  child {:<2} {full}  setup {:.4} s", i + 1, r.setup_s);
        // Slices in run order: pkts per wall second @ calibration ns per
        // iteration; `*` = set aside by the noise guard.
        let rates: Vec<String> = r
            .slices
            .iter()
            .map(|s| {
                let mark = if s.noisy() { "*" } else { "" };
                format!("{:.0}@{:.2}{mark}", r.slice_rate(s), s.calib_ns_per_iter)
            })
            .collect();
        println!(
            "    {} slices of {} pkts, pkts/s@calib: {}",
            r.slices.len(),
            r.slice_outcome.offered,
            rates.join(" ")
        );
    }
    let setups: Vec<String> = m.setup_only_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("  set-up-only children, setup s: {}", setups.join(" "));
    let (drop, failed) = m.fractions();
    println!("{:<22} {drop:>16.6} frac", "virt_drop_frac");
    println!("{:<22} {failed:>16.6} frac", "failed_frac");
    println!("{:<22} {:>16} count", "host.noisy_reruns", m.noisy_reruns());
}

fn print_per_layer(workload: Workload, t: &Traced) {
    println!("## {} — per layer (traced pass)", workload.name());
    for ((name, v), def) in t.per_layer().into_iter().zip(&PER_LAYER) {
        match t.unmeasured(name) {
            Some(why) => println!("{name:<34} {:>16} {:<6} ({why})", "null", def.unit),
            None => println!("{name:<34} {v:>16.4} {:<6}", def.unit),
        }
    }
}

/// The result line's `metrics` object from `(name, unit, value)`.
fn metrics_json(values: impl Iterator<Item = (&'static str, &'static str, f64)>) -> Json {
    Json::obj(values.map(|(name, unit, v)| {
        (
            name,
            Json::obj([("value", Json::num(v)), ("unit", Json::str(unit))]),
        )
    }))
}

fn report_problems(problems: &[String]) {
    for p in problems {
        eprintln!("CHECK FAILED: {p}");
    }
}

/// Contract mode: measure one workload and print the result line.
/// Returns the process exit code.
pub fn contract_main(workload: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> i32 {
    let mut runner = Runner::new(seed, quick);
    let workers = host::native_workers(host::nproc());
    println!(
        "# afs-benchmark {} seed {seed} seconds {seconds} trace {} | nproc {} W {workers} cpu \"{}\" load {:.2}",
        workload.name(),
        trace as u8,
        host::nproc(),
        host::cpu_model(),
        host::load_average()
    );
    let (result, problems) = if trace {
        let t = match runner.traced(workload) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        print_per_layer(workload, &t);
        let problems = t.problems();
        let values = t.per_layer().into_iter().zip(&PER_LAYER);
        let line = Json::obj([
            ("correct", Json::Bool(problems.is_empty())),
            ("attempted", Json::Num(t.count("attempted").max(1) as f64)),
            ("failed", Json::Num(t.count("failed") as f64)),
            (
                "metrics",
                metrics_json(values.map(|((name, v), def)| (name, def.unit, v))),
            ),
        ]);
        (line, problems)
    } else {
        let mut m = Measured::new(workload);
        let children = if quick { 2 } else { CHILDREN };
        let measured = (0..children)
            .try_for_each(|i| {
                let full = i < FULL_CHILDREN_CONTRACT;
                runner
                    .repeat(workload, full, seconds / children as f64)
                    .map(|r| m.take(r))
            })
            .and_then(|()| m.top_up_setup(&runner));
        if let Err(e) = measured {
            eprintln!("error: {e}");
            return 1;
        }
        print_end_to_end(workload, &m);
        let problems = m.problems();
        let values = m.end_to_end().into_iter().zip(&END_TO_END);
        let line = Json::obj([
            ("correct", Json::Bool(problems.is_empty())),
            ("attempted", Json::Num(m.attempted().max(1) as f64)),
            ("failed", Json::Num(m.failed() as f64)),
            (
                "metrics",
                metrics_json(values.map(|(r, def)| (r.name, def.unit, r.value))),
            ),
        ]);
        (line, problems)
    };
    report_problems(&problems);
    println!("{}", result.render());
    if problems.is_empty() {
        0
    } else {
        1
    }
}

/// Suite mode: every workload, round-robin, then one traced pass each.
/// Writes the results file unless `quick`. Returns the exit code.
pub fn suite_main(seed: u64, quick: bool, out: Option<PathBuf>) -> i32 {
    let t0 = Instant::now();
    let mut runner = Runner::new(seed, quick);
    let workers = host::native_workers(host::nproc());
    // The contract mode's time budget per workload, split over the
    // children; `--quick` stops every child at the minimum slice count
    // and runs two per workload, the fewest the cross-process gate needs.
    let children = if quick { 2 } else { CHILDREN };
    let slice_seconds = if quick {
        0.0
    } else {
        RUN_SECONDS as f64 / children as f64
    };
    let mut measured: Vec<Measured> = Workload::ALL.into_iter().map(Measured::new).collect();
    // Round-robin: each round gives every workload one more child.
    for round in 0..children {
        for (w, m) in Workload::ALL.into_iter().zip(measured.iter_mut()) {
            match runner.repeat(w, round < FULL_CHILDREN_SUITE, slice_seconds) {
                Ok(r) => m.take(r),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
    }
    for m in &mut measured {
        if let Err(e) = m.top_up_setup(&runner) {
            eprintln!("error: {e}");
            return 1;
        }
    }
    let mut traced = Vec::new();
    for w in Workload::ALL {
        match runner.traced(w) {
            Ok(t) => traced.push(t),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }

    let calib_ns = runner.last_calib_ns.unwrap_or(0.0);
    let reruns: u64 = measured.iter().map(|m| m.noisy_reruns()).sum::<u64>()
        + traced.iter().map(|t| t.noisy_reruns).sum::<u64>();
    println!(
        "# afs-benchmark suite seed {seed} quick {quick} | nproc {} W {workers} cpu \"{}\" load {:.2} calib {:.0} ns",
        host::nproc(),
        host::cpu_model(),
        host::load_average(),
        calib_ns
    );
    let mut problems = Vec::new();
    let mut workloads_json = Vec::new();
    for ((w, m), t) in Workload::ALL.into_iter().zip(&measured).zip(&traced) {
        print_end_to_end(w, m);
        print_per_layer(w, t);
        problems.extend(m.problems());
        problems.extend(
            t.problems()
                .into_iter()
                .map(|p| format!("{}: {p}", w.name())),
        );
        let (drop, failed) = m.fractions();
        let mut e2e: Vec<(String, Json)> = m
            .end_to_end()
            .into_iter()
            .map(|r| (r.name.to_string(), reported_json(&r)))
            .collect();
        e2e.push(("virt_drop_frac".into(), Json::num(drop)));
        e2e.push(("failed_frac".into(), Json::num(failed)));
        let layers = t.per_layer().into_iter().map(|(name, v)| {
            let value = match t.unmeasured(name) {
                Some(why) => Json::obj([("value", Json::Null), ("reason", Json::str(why))]),
                None => Json::num(v),
            };
            (name, value)
        });
        // The full-horizon run the traced pass's wall compares with.
        let untraced_s = m.full_summary(|r| r.wall_s).map_or(0.0, |s| s.median);
        workloads_json.push(Json::obj([
            ("name", Json::str(w.name())),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::obj(layers)),
            (
                "noisy_reruns",
                Json::Num((m.noisy_reruns() + t.noisy_reruns) as f64),
            ),
            ("traced_pass_wall_s", Json::num(t.host.child_wall_s)),
            ("untraced_median_wall_s", Json::num(untraced_s)),
        ]));
    }
    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        ("host", host::host_block(workers, calib_ns, reruns)),
        ("suite_wall_s", Json::num(t0.elapsed().as_secs_f64())),
        ("correct", Json::Bool(problems.is_empty())),
        ("workloads", Json::Arr(workloads_json)),
    ]);
    report_problems(&problems);
    if !quick {
        let path = out.unwrap_or_else(|| out_dir().join("results.json"));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(&path, results.render_pretty()));
        match written {
            Ok(()) => println!("# results written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return 1;
            }
        }
    }
    println!(
        "# suite finished in {:.1} s, {} check failure(s)",
        t0.elapsed().as_secs_f64(),
        problems.len()
    );
    if problems.is_empty() {
        0
    } else {
        1
    }
}
