//! `afs-serve` — the sustained-ingest serving binary.
//!
//! Drives bursty Zipf × compound-Poisson open-loop traffic through the
//! pinned native pipeline (`afs_native::run_serve`) for as long as
//! asked, in bounded memory, streaming live `afs-obs` serve snapshots
//! as JSONL. Under overload it degrades deterministically: the NIC
//! tail-drops in the virtual domain and the final ledger
//! (`offered = admitted + dropped`, every admitted packet reaching
//! exactly one outcome) is checked before exit.
//!
//! ```text
//! afs-serve --workers 2 --load 1.5 --batch 8 --policy min-reload \
//!           --frontend fdir --packets 1000000 --snapshot-every 100000
//! ```
//!
//! Exit status is non-zero if the ledger does not balance — the CI
//! smoke contract.

use std::io::Write;
use std::process::ExitCode;

use afs_native::{run_serve, FrontEndKind, Pinning, PolicySpec, ServeConfig};

const USAGE: &str = "afs-serve — sustained-ingest serving over the pinned native backend

USAGE:
    afs-serve [OPTIONS]

OPTIONS:
    --workers <N>         worker threads (default 2)
    --streams <N>         flow population size (default 65536)
    --policy <P>          fallback policy: oblivious | locking | ips |
                          mru-load | min-reload (default min-reload)
    --frontend <F>        NIC front-end: rss | fdir | transport (default fdir)
    --batch <N>           dequeue/dispatch batch bound (default 8)
    --packets <N>         total packets to offer (default 1000000)
    --seconds <S>         virtual traffic duration; overrides --packets
                          (packets = offered rate x S)
    --warmup <N>          packets before the statistics window
                          (default packets/10)
    --load <F>            offered load as a multiple of rated capacity
                          (workers / warm service time; default 1.0)
    --pps <F>             explicit offered rate, overrides --load
    --alpha <F>           Zipf skew (default 1.1)
    --batch-mean <F>      mean arrival burst length (default 4.0)
    --payload <N>         UDP payload bytes (default 64)
    --queue-capacity <N>  per-worker admission bound (default from policy)
    --seed <N>            RNG seed (default 0xAF5)
    --pin                 pin workers to cores (default off)
    --snapshot-every <N>  emit a serve snapshot every N offered packets
    --snapshot-out <PATH> write snapshots to PATH instead of stdout
    -h, --help            print this help
";

struct Args {
    workers: usize,
    streams: u32,
    policy: PolicySpec,
    frontend: FrontEndKind,
    batch: usize,
    packets: u64,
    seconds: Option<f64>,
    warmup: Option<u64>,
    load: f64,
    pps: Option<f64>,
    alpha: f64,
    batch_mean: f64,
    payload: usize,
    queue_capacity: Option<usize>,
    seed: Option<u64>,
    pin: bool,
    snapshot_every: Option<u64>,
    snapshot_out: Option<String>,
}

fn parse_policy(s: &str) -> Result<PolicySpec, String> {
    PolicySpec::ALL
        .into_iter()
        .find(|p| p.label() == s)
        .ok_or_else(|| {
            format!("unknown policy '{s}' (use oblivious | locking | ips | mru-load | min-reload)")
        })
}

fn parse_frontend(s: &str) -> Result<FrontEndKind, String> {
    FrontEndKind::ALL
        .into_iter()
        .find(|k| k.label() == s)
        .ok_or_else(|| format!("unknown front-end '{s}' (use rss | fdir | transport)"))
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workers: 2,
        streams: 65_536,
        policy: parse_policy("min-reload")?,
        frontend: parse_frontend("fdir")?,
        batch: 8,
        packets: 1_000_000,
        seconds: None,
        warmup: None,
        load: 1.0,
        pps: None,
        alpha: 1.1,
        batch_mean: 4.0,
        payload: 64,
        queue_capacity: None,
        seed: None,
        pin: false,
        snapshot_every: None,
        snapshot_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => return Ok(None),
            "--workers" => {
                args.workers = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--streams" => {
                args.streams = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--streams: {e}"))?
            }
            "--policy" => args.policy = parse_policy(&value(&mut i)?)?,
            "--frontend" => args.frontend = parse_frontend(&value(&mut i)?)?,
            "--batch" => {
                args.batch = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--packets" => {
                args.packets = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--packets: {e}"))?
            }
            "--seconds" => {
                args.seconds = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--warmup" => {
                args.warmup = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--warmup: {e}"))?,
                )
            }
            "--load" => args.load = value(&mut i)?.parse().map_err(|e| format!("--load: {e}"))?,
            "--pps" => args.pps = Some(value(&mut i)?.parse().map_err(|e| format!("--pps: {e}"))?),
            "--alpha" => {
                args.alpha = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--alpha: {e}"))?
            }
            "--batch-mean" => {
                args.batch_mean = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--batch-mean: {e}"))?
            }
            "--payload" => {
                args.payload = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--payload: {e}"))?
            }
            "--queue-capacity" => {
                args.queue_capacity = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--queue-capacity: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = Some(value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--pin" => args.pin = true,
            "--snapshot-every" => {
                args.snapshot_every = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--snapshot-every: {e}"))?,
                )
            }
            "--snapshot-out" => args.snapshot_out = Some(value(&mut i)?),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if args.workers == 0 || args.streams == 0 || args.batch == 0 {
        return Err("--workers, --streams and --batch must be positive".into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = ServeConfig::new(a.workers, a.streams, a.frontend, a.policy);
    cfg.alpha = a.alpha;
    cfg.batch_mean = a.batch_mean;
    cfg.payload_bytes = a.payload;
    cfg.native.batch = a.batch;
    cfg.native.pinning = if a.pin { Pinning::Auto } else { Pinning::Off };
    if let Some(c) = a.queue_capacity {
        cfg.native.queue_capacity = c;
    }
    if let Some(s) = a.seed {
        cfg.native.seed = s;
    }
    cfg.offered_pps = a.pps.unwrap_or_else(|| a.load * cfg.rated_capacity_pps());
    cfg.total_packets = match a.seconds {
        Some(s) => (cfg.offered_pps * s).ceil() as u64,
        None => a.packets,
    };
    cfg.warmup_packets = a.warmup.unwrap_or(cfg.total_packets / 10);
    cfg.snapshot_every = a.snapshot_every;

    eprintln!(
        "afs-serve: {} workers, {} streams, {}/{} front-end, batch {}, \
         {:.0} pps offered ({:.2}x rated), {} packets ({} warm-up)",
        a.workers,
        a.streams,
        a.frontend.label(),
        a.policy.label(),
        a.batch,
        cfg.offered_pps,
        cfg.offered_pps / cfg.rated_capacity_pps(),
        cfg.total_packets,
        cfg.warmup_packets,
    );

    let mut file_sink = match &a.snapshot_out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let stdout = std::io::stdout();
    let mut stdout_lock;
    let sink: Option<&mut dyn Write> = if cfg.snapshot_every.is_some() {
        match file_sink.as_mut() {
            Some(f) => Some(f),
            None => {
                stdout_lock = stdout.lock();
                Some(&mut stdout_lock)
            }
        }
    } else {
        None
    };

    let r = run_serve(&cfg, sink);

    eprintln!(
        "done: offered {} = admitted {} + dropped {} ({:.2}% drop); \
         delivered {}; goodput {:.0} pps (virtual); mean delay {:.1} us; \
         {:.0} pkts/s host wall ({:.2} s); rss {} KiB; \
         table misses {}; rebinds {}",
        r.offered,
        r.admitted,
        r.dropped,
        100.0 * r.drop_frac(),
        r.outcomes.delivered,
        r.goodput_pps(),
        r.mean_delay_us,
        r.pkts_per_wall_s,
        r.wall_s,
        r.rss_kb,
        r.table_misses,
        r.rebinds,
    );

    if r.ledger_balanced() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: serving ledger does not balance");
        ExitCode::FAILURE
    }
}
