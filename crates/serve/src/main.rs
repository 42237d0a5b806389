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
//! Exit status: 0 on a balanced ledger, 1 if the ledger does not
//! balance (the CI smoke contract) or the snapshot file cannot be
//! created, 2 on a usage error — every flag value is checked against
//! its accepted range before any thread starts.

use std::io::Write;
use std::process::ExitCode;

use afs_native::{run_serve, FrontEndKind, Pinning, PolicySpec, ServeConfig};
use afs_xkernel::{fddi, ip, udp};

/// Largest UDP payload whose IP datagram fits one FDDI frame.
const MAX_PAYLOAD: usize = fddi::MAX_PAYLOAD - ip::HEADER_LEN - udp::HEADER_LEN;
// `USAGE` quotes the number.
const _: () = assert!(MAX_PAYLOAD == 4404);

const USAGE: &str = "afs-serve — sustained-ingest serving over the pinned native backend

USAGE:
    afs-serve [OPTIONS]

OPTIONS:
    --workers <N>         worker threads, >= 1 (default 2)
    --streams <N>         flow population size, >= 1 (default 65536)
    --policy <P>          fallback policy: oblivious | locking | ips |
                          mru-load | min-reload (default min-reload)
    --frontend <F>        NIC front-end: rss | fdir | transport (default fdir)
    --batch <N>           dequeue/dispatch batch bound, >= 1 (default 8)
    --packets <N>         total packets to offer (default 1000000)
    --seconds <S>         virtual traffic duration, finite and >= 0;
                          overrides --packets (packets = offered rate x S)
    --warmup <N>          packets before the statistics window
                          (default packets/10)
    --load <F>            offered load as a multiple of rated capacity
                          (workers / warm service time), finite and > 0
                          (default 1.0)
    --pps <F>             explicit offered rate, finite and > 0;
                          overrides --load
    --alpha <F>           Zipf skew, finite and >= 0 (default 1.1)
    --batch-mean <F>      mean arrival burst length, finite and >= 1
                          (default 4.0)
    --payload <N>         UDP payload bytes, at most 4404 — one FDDI
                          frame (default 64)
    --queue-capacity <N>  per-worker admission bound (default from policy)
    --seed <N>            RNG seed (default 0xAF5)
    --pin                 pin workers to cores (default off)
    --snapshot-every <N>  emit a serve snapshot every N offered packets
    --snapshot-out <PATH> write snapshots to PATH instead of stdout
    -h, --help            print this help

EXIT STATUS:
    0   the run finished and its ledger balances
    1   the ledger does not balance, or --snapshot-out cannot be created
    2   usage error: unknown flag, missing value, or a value outside
        the range above (one line on stderr names the flag)
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

/// `raw` as the value of `flag`, parsed and checked against what the
/// flag accepts; the error is the one usage line the user sees.
fn parse_value<T: std::str::FromStr>(
    flag: &str,
    raw: &str,
    accepts: impl Fn(&T) -> bool,
    range: &str,
) -> Result<T, String> {
    raw.parse()
        .ok()
        .filter(accepts)
        .ok_or_else(|| format!("{flag} {raw}: expected {range}"))
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
    let value = |i: &mut usize| -> Result<&str, String> {
        *i += 1;
        argv.get(*i)
            .map(String::as_str)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    const COUNT: &str = "an integer >= 0";
    const AT_LEAST_ONE: &str = "an integer >= 1";
    let positive = |x: &f64| x.is_finite() && *x > 0.0;
    let at_least = |min: f64| move |x: &f64| x.is_finite() && *x >= min;
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "-h" | "--help" => return Ok(None),
            "--workers" => {
                args.workers = parse_value(flag, value(&mut i)?, |&n| n >= 1, AT_LEAST_ONE)?
            }
            "--streams" => {
                args.streams = parse_value(flag, value(&mut i)?, |&n| n >= 1, AT_LEAST_ONE)?
            }
            "--policy" => args.policy = parse_policy(value(&mut i)?)?,
            "--frontend" => args.frontend = parse_frontend(value(&mut i)?)?,
            "--batch" => args.batch = parse_value(flag, value(&mut i)?, |&n| n >= 1, AT_LEAST_ONE)?,
            "--packets" => args.packets = parse_value(flag, value(&mut i)?, |_| true, COUNT)?,
            "--seconds" => {
                let range = "a finite number of seconds >= 0";
                args.seconds = Some(parse_value(flag, value(&mut i)?, at_least(0.0), range)?)
            }
            "--warmup" => args.warmup = Some(parse_value(flag, value(&mut i)?, |_| true, COUNT)?),
            "--load" => {
                args.load = parse_value(flag, value(&mut i)?, positive, "a finite number > 0")?
            }
            "--pps" => {
                let range = "a finite rate > 0";
                args.pps = Some(parse_value(flag, value(&mut i)?, positive, range)?)
            }
            "--alpha" => {
                let range = "a finite Zipf exponent >= 0";
                args.alpha = parse_value(flag, value(&mut i)?, at_least(0.0), range)?
            }
            "--batch-mean" => {
                let range = "a finite mean burst length >= 1";
                args.batch_mean = parse_value(flag, value(&mut i)?, at_least(1.0), range)?
            }
            "--payload" => {
                let range = format!("0..={MAX_PAYLOAD} bytes (one FDDI frame)");
                args.payload = parse_value(flag, value(&mut i)?, |&n| n <= MAX_PAYLOAD, &range)?
            }
            "--queue-capacity" => {
                args.queue_capacity = Some(parse_value(flag, value(&mut i)?, |_| true, COUNT)?)
            }
            "--seed" => args.seed = Some(parse_value(flag, value(&mut i)?, |_| true, COUNT)?),
            "--pin" => args.pin = true,
            "--snapshot-every" => {
                args.snapshot_every = Some(parse_value(flag, value(&mut i)?, |_| true, COUNT)?)
            }
            "--snapshot-out" => args.snapshot_out = Some(value(&mut i)?.to_owned()),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
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
            eprintln!("afs-serve: {e} (--help lists every flag and its range)");
            return ExitCode::from(2);
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
