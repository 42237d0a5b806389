//! The simulator's Zipf arrivals are the native generator's, packet for
//! packet.
//!
//! A Zipf flow population is one aggregate arrival source
//! (`afs_workload::ZipfArrivals`) on both backends: the native
//! `zipf_workload` draws its packets from it, and the simulator runs it
//! as a single pending arrival for the whole population. From one seed,
//! the simulator therefore offers exactly `zipf_workload(..)`'s
//! `(flow, t)` sequence, each time rounded to the simulator's tick.
//! That is what lets the cross-validation compare the two backends on
//! identical packets.
//!
//! * Under Locking/Baseline every arrival is enqueued once, in arrival
//!   order, so the trace's `Enqueue` sequence is the offered sequence.
//! * A 10⁵-flow run keeps about one pending event per processor plus
//!   the one arrival, not one per flow.

use affinity_sched::core::config::{LockPolicy, Paradigm, SystemConfig};
use affinity_sched::core::crossval::StreamScenario;
use affinity_sched::core::sim::run_observed;
use affinity_sched::desim::{SimDuration, SimTime};
use affinity_sched::native::zipf_workload;
use affinity_sched::obs::{MemRecorder, ObsEvent};
use affinity_sched::sched::{FrontEndKind, PolicySpec};
use affinity_sched::workload::Population;

const FLOWS: u32 = 1_000;
const RATE_PPS: f64 = 15_000.0;
const ALPHA: f64 = 1.1;

/// The simulator's offered `(stream, t_us)` sequence at `batch_mean`.
fn sim_offered(batch_mean: f64, seed: u64) -> Vec<(u32, f64)> {
    let mut cfg = SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Baseline,
        },
        Population::zipf_bursty(FLOWS as usize, RATE_PPS, ALPHA, batch_mean),
    );
    cfg.warmup = SimDuration::ZERO;
    cfg.horizon = SimDuration::from_millis(800);
    cfg.seed = seed;
    let mut rec = MemRecorder::new();
    run_observed(&cfg, &mut rec);
    rec.events
        .iter()
        .filter_map(|ev| match ev {
            ObsEvent::Enqueue { stream, t_us, .. } => Some((*stream, *t_us)),
            _ => None,
        })
        .collect()
}

#[test]
fn simulator_offers_the_native_zipf_workload_packet_for_packet() {
    for (batch_mean, seed) in [(1.0, 0x21F), (4.0, 0x5EED)] {
        let sim = sim_offered(batch_mean, seed);
        assert!(
            sim.len() >= 10_000,
            "batch {batch_mean}: {} packets",
            sim.len()
        );
        let native = zipf_workload(
            FLOWS,
            sim.len() as u64,
            RATE_PPS,
            ALPHA,
            batch_mean,
            None,
            64,
            seed,
        );
        for (i, (&(stream, t_us), p)) in sim.iter().zip(&native).enumerate() {
            let want = SimTime::from_micros_f64(p.arrival_us).as_micros_f64();
            assert_eq!(
                (stream, t_us.to_bits()),
                (p.stream.0, want.to_bits()),
                "batch {batch_mean}: packet {i} differs"
            );
        }
    }
}

#[test]
fn a_flow_scale_run_holds_one_pending_arrival() {
    let scenario = StreamScenario {
        workers: 8,
        streams: 100_000,
        total_packets: 5_000,
        aggregate_rate_pps: 10_000.0,
        alpha: ALPHA,
        batch_mean: 4.0,
        table_capacity: 1_024,
        cache_capacity: 4_096,
        payload_bytes: 64,
        seed: 0x100_000,
    };
    let cfg = scenario.sim_config(FrontEndKind::FlowDirector, PolicySpec::MinReload);
    let mut rec = MemRecorder::new();
    let (report, probe) = run_observed(&cfg, &mut rec);
    assert!(report.arrivals > 1_000, "{} arrivals", report.arrivals);
    assert!(
        probe.max_pending <= cfg.n_procs as u64 + 4,
        "{} pending at most, {} processors",
        probe.max_pending,
        cfg.n_procs
    );
}
