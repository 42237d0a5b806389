//! Adversarial fuzz harness for the receive path.
//!
//! Feeds arbitrary byte soup, bit-flipped/truncated mutations of valid
//! frames, and traffic damaged by a hostile wire ([`hostile_wire`]) into
//! [`ProtocolEngine::receive_outcome`] and [`ip::parse_header`], and
//! requires that every input terminates in a *typed* outcome — never a
//! panic — with partial work charged on rejection.
//!
//! Seven suites × 256 cases per run (the vendored proptest honours
//! `PROPTEST_CASES` as a global cap for CI smoke runs). The last two
//! suites replay wire-damaged traffic through the native
//! pinned-thread backend and cross-check its typed-outcome accounting
//! against a single-engine reference — the final one while a seeded
//! processor-fault plan crashes, stalls and slows workers mid-run.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afs_native::OutcomeTotals;
use afs_xkernel::driver::{PacketFactory, RxFrame};
use afs_xkernel::mem::MemLayout;
use afs_xkernel::msg::Message;
use afs_xkernel::proto::StreamId;
use afs_xkernel::{ip, CostModel, ProtocolEngine, RxOutcome, ThreadId};

const CASES: u32 = 256;

/// 50/50 `None`/`Some` over `s` (the vendored proptest has no
/// `prop::option` module).
fn opt<S>(s: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), s.prop_map(Some)]
}

fn frame_at(bytes: Vec<u8>, stream: u32, slot: u32) -> RxFrame {
    RxFrame {
        bytes,
        stream: StreamId(stream),
        buf_addr: MemLayout::new().packet(slot % 8),
    }
}

/// A lossy, corrupting, duplicating, reordering wire, drawn from one
/// seeded RNG. Each offered frame is independently dropped (`drop_p`),
/// hit by 1–3 bit flips (`corrupt_p`), cut short (`truncate_p`), sent
/// twice with the same damage (0.2) and held back 1–4 offers (0.2).
/// Returns the frames in the order the engine sees them, each with
/// whether its bytes were damaged.
fn hostile_wire(
    frames: impl IntoIterator<Item = RxFrame>,
    seed: u64,
    drop_p: f64,
    corrupt_p: f64,
    truncate_p: f64,
) -> Vec<(RxFrame, bool)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut held: Vec<(usize, (RxFrame, bool))> = Vec::new();
    for (i, mut frame) in frames.into_iter().enumerate() {
        // Frames held back until this offer leave ahead of it.
        let (due, later) = held.into_iter().partition(|(until, _)| *until <= i);
        held = later;
        out.extend(due.into_iter().map(|(_, f)| f));
        if rng.gen_bool(drop_p) {
            continue;
        }
        let mut damaged = false;
        if rng.gen_bool(corrupt_p) {
            for _ in 0..rng.gen_range(1..=3) {
                let byte = rng.gen_range(0..frame.bytes.len());
                frame.bytes[byte] ^= 1u8 << rng.gen_range(0..8);
            }
            damaged = true;
        }
        if rng.gen_bool(truncate_p) {
            frame.bytes.truncate(rng.gen_range(1..frame.bytes.len()));
            damaged = true;
        }
        let copy = rng.gen_bool(0.2).then(|| (frame.clone(), damaged));
        if rng.gen_bool(0.2) {
            held.push((i + rng.gen_range(1..=4usize), (frame, damaged)));
        } else {
            out.push((frame, damaged));
        }
        out.extend(copy);
    }
    out.extend(held.into_iter().map(|(_, f)| f));
    out
}

/// The single-engine reference: every stream in `0..streams` bound, one
/// thread, the wire's frames in order. Each outcome must be typed.
fn reference_totals(wire: &[(RxFrame, bool)], streams: u32) -> OutcomeTotals {
    let mut eng = ProtocolEngine::new(CostModel::default());
    for s in 0..streams {
        eng.bind_stream(StreamId(s));
    }
    let mut hier = CostModel::default().hierarchy();
    let mut totals = OutcomeTotals::default();
    for (frame, _) in wire {
        let out = eng.receive_outcome(&mut hier, frame, ThreadId(0));
        assert_typed(&out);
        totals.add(&out);
    }
    totals
}

/// The wire's frames as a native replay, spaced so the run exercises
/// real queueing but stays fast.
fn native_workload(wire: &[(RxFrame, bool)]) -> Vec<afs_native::NativePacket> {
    wire.iter()
        .enumerate()
        .map(|(i, (f, _))| afs_native::NativePacket {
            bytes: f.bytes.clone(),
            stream: f.stream,
            arrival_us: 25.0 * i as f64,
        })
        .collect()
}

/// Whatever happened, the outcome must be typed and must have charged
/// the cycle model for the work done before the verdict.
fn assert_typed(out: &RxOutcome) {
    let t = out.timing();
    assert!(t.us.is_finite() && t.us > 0.0, "no work charged: {out:?}");
    assert!(t.us < 10_000.0, "absurd service time: {out:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Raw byte soup into the IP parser: typed error or parse, no panic.
    #[test]
    fn ip_parse_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        base_addr in any::<u32>(),
    ) {
        let mut msg = Message::from_wire(&bytes, u64::from(base_addr));
        let _ = ip::parse_header(&mut msg);
    }

    /// Raw byte soup into the full engine: every frame terminates in a
    /// typed `RxOutcome` with partial work charged.
    #[test]
    fn engine_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
        stream in 0u32..16,
        slot in any::<u32>(),
    ) {
        let mut eng = ProtocolEngine::new(CostModel::default());
        eng.bind_stream(StreamId(stream));
        let mut hier = CostModel::default().hierarchy();
        let frame = frame_at(bytes, stream, slot);
        let out = eng.receive_outcome(&mut hier, &frame, ThreadId(0));
        assert_typed(&out);
        // Byte soup essentially never forms a valid FDDI frame + IP
        // checksum + UDP checksum; but we only require a typed verdict.
    }

    /// Valid frames with a handful of bit flips: either the damage lands
    /// in the payload of an unchecksummed region and the frame delivers,
    /// or a typed error/drop comes back. Never a panic.
    #[test]
    fn engine_survives_bit_flipped_valid_frames(
        stream in 0u32..16,
        len in 0usize..1400,
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..6),
        slot in any::<u32>(),
    ) {
        let mut eng = ProtocolEngine::new(CostModel::default());
        eng.bind_stream(StreamId(stream));
        let mut hier = CostModel::default().hierarchy();
        let mut factory = PacketFactory::new();
        let mut bytes = factory.frame_for(StreamId(stream), len);
        for (idx, bit) in &flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= 1 << bit;
        }
        let out = eng.receive_outcome(&mut hier, &frame_at(bytes, stream, slot), ThreadId(0));
        assert_typed(&out);
    }

    /// Valid frames truncated at an arbitrary point.
    #[test]
    fn engine_survives_truncated_valid_frames(
        stream in 0u32..16,
        len in 0usize..1400,
        cut in any::<prop::sample::Index>(),
        slot in any::<u32>(),
    ) {
        let mut eng = ProtocolEngine::new(CostModel::default());
        eng.bind_stream(StreamId(stream));
        let mut hier = CostModel::default().hierarchy();
        let mut factory = PacketFactory::new();
        let mut bytes = factory.frame_for(StreamId(stream), len);
        bytes.truncate(cut.index(bytes.len() + 1));
        let out = eng.receive_outcome(&mut hier, &frame_at(bytes, stream, slot), ThreadId(0));
        assert_typed(&out);
        if let RxOutcome::Delivered(t) = out {
            // An undetected truncation must at least be internally
            // consistent: it cannot deliver more than it carried.
            prop_assert!(t.payload_bytes <= len);
        }
    }

    /// A lossy, corrupting, reordering wire feeding the engine: every
    /// frame it emits terminates in one typed outcome, and every frame
    /// it did not damage delivers.
    #[test]
    fn engine_survives_fault_injected_traffic(
        seed in any::<u64>(),
        n_frames in 1usize..40,
        drop_p in 0.0f64..0.5,
        corrupt_p in 0.0f64..0.5,
        truncate_p in 0.0f64..0.5,
    ) {
        let mut eng = ProtocolEngine::new(CostModel::default());
        eng.bind_stream(StreamId(1));
        let mut hier = CostModel::default().hierarchy();
        let mut packets = PacketFactory::new();
        let frames = (0..n_frames)
            .map(|i| frame_at(packets.frame_for(StreamId(1), 64 + i), 1, i as u32));
        let wire = hostile_wire(frames, seed, drop_p, corrupt_p, truncate_p);
        let mut totals = OutcomeTotals::default();
        for (i, (frame, damaged)) in wire.iter().enumerate() {
            let out = eng.receive_outcome(&mut hier, frame, ThreadId(0));
            assert_typed(&out);
            totals.add(&out);
            prop_assert!(
                *damaged || out.is_delivered(),
                "undamaged frame {i} of {} did not deliver: {out:?}",
                wire.len()
            );
        }
        prop_assert_eq!(
            totals.total(),
            wire.len() as u64,
            "every emitted frame gets exactly one typed outcome: {:?}",
            totals
        );
    }

    /// The native pinned-thread backend fed the same wire-damaged
    /// traffic: its goodput accounting must be lossless (every offered
    /// frame lands in exactly one typed-outcome bucket) and must agree
    /// with a single-engine replay of the identical wire bytes — the
    /// deliver/reject verdict depends on the frame, never on which
    /// worker, cache, or interleaving processed it.
    #[test]
    fn native_backend_accounts_for_fault_injected_traffic(
        seed in any::<u64>(),
        n_frames in 1usize..60,
        workers in 1usize..4,
        drop_p in 0.0f64..0.4,
        corrupt_p in 0.0f64..0.4,
        truncate_p in 0.0f64..0.4,
    ) {
        use afs_native::{run_native_recorded, NativeConfig, Pinning, PolicySpec};

        let mut packets = PacketFactory::new();
        let streams = 4u32;
        let frames = (0..n_frames).map(|i| {
            let s = i as u32 % streams;
            frame_at(packets.frame_for(StreamId(s), 32 + i % 256), s, i as u32)
        });
        let wire = hostile_wire(frames, seed, drop_p, corrupt_p, truncate_p);
        let want = reference_totals(&wire, streams);

        let mut cfg = NativeConfig::new(workers, PolicySpec::Ips);
        cfg.pinning = Pinning::Off;
        let (report, rec) = run_native_recorded(&cfg, native_workload(&wire));
        let c = &rec.counters;
        let diag = || format!("reference: {want:?}\nreport: {report:?}\ntrace: {c:?}");

        prop_assert_eq!(report.offered, wire.len() as u64);
        prop_assert_eq!(report.outcomes.total(), report.offered, "lost frames\n{}", diag());
        prop_assert_eq!(report.outcomes, want, "{}", diag());
        // The runtime drains each user queue on delivery, so overflow
        // cannot be the native backend's private failure mode here.
        prop_assert_eq!(report.outcomes.queue_full, 0);
        // Trace-side conservation: every offered frame was enqueued,
        // dispatched and completed exactly once — nothing in flight at
        // join, nothing evicted (the dispatcher blocks, never drops).
        prop_assert_eq!(c.enqueued, report.offered, "{}", diag());
        prop_assert_eq!(c.dispatched, report.offered, "{}", diag());
        prop_assert_eq!(c.completed, report.offered, "{}", diag());
        prop_assert_eq!(c.evicted, 0, "{}", diag());
        prop_assert_eq!(c.in_flight(), 0, "{}", diag());
        prop_assert_eq!(c.completed_ok, want.delivered, "{}", diag());
    }

    /// Packet faults and processor faults at once: the wire damages
    /// frames while a seeded plan crashes, stalls and slows workers
    /// mid-run. The deliver/reject verdict must still depend only on
    /// the frame (it matches the single-engine reference exactly), and
    /// the conservation ledger must balance across the crash — every
    /// orphan re-dispatched, nothing lost, nothing in flight at join.
    #[test]
    fn native_backend_survives_combined_packet_and_processor_faults(
        seed in any::<u64>(),
        n_frames in 8usize..60,
        workers in 2usize..=4,
        drop_p in 0.0f64..0.4,
        corrupt_p in 0.0f64..0.4,
        truncate_p in 0.0f64..0.4,
        victim_r in 0.0f64..1.0,
        crash_frac in 0.1f64..0.8,
        revive in opt(0.05f64..0.4),
        stall in opt((0.0f64..0.6, 0.05f64..0.3)),
        slow in opt((0.0f64..0.7, 1.0f64..3.0)),
    ) {
        use afs_native::{
            run_native_recorded, NativeConfig, Pinning, PolicySpec, ProcFault, ProcFaultKind,
            ProcFaultPlan,
        };

        let mut packets = PacketFactory::new();
        let streams = 4u32;
        let frames = (0..n_frames).map(|i| {
            let s = i as u32 % streams;
            frame_at(packets.frame_for(StreamId(s), 32 + i % 256), s, i as u32)
        });
        let wire = hostile_wire(frames, seed, drop_p, corrupt_p, truncate_p);
        prop_assume!(!wire.is_empty());
        let want = reference_totals(&wire, streams);

        let workload = native_workload(&wire);
        let horizon_us = 25.0 * workload.len() as f64;

        // The processor-fault plan: one crash (never worker 0 — the
        // survivor guarantee), plus an optional stall and slow core.
        let victim = 1 + ((victim_r * (workers - 1) as f64) as usize).min(workers - 2);
        let mut proc_faults = vec![ProcFault {
            proc: victim,
            at_us: crash_frac * horizon_us,
            kind: ProcFaultKind::Crash {
                revive_at_us: revive.map(|d| (crash_frac + d) * horizon_us),
            },
        }];
        if let Some((at, dur)) = stall {
            proc_faults.push(ProcFault {
                proc: 0,
                at_us: at * horizon_us,
                kind: ProcFaultKind::Stall {
                    duration_us: dur * horizon_us,
                },
            });
        }
        if let Some((at, factor)) = slow {
            proc_faults.push(ProcFault {
                proc: victim % workers.saturating_sub(1) + 1,
                at_us: at * horizon_us,
                kind: ProcFaultKind::Slowdown { factor },
            });
        }
        let proc_plan = ProcFaultPlan { faults: proc_faults };
        prop_assert!(proc_plan.validate(workers).is_ok());

        let mut cfg = NativeConfig::new(workers, PolicySpec::Ips);
        cfg.pinning = Pinning::Off;
        cfg.faults = proc_plan;
        let (report, rec) = run_native_recorded(&cfg, workload);
        let c = &rec.counters;
        let diag = || format!("reference: {want:?}\nreport: {report:?}\ntrace: {c:?}");

        // Verdicts are frame properties, crash or no crash: home-stack
        // routing keeps diverted streams on their session state, so the
        // typed-outcome totals match the single-engine reference.
        prop_assert_eq!(report.offered, wire.len() as u64);
        prop_assert_eq!(report.outcomes.total(), report.offered, "lost frames\n{}", diag());
        prop_assert_eq!(report.outcomes, want, "{}", diag());
        prop_assert_eq!(report.outcomes.no_session, 0, "session lost in a crash\n{}", diag());

        // Conservation across the crash: the ledger balances and every
        // orphan was re-dispatched.
        prop_assert_eq!(c.enqueued, report.offered, "{}", diag());
        prop_assert_eq!(c.completed, report.offered, "{}", diag());
        prop_assert_eq!(c.in_flight(), 0, "{}", diag());
        prop_assert_eq!(c.evicted, 0, "{}", diag());
        prop_assert_eq!(c.orphaned, c.requeued, "{}", diag());
        prop_assert_eq!(c.orphaned, report.orphaned, "{}", diag());
        prop_assert_eq!(report.orphaned, report.requeued, "{}", diag());
        if report.orphaned > 0 {
            prop_assert!(c.worker_downs > 0, "crash without a WorkerDown event\n{}", diag());
        }
    }
}
