//! Failure injection: the substrate under hostile inputs.
//!
//! Every layer must reject malformed traffic cleanly (count it, charge
//! processing time for it, never panic, never corrupt session state) and
//! resource exhaustion (user queues) must degrade into counted
//! drops — the behaviours a protocol stack is actually judged on.

use affinity_sched::prelude::*;
use afs_xkernel::driver::{PacketFactory, RxFrame};
use afs_xkernel::mem::MemLayout;
use afs_xkernel::proto::{StreamId, ThreadId, MAX_QUEUE_DEPTH};
use afs_xkernel::{fddi, ProtocolEngine, RxError, RxOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engine_with_stream() -> (ProtocolEngine, afs_cache::sim::hierarchy::MemoryHierarchy) {
    let mut eng = ProtocolEngine::new(CostModel::default());
    eng.bind_stream(StreamId(0));
    let hier = CostModel::default().hierarchy();
    (eng, hier)
}

#[test]
fn random_garbage_never_panics_and_never_delivers() {
    let (mut eng, mut hier) = engine_with_stream();
    let mut rng = StdRng::seed_from_u64(99);
    let layout = MemLayout::new();
    for i in 0..500 {
        let len = rng.gen_range(0..200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let frame = RxFrame {
            bytes,
            stream: StreamId(0),
            buf_addr: layout.packet(i % 8),
        };
        let out = eng.receive_outcome(&mut hier, &frame, ThreadId(0));
        assert!(
            matches!(out, RxOutcome::Error { .. }),
            "random garbage must not parse"
        );
    }
    assert_eq!(eng.table.session(StreamId(0)).unwrap().packets, 0);
}

#[test]
fn random_bitflips_in_valid_frames_never_deliver_corrupted_payloads() {
    // 64 B frames take the table FCS, 4 KiB frames the folding kernel
    // where the CPU has it.
    for payload in [64, 4096] {
        bitflips_never_deliver(payload);
    }
}

fn bitflips_never_deliver(payload: usize) {
    let (mut eng, mut hier) = engine_with_stream();
    let mut factory = PacketFactory::new();
    factory.udp_checksums = true;
    eng.cost.software_udp_checksum = false; // checksum still checked logically
    let mut rng = StdRng::seed_from_u64(7);
    let layout = MemLayout::new();
    let mut delivered = 0u64;
    for i in 0..300u32 {
        let mut bytes = factory.frame_for(StreamId(0), payload);
        // Flip 1–4 random bits anywhere in the frame.
        for _ in 0..rng.gen_range(1..=4) {
            let idx = rng.gen_range(0..bytes.len());
            bytes[idx] ^= 1u8 << rng.gen_range(0..8);
        }
        let frame = RxFrame {
            bytes,
            stream: StreamId(0),
            buf_addr: layout.packet(i % 8),
        };
        if eng
            .receive_outcome(&mut hier, &frame, ThreadId(0))
            .is_delivered()
        {
            delivered += 1;
        }
    }
    // Multi-bit flips can in principle slip past a CRC-32 with
    // probability 2^-32; at 300 trials any delivery means a real hole.
    assert_eq!(delivered, 0, "corrupted {payload} B frame delivered");
    assert_eq!(eng.table.session(StreamId(0)).unwrap().packets, 0);
}

/// The FCS by its definition, one bit at a time.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[test]
fn factory_frame_fcs_is_the_crc32_definition_and_catches_every_bit_flip() {
    // Bodies of 49 … 4 453 bytes: 127 / 128 / 129 straddle the switch
    // from the table to the folding kernel.
    let mut factory = PacketFactory::new();
    for payload in [0, 1, 78, 79, 80, 1400, 4096, 4404] {
        let frame = factory.frame_for(StreamId(0), payload);
        let (body, fcs) = frame.split_at(frame.len() - fddi::FCS_LEN);
        assert_eq!(fddi::crc32(body), crc32_bitwise(body), "payload {payload}");
        assert_eq!(fcs, crc32_bitwise(body).to_be_bytes(), "payload {payload}");
    }
    let frame = factory.frame_for(StreamId(0), 4096);
    for bit in 0..frame.len() * 8 {
        let mut bytes = frame.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // The frame-control and LLC/SNAP bytes are checked before the FCS.
        let expect = match bit / 8 {
            0 => fddi::FddiError::BadFrameControl,
            13..=18 => fddi::FddiError::BadLlc,
            _ => fddi::FddiError::BadFcs,
        };
        let mut msg = afs_xkernel::msg::Message::from_wire(&bytes, 0);
        assert_eq!(fddi::parse_frame(&mut msg), Err(expect), "bit {bit}");
    }
}

#[test]
fn frames_past_the_mtu_are_rejected_before_delivery() {
    let (mut eng, mut hier) = engine_with_stream();
    let mut factory = PacketFactory::new();
    let layout = MemLayout::new();
    // The largest frame the factory builds fills the MTU exactly.
    let max = factory.frame_for(StreamId(0), 4404);
    assert_eq!(
        max.len(),
        fddi::HEADER_LEN + fddi::MAX_PAYLOAD + fddi::FCS_LEN
    );
    let rx = |bytes| RxFrame {
        bytes,
        stream: StreamId(0),
        buf_addr: layout.packet(0),
    };
    assert!(eng
        .receive_outcome(&mut hier, &rx(max.clone()), ThreadId(0))
        .is_delivered());
    // One byte more, under a correct FCS.
    let mut bytes = max[..max.len() - fddi::FCS_LEN].to_vec();
    bytes.push(0);
    let fcs = fddi::crc32(&bytes);
    bytes.extend_from_slice(&fcs.to_be_bytes());
    let before = hier.stats.cycles;
    let out = eng.receive_outcome(&mut hier, &rx(bytes), ThreadId(0));
    assert!(matches!(
        out,
        RxOutcome::Error {
            error: RxError::Fddi(fddi::FddiError::Oversize),
            ..
        }
    ));
    assert!(hier.stats.cycles > before, "the FDDI reject is charged");
    assert_eq!(eng.table.session(StreamId(0)).unwrap().packets, 1);
}

#[test]
fn drops_still_cost_processing_time() {
    // A flood of bad frames still occupies the processor — drops are not
    // free (the reason overload studies care about early demux).
    let (mut eng, mut hier) = engine_with_stream();
    let mut factory = PacketFactory::new();
    let layout = MemLayout::new();
    let mut bytes = factory.frame_for(StreamId(0), 8);
    let n = bytes.len();
    bytes[n - 1] ^= 0xFF; // break the FCS
    let before = hier.stats.cycles;
    let out = eng.receive_outcome(
        &mut hier,
        &RxFrame {
            bytes,
            stream: StreamId(0),
            buf_addr: layout.packet(0),
        },
        ThreadId(0),
    );
    assert!(matches!(
        out,
        RxOutcome::Error {
            error: RxError::Fddi(fddi::FddiError::BadFcs),
            ..
        }
    ));
    let cycles = hier.stats.cycles - before;
    assert!(cycles > 2_000.0, "drop consumed only {cycles} cycles");
}

#[test]
fn user_queue_overflow_counts_drops_not_deliveries() {
    let (mut eng, mut hier) = engine_with_stream();
    let mut factory = PacketFactory::new();
    let layout = MemLayout::new();
    let total = MAX_QUEUE_DEPTH + 10;
    for i in 0..total {
        let frame = RxFrame {
            bytes: factory.frame_for(StreamId(0), 8),
            stream: StreamId(0),
            buf_addr: layout.packet(i % 8),
        };
        eng.receive_outcome(&mut hier, &frame, ThreadId(0));
    }
    let s = eng.table.session(StreamId(0)).unwrap();
    assert_eq!(s.queue_depth, MAX_QUEUE_DEPTH);
    assert_eq!(s.queue_drops, 10);
    assert_eq!(s.packets, MAX_QUEUE_DEPTH as u64);
}

#[test]
fn truncated_frames_at_every_length_are_rejected() {
    let (mut eng, mut hier) = engine_with_stream();
    let mut factory = PacketFactory::new();
    let layout = MemLayout::new();
    // Payload 100 makes a 149-byte body: cuts on both sides of the
    // folding kernel's 128-byte threshold.
    for payload in [32, 100] {
        let full = factory.frame_for(StreamId(0), payload);
        for cut in 0..full.len() {
            let frame = RxFrame {
                bytes: full[..cut].to_vec(),
                stream: StreamId(0),
                buf_addr: layout.packet(0),
            };
            assert!(
                matches!(
                    eng.receive_outcome(&mut hier, &frame, ThreadId(0)),
                    RxOutcome::Error { .. }
                ),
                "truncation of a {payload} B frame at {cut} accepted"
            );
        }
    }
}

#[test]
fn unstable_overload_recovers_when_load_drops() {
    // Drive the simulated host past saturation, then drop the rate: the
    // system must drain and return to service-level delays. (Run as two
    // configurations sharing seeds — the simulator has no mid-run rate
    // change — verifying the stability detector in both directions.)
    let overload = {
        let mut cfg = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            Population::homogeneous_poisson(16, 4_000.0),
        );
        cfg.warmup = SimDuration::from_millis(50);
        cfg.horizon = SimDuration::from_millis(400);
        run(&cfg)
    };
    assert!(!overload.stable);
    let recovered = {
        let mut cfg = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            Population::homogeneous_poisson(16, 400.0),
        );
        cfg.warmup = SimDuration::from_millis(50);
        cfg.horizon = SimDuration::from_millis(400);
        run(&cfg)
    };
    assert!(recovered.stable);
    assert!(recovered.mean_delay_us < 1.5 * recovered.mean_service_us);
}
