//! The modeled hierarchy prices the real packet shapes exactly.
//!
//! `afs-cache`'s `access_sweep` charges resident runs without walking
//! them; its proptests hold that to the reference-by-reference
//! definition on random platforms and scripts. This suite holds it to
//! the same definition on the shapes the native backend really issues:
//! 64 B and 4 KiB packets, UDP and TCP, through the worker's per-packet
//! sequence (the stream range purged for a flow that fell out of the
//! resident set, `purge_region(PacketData)`, eight rotating buffer
//! slots, `consume`) on the R4400 platform, over a 200-packet flow
//! script made of same-flow trains — and, for the run memo behind the
//! probe (`Cache::stateless_run` answers a run it has verified from
//! per-block mutation stamps), over a 400-packet script of long trains
//! in which every flow switch purges the stream range: the traffic the
//! memo exists for, most packets finding every run but the packet
//! buffer's as the previous packet left it.
//!
//! The engine's receive entry points take `&mut MemoryHierarchy`, so
//! there is no by-reference sink to hand them here. The reference side
//! is therefore captured, not live: every constant below was produced
//! by this file on a build whose `MemoryHierarchy` had no `access_sweep`
//! override — `TraceSink`'s default body, one `access` per reference.
//! Each pin covers every packet's `PacketTiming` and the final
//! `HierarchyStats`, per-cache `CacheStats` and per-region (dirty)
//! occupancy, floats by bit pattern.

use affinity_sched::cache::sim::{MemoryHierarchy, Region};
use affinity_sched::xkernel::driver::{PacketFactory, RxFrame};
use affinity_sched::xkernel::mem::MemLayout;
use affinity_sched::xkernel::{CostModel, PacketTiming, ProtocolEngine, StreamId, ThreadId};

const FLOWS: u32 = 6;
const TCP_ISN: u32 = 1000;

/// A flow script and the worker's resident-set bound it is served under.
#[derive(Clone, Copy)]
struct Script {
    packets: usize,
    /// Trains are 1..=`max_train` packets of one flow.
    max_train: usize,
    /// Flows whose stream state the worker still counts as resident.
    resident: usize,
}

/// Short trains over a resident set of two: what the first four pins use.
const MIXED: Script = Script {
    packets: 200,
    max_train: 6,
    resident: 2,
};
/// Long same-flow trains (mean 8), every flow switch a cold reload.
const LONG_TRAINS: Script = Script {
    packets: 400,
    max_train: 15,
    resident: 1,
};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn timing(&mut self, t: &PacketTiming) {
        for w in [
            t.instructions,
            t.refs,
            t.cycles.to_bits(),
            t.us.to_bits(),
            t.payload_bytes as u64,
            t.stream.0 as u64,
        ] {
            self.word(w);
        }
    }
    fn hierarchy(&mut self, h: &MemoryHierarchy) {
        let s = h.stats;
        for w in [
            s.accesses,
            s.l1_hits,
            s.l2_hits,
            s.mem_fills,
            s.cycles.to_bits(),
        ] {
            self.word(w);
        }
        for c in [Some(&h.l1d), h.l1i.as_ref(), Some(&h.l2)]
            .into_iter()
            .flatten()
        {
            let s = c.stats;
            for w in [s.accesses, s.hits, s.writebacks] {
                self.word(w);
            }
            s.region_accesses.into_iter().for_each(|w| self.word(w));
            s.region_hits.into_iter().for_each(|w| self.word(w));
            // What the counters cannot show until an eviction: who owns
            // the resident lines and which of them are dirty.
            for r in Region::ALL {
                self.word(c.occupancy(r));
                self.word(c.dirty_occupancy(r));
            }
        }
    }
}

/// The flow of each packet: trains of one flow, the next train's flow
/// and length drawn from a fixed LCG.
fn flow_script(script: Script) -> Vec<u32> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut flows = Vec::with_capacity(script.packets);
    while flows.len() < script.packets {
        let (flow, train) = (
            next() as u32 % FLOWS,
            1 + next() as usize % script.max_train,
        );
        flows.extend(std::iter::repeat_n(
            flow,
            train.min(script.packets - flows.len()),
        ));
    }
    flows
}

/// What the pins hold for one transport and payload size.
#[derive(Debug, PartialEq)]
struct Priced {
    /// `(accesses, l1_hits, l2_hits, mem_fills)` at the end.
    counters: [u64; 4],
    /// Total cycles at the end (a whole number on this platform).
    cycles: f64,
    /// Every `PacketTiming` in order, then the final statistics.
    digest: u64,
}

/// `Worker::process`'s hierarchy-visible sequence, on one worker.
fn serve(tcp: bool, payload: usize, script: Script) -> Priced {
    let mut cost = CostModel::default();
    // 4 KiB packets are the data-touching shape: checksummed end to end.
    let checksummed = payload > 64;
    cost.software_udp_checksum = checksummed;
    let mut engine = ProtocolEngine::new(cost);
    for s in (0..FLOWS).map(StreamId) {
        if tcp {
            engine.bind_tcp_stream(s, TCP_ISN);
        } else {
            engine.bind_stream(s);
        }
    }
    let mut hier = cost.hierarchy();
    let layout = MemLayout::new();
    let mut factory = PacketFactory::new();
    factory.udp_checksums = checksummed;
    let body = vec![0x5a; payload];
    let stream_bytes = cost.stream_read_bytes + cost.stream_write_bytes;

    let mut digest = Digest::new();
    let mut resident: Vec<u32> = Vec::new();
    let mut sent = [0u32; FLOWS as usize];
    for (slot, flow) in flow_script(script).into_iter().enumerate() {
        let stream = StreamId(flow);
        // A flow outside the bounded resident set reloads its state cold.
        if !resident.contains(&flow) {
            hier.purge_range(layout.stream(flow), stream_bytes);
        }
        resident.retain(|&f| f != flow);
        resident.insert(0, flow);
        resident.truncate(script.resident);
        // Packet buffers arrive DMA-cold.
        hier.purge_region(Region::PacketData);

        let bytes = if tcp {
            let seq = TCP_ISN + sent[flow as usize] * payload as u32;
            factory.tcp_frame_for(stream, seq, &body)
        } else {
            factory.frame_for(stream, payload)
        };
        sent[flow as usize] += 1;
        let frame = RxFrame {
            bytes,
            stream,
            buf_addr: layout.packet(slot as u32 % 8),
        };
        let outcome = if tcp {
            engine.receive_tcp_outcome(&mut hier, &frame, ThreadId(0)).0
        } else {
            engine.receive_outcome(&mut hier, &frame, ThreadId(0))
        };
        assert!(outcome.is_delivered(), "packet {slot}: {outcome:?}");
        engine.table.session_mut(stream).expect("bound").consume();
        digest.timing(outcome.timing());
    }
    digest.hierarchy(&hier);
    let s = hier.stats;
    Priced {
        counters: [s.accesses, s.l1_hits, s.l2_hits, s.mem_fills],
        cycles: s.cycles,
        digest: digest.0,
    }
}

#[test]
fn udp_64_byte_packets_price_as_the_reference_walk() {
    assert_eq!(serve(false, 64, MIXED), UDP_64);
}

#[test]
fn udp_4_kib_packets_price_as_the_reference_walk() {
    assert_eq!(serve(false, 4096, MIXED), UDP_4K);
}

#[test]
fn tcp_64_byte_segments_price_as_the_reference_walk() {
    assert_eq!(serve(true, 64, MIXED), TCP_64);
}

#[test]
fn tcp_4_kib_segments_price_as_the_reference_walk() {
    assert_eq!(serve(true, 4096, MIXED), TCP_4K);
}

#[test]
fn long_same_flow_trains_price_as_the_reference_walk() {
    assert_eq!(serve(false, 64, LONG_TRAINS), UDP_64_LONG_TRAINS);
}

const UDP_64: Priced = Priced {
    counters: [957_400, 947_384, 8_883, 1_133],
    cycles: 3_135_645.0,
    digest: 12003295852676222610,
};
const UDP_4K: Priced = Priced {
    counters: [1_162_600, 1_099_472, 55_572, 7_556],
    cycles: 3_875_268.0,
    digest: 12946711496639436559,
};
const TCP_64: Priced = Priced {
    counters: [1_074_600, 1_062_840, 10_619, 1_141],
    cycles: 3_599_989.0,
    digest: 741256816482107912,
};
const TCP_4K: Priced = Priced {
    counters: [1_276_200, 1_212_808, 55_828, 7_564],
    cycles: 4_327_772.0,
    digest: 14778715113831647704,
};
const UDP_64_LONG_TRAINS: Priced = Priced {
    counters: [1_914_800, 1_904_991, 8_451, 1_358],
    cycles: 6_145_014.0,
    digest: 11027787333182140326,
};
