//! A replay workload is the old one, byte for byte.
//!
//! `poisson_workload` draws every arrival first, sorts the stamps, and
//! only then builds each frame, in arrival order and at its final size.
//! The reference below is the definition it replaced: build each packet
//! as its arrival is drawn (`frame_for`, stream-major, so the factory's
//! ident counter gives generation index `i` ident `i + 1`), then stably
//! sort the packets by `total_cmp` on their stamps. The two must agree on
//! every byte, stream and stamp bit, including past 65 536 packets,
//! where the 16-bit IP ident wraps.

use affinity_sched::desim::{Dist, RngFactory};
use affinity_sched::native::{poisson_workload, NativePacket};
use affinity_sched::xkernel::driver::PacketFactory;
use affinity_sched::xkernel::StreamId;

/// The definition `poisson_workload` must keep.
fn reference(
    streams: u32,
    per_stream: u32,
    rate: f64,
    payload: usize,
    seed: u64,
) -> Vec<NativePacket> {
    let factory = RngFactory::new(seed);
    let exp = Dist::exponential(1e6 / rate);
    let mut frames = PacketFactory::new();
    let mut all = Vec::new();
    for s in 0..streams {
        let mut rng = factory.stream(&format!("native-arrivals-{s}"));
        let mut t = 0.0f64;
        for _ in 0..per_stream {
            t += exp.sample(&mut rng);
            all.push(NativePacket {
                bytes: frames.frame_for(StreamId(s), payload),
                stream: StreamId(s),
                arrival_us: t,
            });
        }
    }
    all.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
    all
}

fn assert_same(streams: u32, per_stream: u32, payload: usize, seed: u64) {
    let rate = 2_000.0;
    let got = poisson_workload(streams, per_stream, rate, payload, seed);
    let want = reference(streams, per_stream, rate, payload, seed);
    let case = format!("({streams} streams, {per_stream} each, {payload} B)");
    assert_eq!(got.len(), want.len(), "{case}: length");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.stream, w.stream, "{case}: stream of packet {i}");
        assert_eq!(
            g.arrival_us.to_bits(),
            w.arrival_us.to_bits(),
            "{case}: stamp of packet {i}"
        );
        assert_eq!(g.bytes, w.bytes, "{case}: bytes of packet {i}");
    }
}

#[test]
fn replay_workload_equals_the_sorted_per_arrival_build() {
    for (streams, per_stream, payload, seed) in [
        (1, 1, 0, 1),
        (4, 25, 32, 0xD0_0D),
        (16, 300, 64, 7),
        (3, 40, 4_096, 0xAF5),
    ] {
        assert_same(streams, per_stream, payload, seed);
    }
}

#[test]
fn replay_workload_equals_the_reference_across_the_ident_wrap() {
    // 66 300 packets: generation indices 65 535 on wrap to ident 0, 1, …
    assert_same(17, 3_900, 0, 0x1D);
}
