//! The in-memory FDDI device driver and packet factory.
//!
//! The paper: *"We developed in-memory drivers (a technique also used in
//! [13, 21]), since the Challenge's eight 100 MHz R4400 processors are
//! together much faster than the single FDDI network attachment on our
//! machine. Data is not received from the actual FDDI network."* We do
//! the same: [`PacketFactory`] fabricates byte-exact UDP/IP/FDDI frames
//! for a set of streams, and callers hand them to the protocol engine as
//! [`RxFrame`]s placed in the simulated packet buffers of
//! [`MemLayout`](crate::mem::MemLayout). A [`FrameTemplate`] turns one
//! frame into the next of the same payload length by rewriting only its
//! headers and its FCS.

use crate::fddi::{self, MacAddr};
use crate::ip::{self, Ipv4Addr};
use crate::proto::StreamId;
use crate::tcp;
use crate::udp;

/// Well-known base for per-stream UDP destination ports.
pub const PORT_BASE: u16 = 5000;
/// The receiving host's address.
pub const HOST_ADDR: Ipv4Addr = Ipv4Addr(0x0A00_0001); // 10.0.0.1
/// The receiving host's station address.
pub const HOST_MAC: MacAddr = MacAddr([0x02, 0x00, 0, 0, 0, 1]);

/// Streams the port space carries: ids `0..PORT_STREAMS` (60 536) take
/// the distinct ports `PORT_BASE..=65 535`.
pub const PORT_STREAMS: u32 = (u16::MAX - PORT_BASE) as u32 + 1;

/// Destination UDP port for a stream. Ids from [`PORT_STREAMS`] on wrap
/// onto ports already taken.
pub fn port_of(stream: StreamId) -> u16 {
    PORT_BASE.wrapping_add(stream.0 as u16)
}

/// Source host address for a stream (each stream has its own peer).
pub fn peer_of(stream: StreamId) -> Ipv4Addr {
    Ipv4Addr::host(100 + stream.0)
}

/// Fabricates wire frames for streams.
#[derive(Debug, Clone)]
pub struct PacketFactory {
    /// Whether senders fill in UDP checksums (off = the paper's
    /// non-data-touching configuration).
    pub udp_checksums: bool,
    ident: u16,
}

impl PacketFactory {
    /// A factory with checksums off (the paper's default).
    pub fn new() -> Self {
        PacketFactory {
            udp_checksums: false,
            ident: 0,
        }
    }

    /// Build one complete FDDI frame carrying a TCP segment for `stream`
    /// with the given sequence number and payload (receive-side testing
    /// of the paper's TCP extension, E19).
    pub fn tcp_frame_for(&mut self, stream: StreamId, seq: u32, payload: &[u8]) -> Vec<u8> {
        self.ident = self.ident.wrapping_add(1);
        let src = peer_of(stream);
        let seg = tcp::build_segment(
            src,
            HOST_ADDR,
            1024 + stream.0 as u16,
            port_of(stream),
            seq,
            0,
            tcp::flags::ACK,
            8192,
            payload,
        );
        let total = (ip::HEADER_LEN + seg.len()) as u16;
        let iph = ip::build_header(
            total,
            self.ident,
            true,
            false,
            0,
            ip::DEFAULT_TTL,
            ip::PROTO_TCP,
            src,
            HOST_ADDR,
        );
        let mut dgram = iph.to_vec();
        dgram.extend_from_slice(&seg);
        fddi::build_frame(
            HOST_MAC,
            MacAddr::station(100 + stream.0),
            fddi::ETHERTYPE_IP,
            &dgram,
        )
        .expect("factory payloads fit the FDDI MTU")
    }

    /// Build one complete FDDI frame carrying a UDP datagram of
    /// `payload_len` bytes for `stream`, in one allocation of exactly
    /// the frame's length.
    pub fn frame_for(&mut self, stream: StreamId, payload_len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.frame_into(stream, payload_len, &mut out);
        out
    }

    /// [`frame_for`](Self::frame_for) writing into a caller-owned
    /// buffer: `out` is cleared and refilled in place, so a recycled
    /// buffer makes frame fabrication allocation-free once its capacity
    /// has grown to the frame length. The bytes produced are identical
    /// to [`frame_for`](Self::frame_for)'s — same header fields, same
    /// payload pattern, same checksums, same ident sequence — which the
    /// byte-identity test below pins against the layer builders.
    pub fn frame_into(&mut self, stream: StreamId, payload_len: usize, out: &mut Vec<u8>) {
        self.ident = self.ident.wrapping_add(1);
        self.frame_at(self.ident, stream, payload_len, out);
    }

    /// [`frame_into`](Self::frame_into)'s frame with IP ident `ident`,
    /// leaving the factory's own ident sequence where it was. `out` is
    /// reserved exactly to the frame's length: an empty buffer is
    /// allocated once, and one that already has room keeps its capacity.
    pub fn frame_at(&self, ident: u16, stream: StreamId, payload_len: usize, out: &mut Vec<u8>) {
        let hdr = headers(ident, stream, payload_len);
        out.clear();
        out.reserve_exact(HEADERS_LEN + payload_len + fddi::FCS_LEN);
        out.extend_from_slice(&hdr);
        // Payload byte `i` is `i mod 256`.
        let mut left = payload_len;
        while left > 0 {
            let n = left.min(PATTERN.len());
            out.extend_from_slice(&PATTERN[..n]);
            left -= n;
        }
        if self.udp_checksums {
            let c = udp::udp_checksum(peer_of(stream), HOST_ADDR, &out[UDP_START..]);
            out[UDP_START + 6..UDP_START + 8].copy_from_slice(&c.to_be_bytes());
        }
        // FCS over everything so far.
        let fcs = fddi::crc32(out);
        out.extend_from_slice(&fcs.to_be_bytes());
    }
}

/// The header bytes of [`PacketFactory::frame_at`]'s frame: FDDI (the
/// layout of `fddi::build_frame`), IP, then UDP (the layout of
/// `udp::build_datagram`) with a zero checksum.
fn headers(ident: u16, stream: StreamId, payload_len: usize) -> [u8; HEADERS_LEN] {
    let udp_len = udp::HEADER_LEN + payload_len;
    assert!(
        ip::HEADER_LEN + udp_len <= fddi::MAX_PAYLOAD,
        "factory payloads fit the FDDI MTU"
    );
    let iph = ip::build_header(
        (ip::HEADER_LEN + udp_len) as u16,
        ident,
        true,
        false,
        0,
        ip::DEFAULT_TTL,
        ip::PROTO_UDP,
        peer_of(stream),
        HOST_ADDR,
    );
    let mut hdr = [0u8; HEADERS_LEN];
    hdr[0] = fddi::FC_LLC;
    hdr[1..7].copy_from_slice(&HOST_MAC.0);
    hdr[7..13].copy_from_slice(&MacAddr::station(100 + stream.0).0);
    hdr[13..16].copy_from_slice(&[fddi::LLC_SNAP_SAP, fddi::LLC_SNAP_SAP, fddi::LLC_UI]);
    // hdr[16..19]: the SNAP OUI, zero.
    hdr[19..21].copy_from_slice(&fddi::ETHERTYPE_IP.to_be_bytes());
    hdr[fddi::HEADER_LEN..UDP_START].copy_from_slice(&iph);
    hdr[UDP_START..UDP_START + 2].copy_from_slice(&(1024 + stream.0 as u16).to_be_bytes());
    hdr[UDP_START + 2..UDP_START + 4].copy_from_slice(&port_of(stream).to_be_bytes());
    hdr[UDP_START + 4..UDP_START + 6].copy_from_slice(&(udp_len as u16).to_be_bytes());
    hdr
}

/// A [`PacketFactory::new`] frame of one payload length whose payload is
/// written once: only the header bytes and the FCS differ between two
/// such frames, so [`rewrite`](Self::rewrite) writes those alone. The
/// FCS is the CRC of the headers and the payload's first `LEAD_LEN`
/// bytes (one 64-byte input, long enough for the folding kernel) moved
/// past the rest of the payload and combined with the rest's CRC, which
/// is taken here, once.
#[derive(Debug, Clone)]
pub struct FrameTemplate {
    payload_len: usize,
    payload_crc: u32,
    shift: fddi::Crc32Shift,
}

/// Payload bytes the per-packet CRC covers after the headers.
const LEAD_LEN: usize = fddi::FOLD_MIN_LEN - HEADERS_LEN;

impl FrameTemplate {
    /// Build a whole `payload_len` frame into `frame` (its headers those
    /// of ident 0 on stream 0) and the template that rewrites it.
    pub fn new(payload_len: usize, frame: &mut Vec<u8>) -> Self {
        PacketFactory::new().frame_at(0, StreamId(0), payload_len, frame);
        let lead = payload_len.min(LEAD_LEN);
        FrameTemplate {
            payload_len,
            payload_crc: fddi::crc32(&frame[HEADERS_LEN + lead..HEADERS_LEN + payload_len]),
            shift: fddi::Crc32Shift::new(payload_len - lead),
        }
    }

    /// Make `frame`, built by [`FrameTemplate::new`], byte for byte
    /// `PacketFactory::new().frame_at(ident, stream, ..)`'s frame,
    /// writing its header bytes and its FCS only.
    pub fn rewrite(&self, ident: u16, stream: StreamId, frame: &mut [u8]) {
        frame[..HEADERS_LEN].copy_from_slice(&headers(ident, stream, self.payload_len));
        let lead = HEADERS_LEN + self.payload_len.min(LEAD_LEN);
        let fcs = self
            .shift
            .combine(fddi::crc32(&frame[..lead]), self.payload_crc);
        frame[HEADERS_LEN + self.payload_len..].copy_from_slice(&fcs.to_be_bytes());
    }
}

/// FDDI, IP and UDP header bytes of a factory frame.
const HEADERS_LEN: usize = fddi::HEADER_LEN + ip::HEADER_LEN + udp::HEADER_LEN;
/// Where the UDP header starts in a factory frame.
const UDP_START: usize = fddi::HEADER_LEN + ip::HEADER_LEN;

/// The payload pattern, one period of it: byte `i` is `i`.
static PATTERN: [u8; 256] = {
    let mut p = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        p[i] = i as u8;
        i += 1;
    }
    p
};

impl Default for PacketFactory {
    fn default() -> Self {
        Self::new()
    }
}

/// A received frame waiting in driver memory.
#[derive(Debug, Clone)]
pub struct RxFrame {
    /// The wire bytes.
    pub bytes: Vec<u8>,
    /// Which stream generated it (ground truth for experiments; the
    /// engine re-derives the stream by demuxing the headers).
    pub stream: StreamId,
    /// Simulated buffer address the frame occupies.
    pub buf_addr: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Message;

    #[test]
    fn factory_frames_parse_end_to_end() {
        let mut f = PacketFactory::new();
        let frame = f.frame_for(StreamId(3), 64);
        let mut msg = Message::from_wire(&frame, 0);
        let fh = fddi::parse_frame(&mut msg).unwrap();
        assert_eq!(fh.dst, HOST_MAC);
        assert_eq!(fh.ethertype, fddi::ETHERTYPE_IP);
        let ih = ip::parse_header(&mut msg).unwrap();
        assert_eq!(ih.protocol, ip::PROTO_UDP);
        assert_eq!(ih.src, peer_of(StreamId(3)));
        assert_eq!(ih.dst, HOST_ADDR);
        let uh = udp::parse_datagram(&mut msg, ih.src, ih.dst).unwrap();
        assert_eq!(uh.dst_port, port_of(StreamId(3)));
        assert_eq!(msg.len(), 64);
    }

    #[test]
    fn factory_with_checksums_validates() {
        let mut f = PacketFactory {
            udp_checksums: true,
            ident: 0,
        };
        let frame = f.frame_for(StreamId(0), 100);
        let mut msg = Message::from_wire(&frame, 0);
        fddi::parse_frame(&mut msg).unwrap();
        let ih = ip::parse_header(&mut msg).unwrap();
        let uh = udp::parse_datagram(&mut msg, ih.src, ih.dst).unwrap();
        assert_ne!(uh.checksum, 0);
    }

    #[test]
    fn frame_into_is_byte_identical_to_the_layer_builders() {
        // The in-place fabricator must produce exactly what composing
        // the layer builders produces — the frames are inputs to
        // committed goldens, so this is a byte-for-byte contract.
        for checksums in [false, true] {
            let mut fast = PacketFactory::new();
            fast.udp_checksums = checksums;
            let mut ident = 0u16;
            let mut buf = Vec::new();
            for (stream, payload_len) in [
                (0u32, 0usize),
                (3, 32),
                (7, 64),
                (41, 1400),
                (12, 4096),
                (63, 4404),
            ] {
                fast.frame_into(StreamId(stream), payload_len, &mut buf);
                // Reference: the original builder composition.
                ident = ident.wrapping_add(1);
                let payload: Vec<u8> = (0..payload_len).map(|i| (i & 0xFF) as u8).collect();
                let src = peer_of(StreamId(stream));
                let udp = udp::build_datagram(
                    src,
                    HOST_ADDR,
                    1024 + stream as u16,
                    port_of(StreamId(stream)),
                    &payload,
                    checksums,
                );
                let total = (ip::HEADER_LEN + udp.len()) as u16;
                let iph = ip::build_header(
                    total,
                    ident,
                    true,
                    false,
                    0,
                    ip::DEFAULT_TTL,
                    ip::PROTO_UDP,
                    src,
                    HOST_ADDR,
                );
                let mut dgram = iph.to_vec();
                dgram.extend_from_slice(&udp);
                let expect = fddi::build_frame(
                    HOST_MAC,
                    MacAddr::station(100 + stream),
                    fddi::ETHERTYPE_IP,
                    &dgram,
                )
                .unwrap();
                assert_eq!(buf, expect, "stream {stream}, payload {payload_len}");
            }
        }
    }

    #[test]
    fn frame_into_reuses_capacity() {
        let mut f = PacketFactory::new();
        let mut buf = Vec::new();
        f.frame_into(StreamId(0), 256, &mut buf);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        for _ in 0..16 {
            f.frame_into(StreamId(1), 256, &mut buf);
        }
        assert_eq!(buf.capacity(), cap, "steady-state refills must not grow");
        assert_eq!(buf.as_ptr(), ptr, "steady-state refills must not move");
    }

    #[test]
    fn idents_increment() {
        let mut f = PacketFactory::new();
        let f1 = f.frame_for(StreamId(0), 8);
        let f2 = f.frame_for(StreamId(0), 8);
        let id = |fr: &[u8]| u16::from_be_bytes([fr[25], fr[26]]); // 21 hdr + 4
        assert_eq!(id(&f2), id(&f1).wrapping_add(1));
    }

    #[test]
    fn distinct_streams_use_distinct_ports_and_peers() {
        assert_ne!(port_of(StreamId(0)), port_of(StreamId(1)));
        assert_ne!(peer_of(StreamId(0)), peer_of(StreamId(1)));
    }
}
