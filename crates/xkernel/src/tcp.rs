//! TCP receive-side processing: header parse/build with pseudo-header
//! checksum, header-prediction fast path, sequence tracking and
//! out-of-order reassembly.
//!
//! The paper argues its UDP results carry over to TCP: *"the breakdowns
//! of overall processing time overheads for TCP and UDP packets are very
//! similar … at its most influential (for 1-byte packets), TCP-specific
//! processing only accounts for around 15 % of overall packet execution
//! time"*, and names TCP affinity scheduling as a compelling extension.
//! This module implements the receive-side machinery needed to test that
//! claim on our substrate (experiment E19): a real TCP header, a
//! Van-Jacobson-style header-prediction fast path (in-order, expected
//! segment → deliver immediately), and the out-of-order slow path with a
//! reassembly queue.

use std::collections::BTreeMap;

use crate::ip::Ipv4Addr;
use crate::msg::{ones_complement_sum, Message, MsgError};

/// TCP header length without options.
pub const HEADER_LEN: usize = 20;

/// TCP flags (subset used by the data path).
pub mod flags {
    /// Acknowledgment field significant.
    pub const ACK: u8 = 0x10;
    /// Push function.
    pub const PSH: u8 = 0x08;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
}

/// Parsed TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgment number (valid when ACK set).
    pub ack: u32,
    /// Header length in bytes (data offset × 4).
    pub header_len: usize,
    /// Flag bits.
    pub flags: u8,
    /// Advertised receive window.
    pub window: u16,
}

/// TCP errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Segment shorter than the header claims.
    Truncated,
    /// Data offset below the minimum.
    BadHeaderLen,
    /// Checksum over pseudo-header + segment failed.
    BadChecksum,
    /// RST received: connection torn down.
    Reset,
    /// Underlying message error.
    Msg(MsgError),
}

impl From<MsgError> for TcpError {
    fn from(e: MsgError) -> Self {
        TcpError::Msg(e)
    }
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Truncated => write!(f, "truncated TCP segment"),
            TcpError::BadHeaderLen => write!(f, "bad TCP data offset"),
            TcpError::BadChecksum => write!(f, "TCP checksum mismatch"),
            TcpError::Reset => write!(f, "connection reset"),
            TcpError::Msg(e) => write!(f, "message error: {e}"),
        }
    }
}

impl std::error::Error for TcpError {}

/// One's-complement sum of the TCP pseudo-header.
fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, tcp_len: u16) -> u32 {
    let s = src.0;
    let d = dst.0;
    (s >> 16) + (s & 0xFFFF) + (d >> 16) + (d & 0xFFFF) + 6 + tcp_len as u32
}

/// Build a TCP segment (header + payload), checksum filled.
#[allow(clippy::too_many_arguments)]
pub fn build_segment(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flag_bits: u8,
    window: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut s = Vec::with_capacity(HEADER_LEN + payload.len());
    s.extend_from_slice(&src_port.to_be_bytes());
    s.extend_from_slice(&dst_port.to_be_bytes());
    s.extend_from_slice(&seq.to_be_bytes());
    s.extend_from_slice(&ack.to_be_bytes());
    s.push((HEADER_LEN as u8 / 4) << 4); // data offset, no options
    s.push(flag_bits);
    s.extend_from_slice(&window.to_be_bytes());
    s.extend_from_slice(&[0, 0]); // checksum placeholder
    s.extend_from_slice(&[0, 0]); // urgent pointer
    s.extend_from_slice(payload);
    let sum = ones_complement_sum(&s, pseudo_header_sum(src, dst, s.len() as u16));
    let c = !sum;
    s[16..18].copy_from_slice(&c.to_be_bytes());
    s
}

/// Parse and strip a TCP header, verifying the checksum.
pub fn parse_segment(
    msg: &mut Message,
    src: Ipv4Addr,
    dst: Ipv4Addr,
) -> Result<TcpHeader, TcpError> {
    let bytes = msg.bytes();
    if bytes.len() < HEADER_LEN {
        return Err(TcpError::Truncated);
    }
    let header_len = ((bytes[12] >> 4) as usize) * 4;
    if header_len < HEADER_LEN {
        return Err(TcpError::BadHeaderLen);
    }
    if bytes.len() < header_len {
        return Err(TcpError::Truncated);
    }
    let sum = ones_complement_sum(bytes, pseudo_header_sum(src, dst, bytes.len() as u16));
    if sum != 0xFFFF {
        return Err(TcpError::BadChecksum);
    }
    let hdr = TcpHeader {
        src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
        dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
        seq: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        ack: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        header_len,
        flags: bytes[13],
        window: u16::from_be_bytes([bytes[14], bytes[15]]),
    };
    msg.pop(header_len)?;
    Ok(hdr)
}

/// Receive-side connection state (established connections only — the
/// fast path the paper's parallelism paradigms contend over).
#[derive(Debug, Clone)]
pub struct TcpSession {
    /// Next expected in-order sequence number.
    pub rcv_nxt: u32,
    /// Bytes delivered in order to the user.
    pub delivered_bytes: u64,
    /// Segments that hit the header-prediction fast path.
    pub fast_path_hits: u64,
    /// Segments that took the out-of-order slow path.
    pub slow_path_hits: u64,
    /// Duplicate/overlapping segments dropped.
    pub duplicates: u64,
    /// Out-of-order segments awaiting the gap fill, keyed by sequence.
    reorder: BTreeMap<u32, Vec<u8>>,
}

/// What the receive path did with a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpDisposition {
    /// In-order data delivered (header prediction hit); `bytes` includes
    /// any queued segments released by this one.
    Delivered {
        /// Total bytes handed to the user.
        bytes: usize,
    },
    /// Out of order: queued for reassembly.
    Queued,
    /// Entirely duplicate data: dropped.
    Duplicate,
}

impl TcpSession {
    /// A session expecting `isn` as the first data byte.
    pub fn new(isn: u32) -> Self {
        TcpSession {
            rcv_nxt: isn,
            delivered_bytes: 0,
            fast_path_hits: 0,
            slow_path_hits: 0,
            duplicates: 0,
            reorder: BTreeMap::new(),
        }
    }

    /// Number of segments parked in the reorder queue.
    pub fn reorder_depth(&self) -> usize {
        self.reorder.len()
    }

    /// Process one data segment (already parsed and stripped).
    ///
    /// Implements header prediction: the expected in-order segment takes
    /// the shortest path; anything else falls into the reassembly queue.
    /// RST tears the connection down (surfaced as an error by callers).
    pub fn receive(&mut self, hdr: &TcpHeader, payload: &[u8]) -> Result<TcpDisposition, TcpError> {
        if hdr.flags & flags::RST != 0 {
            return Err(TcpError::Reset);
        }
        if payload.is_empty() {
            // Pure ACK: nothing to deliver.
            return Ok(TcpDisposition::Delivered { bytes: 0 });
        }
        // Sequence-space comparison with wraparound.
        let offset = hdr.seq.wrapping_sub(self.rcv_nxt) as i32;
        if offset == 0 {
            // Header-prediction hit: exactly the expected segment.
            self.fast_path_hits += 1;
            let mut total = payload.len();
            self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
            self.delivered_bytes += payload.len() as u64;
            // Release any queued segments made contiguous.
            while let Some((&seq, _)) = self.reorder.first_key_value() {
                if seq != self.rcv_nxt {
                    break;
                }
                let seg = self.reorder.remove(&seq).expect("key exists");
                self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.len() as u32);
                self.delivered_bytes += seg.len() as u64;
                total += seg.len();
            }
            Ok(TcpDisposition::Delivered { bytes: total })
        } else if offset < 0 {
            // Entirely old data (retransmission already delivered).
            let end_off = offset + payload.len() as i32;
            if end_off <= 0 {
                self.duplicates += 1;
                Ok(TcpDisposition::Duplicate)
            } else {
                // Partial overlap: deliver only the new suffix, in order.
                let new = &payload[(-offset) as usize..];
                self.fast_path_hits += 1;
                self.rcv_nxt = self.rcv_nxt.wrapping_add(new.len() as u32);
                self.delivered_bytes += new.len() as u64;
                Ok(TcpDisposition::Delivered { bytes: new.len() })
            }
        } else {
            // Future data: park it (last writer wins on exact-seq dups).
            self.slow_path_hits += 1;
            self.reorder.insert(hdr.seq, payload.to_vec());
            Ok(TcpDisposition::Queued)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr(0x0A00_0001);
    const DST: Ipv4Addr = Ipv4Addr(0x0A00_0002);

    fn seg(seq: u32, payload: &[u8]) -> (TcpHeader, Vec<u8>) {
        let wire = build_segment(SRC, DST, 1000, 2000, seq, 0, flags::ACK, 8192, payload);
        let mut msg = Message::from_wire(&wire, 0);
        let hdr = parse_segment(&mut msg, SRC, DST).expect("valid segment");
        (hdr, msg.bytes().to_vec())
    }

    #[test]
    fn build_parse_roundtrip() {
        let wire = build_segment(
            SRC,
            DST,
            5,
            7,
            1234,
            5678,
            flags::ACK | flags::PSH,
            1024,
            b"data",
        );
        let mut msg = Message::from_wire(&wire, 0);
        let h = parse_segment(&mut msg, SRC, DST).unwrap();
        assert_eq!(h.src_port, 5);
        assert_eq!(h.dst_port, 7);
        assert_eq!(h.seq, 1234);
        assert_eq!(h.ack, 5678);
        assert_eq!(h.flags, flags::ACK | flags::PSH);
        assert_eq!(h.window, 1024);
        assert_eq!(msg.bytes(), b"data");
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut wire = build_segment(SRC, DST, 1, 2, 0, 0, flags::ACK, 512, b"payload");
        *wire.last_mut().unwrap() ^= 1;
        let mut msg = Message::from_wire(&wire, 0);
        assert_eq!(
            parse_segment(&mut msg, SRC, DST),
            Err(TcpError::BadChecksum)
        );
        // Wrong pseudo-header also fails.
        let wire = build_segment(SRC, DST, 1, 2, 0, 0, flags::ACK, 512, b"payload");
        let mut msg = Message::from_wire(&wire, 0);
        assert_eq!(
            parse_segment(&mut msg, Ipv4Addr(0xDEAD), DST),
            Err(TcpError::BadChecksum)
        );
    }

    #[test]
    fn truncated_and_bad_offset() {
        let mut msg = Message::from_wire(&[0u8; 10], 0);
        assert_eq!(parse_segment(&mut msg, SRC, DST), Err(TcpError::Truncated));
        let mut wire = build_segment(SRC, DST, 1, 2, 0, 0, 0, 0, b"");
        wire[12] = 0x30; // data offset 12 bytes < 20
        let mut msg = Message::from_wire(&wire, 0);
        assert_eq!(
            parse_segment(&mut msg, SRC, DST),
            Err(TcpError::BadHeaderLen)
        );
    }

    #[test]
    fn in_order_stream_uses_fast_path() {
        let mut s = TcpSession::new(100);
        let mut seq = 100u32;
        for _ in 0..10 {
            let (h, p) = seg(seq, b"0123456789");
            let d = s.receive(&h, &p).unwrap();
            assert_eq!(d, TcpDisposition::Delivered { bytes: 10 });
            seq += 10;
        }
        assert_eq!(s.fast_path_hits, 10);
        assert_eq!(s.slow_path_hits, 0);
        assert_eq!(s.delivered_bytes, 100);
        assert_eq!(s.rcv_nxt, 200);
    }

    #[test]
    fn out_of_order_reassembles() {
        let mut s = TcpSession::new(0);
        let (h2, p2) = seg(10, b"BBBBBBBBBB");
        let (h3, p3) = seg(20, b"CCCCCCCCCC");
        let (h1, p1) = seg(0, b"AAAAAAAAAA");
        assert_eq!(s.receive(&h2, &p2).unwrap(), TcpDisposition::Queued);
        assert_eq!(s.receive(&h3, &p3).unwrap(), TcpDisposition::Queued);
        assert_eq!(s.reorder_depth(), 2);
        // The gap fill releases everything.
        assert_eq!(
            s.receive(&h1, &p1).unwrap(),
            TcpDisposition::Delivered { bytes: 30 }
        );
        assert_eq!(s.rcv_nxt, 30);
        assert_eq!(s.reorder_depth(), 0);
        assert_eq!(s.delivered_bytes, 30);
        assert_eq!(s.slow_path_hits, 2);
    }

    #[test]
    fn duplicates_are_dropped_and_overlaps_trimmed() {
        let mut s = TcpSession::new(0);
        let (h1, p1) = seg(0, b"0123456789");
        s.receive(&h1, &p1).unwrap();
        // Exact retransmission.
        assert_eq!(s.receive(&h1, &p1).unwrap(), TcpDisposition::Duplicate);
        assert_eq!(s.duplicates, 1);
        // Overlapping segment: bytes 5..15; only 10..15 are new.
        let (h2, p2) = seg(5, b"56789ABCDE");
        assert_eq!(
            s.receive(&h2, &p2).unwrap(),
            TcpDisposition::Delivered { bytes: 5 }
        );
        assert_eq!(s.rcv_nxt, 15);
        assert_eq!(s.delivered_bytes, 15);
    }

    #[test]
    fn sequence_wraparound_handled() {
        let isn = u32::MAX - 4;
        let mut s = TcpSession::new(isn);
        let (h1, p1) = seg(isn, b"0123456789"); // crosses the wrap
        assert_eq!(
            s.receive(&h1, &p1).unwrap(),
            TcpDisposition::Delivered { bytes: 10 }
        );
        assert_eq!(s.rcv_nxt, 5); // wrapped
        let (h2, p2) = seg(5, b"xyz");
        assert_eq!(
            s.receive(&h2, &p2).unwrap(),
            TcpDisposition::Delivered { bytes: 3 }
        );
    }

    #[test]
    fn rst_tears_down() {
        let mut s = TcpSession::new(0);
        let wire = build_segment(SRC, DST, 1, 2, 0, 0, flags::RST, 0, b"");
        let mut msg = Message::from_wire(&wire, 0);
        let h = parse_segment(&mut msg, SRC, DST).unwrap();
        assert_eq!(s.receive(&h, msg.bytes()), Err(TcpError::Reset));
    }

    #[test]
    fn pure_acks_deliver_nothing() {
        let mut s = TcpSession::new(0);
        let (h, p) = seg(0, b"");
        assert_eq!(
            s.receive(&h, &p).unwrap(),
            TcpDisposition::Delivered { bytes: 0 }
        );
        assert_eq!(s.fast_path_hits, 0);
        assert_eq!(s.rcv_nxt, 0);
    }
}
