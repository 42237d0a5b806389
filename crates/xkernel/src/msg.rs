//! The x-kernel message tool: a byte buffer with cheap header push/pop
//! and instrumented reads.
//!
//! An x-kernel message travels *down* a protocol graph on send (each layer
//! pushes its header in front) and *up* on receive (each layer pops its
//! header off). We model this as a window `head..end` over a byte buffer:
//! pops and truncations move the window in O(1). A received message
//! borrows the frame it parses, so the receive path reads the driver's
//! bytes where they lie and copies none; an outgoing one owns its bytes,
//! and pushes into its reserved headroom are O(1).
//!
//! Each message is bound to a simulated packet-buffer address, so header
//! reads issue `PacketData` references at the right simulated location:
//! byte `i` of the wire frame lives at `base_addr + i`.

use std::borrow::Cow;

use afs_cache::sim::trace::{Region, TraceSink};

use crate::mem::MemCtx;

/// Headroom reserved in front of a payload for pushed headers.
pub const DEFAULT_HEADROOM: usize = 64;

/// A protocol message: wire bytes, borrowed on receive and owned on
/// send, and the visible window `head..end` over them.
#[derive(Debug, Clone)]
pub struct Message<'a> {
    buf: Cow<'a, [u8]>,
    head: usize,
    end: usize,
    /// Simulated base address of byte 0 of the *frame* (head = frame
    /// start when the driver hands the message up).
    base_addr: u64,
}

/// Errors from message operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgError {
    /// A pop or read ran past the end of the message.
    Truncated,
    /// A push ran out of headroom.
    NoHeadroom,
}

impl std::fmt::Display for MsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgError::Truncated => write!(f, "message truncated"),
            MsgError::NoHeadroom => write!(f, "insufficient headroom"),
        }
    }
}

impl std::error::Error for MsgError {}

impl<'a> Message<'a> {
    /// View received wire bytes (head at 0) in place, bound to a
    /// simulated buffer address. Nothing is copied: the message borrows
    /// `frame`, and no pop or truncation writes to it.
    pub fn from_wire(frame: &'a [u8], base_addr: u64) -> Self {
        Message {
            buf: Cow::Borrowed(frame),
            head: 0,
            end: frame.len(),
            base_addr,
        }
    }

    /// Create an outgoing message holding `payload`, with headroom for
    /// headers to be pushed in front.
    pub fn for_send(payload: &[u8], base_addr: u64) -> Self {
        let buf = [&[0; DEFAULT_HEADROOM][..], payload].concat();
        Message {
            end: buf.len(),
            buf: Cow::Owned(buf),
            head: DEFAULT_HEADROOM,
            base_addr,
        }
    }

    /// Bytes currently visible (head up to the end).
    pub fn len(&self) -> usize {
        self.end - self.head
    }

    /// True when nothing remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visible bytes as a slice.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.head..self.end]
    }

    /// The simulated address of the current head byte.
    pub fn head_addr(&self) -> u64 {
        self.base_addr + self.head as u64
    }

    /// Pop `n` header bytes: advances the head. Returns the popped range
    /// as (start offset in frame, length) for address math.
    pub fn pop(&mut self, n: usize) -> Result<(), MsgError> {
        if n > self.len() {
            return Err(MsgError::Truncated);
        }
        self.head += n;
        Ok(())
    }

    /// Push an `n`-byte header in front of the head and return a mutable
    /// slice to fill it. An outgoing message owns its bytes, so this
    /// writes in place.
    pub fn push(&mut self, n: usize) -> Result<&mut [u8], MsgError> {
        if n > self.head {
            return Err(MsgError::NoHeadroom);
        }
        self.head -= n;
        let head = self.head;
        Ok(&mut self.buf.to_mut()[head..head + n])
    }

    /// Truncate the message to `n` visible bytes (drop trailing padding):
    /// the window's end moves, the bytes stay where they are.
    pub fn truncate(&mut self, n: usize) {
        if n < self.len() {
            self.end = self.head + n;
        }
    }

    // ---- Instrumented reads (issue PacketData references) -------------

    /// Big-endian u32 at `off` past the head.
    pub fn read_u32<S: TraceSink>(
        &self,
        ctx: &mut MemCtx<'_, S>,
        off: usize,
    ) -> Result<u32, MsgError> {
        let s = self.bytes();
        if off + 4 > s.len() {
            return Err(MsgError::Truncated);
        }
        ctx.load(self.head_addr() + off as u64, Region::PacketData);
        Ok(u32::from_be_bytes([
            s[off],
            s[off + 1],
            s[off + 2],
            s[off + 3],
        ]))
    }

    /// Internet checksum (RFC 1071 one's-complement sum) over `len`
    /// visible bytes starting at `off`, charging one load per 4 bytes —
    /// the data-touching operation the paper's `V` parameter prices.
    pub fn checksum16<S: TraceSink>(
        &self,
        ctx: &mut MemCtx<'_, S>,
        off: usize,
        len: usize,
    ) -> Result<u16, MsgError> {
        let s = self.bytes();
        if off + len > s.len() {
            return Err(MsgError::Truncated);
        }
        ctx.load_range(
            self.head_addr() + off as u64,
            len as u64,
            Region::PacketData,
        );
        Ok(internet_checksum(&s[off..off + len]))
    }
}

/// RFC 1071 internet checksum of a byte slice (odd lengths padded with a
/// zero byte), returned as the already-complemented 16-bit value.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data, 0)
}

/// One's-complement 16-bit sum (not complemented), with an initial value —
/// lets callers fold in a pseudo-header.
pub fn ones_complement_sum(data: &[u8], initial: u32) -> u16 {
    let mut sum: u32 = initial;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_cache::sim::trace::TraceBuffer;

    #[test]
    fn wire_pop_and_read() {
        let frame = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut m = Message::from_wire(&frame, 0x5000_0000);
        assert_eq!(m.len(), 8);
        assert_eq!(m.bytes()[0], 1);
        m.pop(3).unwrap();
        assert_eq!(m.len(), 5);
        assert_eq!(m.bytes()[0], 4);
        assert_eq!(m.head_addr(), 0x5000_0003);
        assert_eq!(m.pop(99), Err(MsgError::Truncated));
    }

    #[test]
    fn from_wire_borrows_and_truncate_leaves_the_frame_untouched() {
        let frame = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut m = Message::from_wire(&frame, 0x100);
        // The message is a view of the frame, not a copy of it.
        assert_eq!(m.bytes().as_ptr(), frame.as_ptr());
        m.pop(2).unwrap();
        assert_eq!(m.bytes().as_ptr(), frame[2..].as_ptr());
        m.truncate(3);
        assert_eq!(m.bytes(), &[3, 4, 5]);
        assert_eq!(m.bytes().as_ptr(), frame[2..].as_ptr());
        assert_eq!(m.head_addr(), 0x102);
        assert_eq!(
            m.read_u32(&mut MemCtx::new(&mut TraceBuffer::new()), 0),
            Err(MsgError::Truncated)
        );
        assert_eq!(frame, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn push_headers_in_front() {
        let mut m = Message::for_send(b"payload", 0);
        {
            let h = m.push(4).unwrap();
            h.copy_from_slice(b"UDP!");
        }
        {
            let h = m.push(2).unwrap();
            h.copy_from_slice(b"IP");
        }
        assert_eq!(m.bytes(), b"IPUDP!payload");
        assert_eq!(m.len(), 13);
    }

    #[test]
    fn push_exhausts_headroom() {
        let mut m = Message::for_send(b"x", 0);
        assert!(m.push(DEFAULT_HEADROOM).is_ok());
        assert_eq!(m.push(1), Err(MsgError::NoHeadroom));
    }

    #[test]
    fn truncate_drops_tail() {
        let mut m = Message::from_wire(&[1, 2, 3, 4, 5], 0);
        m.pop(1).unwrap();
        m.truncate(2);
        assert_eq!(m.bytes(), &[2, 3]);
        m.truncate(10); // no-op
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn instrumented_reads_issue_packet_refs() {
        let frame = [0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02];
        let m = Message::from_wire(&frame, 0x5000_0000);
        let mut buf = TraceBuffer::new();
        {
            let mut ctx = MemCtx::new(&mut buf);
            assert_eq!(m.read_u32(&mut ctx, 0).unwrap(), 0xDEADBEEF);
            assert_eq!(m.read_u32(&mut ctx, 2).unwrap(), 0xBEEF0102);
            assert_eq!(m.read_u32(&mut ctx, 3), Err(MsgError::Truncated));
        }
        assert_eq!(buf.len(), 2);
        assert!(buf
            .refs
            .iter()
            .all(|r| r.region == Region::PacketData && r.addr >= 0x5000_0000));
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2
        // (complement 0x220d).
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&data, 0), 0xddf2);
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length_pads() {
        assert_eq!(ones_complement_sum(&[0xFF], 0), 0xFF00);
    }

    #[test]
    fn checksum_of_message_charges_loads() {
        let data = vec![0xAAu8; 64];
        let m = Message::from_wire(&data, 0x5000_0000);
        let mut buf = TraceBuffer::new();
        let mut ctx = MemCtx::new(&mut buf);
        let c = m.checksum16(&mut ctx, 0, 64).unwrap();
        assert_eq!(buf.len(), 16); // one load per 4 bytes
        assert_eq!(c, internet_checksum(&data));
    }

    #[test]
    fn checksum_validates_zero_on_correct_packet() {
        // A header whose checksum field is filled correctly sums to
        // 0xFFFF (i.e. complement 0).
        let mut hdr = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let c = internet_checksum(&hdr);
        hdr[10] = (c >> 8) as u8;
        hdr[11] = (c & 0xFF) as u8;
        assert_eq!(internet_checksum(&hdr), 0);
    }
}
