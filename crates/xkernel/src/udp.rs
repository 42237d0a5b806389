//! UDP processing: header build/parse, optional checksum over the
//! pseudo-header, and port demultiplexing.

use crate::ip::Ipv4Addr;
use crate::msg::{ones_complement_sum, Message, MsgError};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// Parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length (header + payload).
    pub length: u16,
    /// Checksum field as received (0 = not computed by sender).
    pub checksum: u16,
}

/// UDP errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpError {
    /// Message shorter than the UDP header or the claimed length.
    Truncated,
    /// Length field smaller than the header.
    BadLength,
    /// Checksum mismatch (only when the sender computed one).
    BadChecksum,
    /// No session bound to the destination port.
    NoPort(u16),
    /// Underlying message error.
    Msg(MsgError),
}

impl From<MsgError> for UdpError {
    fn from(e: MsgError) -> Self {
        UdpError::Msg(e)
    }
}

impl std::fmt::Display for UdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdpError::Truncated => write!(f, "truncated UDP datagram"),
            UdpError::BadLength => write!(f, "bad UDP length"),
            UdpError::BadChecksum => write!(f, "UDP checksum mismatch"),
            UdpError::NoPort(p) => write!(f, "no session on port {p}"),
            UdpError::Msg(e) => write!(f, "message error: {e}"),
        }
    }
}

impl std::error::Error for UdpError {}

/// One's-complement sum of the UDP pseudo-header.
fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, udp_len: u16) -> u32 {
    let s = src.0;
    let d = dst.0;
    (s >> 16) + (s & 0xFFFF) + (d >> 16) + (d & 0xFFFF) + 17 + udp_len as u32
}

/// Compute the UDP checksum for a datagram (header with zero checksum
/// field + payload), with the pseudo-header folded in. Returns the value
/// to place in the checksum field (0 mapped to 0xFFFF per RFC 768).
pub fn udp_checksum(src: Ipv4Addr, dst: Ipv4Addr, datagram: &[u8]) -> u16 {
    let sum = ones_complement_sum(datagram, pseudo_header_sum(src, dst, datagram.len() as u16));
    let c = !sum;
    if c == 0 {
        0xFFFF
    } else {
        c
    }
}

/// Build a UDP datagram (header + payload). `with_checksum = false`
/// writes 0 in the checksum field — the configuration the paper's
/// non-data-touching experiments use.
pub fn build_datagram(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    with_checksum: bool,
) -> Vec<u8> {
    let len = (HEADER_LEN + payload.len()) as u16;
    let mut d = Vec::with_capacity(len as usize);
    d.extend_from_slice(&src_port.to_be_bytes());
    d.extend_from_slice(&dst_port.to_be_bytes());
    d.extend_from_slice(&len.to_be_bytes());
    d.extend_from_slice(&[0, 0]);
    d.extend_from_slice(payload);
    if with_checksum {
        let c = udp_checksum(src, dst, &d);
        d[6..8].copy_from_slice(&c.to_be_bytes());
    }
    d
}

/// Parse and strip the UDP header (uninstrumented twin of the fast path
/// in [`crate::engine`]). When the sender computed a checksum
/// (`checksum != 0`) it is verified against the pseudo-header.
pub fn parse_datagram(
    msg: &mut Message<'_>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
) -> Result<UdpHeader, UdpError> {
    let bytes = msg.bytes();
    if bytes.len() < HEADER_LEN {
        return Err(UdpError::Truncated);
    }
    let hdr = UdpHeader {
        src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
        dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
        length: u16::from_be_bytes([bytes[4], bytes[5]]),
        checksum: u16::from_be_bytes([bytes[6], bytes[7]]),
    };
    if (hdr.length as usize) < HEADER_LEN {
        return Err(UdpError::BadLength);
    }
    if (hdr.length as usize) > bytes.len() {
        return Err(UdpError::Truncated);
    }
    if hdr.checksum != 0 {
        // Sum over the datagram including the transmitted checksum plus
        // the pseudo-header must be 0xFFFF.
        let sum = ones_complement_sum(
            &bytes[..hdr.length as usize],
            pseudo_header_sum(src, dst, hdr.length),
        );
        if sum != 0xFFFF {
            return Err(UdpError::BadChecksum);
        }
    }
    msg.truncate(hdr.length as usize);
    msg.pop(HEADER_LEN)?;
    Ok(hdr)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr(0x0A000001);
    const DST: Ipv4Addr = Ipv4Addr(0x0A000002);

    #[test]
    fn roundtrip_without_checksum() {
        let d = build_datagram(SRC, DST, 1111, 2222, b"data", false);
        let mut msg = Message::from_wire(&d, 0);
        let h = parse_datagram(&mut msg, SRC, DST).unwrap();
        assert_eq!(h.src_port, 1111);
        assert_eq!(h.dst_port, 2222);
        assert_eq!(h.length as usize, HEADER_LEN + 4);
        assert_eq!(h.checksum, 0);
        assert_eq!(msg.bytes(), b"data");
    }

    #[test]
    fn roundtrip_with_checksum() {
        let d = build_datagram(SRC, DST, 5, 7, b"checksummed payload", true);
        let mut msg = Message::from_wire(&d, 0);
        let h = parse_datagram(&mut msg, SRC, DST).unwrap();
        assert_ne!(h.checksum, 0);
        assert_eq!(msg.bytes(), b"checksummed payload");
    }

    #[test]
    fn corrupted_payload_detected_when_checksummed() {
        let mut d = build_datagram(SRC, DST, 5, 7, b"payload", true);
        *d.last_mut().unwrap() ^= 0x40;
        let mut msg = Message::from_wire(&d, 0);
        assert_eq!(
            parse_datagram(&mut msg, SRC, DST),
            Err(UdpError::BadChecksum)
        );
    }

    #[test]
    fn wrong_pseudo_header_detected() {
        let d = build_datagram(SRC, DST, 5, 7, b"payload", true);
        let mut msg = Message::from_wire(&d, 0);
        // Claim a different source address than the one summed.
        assert_eq!(
            parse_datagram(&mut msg, Ipv4Addr(0x0A0000FF), DST),
            Err(UdpError::BadChecksum)
        );
    }

    #[test]
    fn corruption_ignored_without_checksum() {
        let mut d = build_datagram(SRC, DST, 5, 7, b"payload", false);
        *d.last_mut().unwrap() ^= 0x40;
        let mut msg = Message::from_wire(&d, 0);
        assert!(parse_datagram(&mut msg, SRC, DST).is_ok());
    }

    #[test]
    fn truncated_and_bad_length() {
        let mut msg = Message::from_wire(&[0u8; 4], 0);
        assert_eq!(parse_datagram(&mut msg, SRC, DST), Err(UdpError::Truncated));

        let mut d = build_datagram(SRC, DST, 1, 2, b"abc", false);
        d[4..6].copy_from_slice(&3u16.to_be_bytes()); // length < header
        let mut msg = Message::from_wire(&d, 0);
        assert_eq!(parse_datagram(&mut msg, SRC, DST), Err(UdpError::BadLength));

        let mut d = build_datagram(SRC, DST, 1, 2, b"abc", false);
        d[4..6].copy_from_slice(&100u16.to_be_bytes()); // length > message
        let mut msg = Message::from_wire(&d, 0);
        assert_eq!(parse_datagram(&mut msg, SRC, DST), Err(UdpError::Truncated));
    }

    #[test]
    fn zero_checksum_never_emitted_when_computed() {
        // Find a payload whose checksum would be zero: the all-zeros
        // pseudo-header case is hard to hit; instead verify the 0→0xFFFF
        // rule directly on a crafted sum.
        let c = udp_checksum(Ipv4Addr(0), Ipv4Addr(0), &[]);
        assert_ne!(c, 0);
    }

    #[test]
    fn padding_after_length_is_dropped() {
        let mut d = build_datagram(SRC, DST, 1, 2, b"ab", false);
        d.extend_from_slice(&[0xEE; 6]);
        let mut msg = Message::from_wire(&d, 0);
        parse_datagram(&mut msg, SRC, DST).unwrap();
        assert_eq!(msg.bytes(), b"ab");
    }
}
