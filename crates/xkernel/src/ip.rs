//! IPv4 processing: header build/parse/validate with a real internet
//! checksum and protocol demultiplexing.
//!
//! The paper's fast path (like every real one) assumes unfragmented
//! datagrams: the fragment fields are parsed into [`IpHeader`] but
//! nothing reassembles.

use crate::msg::{internet_checksum, Message, MsgError};

/// IPv4 header length without options.
pub const HEADER_LEN: usize = 20;
/// IP protocol number for UDP.
pub const PROTO_UDP: u8 = 17;
/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// IP protocol number for ICMP.
pub const PROTO_ICMP: u8 = 1;
/// Default TTL used on send.
pub const DEFAULT_TTL: u8 = 64;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Dotted-quad constructor.
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// A deterministic host address for test host `n` (10.x.y.z space).
    pub fn host(n: u32) -> Self {
        let b = n.to_be_bytes();
        Ipv4Addr::new(10, b[1], b[2], b[3])
    }
}

impl std::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// Parsed IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpHeader {
    /// Header length in bytes (IHL × 4).
    pub header_len: usize,
    /// Total datagram length (header + payload).
    pub total_len: u16,
    /// Identification.
    pub ident: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in bytes.
    pub frag_offset: usize,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

/// IPv4 errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpError {
    /// Not version 4 or IHL < 5.
    BadVersion,
    /// Header shorter than IHL claims, or message shorter than header.
    Truncated,
    /// Header checksum mismatch.
    BadChecksum,
    /// Total length disagrees with the message.
    BadLength,
    /// TTL expired.
    TtlExpired,
    /// Unknown payload protocol.
    UnknownProtocol(u8),
    /// Underlying message error.
    Msg(MsgError),
}

impl From<MsgError> for IpError {
    fn from(e: MsgError) -> Self {
        IpError::Msg(e)
    }
}

impl std::fmt::Display for IpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpError::BadVersion => write!(f, "bad IP version/IHL"),
            IpError::Truncated => write!(f, "truncated IP datagram"),
            IpError::BadChecksum => write!(f, "IP header checksum mismatch"),
            IpError::BadLength => write!(f, "IP total length mismatch"),
            IpError::TtlExpired => write!(f, "TTL expired"),
            IpError::UnknownProtocol(p) => write!(f, "unknown IP protocol {p}"),
            IpError::Msg(e) => write!(f, "message error: {e}"),
        }
    }
}

impl std::error::Error for IpError {}

/// Serialize an IPv4 header (no options) into 20 bytes, checksum filled.
#[allow(clippy::too_many_arguments)]
pub fn build_header(
    total_len: u16,
    ident: u16,
    dont_fragment: bool,
    more_fragments: bool,
    frag_offset: usize,
    ttl: u8,
    protocol: u8,
    src: Ipv4Addr,
    dst: Ipv4Addr,
) -> [u8; HEADER_LEN] {
    assert!(
        frag_offset.is_multiple_of(8),
        "fragment offset must be 8-byte aligned"
    );
    let mut h = [0u8; HEADER_LEN];
    h[0] = 0x45; // version 4, IHL 5
    h[1] = 0; // TOS
    h[2..4].copy_from_slice(&total_len.to_be_bytes());
    h[4..6].copy_from_slice(&ident.to_be_bytes());
    let mut flags_frag = (frag_offset / 8) as u16;
    if dont_fragment {
        flags_frag |= 0x4000;
    }
    if more_fragments {
        flags_frag |= 0x2000;
    }
    h[6..8].copy_from_slice(&flags_frag.to_be_bytes());
    h[8] = ttl;
    h[9] = protocol;
    // h[10..12] checksum = 0 for computation
    h[12..16].copy_from_slice(&src.0.to_be_bytes());
    h[16..20].copy_from_slice(&dst.0.to_be_bytes());
    let c = internet_checksum(&h);
    h[10..12].copy_from_slice(&c.to_be_bytes());
    h
}

/// Parse and strip the IPv4 header of `msg` (uninstrumented; the
/// instrumented fast path in [`crate::engine`] mirrors these reads).
/// Verifies the checksum and length and truncates trailing padding.
pub fn parse_header(msg: &mut Message) -> Result<IpHeader, IpError> {
    let bytes = msg.bytes();
    if bytes.len() < HEADER_LEN {
        return Err(IpError::Truncated);
    }
    let vihl = bytes[0];
    if vihl >> 4 != 4 || (vihl & 0x0F) < 5 {
        return Err(IpError::BadVersion);
    }
    let header_len = ((vihl & 0x0F) as usize) * 4;
    if bytes.len() < header_len {
        return Err(IpError::Truncated);
    }
    if internet_checksum(&bytes[..header_len]) != 0 {
        return Err(IpError::BadChecksum);
    }
    let total_len = u16::from_be_bytes([bytes[2], bytes[3]]);
    if (total_len as usize) < header_len || (total_len as usize) > bytes.len() {
        return Err(IpError::BadLength);
    }
    let ident = u16::from_be_bytes([bytes[4], bytes[5]]);
    let flags_frag = u16::from_be_bytes([bytes[6], bytes[7]]);
    let ttl = bytes[8];
    if ttl == 0 {
        return Err(IpError::TtlExpired);
    }
    let protocol = bytes[9];
    let src = Ipv4Addr(u32::from_be_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15],
    ]));
    let dst = Ipv4Addr(u32::from_be_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19],
    ]));

    let hdr = IpHeader {
        header_len,
        total_len,
        ident,
        dont_fragment: flags_frag & 0x4000 != 0,
        more_fragments: flags_frag & 0x2000 != 0,
        frag_offset: ((flags_frag & 0x1FFF) as usize) * 8,
        ttl,
        protocol,
        src,
        dst,
    };
    // Drop link-layer padding beyond total_len, then strip the header.
    msg.truncate(total_len as usize);
    msg.pop(header_len)?;
    Ok(hdr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dgram(payload: &[u8]) -> Vec<u8> {
        let total = (HEADER_LEN + payload.len()) as u16;
        let h = build_header(
            total,
            0x1234,
            true,
            false,
            0,
            DEFAULT_TTL,
            PROTO_UDP,
            Ipv4Addr::host(1),
            Ipv4Addr::host(2),
        );
        let mut v = h.to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn build_parse_roundtrip() {
        let d = dgram(b"payload!");
        let mut msg = Message::from_wire(&d, 0);
        let hdr = parse_header(&mut msg).unwrap();
        assert_eq!(hdr.protocol, PROTO_UDP);
        assert_eq!(hdr.src, Ipv4Addr::host(1));
        assert_eq!(hdr.dst, Ipv4Addr::host(2));
        assert_eq!(hdr.total_len as usize, HEADER_LEN + 8);
        assert!(hdr.dont_fragment);
        assert!(!hdr.more_fragments);
        assert_eq!(msg.bytes(), b"payload!");
    }

    #[test]
    fn checksum_is_valid_and_detects_corruption() {
        let mut d = dgram(b"x");
        let mut msg = Message::from_wire(&d, 0);
        parse_header(&mut msg).unwrap();
        d[8] ^= 0xFF; // corrupt TTL
        let mut msg = Message::from_wire(&d, 0);
        assert_eq!(parse_header(&mut msg), Err(IpError::BadChecksum));
    }

    #[test]
    fn version_and_length_checks() {
        let mut d = dgram(b"abc");
        d[0] = 0x55; // version 5
        assert_eq!(
            parse_header(&mut Message::from_wire(&d, 0)),
            Err(IpError::BadVersion)
        );
        assert_eq!(
            parse_header(&mut Message::from_wire(&[0u8; 10], 0)),
            Err(IpError::Truncated)
        );
    }

    #[test]
    fn total_len_mismatch_rejected() {
        let mut d = dgram(b"abc");
        // Claim more bytes than the message carries; fix the checksum.
        d[2..4].copy_from_slice(&1000u16.to_be_bytes());
        d[10] = 0;
        d[11] = 0;
        let c = internet_checksum(&d[..HEADER_LEN]);
        d[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(
            parse_header(&mut Message::from_wire(&d, 0)),
            Err(IpError::BadLength)
        );
    }

    #[test]
    fn ttl_zero_rejected() {
        let total = (HEADER_LEN + 1) as u16;
        let h = build_header(
            total,
            1,
            false,
            false,
            0,
            0,
            PROTO_UDP,
            Ipv4Addr::host(1),
            Ipv4Addr::host(2),
        );
        let mut v = h.to_vec();
        v.push(0xEE);
        assert_eq!(
            parse_header(&mut Message::from_wire(&v, 0)),
            Err(IpError::TtlExpired)
        );
    }

    #[test]
    fn padding_is_truncated() {
        let mut d = dgram(b"ab");
        d.extend_from_slice(&[0xFF; 10]); // link-layer padding
        let mut msg = Message::from_wire(&d, 0);
        parse_header(&mut msg).unwrap();
        assert_eq!(msg.bytes(), b"ab");
    }

    #[test]
    fn host_addresses_format() {
        assert_eq!(Ipv4Addr::host(258).to_string(), "10.0.1.2");
    }
}
