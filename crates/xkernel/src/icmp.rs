//! ICMP error generation: the destination-unreachable replies a real
//! receive path must emit when demultiplexing fails (RFC 792).
//!
//! Off the fast path, like reassembly — but part of what makes the
//! substrate a protocol stack rather than a parser: a UDP datagram for
//! an unbound port elicits a *port unreachable* carrying the offending
//! datagram's IP header plus its first 8 bytes.

use crate::ip::{self, Ipv4Addr};
use crate::msg::{internet_checksum, Message, MsgError};

/// ICMP message type: destination unreachable.
pub const TYPE_DEST_UNREACHABLE: u8 = 3;
/// Destination-unreachable code: port unreachable.
pub const CODE_PORT_UNREACHABLE: u8 = 3;
/// ICMP header length.
pub const HEADER_LEN: usize = 8;

/// A parsed ICMP message (the subset this stack emits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpMessage {
    /// Message type.
    pub icmp_type: u8,
    /// Type-specific code.
    pub code: u8,
    /// The quoted original datagram (IP header + first 8 payload bytes).
    pub quoted: Vec<u8>,
}

/// ICMP errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpError {
    /// Shorter than the ICMP header.
    Truncated,
    /// Checksum mismatch.
    BadChecksum,
    /// Underlying message error.
    Msg(MsgError),
}

impl From<MsgError> for IcmpError {
    fn from(e: MsgError) -> Self {
        IcmpError::Msg(e)
    }
}

impl std::fmt::Display for IcmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IcmpError::Truncated => write!(f, "truncated ICMP message"),
            IcmpError::BadChecksum => write!(f, "ICMP checksum mismatch"),
            IcmpError::Msg(e) => write!(f, "message error: {e}"),
        }
    }
}

impl std::error::Error for IcmpError {}

/// Build a complete IP datagram carrying a *port unreachable* for the
/// offending datagram `original` (its full bytes, header included). The
/// reply is addressed back to the original sender from `our_addr`.
///
/// Returns `None` when the original is too short to quote (malformed
/// input should not elicit errors about errors).
pub fn port_unreachable(original: &[u8], our_addr: Ipv4Addr) -> Option<Vec<u8>> {
    if original.len() < ip::HEADER_LEN {
        return None;
    }
    let orig_header_len = ((original[0] & 0x0F) as usize) * 4;
    if original.len() < orig_header_len {
        return None;
    }
    let orig_src = Ipv4Addr(u32::from_be_bytes([
        original[12],
        original[13],
        original[14],
        original[15],
    ]));
    // Quote the original header + up to 8 payload bytes (RFC 792).
    let quote_len = (orig_header_len + 8).min(original.len());

    let mut icmp = Vec::with_capacity(HEADER_LEN + quote_len);
    icmp.push(TYPE_DEST_UNREACHABLE);
    icmp.push(CODE_PORT_UNREACHABLE);
    icmp.extend_from_slice(&[0, 0]); // checksum placeholder
    icmp.extend_from_slice(&[0, 0, 0, 0]); // unused
    icmp.extend_from_slice(&original[..quote_len]);
    let c = internet_checksum(&icmp);
    icmp[2..4].copy_from_slice(&c.to_be_bytes());

    let total = (ip::HEADER_LEN + icmp.len()) as u16;
    let header = ip::build_header(
        total,
        0,
        false,
        false,
        0,
        ip::DEFAULT_TTL,
        ip::PROTO_ICMP,
        our_addr,
        orig_src,
    );
    let mut datagram = header.to_vec();
    datagram.extend_from_slice(&icmp);
    Some(datagram)
}

/// Parse an ICMP message (after the IP header has been stripped).
pub fn parse(msg: &mut Message<'_>) -> Result<IcmpMessage, IcmpError> {
    let bytes = msg.bytes();
    if bytes.len() < HEADER_LEN {
        return Err(IcmpError::Truncated);
    }
    if internet_checksum(bytes) != 0 {
        return Err(IcmpError::BadChecksum);
    }
    let out = IcmpMessage {
        icmp_type: bytes[0],
        code: bytes[1],
        quoted: bytes[HEADER_LEN..].to_vec(),
    };
    msg.pop(msg.len())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp;

    fn offending_datagram() -> Vec<u8> {
        let payload = udp::build_datagram(
            Ipv4Addr::host(9),
            Ipv4Addr::host(1),
            4444,
            9999, // unbound port
            b"hello port unreachable quoting",
            false,
        );
        let total = (ip::HEADER_LEN + payload.len()) as u16;
        let h = ip::build_header(
            total,
            77,
            false,
            false,
            0,
            ip::DEFAULT_TTL,
            ip::PROTO_UDP,
            Ipv4Addr::host(9),
            Ipv4Addr::host(1),
        );
        let mut d = h.to_vec();
        d.extend_from_slice(&payload);
        d
    }

    #[test]
    fn reply_addresses_and_quote() {
        let orig = offending_datagram();
        let reply = port_unreachable(&orig, Ipv4Addr::host(1)).expect("reply built");
        // The reply parses as a valid IP datagram back to the sender.
        let mut msg = Message::from_wire(&reply, 0);
        let ih = ip::parse_header(&mut msg).unwrap();
        assert_eq!(ih.protocol, ip::PROTO_ICMP);
        assert_eq!(ih.src, Ipv4Addr::host(1));
        assert_eq!(ih.dst, Ipv4Addr::host(9));
        let icmp = parse(&mut msg).unwrap();
        assert_eq!(icmp.icmp_type, TYPE_DEST_UNREACHABLE);
        assert_eq!(icmp.code, CODE_PORT_UNREACHABLE);
        // Quote = original IP header + first 8 bytes (the UDP header,
        // which is what lets the sender match the error to its socket).
        assert_eq!(icmp.quoted.len(), ip::HEADER_LEN + 8);
        assert_eq!(&icmp.quoted[..ip::HEADER_LEN], &orig[..ip::HEADER_LEN]);
        let udp_hdr = &icmp.quoted[ip::HEADER_LEN..];
        assert_eq!(u16::from_be_bytes([udp_hdr[0], udp_hdr[1]]), 4444);
        assert_eq!(u16::from_be_bytes([udp_hdr[2], udp_hdr[3]]), 9999);
    }

    #[test]
    fn short_original_is_quoted_whole() {
        let orig = offending_datagram();
        let short = &orig[..ip::HEADER_LEN + 3];
        let reply = port_unreachable(short, Ipv4Addr::host(1)).unwrap();
        let mut msg = Message::from_wire(&reply, 0);
        ip::parse_header(&mut msg).unwrap();
        let icmp = parse(&mut msg).unwrap();
        assert_eq!(icmp.quoted.len(), ip::HEADER_LEN + 3);
    }

    #[test]
    fn malformed_original_elicits_nothing() {
        assert!(port_unreachable(&[0u8; 4], Ipv4Addr::host(1)).is_none());
        assert!(port_unreachable(&[], Ipv4Addr::host(1)).is_none());
    }

    #[test]
    fn corrupted_icmp_rejected() {
        let orig = offending_datagram();
        let reply = port_unreachable(&orig, Ipv4Addr::host(1)).unwrap();
        let mut msg = Message::from_wire(&reply, 0);
        ip::parse_header(&mut msg).unwrap();
        // Corrupt one quoted byte.
        let mut icmp_bytes = msg.bytes().to_vec();
        *icmp_bytes.last_mut().unwrap() ^= 1;
        let mut corrupted = Message::from_wire(&icmp_bytes, 0);
        assert_eq!(parse(&mut corrupted), Err(IcmpError::BadChecksum));
    }

    #[test]
    fn truncated_icmp_rejected() {
        let mut msg = Message::from_wire(&[3, 3, 0], 0);
        assert_eq!(parse(&mut msg), Err(IcmpError::Truncated));
    }
}
