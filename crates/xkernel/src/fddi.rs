//! FDDI MAC framing (receive and send), byte-exact.
//!
//! The frame layout we implement is the LLC/SNAP encapsulation used for
//! IP over FDDI (RFC 1188):
//!
//! ```text
//! +----+---------+---------+-----+-----+------+-------+---------+-----+
//! | FC | DA (6)  | SA (6)  |DSAP |SSAP | ctrl | SNAP OUI+type(5) | ... |
//! +----+---------+---------+-----+-----+------+-------+---------+-----+
//! |                      payload (≤ 4432 bytes)                 | FCS |
//! +--------------------------------------------------------------+----+
//! ```
//!
//! 21 bytes of header, a 4-byte CRC-32 FCS. The 4432-byte maximum payload
//! is the figure the paper uses for the largest FDDI packet. The paper's
//! in-memory device driver does not receive from a real ring, and neither
//! does ours — frames are produced by [`crate::driver`] — but parsing and
//! CRC verification are performed for real.

use crate::msg::{Message, MsgError};

/// FDDI frame-control byte for an async LLC frame.
pub const FC_LLC: u8 = 0x50;
/// LLC SAP value for SNAP.
pub const LLC_SNAP_SAP: u8 = 0xAA;
/// LLC control: unnumbered information.
pub const LLC_UI: u8 = 0x03;
/// SNAP EtherType for IPv4.
pub const ETHERTYPE_IP: u16 = 0x0800;
/// MAC + LLC/SNAP header length.
pub const HEADER_LEN: usize = 21;
/// FCS trailer length.
pub const FCS_LEN: usize = 4;
/// Maximum payload carried in one frame (the paper's figure).
pub const MAX_PAYLOAD: usize = 4432;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// A deterministic address for test/station `n`.
    pub fn station(n: u32) -> Self {
        let b = n.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

/// Parsed FDDI header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FddiHeader {
    /// Frame control.
    pub fc: u8,
    /// Destination station.
    pub dst: MacAddr,
    /// Source station.
    pub src: MacAddr,
    /// SNAP EtherType of the payload.
    pub ethertype: u16,
}

/// Errors surfaced by FDDI processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FddiError {
    /// Frame shorter than header + FCS.
    Runt,
    /// Frame-control byte is not an LLC data frame.
    BadFrameControl,
    /// LLC/SNAP fields malformed.
    BadLlc,
    /// FCS mismatch.
    BadFcs,
    /// Payload exceeds the FDDI MTU.
    Oversize,
    /// Underlying message error.
    Msg(MsgError),
}

impl From<MsgError> for FddiError {
    fn from(e: MsgError) -> Self {
        FddiError::Msg(e)
    }
}

impl std::fmt::Display for FddiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FddiError::Runt => write!(f, "runt frame"),
            FddiError::BadFrameControl => write!(f, "bad frame control"),
            FddiError::BadLlc => write!(f, "bad LLC/SNAP header"),
            FddiError::BadFcs => write!(f, "FCS mismatch"),
            FddiError::Oversize => write!(f, "payload exceeds FDDI MTU"),
            FddiError::Msg(e) => write!(f, "message error: {e}"),
        }
    }
}

impl std::error::Error for FddiError {}

/// The IEEE 802.3 CRC-32 polynomial, reflected.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes, so eight input bytes fold into
/// the register with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), as used for the FCS.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Build a complete wire frame around `payload`.
pub fn build_frame(
    dst: MacAddr,
    src: MacAddr,
    ethertype: u16,
    payload: &[u8],
) -> Result<Vec<u8>, FddiError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(FddiError::Oversize);
    }
    let mut f = Vec::with_capacity(HEADER_LEN + payload.len() + FCS_LEN);
    f.push(FC_LLC);
    f.extend_from_slice(&dst.0);
    f.extend_from_slice(&src.0);
    f.push(LLC_SNAP_SAP);
    f.push(LLC_SNAP_SAP);
    f.push(LLC_UI);
    f.extend_from_slice(&[0, 0, 0]); // SNAP OUI
    f.extend_from_slice(&ethertype.to_be_bytes());
    f.extend_from_slice(payload);
    let fcs = crc32(&f);
    f.extend_from_slice(&fcs.to_be_bytes());
    Ok(f)
}

/// Parse and strip the FDDI header and FCS of `msg` **without**
/// instrumentation — used by builders and tests. The instrumented
/// receive path lives in [`crate::engine`]; it charges the header reads
/// to the memory model and then parses with this function.
pub fn parse_frame(msg: &mut Message) -> Result<FddiHeader, FddiError> {
    if msg.len() < HEADER_LEN + FCS_LEN {
        return Err(FddiError::Runt);
    }
    let bytes = msg.bytes();
    let fc = bytes[0];
    if fc != FC_LLC {
        return Err(FddiError::BadFrameControl);
    }
    let mut dst = [0u8; 6];
    dst.copy_from_slice(&bytes[1..7]);
    let mut src = [0u8; 6];
    src.copy_from_slice(&bytes[7..13]);
    if bytes[13] != LLC_SNAP_SAP || bytes[14] != LLC_SNAP_SAP || bytes[15] != LLC_UI {
        return Err(FddiError::BadLlc);
    }
    if bytes[16] != 0 || bytes[17] != 0 || bytes[18] != 0 {
        return Err(FddiError::BadLlc);
    }
    let ethertype = u16::from_be_bytes([bytes[19], bytes[20]]);

    // Verify FCS over everything before the trailer.
    let body_len = msg.len() - FCS_LEN;
    let expect = u32::from_be_bytes([
        bytes[body_len],
        bytes[body_len + 1],
        bytes[body_len + 2],
        bytes[body_len + 3],
    ]);
    if crc32(&bytes[..body_len]) != expect {
        return Err(FddiError::BadFcs);
    }

    msg.truncate(body_len); // drop FCS
    msg.pop(HEADER_LEN)?; // strip MAC/LLC header
    Ok(FddiHeader {
        fc,
        dst: MacAddr(dst),
        src: MacAddr(src),
        ethertype,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_roundtrip() {
        let payload = b"hello fddi";
        let frame = build_frame(
            MacAddr::station(1),
            MacAddr::station(2),
            ETHERTYPE_IP,
            payload,
        )
        .unwrap();
        assert_eq!(frame.len(), HEADER_LEN + payload.len() + FCS_LEN);
        let mut msg = Message::from_wire(&frame, 0);
        let hdr = parse_frame(&mut msg).unwrap();
        assert_eq!(hdr.dst, MacAddr::station(1));
        assert_eq!(hdr.src, MacAddr::station(2));
        assert_eq!(hdr.ethertype, ETHERTYPE_IP);
        assert_eq!(msg.bytes(), payload);
    }

    /// The definition, one bit at a time: the oracle for the tables.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFC5);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF43926);
        // Every remainder around the 8-byte chunking, then frame-sized
        // buffers up to past the FDDI MTU.
        for case in 0..=70 + 256 {
            let len = if case <= 70 {
                case
            } else {
                rng.gen_range(0..=4500usize)
            };
            let buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {len}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corrupted_payload_fails_fcs() {
        let mut frame = build_frame(
            MacAddr::station(1),
            MacAddr::station(2),
            ETHERTYPE_IP,
            b"data",
        )
        .unwrap();
        let idx = HEADER_LEN + 1;
        frame[idx] ^= 0x01;
        let mut msg = Message::from_wire(&frame, 0);
        assert_eq!(parse_frame(&mut msg), Err(FddiError::BadFcs));
    }

    #[test]
    fn runt_frame_rejected() {
        let mut msg = Message::from_wire(&[0u8; 10], 0);
        assert_eq!(parse_frame(&mut msg), Err(FddiError::Runt));
    }

    #[test]
    fn bad_fc_rejected() {
        let mut frame =
            build_frame(MacAddr::station(1), MacAddr::station(2), ETHERTYPE_IP, b"x").unwrap();
        frame[0] = 0x00;
        let mut msg = Message::from_wire(&frame, 0);
        assert_eq!(parse_frame(&mut msg), Err(FddiError::BadFrameControl));
    }

    #[test]
    fn bad_llc_rejected() {
        let mut frame =
            build_frame(MacAddr::station(1), MacAddr::station(2), ETHERTYPE_IP, b"x").unwrap();
        frame[13] = 0x42;
        // Recompute FCS so only the LLC check can fail.
        let body = frame.len() - FCS_LEN;
        let fcs = crc32(&frame[..body]);
        frame[body..].copy_from_slice(&fcs.to_be_bytes());
        let mut msg = Message::from_wire(&frame, 0);
        assert_eq!(parse_frame(&mut msg), Err(FddiError::BadLlc));
    }

    #[test]
    fn oversize_payload_rejected() {
        let payload = vec![0u8; MAX_PAYLOAD + 1];
        assert_eq!(
            build_frame(
                MacAddr::station(1),
                MacAddr::station(2),
                ETHERTYPE_IP,
                &payload
            ),
            Err(FddiError::Oversize)
        );
    }

    #[test]
    fn max_payload_accepted() {
        let payload = vec![0xABu8; MAX_PAYLOAD];
        let frame = build_frame(
            MacAddr::station(1),
            MacAddr::station(2),
            ETHERTYPE_IP,
            &payload,
        )
        .unwrap();
        let mut msg = Message::from_wire(&frame, 0);
        parse_frame(&mut msg).unwrap();
        assert_eq!(msg.len(), MAX_PAYLOAD);
    }

    #[test]
    fn station_addresses_distinct() {
        assert_ne!(MacAddr::station(1), MacAddr::station(2));
        assert_eq!(MacAddr::station(7), MacAddr::station(7));
    }
}
