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
/// the register with eight independent lookups. Cache-line aligned, so
/// each 1 KiB table spans 16 host lines rather than 17.
static CRC_TABLES: LineAligned = LineAligned({
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
});

#[repr(align(64))]
struct LineAligned([[u32; 256]; 8]);

/// Inputs at least this long take the carry-less folding kernel on CPUs
/// that have one; shorter ones (the 113-byte bodies of 64-byte
/// payloads among them) stay on the table.
const FOLD_MIN_LEN: usize = 128;

/// CRC-32 (IEEE 802.3 polynomial, reflected), as used for the FCS.
///
/// Two kernels compute the same value: the slicing-by-8 table, and on
/// x86-64 CPUs with PCLMULQDQ and SSE4.1 a carry-less folding kernel for
/// inputs of 128 bytes or more.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN_LEN {
        return !crc32_long(data);
    }
    !crc32_table(0xFFFF_FFFF, data)
}

/// Advance the CRC register `crc` over `data` with the slicing tables.
#[inline(always)]
fn crc32_table(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES.0;
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
    crc
}

/// The CRC register after `data` from the initial one: the folding
/// kernel where the CPU has it, the table otherwise. Out of line, so the
/// short-frame path of [`crc32`] stays the table loop alone.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
fn crc32_long(data: &[u8]) -> u32 {
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: both target features of `fold::crc32` were detected on
        // the running CPU just above.
        unsafe { fold::crc32(0xFFFF_FFFF, data) }
    } else {
        crc32_table(0xFFFF_FFFF, data)
    }
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009): four 128-bit accumulators fold 64 bytes a step, one
/// folds 16, then 128 → 64 bits and a Barrett reduction to 32. Every
/// constant is a residue of `x` modulo the polynomial, in the reflected
/// bit order, so a 64-bit half times `Kₙ` moves it `n` bits down the
/// message.
#[cfg(target_arch = "x86_64")]
mod fold {
    use super::{crc32_table, CRC_POLY};
    use std::arch::x86_64::*;

    /// `P`, the 33-bit generator polynomial, in the normal bit order.
    const P: u64 = 1 << 32 | CRC_POLY.reverse_bits() as u64;

    /// The low 33 bits of `v`, bit-reversed.
    const fn reflect33(v: u64) -> u64 {
        v.reverse_bits() >> 31
    }

    /// `xⁿ mod P` and the low bits of `⌊xⁿ / P⌋`, by multiplying by `x`
    /// `n` times: each step that reduces by `P` is a quotient bit.
    const fn divide(n: u32) -> (u32, u64) {
        let (mut r, mut q, mut i) = (1u64, 0u64, 0);
        while i < n {
            r <<= 1;
            q <<= 1;
            if r >> 32 != 0 {
                r ^= P;
                q |= 1;
            }
            i += 1;
        }
        (r as u32, q)
    }

    /// `Kₙ = reflect₃₂(xⁿ mod P) ≪ 1`.
    const fn k(n: u32) -> u64 {
        (divide(n).0.reverse_bits() as u64) << 1
    }

    /// 64-byte fold: a line's low halves move 512 + 32 bits, high 512 − 32.
    pub(super) const K544: u64 = k(544);
    pub(super) const K480: u64 = k(480);
    /// 16-byte fold, and (`K96` alone) 128 → 64 bits.
    pub(super) const K160: u64 = k(160);
    pub(super) const K96: u64 = k(96);
    /// 64 → 32 bits.
    pub(super) const K64: u64 = k(64);
    /// `μ = reflect₃₃(⌊x⁶⁴ / P⌋)`, the Barrett constant.
    pub(super) const MU: u64 = reflect33(divide(64).1);
    /// `P′ = reflect₃₃(P)`.
    pub(super) const P_REFLECTED: u64 = reflect33(P);

    /// One 16-byte block as a register, low byte first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(b: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(b[..16].try_into().expect("16 bytes"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `x` moved on by the distance of `k` (low half by `k`'s low
    /// constant, high half by its high one), plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn step(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The CRC register after `data` (at least 64 bytes) from `crc`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(crc: u32, data: &[u8]) -> u32 {
        let k_line = _mm_set_epi64x(K480 as i64, K544 as i64);
        let k_block = _mm_set_epi64x(K96 as i64, K160 as i64);
        let mut lines = data.chunks_exact(64);
        let first = lines.next().expect("at least one 64-byte line");
        let mut x = [0, 1, 2, 3].map(|i| load(&first[16 * i..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        for line in &mut lines {
            for (xi, b) in x.iter_mut().zip(line.chunks_exact(16)) {
                *xi = step(*xi, k_line, load(b));
            }
        }
        let mut acc = x[0];
        for &xi in &x[1..] {
            acc = step(acc, k_block, xi);
        }
        let mut blocks = lines.remainder().chunks_exact(16);
        for b in &mut blocks {
            acc = step(acc, k_block, load(b));
        }
        // 128 → 64 bits (appending the 32 zero bits the CRC implies),
        // then the Barrett reduction to the 32-bit register.
        let mask32 = _mm_set_epi32(0, 0, 0, -1);
        let k_low = _mm_set_epi64x(0, K64 as i64);
        let acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k_block),
        );
        let acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, mask32), k_low),
        );
        let barrett = _mm_set_epi64x(MU as i64, P_REFLECTED as i64);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, mask32), barrett);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, mask32), barrett);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t)) as u32;
        crc32_table(crc, blocks.remainder())
    }
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

    // Enforce the MTU, then verify FCS over everything before the trailer.
    let body_len = msg.len() - FCS_LEN;
    if body_len > HEADER_LEN + MAX_PAYLOAD {
        return Err(FddiError::Oversize);
    }
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

    /// `data`'s CRC-32 through `crc32` and through the table kernel
    /// alone (the path of every CPU without the folding kernel), each
    /// checked against the oracle.
    fn assert_both_kernels(data: &[u8], what: &str) {
        let expect = crc32_bitwise(data);
        assert_eq!(crc32(data), expect, "crc32, {what}");
        assert_eq!(!crc32_table(!0, data), expect, "table, {what}");
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFC5);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF43926);
        // Every length on both sides of the folding threshold (every
        // 64-byte line, 16-byte block and byte-tail remainder), at every
        // start offset inside a larger buffer so blocks are unaligned.
        let random: Vec<u8> = (0..320 + 16).map(|_| rng.gen()).collect();
        for len in 0..=320 {
            for off in 0..16 {
                assert_both_kernels(&random[off..off + len], &format!("len {len} off {off}"));
            }
            assert_both_kernels(&vec![0x00; len], &format!("zeros, len {len}"));
            assert_both_kernels(&vec![0xFF; len], &format!("ones, len {len}"));
        }
        // Frame-sized buffers up to past the FDDI MTU.
        for _ in 0..256 {
            let len = rng.gen_range(0..=4500usize);
            let buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_both_kernels(&buf, &format!("len {len}"));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_the_published_ones() {
        // Gopal et al. / Linux `crc32-pclmul_asm.S`.
        assert_eq!(fold::K544, 0x1_5444_2bd4);
        assert_eq!(fold::K480, 0x1_c6e4_1596);
        assert_eq!(fold::K160, 0x1_7519_97d0);
        assert_eq!(fold::K96, 0x0_ccaa_009e);
        assert_eq!(fold::K64, 0x1_63cd_6124);
        assert_eq!(fold::MU, 0x1_f701_1641);
        assert_eq!(fold::P_REFLECTED, 0x1_db71_0641);
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
    fn oversize_frame_rejected_on_receive() {
        // One byte past the MTU, with a correct FCS: only the MTU check
        // can fail it.
        let mut frame = build_frame(
            MacAddr::station(1),
            MacAddr::station(2),
            ETHERTYPE_IP,
            &vec![0xABu8; MAX_PAYLOAD],
        )
        .unwrap();
        frame.truncate(frame.len() - FCS_LEN);
        frame.push(0xAB);
        let fcs = crc32(&frame);
        frame.extend_from_slice(&fcs.to_be_bytes());
        let mut msg = Message::from_wire(&frame, 0);
        assert_eq!(parse_frame(&mut msg), Err(FddiError::Oversize));
    }

    #[test]
    fn station_addresses_distinct() {
        assert_ne!(MacAddr::station(1), MacAddr::station(2));
        assert_eq!(MacAddr::station(7), MacAddr::station(7));
    }
}
