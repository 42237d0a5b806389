//! A serving worker writes its frame's payload once and rewrites only
//! the header bytes and the FCS per packet (`FrameTemplate::rewrite`:
//! the CRC of the headers and the payload's first 15 bytes, combined
//! with the CRC of the rest of the payload). That path must give exactly
//! the frame `PacketFactory::frame_at` builds whole, byte for byte, at
//! every payload length a serving run can carry: none, both sides of the
//! 15 bytes, both sides of the CRC's 64-byte kernel switch, 4 KiB and the
//! largest UDP payload of an FDDI frame. The sessions cross the port
//! space's edge (`PORT_STREAMS` = 60 536) and the idents the 16-bit wrap;
//! one buffer is rewritten from cell to cell, so no byte of a previous
//! packet's headers may survive.

use affinity_sched::xkernel::driver::{FrameTemplate, PacketFactory};
use affinity_sched::xkernel::StreamId;

#[test]
fn rewritten_frames_equal_frame_at_byte_for_byte() {
    let factory = PacketFactory::new();
    let mut expect = Vec::new();
    for payload in [0, 1, 14, 15, 16, 63, 64, 65, 4_096, 4_404] {
        let mut frame = Vec::new();
        let template = FrameTemplate::new(payload, &mut frame);
        for session in [0, 1, 60_535, 60_536, 99_999] {
            for ident in [0, 1, u16::MAX] {
                template.rewrite(ident, StreamId(session), &mut frame);
                factory.frame_at(ident, StreamId(session), payload, &mut expect);
                assert!(
                    frame == expect,
                    "payload {payload}, session {session}, ident {ident}: the rewritten \
                     frame differs from frame_at's"
                );
            }
        }
    }
}
