//! The instrumented memory model.
//!
//! The paper measures per-packet execution times on real hardware with
//! controlled cache states. Our stand-in executes the *same protocol
//! logic* over simulated memory: every logical access a protocol layer
//! performs is issued as a region-tagged reference into a pluggable
//! [`TraceSink`] (normally the [`MemoryHierarchy`] cache simulator), and
//! instruction execution is charged at one cycle per instruction with
//! instruction fetches swept through each function's code segment.
//!
//! Timing rule (documented in DESIGN.md): a packet's execution time is
//!
//! ```text
//! cycles = instructions × CPI  +  Σ cache-miss penalties
//! ```
//!
//! with the L1 hit time folded into the CPI (loads that hit L1 do not
//! stall the R4400 pipeline). The hierarchy is therefore configured with
//! `l1_hit_cycles = 0` here, and the engine charges `instructions × CPI`
//! explicitly.
//!
//! [`MemoryHierarchy`]: afs_cache::sim::MemoryHierarchy

use afs_cache::sim::trace::{MemRef, Region, TraceSink};

/// One instruction fetch reference is issued per `IFETCH_GRANULE`
/// instructions — i.e. one per 16-byte I-cache line (4 × 4-byte MIPS
/// instructions), which is the granularity at which the I-cache can hit
/// or miss anyway.
pub const IFETCH_GRANULE: u32 = 4;

/// Bytes per MIPS instruction.
pub const INSTR_BYTES: u64 = 4;

/// A contiguous code segment owned by one protocol function/layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeSeg {
    /// Base simulated address.
    pub base: u64,
    /// Segment length in bytes.
    pub len: u64,
}

impl CodeSeg {
    /// Number of instructions the segment holds.
    pub fn instructions(&self) -> u64 {
        self.len / INSTR_BYTES
    }
}

/// Simulated address-space layout.
///
/// Regions live in disjoint 256 MiB windows so tags can never collide;
/// per-entity areas (thread stacks, stream state) are strided within
/// their window. Window bases are **staggered modulo the L1 period**
/// (1024 sets × 16 B = 16 KiB) so that the steady-state footprints of
/// code, globals, thread, stream and packet buffers occupy disjoint L1
/// set ranges — as a real kernel's link map and allocator coloring
/// arrange. Entity strides are a multiple of the L1 period, so two
/// streams' states conflict with *each other* (only one can be L1-hot at
/// a time — exactly the effect stream migration exercises) but never
/// with unrelated regions.
#[derive(Debug, Clone, Copy)]
pub struct MemLayout {
    code_base: u64,
    global_base: u64,
    thread_base: u64,
    stream_base: u64,
    packet_base: u64,
}

impl MemLayout {
    /// Per-thread stack/control window (64 KiB = 4 L1 periods).
    pub const THREAD_STRIDE: u64 = 64 * 1024;
    /// Per-stream protocol-state window (16 KiB = 1 L1 period).
    pub const STREAM_STRIDE: u64 = 16 * 1024;
    /// Per-packet-buffer window (16 KiB, ≥ FDDI MTU; 1 L1 period).
    pub const PACKET_STRIDE: u64 = 16 * 1024;

    /// The standard layout.
    pub fn new() -> Self {
        MemLayout {
            // L1 set = (addr / 16) % 1024; each 0xN000_0000 window base
            // is ≡ 0, so the offsets below pick the starting set. The
            // budget: ≤ 12 032 B of code (752 sets, incl. the TCP
            // segment), 40 sets of globals, 40 of thread stack, 176 of
            // stream state — 1 008 of the 1 024 sets, with the packet
            // window in the remainder (packet data is DMA-cold anyway).
            code_base: 0x1000_0000,            // sets    0..751  (code)
            global_base: 0x2000_0000 + 0x2F00, // sets  752..791  (globals)
            thread_base: 0x3000_0000 + 0x3200, // sets  800..839  (stacks)
            stream_base: 0x4000_0000 + 0x3500, // sets  848..1023 (sessions)
            packet_base: 0x5000_0000 + 0x3F00, // sets 1008..     (buffers)
        }
    }

    /// Allocate code segments sequentially: returns the segment for the
    /// `ordinal`-th function of size `len` bytes given the running
    /// offset; callers use [`CodeAllocator`] instead of this directly.
    fn code_at(&self, offset: u64, len: u64) -> CodeSeg {
        CodeSeg {
            base: self.code_base + offset,
            len,
        }
    }

    /// Base address of the shared-global area.
    pub fn global(&self, offset: u64) -> u64 {
        self.global_base + offset
    }

    /// Base address of thread `tid`'s stack window.
    pub fn thread(&self, tid: u32) -> u64 {
        self.thread_base + tid as u64 * Self::THREAD_STRIDE
    }

    /// Base address of stream `sid`'s protocol state.
    pub fn stream(&self, sid: u32) -> u64 {
        self.stream_base + sid as u64 * Self::STREAM_STRIDE
    }

    /// Base address of packet buffer `slot`.
    pub fn packet(&self, slot: u32) -> u64 {
        self.packet_base + slot as u64 * Self::PACKET_STRIDE
    }
}

impl Default for MemLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Sequential allocator for code segments within the layout's code window.
#[derive(Debug, Clone)]
pub struct CodeAllocator {
    layout: MemLayout,
    offset: u64,
}

impl CodeAllocator {
    /// Start allocating at the bottom of the code window.
    pub fn new(layout: MemLayout) -> Self {
        CodeAllocator { layout, offset: 0 }
    }

    /// Allocate a code segment of `len` bytes (rounded up to a line).
    pub fn alloc(&mut self, len: u64) -> CodeSeg {
        let len = len.next_multiple_of(16);
        let seg = self.layout.code_at(self.offset, len);
        self.offset += len;
        seg
    }

    /// Total code bytes allocated.
    pub fn allocated(&self) -> u64 {
        self.offset
    }
}

/// The instrumented execution context: counts instructions and issues
/// region-tagged references into the sink.
pub struct MemCtx<'a, S: TraceSink> {
    sink: &'a mut S,
    /// Instructions executed under this context.
    pub instructions: u64,
    /// Data references issued.
    pub data_refs: u64,
    /// Instruction-fetch references issued.
    pub ifetch_refs: u64,
}

impl<'a, S: TraceSink> MemCtx<'a, S> {
    /// Wrap a sink.
    pub fn new(sink: &'a mut S) -> Self {
        MemCtx {
            sink,
            instructions: 0,
            data_refs: 0,
            ifetch_refs: 0,
        }
    }

    /// Execute `instrs` instructions of `seg`: charges the instruction
    /// count and sweeps fetch references cyclically through the segment
    /// (loops re-touch the same lines, as real loops do).
    pub fn exec(&mut self, seg: CodeSeg, instrs: u32) {
        self.instructions += instrs as u64;
        let fetches = (instrs / IFETCH_GRANULE).max(1) as u64;
        let lines = (seg.len / 16).max(1);
        self.sink
            .access_sweep(MemRef::fetch(seg.base), 16, lines, fetches);
        self.ifetch_refs += fetches;
    }

    /// A 32-bit data load.
    pub fn load(&mut self, addr: u64, region: Region) {
        self.sink.access(MemRef::read(addr, region));
        self.data_refs += 1;
    }

    /// A 32-bit data store.
    pub fn store(&mut self, addr: u64, region: Region) {
        self.sink.access(MemRef::write(addr, region));
        self.data_refs += 1;
    }

    /// Touch `bytes` bytes starting at `addr` with word loads (used for
    /// struct reads, table walks, data checksums).
    pub fn load_range(&mut self, addr: u64, bytes: u64, region: Region) {
        self.word_sweep(MemRef::read(addr, region), bytes);
    }

    /// Touch `bytes` bytes starting at `addr` with word stores.
    pub fn store_range(&mut self, addr: u64, bytes: u64, region: Region) {
        self.word_sweep(MemRef::write(addr, region), bytes);
    }

    /// One reference like `first` per 32-bit word of `bytes`, walked once.
    fn word_sweep(&mut self, first: MemRef, bytes: u64) {
        let words = bytes.div_ceil(4);
        self.sink.access_sweep(first, 4, words, words);
        self.data_refs += words;
    }

    /// Direct access to the sink (for layered helpers).
    pub fn sink(&mut self) -> &mut S {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_cache::sim::trace::TraceBuffer;

    #[test]
    fn layout_regions_are_disjoint() {
        let l = MemLayout::new();
        let points = [
            l.global(0),
            l.thread(0),
            l.thread(7),
            l.stream(0),
            l.stream(31),
            l.packet(0),
            l.packet(63),
        ];
        // All in distinct 256 MiB windows except entities within a window.
        assert!(l.thread(7) - l.thread(0) == 7 * MemLayout::THREAD_STRIDE);
        assert!(l.stream(31) - l.stream(0) == 31 * MemLayout::STREAM_STRIDE);
        for p in points {
            assert!(p >= 0x2000_0000);
        }
        assert!(l.packet(63) < 0x6000_0000);
    }

    #[test]
    fn code_allocator_is_sequential_and_aligned() {
        let mut a = CodeAllocator::new(MemLayout::new());
        let s1 = a.alloc(100); // rounds to 112
        let s2 = a.alloc(16);
        assert_eq!(s1.len, 112);
        assert_eq!(s2.base, s1.base + 112);
        assert_eq!(a.allocated(), 128);
        assert_eq!(s2.instructions(), 4);
    }

    #[test]
    fn exec_sweeps_code_lines_cyclically() {
        let mut buf = TraceBuffer::new();
        let mut ctx = MemCtx::new(&mut buf);
        let seg = CodeSeg {
            base: 0x1000,
            len: 32,
        }; // 2 lines
        ctx.exec(seg, 16); // 4 fetches over 2 lines → each line twice
        assert_eq!(ctx.instructions, 16);
        assert_eq!(ctx.ifetch_refs, 4);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.unique_lines(16), 2);
        assert!(buf.refs.iter().all(|r| r.is_instr));
    }

    #[test]
    fn exec_tiny_function_issues_one_fetch() {
        let mut buf = TraceBuffer::new();
        let mut ctx = MemCtx::new(&mut buf);
        ctx.exec(CodeSeg { base: 0, len: 16 }, 2);
        assert_eq!(ctx.ifetch_refs, 1);
    }

    #[test]
    fn load_range_word_granularity() {
        let mut buf = TraceBuffer::new();
        {
            let mut ctx = MemCtx::new(&mut buf);
            ctx.load_range(0x4000_0000, 10, Region::Stream); // 3 words
            assert_eq!(ctx.data_refs, 3);
            ctx.store_range(0x4000_0000, 8, Region::Stream);
            assert_eq!(ctx.data_refs, 5);
        }
        assert_eq!(buf.len(), 5);
        let loads = buf.refs.iter().filter(|r| !r.is_write).count();
        assert_eq!(loads, 3);
        assert!(buf.refs.iter().all(|r| r.region == Region::Stream));
    }
}
