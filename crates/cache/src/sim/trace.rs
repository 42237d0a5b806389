//! Region-tagged memory-reference traces.
//!
//! The calibration experiments need to know not just *whether* a line is
//! cached but *whose* it is: the paper's Section-4 methodology isolates
//! the individual components of affinity overhead (protocol code/globals,
//! thread stack, per-stream connection state, packet data). Every
//! reference therefore carries a [`Region`] tag, and the cache simulator
//! tracks per-region occupancy.

/// The logical owner of a memory reference / cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Protocol text (instruction fetches) and read-mostly tables.
    Code,
    /// Shared mutable protocol structures (demux maps, counters, locks).
    Global,
    /// A thread's stack and control block.
    Thread,
    /// Per-stream (connection) protocol state: sessions, PCBs.
    Stream,
    /// Packet headers and payload.
    PacketData,
    /// The competing non-protocol workload.
    NonProtocol,
}

impl Region {
    /// All regions, for iteration in reports.
    pub const ALL: [Region; 6] = [
        Region::Code,
        Region::Global,
        Region::Thread,
        Region::Stream,
        Region::PacketData,
        Region::NonProtocol,
    ];

    /// Short fixed-width label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Region::Code => "code",
            Region::Global => "global",
            Region::Thread => "thread",
            Region::Stream => "stream",
            Region::PacketData => "packet",
            Region::NonProtocol => "nonproto",
        }
    }

    /// Index into dense per-region arrays.
    pub fn index(self) -> usize {
        match self {
            Region::Code => 0,
            Region::Global => 1,
            Region::Thread => 2,
            Region::Stream => 3,
            Region::PacketData => 4,
            Region::NonProtocol => 5,
        }
    }
}

/// One memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Byte address.
    pub addr: u64,
    /// Owner tag.
    pub region: Region,
    /// Instruction fetch (routes to L1-I on a split L1).
    pub is_instr: bool,
    /// Store (tracked for statistics; the timing model charges reads and
    /// writes identically, as the paper's reference-rate model does).
    pub is_write: bool,
}

impl MemRef {
    /// A data read.
    pub fn read(addr: u64, region: Region) -> Self {
        MemRef {
            addr,
            region,
            is_instr: false,
            is_write: false,
        }
    }

    /// A data write.
    pub fn write(addr: u64, region: Region) -> Self {
        MemRef {
            addr,
            region,
            is_instr: false,
            is_write: true,
        }
    }

    /// An instruction fetch.
    pub fn fetch(addr: u64) -> Self {
        MemRef {
            addr,
            region: Region::Code,
            is_instr: true,
            is_write: false,
        }
    }
}

/// Anything that consumes a reference stream.
pub trait TraceSink {
    /// Consume one reference.
    fn access(&mut self, mref: MemRef);

    /// Consume a sweep: `n` references like `first`, the `i`-th at
    /// `first.addr + (i % period) × stride` — a range walked once
    /// (`period = n`) or a loop body re-walked cyclically (`period < n`).
    /// This body is the definition (`period` must be non-zero unless `n`
    /// is); an override may only get to the same state faster.
    fn access_sweep(&mut self, first: MemRef, stride: u64, period: u64, n: u64) {
        for i in 0..n {
            self.access(MemRef {
                addr: first.addr + (i % period) * stride,
                ..first
            });
        }
    }
}

/// A sink that simply buffers references (for replay / unique counting).
#[derive(Debug, Default, Clone)]
pub struct TraceBuffer {
    /// The recorded references, in order.
    pub refs: Vec<MemRef>,
}

impl TraceBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of references recorded.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True when no references are recorded.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }
}

impl TraceSink for TraceBuffer {
    fn access(&mut self, mref: MemRef) {
        self.refs.push(mref);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_labels_and_indices_unique() {
        let mut labels: Vec<&str> = Region::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
        let mut idx: Vec<usize> = Region::ALL.iter().map(|r| r.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn constructors_set_flags() {
        assert!(MemRef::fetch(0).is_instr);
        assert!(!MemRef::read(0, Region::Code).is_instr);
        assert!(MemRef::write(0, Region::Code).is_write);
    }
}
