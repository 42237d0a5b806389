//! Protocol-graph plumbing: stream/thread identities, per-stream session
//! state, and the demultiplexing maps.
//!
//! The x-kernel organizes protocols as a graph with *sessions* (per
//! connection state) hanging off each protocol and *maps* performing
//! demultiplexing from header fields to sessions. We model the receive
//! graph `FDDI → IP → UDP → user`, with the UDP port map as the demux
//! step that touches shared (`Global`) memory and the session as the
//! per-stream (`Stream`) state whose cache residency the paper's
//! affinity policies try to preserve.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ip::Ipv4Addr;

/// Identifies one stream (connection) end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

impl StreamId {
    /// Sentinel for "no stream": packets rejected before the demux point
    /// never resolve to a stream, and their timing records carry this.
    pub const UNKNOWN: StreamId = StreamId(u32::MAX);
}

/// Identifies one protocol thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

/// Per-stream (UDP session) protocol state.
///
/// The field set mirrors what a real UDP/IP session keeps hot per packet:
/// identification of the peer, delivery counters, and the user queue.
/// `Default`-constructed state is a freshly opened session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionState {
    /// Packets delivered to the user.
    pub packets: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Last source seen (address, port) — cached peer identity.
    pub last_peer: Option<(Ipv4Addr, u16)>,
    /// Datagrams dropped due to errors at any layer.
    pub errors: u64,
    /// Depth of the user receive queue (bounded; overflow counts drops).
    pub queue_depth: u32,
    /// Drops due to a full user queue.
    pub queue_drops: u64,
}

/// Maximum user receive-queue depth before drops.
pub const MAX_QUEUE_DEPTH: u32 = 64;

impl SessionState {
    /// Account one delivered datagram.
    pub fn deliver(&mut self, src: Ipv4Addr, src_port: u16, payload_bytes: usize) -> bool {
        if self.queue_depth >= MAX_QUEUE_DEPTH {
            self.queue_drops += 1;
            return false;
        }
        self.packets += 1;
        self.bytes += payload_bytes as u64;
        self.last_peer = Some((src, src_port));
        self.queue_depth += 1;
        true
    }

    /// The user consumed one datagram from the queue.
    pub fn consume(&mut self) -> bool {
        if self.queue_depth == 0 {
            return false;
        }
        self.queue_depth -= 1;
        true
    }
}

/// Hasher for the table's integer keys: the key's bytes as one integer,
/// one multiplication (Fibonacci hashing) and a fold of the high half
/// into the low bits the map indexes by, instead of SipHash. Only `bind`
/// inserts keys, and it takes them from the run's own configuration; a
/// port off the wire is only looked up, so it cannot lengthen a probe
/// sequence.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let key = bytes.iter().fold(self.0, |k, &b| k << 8 | u64::from(b));
        let x = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// The UDP demux map plus session storage.
///
/// Ports map to streams; each stream owns one session. In the IPS
/// paradigm every independent stack instance holds its own `SessionTable`
/// (no sharing, no locking); under Locking a single table is shared.
#[derive(Debug, Default)]
pub struct SessionTable {
    ports: IntMap<u16, StreamId>,
    sessions: IntMap<StreamId, SessionState>,
}

/// Errors from session-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// The port is already bound to a different stream.
    PortInUse(u16),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::PortInUse(p) => write!(f, "port {p} already bound"),
        }
    }
}

impl std::error::Error for BindError {}

impl SessionTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `n` more bindings, so binding a known population
    /// sizes both maps once instead of growing them by rehashing.
    pub fn reserve(&mut self, n: usize) {
        self.ports.reserve(n);
        self.sessions.reserve(n);
    }

    /// Bind `port` to `stream`, creating its session.
    pub fn bind(&mut self, port: u16, stream: StreamId) -> Result<(), BindError> {
        if *self.ports.entry(port).or_insert(stream) != stream {
            return Err(BindError::PortInUse(port));
        }
        self.sessions.entry(stream).or_default();
        Ok(())
    }

    /// Demultiplex a destination port to its stream.
    pub fn demux(&self, port: u16) -> Option<StreamId> {
        self.ports.get(&port).copied()
    }

    /// Session state for a stream.
    pub fn session(&self, stream: StreamId) -> Option<&SessionState> {
        self.sessions.get(&stream)
    }

    /// Mutable session state for a stream.
    pub fn session_mut(&mut self, stream: StreamId) -> Option<&mut SessionState> {
        self.sessions.get_mut(&stream)
    }
}

/// Names of the receive-graph layers, bottom-up — used by reports.
pub const RECEIVE_GRAPH: [&str; 4] = ["fddi", "ip", "udp", "user"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receive_graph_names_the_layers() {
        assert_eq!(RECEIVE_GRAPH, ["fddi", "ip", "udp", "user"]);
    }

    #[test]
    fn bind_demux_roundtrip() {
        let mut t = SessionTable::new();
        t.bind(5001, StreamId(0)).unwrap();
        t.bind(5002, StreamId(1)).unwrap();
        assert_eq!(t.demux(5001), Some(StreamId(0)));
        assert_eq!(t.demux(5002), Some(StreamId(1)));
        assert_eq!(t.demux(9999), None);
    }

    #[test]
    fn rebinding_same_stream_is_idempotent() {
        let mut t = SessionTable::new();
        t.bind(5001, StreamId(0)).unwrap();
        t.bind(5001, StreamId(0)).unwrap();
        assert_eq!(t.bind(5001, StreamId(1)), Err(BindError::PortInUse(5001)));
    }

    #[test]
    fn reserve_changes_no_binding() {
        let mut t = SessionTable::new();
        t.bind(5001, StreamId(0)).unwrap();
        t.reserve(1000);
        assert_eq!(t.demux(5001), Some(StreamId(0)));
        assert_eq!(t.demux(5002), None);
        t.bind(5001, StreamId(0)).unwrap();
        t.bind(5002, StreamId(1)).unwrap();
        assert_eq!(t.demux(5002), Some(StreamId(1)));
        assert!(t.session(StreamId(1)).is_some());
    }

    #[test]
    fn deliver_and_consume_track_queue() {
        let mut s = SessionState::default();
        assert!(s.deliver(Ipv4Addr::host(9), 1234, 100));
        assert_eq!(s.packets, 1);
        assert_eq!(s.bytes, 100);
        assert_eq!(s.last_peer, Some((Ipv4Addr::host(9), 1234)));
        assert_eq!(s.queue_depth, 1);
        assert!(s.consume());
        assert_eq!(s.queue_depth, 0);
        assert!(!s.consume());
    }

    #[test]
    fn full_queue_drops() {
        let mut s = SessionState::default();
        for _ in 0..MAX_QUEUE_DEPTH {
            assert!(s.deliver(Ipv4Addr::host(1), 1, 1));
        }
        assert!(!s.deliver(Ipv4Addr::host(1), 1, 1));
        assert_eq!(s.queue_drops, 1);
        assert_eq!(s.packets, MAX_QUEUE_DEPTH as u64);
    }
}
