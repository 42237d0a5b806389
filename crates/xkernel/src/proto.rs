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

use crate::driver::port_of;
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

/// The UDP demux map plus session storage.
///
/// Each bound port owns one session, opened for one stream. Demux is an
/// index: a slot per port of the u16 space holds 0 (unbound) or one
/// plus the session's place in compact storage, which holds only the
/// sessions this table bound. The slots come in pages of 4 096
/// ports, each allocated zeroed by the first bind into it, so binding
/// `n` ports costs `n` pushes plus the pages they fall in — an IPS
/// stack that owns `1/w` of the streams stores `1/w` of the sessions.
/// A stream's session is the one at its own port ([`port_of`]). In the
/// IPS paradigm every independent stack instance holds its own
/// `SessionTable` (no sharing, no locking); under Locking a single
/// table is shared.
#[derive(Default)]
pub struct SessionTable {
    slots: [Option<Box<[u32; PAGE]>>; (1 << 16) / PAGE],
    sessions: Vec<(StreamId, SessionState)>,
}

/// Ports per page of [`SessionTable`] slots.
const PAGE: usize = 4096;

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.sessions).finish()
    }
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

    /// Bind `port` to `stream`, opening the port's session. Rebinding a
    /// port to its own stream is a no-op.
    pub fn bind(&mut self, port: u16, stream: StreamId) -> Result<(), BindError> {
        match self.slot(port) {
            None => {
                self.sessions.push((stream, SessionState::default()));
                let page =
                    self.slots[port as usize / PAGE].get_or_insert_with(|| Box::new([0; PAGE]));
                page[port as usize % PAGE] = self.sessions.len() as u32;
                Ok(())
            }
            Some(i) if self.sessions[i].0 == stream => Ok(()),
            Some(_) => Err(BindError::PortInUse(port)),
        }
    }

    fn slot(&self, port: u16) -> Option<usize> {
        let page = self.slots[port as usize / PAGE].as_ref()?;
        page[port as usize % PAGE]
            .checked_sub(1)
            .map(|i| i as usize)
    }

    /// Demultiplex a destination port to its stream.
    pub fn demux(&self, port: u16) -> Option<StreamId> {
        self.slot(port).map(|i| self.sessions[i].0)
    }

    /// The session `port` owns.
    pub(crate) fn port_session_mut(&mut self, port: u16) -> Option<&mut SessionState> {
        self.slot(port).map(|i| &mut self.sessions[i].1)
    }

    /// Session state for a stream: its own port's session, if that port
    /// is bound to it.
    pub fn session(&self, stream: StreamId) -> Option<&SessionState> {
        let (s, state) = &self.sessions[self.slot(port_of(stream))?];
        (*s == stream).then_some(state)
    }

    /// Mutable session state for a stream (see [`session`](Self::session)).
    pub fn session_mut(&mut self, stream: StreamId) -> Option<&mut SessionState> {
        let i = self.slot(port_of(stream))?;
        let (s, state) = &mut self.sessions[i];
        (*s == stream).then_some(state)
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
