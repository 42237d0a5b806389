#![warn(missing_docs)]

//! # afs-xkernel — the protocol-processing substrate
//!
//! An x-kernel-style implementation of the receive- and send-side
//! UDP/IP/FDDI fast paths, instrumented so that every memory touch flows
//! into the `afs-cache` hierarchy simulator. This crate replaces the
//! paper's measurement platform (a parallelized x-kernel 3.2 running on
//! an 8-processor SGI Challenge XL): where the paper reads hardware
//! timers, we read the simulated cycle ledger.
//!
//! * [`msg`] — the x-kernel message tool (header push/pop over real
//!   bytes) with instrumented reads, plus the RFC 1071 checksum.
//! * [`fddi`], [`ip`], [`udp`], [`tcp`] — byte-exact framing: LLC/SNAP
//!   FDDI with CRC-32 FCS, IPv4 with real header checksums, UDP with
//!   pseudo-header checksums, and a TCP receive path with header
//!   prediction and out-of-order reassembly (the paper's named
//!   extension).
//! * [`proto`] — sessions, the port demux map, stream/thread identities.
//! * [`driver`] — the in-memory FDDI driver and packet factory (the
//!   paper's own in-memory-driver technique).
//! * [`fault`] — deterministic per-frame fault injection (drop,
//!   duplicate, reorder, corrupt, truncate) applied by the driver.
//! * [`mem`] — the instrumented memory model: address-space layout,
//!   region-tagged loads/stores, code-segment instruction fetches.
//! * [`engine`] — the instrumented fast paths (one receive body behind
//!   the UDP and TCP entry points, plus the send side) and the
//!   [`engine::CostModel`] whose defaults are calibrated to the paper's
//!   t_cold = 284.3 µs.
//! * [`calib`] — the Section-4 controlled-cache-state experiments,
//!   producing the bounds/weights that parameterize the analytic model.
//! * [`mt`] — the stream→stack partition rule shared with `afs-native`,
//!   which runs Locking and IPS on real OS threads.

pub mod calib;
pub mod driver;
pub mod engine;
pub mod fault;
pub mod fddi;
pub mod icmp;
pub mod ip;
pub mod mem;
pub mod msg;
pub mod mt;
pub mod proto;
pub mod tcp;
pub mod udp;

pub use calib::{calibrate, lock_overhead_cycles, Calibration};
pub use engine::{
    CostModel, DropReason, PacketTiming, ProtocolEngine, RxError, RxLayer, RxOutcome,
};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use proto::{SessionState, SessionTable, StreamId, ThreadId};
