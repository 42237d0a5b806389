//! Figure 1 — the system model.
//!
//! The paper's Figure 1 is the block diagram of the simulated system:
//! streams feeding a shared-memory multiprocessor whose processors run
//! protocol work under a paradigm/policy and fill every remaining cycle
//! with the general non-protocol workload. This experiment renders the
//! diagram with the reproduction's calibrated parameters filled in, so
//! every figure number in the paper has a regeneration target.

use crate::{Artifact, Checks};
use afs_xkernel::{calibrate, CostModel};

pub fn experiment(_quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let cal = calibrate(&CostModel::default());
    let platform = CostModel::default().platform();

    println!(
        r#"
 streams (K, Poisson/bursty/trains)             SGI Challenge XL model
 ───────────────────────────────────           ────────────────────────
  s0 ──┐                                        ┌────────────────────┐
  s1 ──┤   Locking: one shared stack,           │ P0 ┌────┐ ┌──────┐ │
  s2 ──┤     global FIFO / per-proc /           │    │ L1 │ │      │ │
   ⋮   ├─►   per-stream wired queues     ─────► │    │16KB│ │  L2  │ │
  sK ──┘   IPS: one queue per stack,            │    └────┘ │ 1 MB │ │
           stack serialized                     │  ⋮        └──────┘ │
                                                │ P{n} × {n_procs}          │
 non-protocol workload (infinite                └────────────────────┘
 backlog, SST/MVS locality) runs                 packet service time:
 whenever a processor is idle and                T = t_warm + Σ w_c ·
 erodes cached protocol state                    [F1·ΔL1 + F2·ΔL2] + V
"#,
        n_procs = 8,
        n = 7,
    );

    println!(
        "receive protocol graph (bottom-up): {}",
        afs_xkernel::proto::RECEIVE_GRAPH.join(" -> ")
    );
    println!("calibrated parameters:");
    println!(
        "  clock {:.0} MHz, m = {:.0} cycles/ref, L1 {} KB DM/{} B, L2 {} KB DM/{} B",
        platform.clock_hz / 1e6,
        platform.cycles_per_ref,
        platform.l1.capacity_bytes / 1024,
        platform.l1.line_bytes,
        platform.l2.capacity_bytes / 1024,
        platform.l2.line_bytes,
    );
    println!(
        "  t_warm {:.1} µs, t_L2 {:.1} µs, t_cold {:.1} µs (paper: 284.3)",
        cal.bounds.t_warm_us, cal.bounds.t_l2_us, cal.bounds.t_cold_us
    );
    println!(
        "  component weights: code/global {:.2}, thread {:.2}, stream {:.2}",
        cal.weights.code_global, cal.weights.thread, cal.weights.stream
    );
    println!(
        "  Locking overhead {:.1} µs/packet; V ∈ {{0, 35, 70, 139}} µs in Figures 10/11",
        cal.lock_overhead_us
    );

    checks.expect(
        "parameters consistent with Table 1",
        (cal.bounds.t_cold_us - 284.3).abs() / 284.3 < 0.05,
    );
    Vec::new()
}
