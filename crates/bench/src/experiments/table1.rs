//! Table 1 — platform parameters and measured per-packet time bounds.
//!
//! Reproduces the paper's platform description (SGI Challenge XL,
//! 100 MHz R4400, split 16 KB direct-mapped L1 with 16 B lines, 1 MB
//! direct-mapped unified L2 with 128 B lines, m = 5 cycles/reference)
//! and the Section-4 measurement anchors: t_cold = 284.3 µs, and the
//! reload-span fraction behind the 40–50 % V = 0 bound.

use crate::{artifacts, Checks};
use afs_cache::sim::trace::Region;

pub fn experiment(_quick: bool, checks: &mut Checks) {
    let data = artifacts::table1();
    let platform = data.cost.platform();
    println!("platform:");
    println!(
        "  clock                 {:>10.0} MHz",
        platform.clock_hz / 1e6
    );
    println!(
        "  cycles per reference  {:>10.1}  (m)",
        platform.cycles_per_ref
    );
    println!(
        "  L1 (split I/D)        {:>7} KB   direct-mapped, {} B lines, {} sets",
        platform.l1.capacity_bytes / 1024,
        platform.l1.line_bytes,
        platform.l1.sets()
    );
    println!(
        "  L2 (unified)          {:>7} KB   direct-mapped, {} B lines, {} sets",
        platform.l2.capacity_bytes / 1024,
        platform.l2.line_bytes,
        platform.l2.sets()
    );

    let cal = &data.cal;
    println!("\nmeasured per-packet bounds (receive UDP/IP/FDDI, 1-byte payload):");
    println!("  t_warm  (all in L1)   {:>10.1} us", cal.bounds.t_warm_us);
    println!("  t_L2    (L1 flushed)  {:>10.1} us", cal.bounds.t_l2_us);
    println!(
        "  t_cold  (all flushed) {:>10.1} us   [paper: 284.3 us]",
        cal.bounds.t_cold_us
    );
    println!(
        "  reload span / t_cold  {:>10.1} %    [paper: 40-50% V=0 bound]",
        100.0 * cal.max_reduction()
    );
    println!("  instructions/packet   {:>10}", cal.instrs_per_packet);
    println!("  references/packet     {:>10}", cal.refs_per_packet);
    println!(
        "  lock overhead         {:>10.1} us/packet (Locking)",
        cal.lock_overhead_us
    );

    println!("\nsteady-state L2 footprint by region:");
    for r in Region::ALL {
        let b = cal.l2_footprint_bytes[r.index()];
        if b > 0 {
            println!("  {:<10} {:>8} B", r.label(), b);
        }
    }

    data.artifact.write();

    checks.expect(
        "t_cold within 5% of the paper's 284.3 us",
        (cal.bounds.t_cold_us - 284.3).abs() / 284.3 < 0.05,
    );
    checks.expect(
        "reload-span fraction in the paper's 40-50% band (±5pt)",
        (0.35..0.55).contains(&cal.max_reduction()),
    );
    checks.expect(
        "bounds ordered warm < L2 < cold",
        cal.bounds.t_warm_us < cal.bounds.t_l2_us && cal.bounds.t_l2_us < cal.bounds.t_cold_us,
    );
}
