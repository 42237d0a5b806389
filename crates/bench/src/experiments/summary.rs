//! One-screen digest of the reproduction: the calibrated anchors, the
//! policy landscape at three loads, and the headline paradigm claims.
//! Much cheaper than `run_experiments.sh`; useful as a smoke check that
//! the whole pipeline is healthy.

use crate::{delay_or_inf, ips, locking, template_with, Checks, K_STREAMS};
use afs_core::prelude::*;
use afs_xkernel::{calibrate, CostModel};

pub fn experiment(quick: bool, checks: &mut Checks) {
    let cal = calibrate(&CostModel::default());
    println!("calibration:");
    println!(
        "  t_warm/t_L2/t_cold = {:.1} / {:.1} / {:.1} us   (paper t_cold: 284.3)",
        cal.bounds.t_warm_us, cal.bounds.t_l2_us, cal.bounds.t_cold_us
    );
    println!(
        "  reload span {:.1}% of t_cold   (paper V=0 bound: 40-50%)",
        100.0 * cal.max_reduction()
    );

    let k = K_STREAMS;
    let loads = [
        ("low (200/s)", 200.0),
        ("mid (1400/s)", 1400.0),
        ("high (2600/s)", 2600.0),
    ];
    let contenders: Vec<(&str, Paradigm)> = vec![
        ("L/baseline", locking(LockPolicy::Baseline)),
        ("L/mru", locking(LockPolicy::Mru)),
        ("L/wired", locking(LockPolicy::Wired)),
        ("IPS/mru", ips(IpsPolicy::Mru, k)),
        ("IPS/wired", ips(IpsPolicy::Wired, k)),
    ];
    println!("\nmean delay (us), {k} streams on 8 processors:");
    print!("{:<12}", "policy");
    for (name, _) in &loads {
        print!(" {name:>14}");
    }
    println!();
    let mut grid = Vec::new();
    for (name, paradigm) in &contenders {
        print!("{name:<12}");
        let mut row = Vec::new();
        for &(_, rate) in &loads {
            let mut cfg = template_with(paradigm.clone(), k, quick);
            cfg.population = cfg.population.clone().with_rate(rate);
            let r = run(&cfg);
            print!(" {:>14.1}", delay_or_inf(&r));
            row.push(r);
        }
        println!();
        grid.push(row);
    }

    checks.expect(
        "t_cold within 5% of the paper",
        (cal.bounds.t_cold_us - 284.3).abs() / 284.3 < 0.05,
    );
    // Grid rows: 0 baseline, 1 mru, 2 wired, 3 ips-mru, 4 ips-wired.
    checks.expect(
        "L/mru beats L/baseline at every mutually stable load",
        (0..3).all(|i| {
            !(grid[0][i].stable && grid[1][i].stable)
                || grid[1][i].mean_delay_us < grid[0][i].mean_delay_us
        }),
    );
    checks.expect(
        "best IPS beats best Locking at every load",
        (0..3).all(|i| {
            let best_l = delay_or_inf(&grid[0][i])
                .min(delay_or_inf(&grid[1][i]))
                .min(delay_or_inf(&grid[2][i]));
            let best_i = delay_or_inf(&grid[3][i]).min(delay_or_inf(&grid[4][i]));
            best_i <= best_l * 1.02
        }),
    );
    checks.expect(
        "IPS wired/mru crossover direction (mru low, wired high)",
        grid[3][0].mean_delay_us < grid[4][0].mean_delay_us
            && grid[4][2].mean_delay_us < grid[3][2].mean_delay_us,
    );
}
