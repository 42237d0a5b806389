//! Figure 3 (reconstructed) — measurement vs analytic model across
//! controlled cache states.
//!
//! The paper parameterizes its analytic execution-time model with the
//! Section-4 measurements; this figure validates the parameterization by
//! comparing, for each controlled cache state, the time the instrumented
//! engine *measures* against the time the analytic model *predicts*.

use crate::{Artifact, Checks};
use afs_cache::model::exec_time::{Age, ComponentAges};
use afs_core::ExecParams;
use afs_xkernel::{calibrate, CostModel};

pub fn experiment(_quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let cal = calibrate(&CostModel::default());
    let exec = ExecParams::calibrated();
    let warm = ComponentAges::ALL_WARM;

    let predict = |ages: ComponentAges| exec.protocol_time(ages).as_micros_f64();
    let states: Vec<(&str, f64, f64)> = vec![
        ("warm", cal.bounds.t_warm_us, predict(warm)),
        (
            "thread purged",
            cal.t_thread_us,
            predict(ComponentAges {
                thread: Age::Cold,
                ..warm
            }),
        ),
        (
            "stream purged",
            cal.t_stream_us,
            predict(ComponentAges {
                stream: Age::Cold,
                ..warm
            }),
        ),
        (
            "code purged",
            cal.t_code_global_us,
            predict(ComponentAges {
                code_global: Age::Cold,
                ..warm
            }),
        ),
        ("L1 flushed", cal.bounds.t_l2_us, {
            // L1 gone, L2 intact: F1 = 1, F2 = 0 for every component.
            // The analytic model expresses that exactly at the t_L2 bound.
            exec.model.bounds.t_l2_us
        }),
        (
            "all flushed",
            cal.bounds.t_cold_us,
            predict(ComponentAges::ALL_COLD),
        ),
    ];

    println!(
        "{:>16} {:>14} {:>14} {:>8}",
        "cache state", "measured (us)", "model (us)", "err %"
    );
    let mut rows = Vec::new();
    let mut worst = 0.0f64;
    for (name, measured, model) in &states {
        let err = 100.0 * (model - measured).abs() / measured;
        worst = worst.max(err);
        println!("{name:>16} {measured:>14.1} {model:>14.1} {err:>8.2}");
        rows.push(format!(
            "{},{:.2},{:.2},{:.3}",
            name.replace(' ', "_"),
            measured,
            model,
            err
        ));
    }

    checks.expect(
        "model matches measurement within 5% in every state",
        worst < 5.0,
    );
    checks.expect(
        "states ordered warm < partial purges < cold",
        cal.bounds.t_warm_us < cal.t_thread_us.min(cal.t_stream_us)
            && cal.t_code_global_us < cal.bounds.t_cold_us,
    );
    vec![Artifact::csv(
        "fig03.csv",
        "state,measured_us,model_us,error_pct",
        &rows,
    )]
}
