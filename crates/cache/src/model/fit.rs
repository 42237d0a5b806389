//! Fitting SST footprint constants to measured `(R, L, u)` triples.
//!
//! The SST model is log-linear in its parameters:
//!
//! ```text
//! log u = log W + a·log L + b·log R + (log d)·(log L · log R)
//! ```
//!
//! so ordinary least squares over `(1, log L, log R, log L·log R)`
//! recovers `(log W, a, b, log d)`. The paper takes these constants from
//! Singh–Stone–Thiebaut's MVS trace; this module lets us *re-derive*
//! constants from traces produced by our own synthetic workload generator
//! (`sim::synth`) and verify the pipeline end-to-end — the validation the
//! SST authors performed against [1, 23].

use super::footprint::SstParams;

/// One observation: `refs` references at line size `line_bytes` touched
/// `unique_lines` unique lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FootprintObs {
    /// Number of references.
    pub refs: f64,
    /// Line size in bytes.
    pub line_bytes: f64,
    /// Measured unique-line count.
    pub unique_lines: f64,
}

/// Error from [`fit_sst`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer observations than parameters (need ≥ 4, ideally many more).
    TooFewObservations,
    /// Observations are degenerate (e.g. a single line size, making the
    /// `a` and `log d` columns collinear).
    Singular,
    /// An observation had a non-positive field.
    InvalidObservation,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewObservations => write!(f, "need at least 4 observations"),
            FitError::Singular => write!(f, "design matrix is singular (vary both R and L)"),
            FitError::InvalidObservation => write!(f, "observations must be positive"),
        }
    }
}

impl std::error::Error for FitError {}

/// Solve the 4×4 system `M·x = v` by Gaussian elimination with partial
/// pivoting. Returns `None` when singular.
fn solve4(mut m: [[f64; 4]; 4], mut v: [f64; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        // Pivot.
        let mut best = col;
        for row in (col + 1)..4 {
            if m[row][col].abs() > m[best][col].abs() {
                best = row;
            }
        }
        if m[best][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, best);
        v.swap(col, best);
        // Eliminate below.
        for row in (col + 1)..4 {
            let k = m[row][col] / m[col][col];
            let pivot_row = m[col];
            for (c, entry) in m[row].iter_mut().enumerate().skip(col) {
                *entry -= k * pivot_row[c];
            }
            v[row] -= k * v[col];
        }
    }
    // Back-substitute.
    let mut x = [0.0; 4];
    for col in (0..4).rev() {
        let mut s = v[col];
        for c in (col + 1)..4 {
            s -= m[col][c] * x[c];
        }
        x[col] = s / m[col][col];
    }
    Some(x)
}

/// Least-squares fit of SST constants. Observations should span several
/// decades of `R` and at least two line sizes.
pub fn fit_sst(obs: &[FootprintObs]) -> Result<SstParams, FitError> {
    if obs.len() < 4 {
        return Err(FitError::TooFewObservations);
    }
    // Normal equations: (XᵀX) β = Xᵀy with X rows (1, lL, lR, lL·lR).
    let mut xtx = [[0.0f64; 4]; 4];
    let mut xty = [0.0f64; 4];
    for o in obs {
        if o.refs <= 0.0 || o.line_bytes <= 0.0 || o.unique_lines <= 0.0 {
            return Err(FitError::InvalidObservation);
        }
        let ll = o.line_bytes.log10();
        let lr = o.refs.log10();
        let row = [1.0, ll, lr, ll * lr];
        let y = o.unique_lines.log10();
        for i in 0..4 {
            for j in 0..4 {
                xtx[i][j] += row[i] * row[j];
            }
            xty[i] += row[i] * y;
        }
    }
    let beta = solve4(xtx, xty).ok_or(FitError::Singular)?;
    Ok(SstParams {
        w: 10f64.powf(beta[0]),
        a: beta[1],
        b: beta[2],
        log_d: beta[3],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::footprint::MVS_WORKLOAD;

    /// Root-mean-square error of a parameter set on observations, in log
    /// space (the quantity the fit minimizes).
    fn fit_rms_log_error(params: &SstParams, obs: &[FootprintObs]) -> f64 {
        let mut se = 0.0;
        for o in obs {
            let pred = params.footprint(o.refs, o.line_bytes).max(1e-12);
            let e = pred.log10() - o.unique_lines.log10();
            se += e * e;
        }
        (se / obs.len() as f64).sqrt()
    }

    /// Generate noiseless observations straight from the MVS model.
    fn synthetic_obs() -> Vec<FootprintObs> {
        let mut out = Vec::new();
        for &l in &[16.0, 32.0, 64.0, 128.0] {
            for e in 2..8 {
                let r = 10f64.powi(e);
                out.push(FootprintObs {
                    refs: r,
                    line_bytes: l,
                    unique_lines: MVS_WORKLOAD.footprint(r, l),
                });
            }
        }
        out
    }

    #[test]
    fn recovers_exact_parameters_from_noiseless_data() {
        let obs = synthetic_obs();
        let p = fit_sst(&obs).unwrap();
        assert!((p.w - MVS_WORKLOAD.w).abs() < 1e-6, "W = {}", p.w);
        assert!((p.a - MVS_WORKLOAD.a).abs() < 1e-8, "a = {}", p.a);
        assert!((p.b - MVS_WORKLOAD.b).abs() < 1e-8, "b = {}", p.b);
        assert!(
            (p.log_d - MVS_WORKLOAD.log_d).abs() < 1e-8,
            "log_d = {}",
            p.log_d
        );
        assert!(fit_rms_log_error(&p, &obs) < 1e-9);
    }

    #[test]
    fn robust_to_small_noise() {
        let mut obs = synthetic_obs();
        // ±2 % deterministic "noise".
        for (i, o) in obs.iter_mut().enumerate() {
            let eps = if i % 2 == 0 { 1.02 } else { 0.98 };
            o.unique_lines *= eps;
        }
        let p = fit_sst(&obs).unwrap();
        assert!((p.b - MVS_WORKLOAD.b).abs() < 0.02, "b drifted: {}", p.b);
        assert!(fit_rms_log_error(&p, &obs) < 0.02);
    }

    #[test]
    fn too_few_observations_rejected() {
        let obs = synthetic_obs();
        assert_eq!(
            fit_sst(&obs[..3]).unwrap_err(),
            FitError::TooFewObservations
        );
    }

    #[test]
    fn single_line_size_is_singular() {
        let obs: Vec<_> = (2..10)
            .map(|e| {
                let r = 10f64.powi(e);
                FootprintObs {
                    refs: r,
                    line_bytes: 16.0,
                    unique_lines: MVS_WORKLOAD.footprint(r, 16.0),
                }
            })
            .collect();
        assert_eq!(fit_sst(&obs).unwrap_err(), FitError::Singular);
    }

    #[test]
    fn invalid_observation_rejected() {
        let mut obs = synthetic_obs();
        obs[0].unique_lines = 0.0;
        assert_eq!(fit_sst(&obs).unwrap_err(), FitError::InvalidObservation);
    }

    #[test]
    fn solve4_identity() {
        let m = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 4.0, 0.0],
            [0.0, 0.0, 0.0, 8.0],
        ];
        let x = solve4(m, [1.0, 2.0, 4.0, 8.0]).unwrap();
        for v in x {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn solve4_detects_singular() {
        let m = [[1.0, 1.0, 0.0, 0.0]; 4];
        assert!(solve4(m, [1.0; 4]).is_none());
    }
}
