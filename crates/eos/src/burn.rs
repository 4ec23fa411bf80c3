//! A stiff single-species carbon-burning network — the XNet/Aprox13
//! substitute for the Cellular detonation (paper §4.2: "the ordinary
//! differential equations in the Burn module are particularly stiff and
//! sensitive to numerical perturbation").
//!
//! Model: carbon mass fraction X with an Arrhenius rate and temperature
//! feedback through the released nuclear energy:
//!
//! ```text
//! dX/dt = -X · A · exp(-Ta / T)          (consumption)
//! de/dt = -Q · dX/dt                      (heating)
//! ```
//!
//! Integrated with backward Euler + Newton on X (the rate at the advanced
//! temperature), sub-stepped — the standard stiff treatment. The implicit
//! solve is another iteration whose convergence degrades under truncation,
//! which is why the paper leaves the Burn module at full precision and
//! truncates only the EOS.

use raptor_core::{region, Real};

/// Burn network parameters (dimensionally cgs-flavored).
#[derive(Clone, Copy, Debug)]
pub struct BurnCfg {
    /// Rate prefactor `A` (1/s).
    pub rate_a: f64,
    /// Activation temperature `Ta` (K).
    pub t_act: f64,
    /// Specific energy release `Q` per unit burned mass fraction (erg/g).
    pub q_release: f64,
    /// Specific heat used for the temperature feedback during substeps.
    pub cv: f64,
    /// Maximum relative change of X per substep.
    pub max_dx: f64,
}

impl Default for BurnCfg {
    fn default() -> Self {
        BurnCfg {
            rate_a: 1e14,
            t_act: 8e9,
            q_release: 5.0e17,
            cv: crate::table::CV_ION,
            max_dx: 0.2,
        }
    }
}

/// Result of burning one cell over `dt`.
#[derive(Clone, Copy, Debug)]
pub struct BurnResult<R: Real> {
    /// New carbon fraction.
    pub x: R,
    /// Released specific energy (>= 0).
    pub de: R,
    /// New temperature estimate.
    pub t: R,
    /// Substeps taken.
    pub substeps: usize,
}

/// Arrhenius rate at temperature T.
#[inline]
pub fn rate<R: Real>(cfg: &BurnCfg, t: R) -> R {
    R::from_f64(cfg.rate_a) * (-R::from_f64(cfg.t_act) / t).exp()
}

/// Advance (X, T) over `dt` with adaptive backward-Euler substeps.
///
/// Runs in the `Burn/net` region.
pub fn burn_cell<R: Real>(cfg: &BurnCfg, x0: R, t0: R, dt: f64) -> BurnResult<R> {
    let _r = region("Burn/net");
    let mut x = x0;
    let mut t = t0;
    let mut remaining = dt;
    let mut de_total = R::zero();
    let mut substeps = 0;
    let tiny = R::from_f64(1e-30);
    while remaining > 0.0 && substeps < 10_000 {
        // Choose a substep so X changes at most max_dx (explicit estimate).
        let r_now = rate(cfg, t);
        let tau = R::one() / (r_now + tiny);
        // lint: allow(native-float, substep-size selection: dt bookkeeping around the Tracked update)
        let h = remaining.min(cfg.max_dx * tau.to_f64()).max(remaining * 1e-12);
        // Backward Euler with the rate lagged one Newton step on T:
        //   x1 = x / (1 + h r(T1)),  T1 from energy feedback.
        // Two fixed-point sweeps suffice for our stiffness range.
        let hr = R::from_f64(h);
        let mut x1 = x / (R::one() + hr * r_now);
        let mut t1 = t;
        for _ in 0..2 {
            let de = R::from_f64(cfg.q_release) * (x - x1).max(R::zero());
            t1 = t + de / R::from_f64(cfg.cv);
            let r1 = rate(cfg, t1);
            x1 = x / (R::one() + hr * r1);
        }
        let de = R::from_f64(cfg.q_release) * (x - x1).max(R::zero());
        de_total += de;
        x = x1;
        t = t1;
        remaining -= h; // lint: allow(native-float, dt bookkeeping)
        substeps += 1;
        if x.to_f64() < 1e-12 {
            break;
        }
    }
    BurnResult { x, de: de_total, t, substeps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_fuel_does_not_burn() {
        let cfg = BurnCfg::default();
        let r = burn_cell(&cfg, 1.0f64, 1e8, 1e-6);
        assert!((r.x - 1.0).abs() < 1e-10, "X {}", r.x);
        assert!(r.de < 1e6, "released {}", r.de);
    }

    #[test]
    fn hot_fuel_burns_and_releases_energy() {
        let cfg = BurnCfg::default();
        let r = burn_cell(&cfg, 1.0f64, 5e9, 1e-6);
        assert!(r.x < 0.9, "X {}", r.x);
        assert!(r.de > 1e16, "released {}", r.de);
        assert!(r.t > 5e9, "temperature feedback {}", r.t);
    }

    #[test]
    fn burning_conserves_x_bounds() {
        let cfg = BurnCfg::default();
        for &t in &[1e9, 3e9, 8e9] {
            for &dt in &[1e-9, 1e-6, 1e-3] {
                let r = burn_cell(&cfg, 1.0f64, t, dt);
                assert!(r.x >= 0.0 && r.x <= 1.0, "X {} at T {t} dt {dt}", r.x);
                assert!(r.de >= 0.0);
            }
        }
    }

    #[test]
    fn stiff_limit_is_stable() {
        // rate * dt >> 1: explicit integration would explode; backward
        // Euler decays X monotonically toward 0.
        let cfg = BurnCfg::default();
        let t = 8e9;
        let r_val: f64 = rate(&cfg, t);
        let dt = 100.0 / r_val; // 100 e-folds
        let r = burn_cell(&cfg, 1.0f64, t, dt);
        assert!(r.x < 0.01, "stiff burn completes: X {}", r.x);
        assert!(r.x >= 0.0);
        assert!((r.de - cfg.q_release * (1.0 - r.x)).abs() / r.de < 1e-6);
    }

    #[test]
    fn energy_release_matches_consumed_fraction() {
        let cfg = BurnCfg::default();
        let r = burn_cell(&cfg, 0.8f64, 4e9, 1e-5);
        let burned = 0.8 - r.x;
        assert!((r.de - cfg.q_release * burned).abs() <= 1e-8 * r.de.max(1.0));
    }

    #[test]
    fn truncated_burn_diverges_from_reference() {
        use bigfloat::Format;
        use raptor_core::{Arith, Config, Session, Tracked};
        let cfg = BurnCfg::default();
        // Partial-burn regime: rate*dt ~ O(1) so X lands mid-range and the
        // result is precision-sensitive (a completed burn saturates at
        // X ~ 0 regardless of precision).
        let full = burn_cell(&cfg, 1.0f64, 2.5e9, 1e-13);
        assert!(full.x > 0.05 && full.x < 0.95, "partial burn: X {}", full.x);
        let sess = Session::new(Config::op_files(Format::new(11, 10), ["Burn"])).unwrap();
        let _g = sess.install();
        let tr = burn_cell(&cfg, Tracked::from_f64(1.0), Tracked::from_f64(2.5e9), 1e-13);
        let dx = (tr.x.to_f64() - full.x).abs();
        assert!(dx > 1e-12, "10-bit burn must deviate: {dx}");
        assert!(dx < 0.2, "but stay bounded: {dx}");
    }
}
