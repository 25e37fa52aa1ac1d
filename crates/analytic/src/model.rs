//! Equations 1 and 2.

/// Parameters of the analytic model (paper §5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Fraction of memory requests executed speculatively (`f`).
    pub f: f64,
    /// Prediction accuracy (`p`).
    pub p: f64,
    /// Remote-to-local access latency ratio (`rtl`).
    pub rtl: f64,
    /// Misspeculation penalty factor (`n`, in units of a remote access
    /// latency).
    pub n: f64,
}

impl ModelParams {
    /// The paper's base configuration: `n = 2`, `f = 1.0`, `rtl = 4`
    /// ("a moderate remote-to-local latency ratio of 4, characteristic
    /// of today's aggressive DSM clusters, and a misspeculation penalty
    /// factor of 2"), with accuracy `p` to be varied.
    #[must_use]
    pub fn paper_base(p: f64) -> Self {
        ModelParams {
            f: 1.0,
            p,
            rtl: 4.0,
            n: 2.0,
        }
    }

    /// Validates parameter ranges (`f`, `p` in [0, 1]; `rtl` ≥ 1;
    /// `n` > 0).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.f)
            && (0.0..=1.0).contains(&self.p)
            && self.rtl >= 1.0
            && self.n > 0.0
    }

    /// Equation 1: communication-time speedup.
    ///
    /// `N·r / ((1-f)·N·r + f·N·(p·l + (1-p)·n·r))`, simplified by
    /// dividing through by `N·r`.
    #[must_use]
    pub fn comm_speedup(&self) -> f64 {
        let spec_cost = self.p / self.rtl + self.n * (1.0 - self.p);
        1.0 / ((1.0 - self.f) + self.f * spec_cost)
    }

    /// Equation 2: overall speedup for an application with
    /// communication ratio `c` on the critical path.
    #[must_use]
    pub fn speedup(&self, c: f64) -> f64 {
        1.0 / ((1.0 - c) + c / self.comm_speedup())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_speculation_is_neutral() {
        let m = ModelParams {
            f: 0.0,
            p: 0.5,
            rtl: 4.0,
            n: 2.0,
        };
        assert_eq!(m.comm_speedup(), 1.0);
        for c in [0.0, 0.3, 1.0] {
            assert!((m.speedup(c) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn perfect_prediction_reaches_rtl() {
        // "In the limit, when all speculations succeed (p=1.0) ... the
        // DSM behaves like an SMP."
        for rtl in [2.0, 4.0, 8.0] {
            let m = ModelParams {
                f: 1.0,
                p: 1.0,
                rtl,
                n: 2.0,
            };
            assert!((m.comm_speedup() - rtl).abs() < 1e-12);
            assert!((m.speedup(1.0) - rtl).abs() < 1e-12);
        }
    }

    #[test]
    fn low_accuracy_slows_down() {
        // "A low prediction accuracy of 10%-50% consistently results in
        // a slowdown."
        for p in [0.1, 0.3, 0.5] {
            let m = ModelParams::paper_base(p);
            assert!(m.speedup(0.5) < 1.0, "p = {p}: {}", m.speedup(0.5));
        }
    }

    #[test]
    fn paper_quoted_values() {
        // "A prediction accuracy of 70% at best speeds up the execution
        // by 25% for a fully communication-bound application."
        let m = ModelParams::paper_base(0.7);
        let s = m.speedup(1.0);
        assert!((s - 1.29).abs() < 0.05, "~25-29% at p=0.7: got {s}");
        // p = 0.9 improves performance even at moderate c.
        let m9 = ModelParams::paper_base(0.9);
        assert!(m9.speedup(0.4) > 1.0);
    }

    #[test]
    fn speedup_monotonic_in_accuracy() {
        let mut last = 0.0;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let s = ModelParams::paper_base(p).speedup(0.7);
            assert!(s > last, "speedup must rise with p");
            last = s;
        }
    }

    #[test]
    fn speedup_monotonic_in_communication_when_winning() {
        // With high accuracy, more communication means more to win.
        let m = ModelParams::paper_base(0.95);
        let mut last = 0.0;
        for i in 0..=10 {
            let c = i as f64 / 10.0;
            let s = m.speedup(c);
            assert!(s >= last);
            last = s;
        }
    }

    #[test]
    fn penalty_matters_less_at_high_accuracy() {
        // Figure 6 top-right: "performance is not as sensitive to
        // misspeculation penalty at a high prediction accuracy."
        let spread = |p: f64| {
            let lo = ModelParams {
                n: 1.5,
                ..ModelParams::paper_base(p)
            }
            .speedup(0.8);
            let hi = ModelParams {
                n: 8.0,
                ..ModelParams::paper_base(p)
            }
            .speedup(0.8);
            lo - hi
        };
        assert!(spread(0.95) < spread(0.7));
    }

    #[test]
    fn clusters_benefit_more_than_origin() {
        // Figure 6 bottom-right: higher rtl (NUMA-Q at 8) gains more
        // than Origin (rtl 2).
        let gain = |rtl: f64| {
            ModelParams {
                f: 1.0,
                p: 0.9,
                rtl,
                n: 2.0,
            }
            .speedup(0.8)
        };
        assert!(gain(8.0) > gain(4.0));
        assert!(gain(4.0) > gain(2.0));
    }

    #[test]
    fn validation() {
        assert!(ModelParams::paper_base(0.5).is_valid());
        assert!(!ModelParams {
            f: 1.2,
            ..ModelParams::paper_base(0.5)
        }
        .is_valid());
        assert!(!ModelParams {
            rtl: 0.5,
            ..ModelParams::paper_base(0.5)
        }
        .is_valid());
        assert!(!ModelParams {
            n: 0.0,
            ..ModelParams::paper_base(0.5)
        }
        .is_valid());
    }
}
