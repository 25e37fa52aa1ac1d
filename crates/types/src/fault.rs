//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] describes an unreliable interconnect: per-link
//! drop/duplicate/extra-delay rates, optional burst windows during
//! which faults are active, and a set of persistently slow nodes. The
//! plan itself holds **no mutable state**: every decision is a pure
//! function of `(seed, src, dst, request sequence, attempt)` — the same
//! SplitMix64 absorption the workload [`Jitter`] source uses — so
//! Base-, FR-, and SWI-DSM runs see the identical fault schedule. That
//! statelessness is what keeps faulty runs reproducible.
//!
//! Only the three *request* messages (read, write, upgrade) are ever
//! faulted. Replies, invalidations, and acknowledgements ride the
//! reliable path: the directory protocol depends on pairwise FIFO
//! delivery of its own messages (an invalidation must not overtake the
//! data reply it fences), while requests may legally arrive at any
//! time, in any order, and more than once — the retry/duplicate
//! suppression machinery in the protocol crate makes request delivery
//! at-least-once and idempotent.
//!
//! [`Jitter`]: ../specdsm_workloads/struct.Jitter.html

use crate::error::ConfigError;
use crate::mix::splitmix_fold;

/// What the plan decided for one request transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// The primary transmission is lost after entering the network.
    pub drop: bool,
    /// A second copy of the message is transmitted (and delivered).
    pub duplicate: bool,
    /// Extra delivery delay of the primary copy, in cycles.
    pub extra_delay: u64,
    /// Extra delivery delay of the duplicate copy, in cycles.
    pub dup_extra_delay: u64,
}

impl FaultDecision {
    /// The decision on a perfectly reliable link.
    pub const NONE: FaultDecision = FaultDecision {
        drop: false,
        duplicate: false,
        extra_delay: 0,
        dup_extra_delay: 0,
    };
}

/// A deterministic schedule of network faults.
///
/// # Example
///
/// ```
/// use specdsm_types::FaultPlan;
///
/// let plan = FaultPlan::light(42);
/// plan.validate().expect("built-in plans are valid");
/// // Decisions are a pure function of the coordinates: same inputs,
/// // same fault.
/// let a = plan.decide(3, 7, 19, 0, 12_345);
/// assert_eq!(a, plan.decide(3, 7, 19, 0, 12_345));
/// // A retry (attempt 1) of the same request redraws its fate.
/// let _retry = plan.decide(3, 7, 19, 1, 20_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the stateless decision hash.
    pub seed: u64,
    /// Probability a request transmission is dropped.
    pub drop_rate: f64,
    /// Probability a request transmission is duplicated.
    pub dup_rate: f64,
    /// Probability a request transmission is delayed.
    pub delay_rate: f64,
    /// Maximum extra delay in cycles (uniform in `[1, delay_max]`).
    pub delay_max: u64,
    /// Length of one fault-activity period in cycles; `0` means faults
    /// are active at all times.
    pub burst_period: u64,
    /// Leading cycles of each period during which faults are active
    /// (the burst). Ignored when `burst_period` is `0`.
    pub burst_len: u64,
    /// Nodes whose links are persistently slow: every request sent to
    /// or from one of them takes [`FaultPlan::slow_extra`] extra
    /// cycles, burst or no burst.
    pub slow_nodes: Vec<usize>,
    /// Extra cycles on every request touching a slow node.
    pub slow_extra: u64,
    /// Requester-side retransmission timeout in cycles (doubled per
    /// attempt — exponential backoff).
    pub retry_timeout: u64,
    /// Maximum retries of one request before the run aborts.
    pub retry_cap: u32,
}

impl FaultPlan {
    /// A plan with every fault disabled and default retry parameters —
    /// the starting point for building custom plans.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            delay_max: 0,
            burst_period: 0,
            burst_len: 0,
            slow_nodes: Vec::new(),
            slow_extra: 0,
            retry_timeout: 2_500,
            retry_cap: 12,
        }
    }

    /// A light but thorough plan: 2% drops, 2% duplicates, 5% of
    /// requests delayed up to 200 cycles, node 1 persistently slow.
    /// Strong enough that the full suite exercises every recovery
    /// path; light enough that it still completes at every scale.
    #[must_use]
    pub fn light(seed: u64) -> Self {
        FaultPlan {
            drop_rate: 0.02,
            dup_rate: 0.02,
            delay_rate: 0.05,
            delay_max: 200,
            slow_nodes: vec![1],
            slow_extra: 60,
            ..Self::new(seed)
        }
    }

    /// Whether this plan can never produce a fault (all rates zero, no
    /// slow nodes). The engine treats a no-op plan exactly like no plan
    /// at all, so zero-rate runs stay bit-identical to fault-free runs.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.drop_rate == 0.0
            && self.dup_rate == 0.0
            && (self.delay_rate == 0.0 || self.delay_max == 0)
            && (self.slow_nodes.is_empty() || self.slow_extra == 0)
    }

    /// Checks the structural invariants of the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadFaultPlan`] if any rate is outside
    /// `[0, 1]` (or not finite), if a nonzero delay rate has no delay
    /// range, if the retry parameters are degenerate, or if the burst
    /// window is longer than its period.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let bad = |reason| Err(ConfigError::BadFaultPlan { reason });
        for rate in [self.drop_rate, self.dup_rate, self.delay_rate] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return bad("fault rates must lie in [0, 1]");
            }
        }
        if self.delay_rate > 0.0 && self.delay_max == 0 {
            return bad("delay_rate > 0 requires delay_max >= 1");
        }
        if self.retry_timeout == 0 {
            return bad("retry_timeout must be non-zero");
        }
        if self.retry_cap == 0 {
            return bad("retry_cap must be at least 1");
        }
        if self.burst_period > 0 && self.burst_len > self.burst_period {
            return bad("burst_len must not exceed burst_period");
        }
        Ok(())
    }

    /// Whether faults are active at cycle `now` (inside a burst, or
    /// burst windows are disabled).
    #[must_use]
    pub fn active_at(&self, now: u64) -> bool {
        self.burst_period == 0 || now % self.burst_period < self.burst_len
    }

    /// The fate of one request transmission: attempt `attempt` of the
    /// request with per-processor sequence number `seq`, sent from node
    /// `src` to node `dst` at cycle `now`.
    ///
    /// Pure function of its arguments and the plan — no internal state,
    /// no dependence on evaluation order. `now` enters only the burst
    /// gate, never the random draws, so a plan without burst windows
    /// gives the same fault to a request however the run times its
    /// send.
    #[must_use]
    pub fn decide(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        now: u64,
    ) -> FaultDecision {
        let slow = if self.slow_extra > 0
            && (self.slow_nodes.contains(&src) || self.slow_nodes.contains(&dst))
        {
            self.slow_extra
        } else {
            0
        };
        if !self.active_at(now) {
            return FaultDecision {
                extra_delay: slow,
                dup_extra_delay: slow,
                ..FaultDecision::NONE
            };
        }
        // The same SplitMix64 fold the workload jitter source uses.
        let link = (src as u64) << 32 | dst as u64;
        let draw = |salt: u64| splitmix_fold(self.seed, [link, seq, u64::from(attempt), salt]);
        let chance = |salt: u64, rate: f64| to_unit(draw(salt)) < rate;
        let delay = |gate_salt: u64, mag_salt: u64| {
            if self.delay_max > 0 && chance(gate_salt, self.delay_rate) {
                1 + draw(mag_salt) % self.delay_max
            } else {
                0
            }
        };
        FaultDecision {
            drop: chance(0, self.drop_rate),
            duplicate: chance(1, self.dup_rate),
            extra_delay: slow + delay(2, 3),
            dup_extra_delay: slow + delay(4, 5),
        }
    }
}

/// The standard 53-bit conversion of a hash to `[0, 1)`.
fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan {
            drop_rate: 0.25,
            ..FaultPlan::new(3)
        };
        let drops = (0..4000)
            .filter(|&seq| plan.decide(1, 2, seq, 0, 0).drop)
            .count();
        assert!((800..1200).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn retries_redraw() {
        // A dropped request must not be dropped on every retry: the
        // attempt number enters the hash.
        let plan = FaultPlan {
            drop_rate: 0.5,
            ..FaultPlan::new(11)
        };
        let mut survived = 0;
        for seq in 0..200 {
            if (0..16).any(|attempt| !plan.decide(2, 9, seq, attempt, 0).drop) {
                survived += 1;
            }
        }
        assert_eq!(survived, 200, "every request survives within 16 attempts");
    }

    #[test]
    fn burst_windows_gate_faults() {
        let plan = FaultPlan {
            drop_rate: 1.0,
            burst_period: 1000,
            burst_len: 100,
            ..FaultPlan::new(5)
        };
        assert!(plan.decide(0, 1, 1, 0, 50).drop, "inside the burst");
        assert!(!plan.decide(0, 1, 1, 0, 500).drop, "outside the burst");
        assert!(plan.decide(0, 1, 1, 0, 1050).drop, "next period's burst");
    }

    #[test]
    fn slow_nodes_always_pay() {
        let plan = FaultPlan {
            slow_nodes: vec![3],
            slow_extra: 40,
            burst_period: 1000,
            burst_len: 0,
            ..FaultPlan::new(5)
        };
        // Burst never active, yet the slow link still pays.
        assert_eq!(plan.decide(3, 0, 1, 0, 500).extra_delay, 40);
        assert_eq!(plan.decide(0, 3, 1, 0, 500).extra_delay, 40);
        assert_eq!(plan.decide(0, 1, 1, 0, 500).extra_delay, 0);
    }

    #[test]
    fn noop_detection() {
        assert!(FaultPlan::new(1).is_noop());
        assert!(!FaultPlan::light(1).is_noop());
        let delay_without_range = FaultPlan {
            delay_rate: 0.5,
            delay_max: 0,
            ..FaultPlan::new(1)
        };
        assert!(delay_without_range.is_noop());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let bad_rate = FaultPlan {
            drop_rate: 1.5,
            ..FaultPlan::new(0)
        };
        assert!(matches!(
            bad_rate.validate(),
            Err(ConfigError::BadFaultPlan { .. })
        ));
        let bad_delay = FaultPlan {
            delay_rate: 0.1,
            delay_max: 0,
            ..FaultPlan::new(0)
        };
        assert!(bad_delay.validate().is_err());
        let bad_retry = FaultPlan {
            retry_timeout: 0,
            ..FaultPlan::new(0)
        };
        assert!(bad_retry.validate().is_err());
        let bad_cap = FaultPlan {
            retry_cap: 0,
            ..FaultPlan::new(0)
        };
        assert!(bad_cap.validate().is_err());
        let bad_burst = FaultPlan {
            burst_period: 10,
            burst_len: 11,
            ..FaultPlan::new(0)
        };
        assert!(bad_burst.validate().is_err());
        FaultPlan::light(9).validate().expect("light plan is valid");
    }

    #[test]
    fn decisions_decorrelate_across_links_and_seqs() {
        let plan = FaultPlan {
            drop_rate: 0.5,
            ..FaultPlan::new(77)
        };
        let fates: Vec<bool> = (0..64)
            .map(|seq| plan.decide(0, 1, seq, 0, 0).drop)
            .collect();
        assert!(fates.iter().any(|&d| d) && fates.iter().any(|&d| !d));
        let other_link: Vec<bool> = (0..64)
            .map(|seq| plan.decide(0, 2, seq, 0, 0).drop)
            .collect();
        assert_ne!(fates, other_link, "links draw independent fates");
    }

    /// Known answers recorded from the original hash: a change to the
    /// hash or its salts fails here, though no golden row runs faults.
    #[test]
    fn decisions_match_known_answers() {
        let fate = |plan: &FaultPlan, (src, dst, seq, attempt, now)| {
            let d = plan.decide(src, dst, seq, attempt, now);
            (d.drop, d.duplicate, d.extra_delay, d.dup_extra_delay)
        };
        // `light` slows node 1, so each request 0 -> 1 pays 60 cycles;
        // these are the `(seq, attempt)` points that draw more.
        let light = FaultPlan::light(42);
        let drawn: Vec<_> = (0..32)
            .flat_map(|seq| [(seq, 0), (seq, 1)])
            .map(|(seq, att)| (seq, att, fate(&light, (0, 1, seq, att, 0))))
            .filter(|&(.., f)| f != (false, false, 60, 60))
            .collect();
        let expected = [
            (2, 0, (false, false, 60, 118)),
            (6, 0, (false, false, 60, 110)),
            (9, 0, (false, false, 60, 255)),
            (9, 1, (false, true, 60, 60)),
            (13, 0, (false, false, 60, 76)),
            (13, 1, (false, false, 247, 60)),
            (15, 1, (false, true, 60, 60)),
            (19, 1, (false, false, 168, 60)),
            (22, 1, (false, false, 60, 127)),
            (24, 1, (false, false, 60, 209)),
            (27, 0, (false, false, 60, 63)),
        ];
        assert_eq!(drawn, expected);
        // Dense rates, a 400-of-1000-cycle burst window and two slow
        // nodes, at `(src, dst, seq, attempt, now)`.
        let bursty = FaultPlan {
            drop_rate: 0.5,
            dup_rate: 0.5,
            delay_rate: 0.5,
            delay_max: 1000,
            burst_period: 1000,
            burst_len: 400,
            slow_nodes: vec![2, 7],
            slow_extra: 33,
            ..FaultPlan::new(0xDEAD_BEEF)
        };
        for (at, want) in [
            ((0, 1, 0, 0, 0), (true, true, 0, 351)),
            ((1, 0, 1, 0, 399), (true, true, 0, 0)),
            ((0, 1, 1, 0, 400), (false, false, 0, 0)),
            ((0, 2, 5, 1, 999), (false, false, 33, 33)),
            ((2, 3, 5, 1, 1000), (true, false, 363, 974)),
            ((3, 4, 77, 1, 1234), (false, false, 547, 0)),
            ((7, 5, 9, 3, 2100), (false, false, 33, 1021)),
            ((5, 6, 1 << 40, 0, 3050), (true, false, 0, 140)),
            ((9, 8, 123_456, 2, 5_000_399), (false, true, 6, 350)),
        ] {
            assert_eq!(fate(&bursty, at), want, "decide{at:?}");
        }
    }
}
