//! Prediction accuracy accounting.

use std::fmt;

/// What a predictor had to say about one observed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The message is outside this predictor's alphabet (e.g. an ack
    /// observed by MSP); it does not count toward any statistic.
    Ignored,
    /// No pattern-table entry existed for the current history — the
    /// predictor is still learning this sequence.
    NoPrediction,
    /// The predictor had a prediction; `correct` says whether the
    /// observed message matched it.
    Predicted {
        /// Whether the prediction matched the observation.
        correct: bool,
    },
}

impl Observation {
    /// Whether a prediction was made and it was correct.
    #[must_use]
    pub fn is_correct(self) -> bool {
        matches!(self, Observation::Predicted { correct: true })
    }

    /// Whether a prediction was made at all.
    #[must_use]
    pub fn is_predicted(self) -> bool {
        matches!(self, Observation::Predicted { .. })
    }
}

/// Aggregate prediction statistics, the raw material for the paper's
/// Figure 7/8 (accuracy) and Table 3 (coverage).
///
/// * `seen` — messages in the predictor's alphabet that were observed.
/// * `predicted` — messages for which a prediction existed.
/// * `correct` — predictions that matched.
///
/// # Example
///
/// ```
/// use specdsm_core::{Observation, PredictorStats};
/// let mut s = PredictorStats::default();
/// s.record(Observation::Predicted { correct: true });
/// s.record(Observation::Predicted { correct: false });
/// s.record(Observation::NoPrediction);
/// s.record(Observation::Ignored); // outside the alphabet: not seen
/// assert_eq!(s.accuracy(), 0.5);
/// assert!((s.coverage() - 2.0 / 3.0).abs() < 1e-12);
/// assert!((s.correct_fraction() - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Messages observed (within the predictor's alphabet).
    pub seen: u64,
    /// Messages for which a prediction was available.
    pub predicted: u64,
    /// Predictions that were correct.
    pub correct: u64,
}

impl PredictorStats {
    /// Records one observed message.
    fn record_seen(&mut self) {
        self.seen += 1;
    }

    /// Records a made prediction and whether it was correct.
    fn record_prediction(&mut self, correct: bool) {
        self.predicted += 1;
        if correct {
            self.correct += 1;
        }
    }

    /// Folds a single [`Observation`] into the statistics, including the
    /// implied `seen` count (ignored messages are skipped entirely).
    pub fn record(&mut self, obs: Observation) {
        match obs {
            Observation::Ignored => {}
            Observation::NoPrediction => self.record_seen(),
            Observation::Predicted { correct } => {
                self.record_seen();
                self.record_prediction(correct);
            }
        }
    }

    /// Prediction accuracy: `correct / predicted` (Figure 7/8 metric).
    /// Zero when nothing was predicted.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.predicted)
    }

    /// Fraction of messages predicted: `predicted / seen` (Table 3,
    /// learning speed). Zero when nothing was seen.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        ratio(self.predicted, self.seen)
    }

    /// Fraction of messages *correctly* predicted: `correct / seen`
    /// (Table 3, parenthesized column).
    #[must_use]
    pub fn correct_fraction(&self) -> f64 {
        ratio(self.correct, self.seen)
    }
}

impl fmt::Display for PredictorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seen={} predicted={} correct={} (accuracy {:.1}%, coverage {:.1}%)",
            self.seen,
            self.predicted,
            self.correct,
            100.0 * self.accuracy(),
            100.0 * self.coverage(),
        )
    }
}

fn ratio(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = PredictorStats::default();
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.correct_fraction(), 0.0);
    }

    #[test]
    fn record_folds_observations() {
        let mut s = PredictorStats::default();
        s.record(Observation::Ignored);
        assert_eq!(s.seen, 0);
        s.record(Observation::NoPrediction);
        assert_eq!((s.seen, s.predicted), (1, 0));
        s.record(Observation::Predicted { correct: true });
        s.record(Observation::Predicted { correct: false });
        assert_eq!((s.seen, s.predicted, s.correct), (3, 2, 1));
    }

    #[test]
    fn invariants_hold() {
        let mut s = PredictorStats::default();
        for i in 0..100u64 {
            s.record(if i % 3 == 0 {
                Observation::NoPrediction
            } else {
                Observation::Predicted {
                    correct: i % 2 == 0,
                }
            });
        }
        assert!(s.correct <= s.predicted);
        assert!(s.predicted <= s.seen);
    }

    #[test]
    fn observation_helpers() {
        assert!(Observation::Predicted { correct: true }.is_correct());
        assert!(!Observation::Predicted { correct: false }.is_correct());
        assert!(Observation::Predicted { correct: false }.is_predicted());
        assert!(!Observation::NoPrediction.is_predicted());
        assert!(!Observation::Ignored.is_correct());
    }

    #[test]
    fn display_shows_percentages() {
        let s = PredictorStats {
            seen: 4,
            predicted: 2,
            correct: 1,
        };
        let text = s.to_string();
        assert!(text.contains("50.0%"));
    }
}
