//! Prediction attribution: *which* component of a composed predictor
//! provided each prediction.
//!
//! The paper's evaluation is a set of ablation tables — the interesting
//! question is never just "what was the MPKI" but "which component
//! earned its storage". Every [`crate::ConditionalPredictor`] can
//! therefore report, per prediction, the providing component, what the
//! alternate path would have predicted, and a coarse confidence bucket,
//! through [`ConditionalPredictor::predict_attributed`].
//!
//! Attribution is strictly opt-in: the hot grid path keeps calling
//! [`predict`], which does not construct (or store) attribution state,
//! so instrumentation costs nothing unless a report asks for it. The
//! workspace guarantees (and property-tests) that the attributed and
//! plain paths produce bit-identical predictions.
//!
//! [`predict`]: crate::ConditionalPredictor::predict
//! [`ConditionalPredictor::predict_attributed`]:
//! crate::ConditionalPredictor::predict_attributed

/// The component of a (possibly composed) predictor that provided the
/// final prediction of one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProviderComponent {
    /// The predictor does not implement attribution (the trait default).
    Unattributed,
    /// A PC-indexed base table (the TAGE bimodal base, or the single
    /// table of `bimodal`/`gshare`).
    Base,
    /// TAGE tagged bank `0..n` (0 = shortest history); the bank whose
    /// prediction was actually used, which is the alternate bank when
    /// the `use_alt_on_na` policy overrode a weak new allocation.
    Tagged(u8),
    /// The statistical corrector reverted the TAGE prediction.
    Corrector,
    /// A neural adder-tree sum (GEHL / hashed perceptron), including any
    /// IMLI components folded into the summation.
    Neural,
    /// A confident loop-predictor override.
    Loop,
    /// A confident wormhole side-predictor override.
    Wormhole,
}

/// The closed set of aggregation keys ([`ProviderComponent::key`]
/// values), alphabetical — the slot order of [`AttributionTally`].
pub const COMPONENT_KEYS: [&str; 7] = [
    "base",
    "corrector",
    "loop",
    "neural",
    "tagged",
    "unattributed",
    "wormhole",
];

impl ProviderComponent {
    /// Coarse aggregation key: tagged banks collapse onto `"tagged"` so
    /// summaries stay readable (the per-bank detail remains in the
    /// enum for callers that want it).
    pub fn key(&self) -> &'static str {
        COMPONENT_KEYS[self.slot()]
    }

    /// Position of this component's key in [`COMPONENT_KEYS`].
    #[inline]
    pub fn slot(&self) -> usize {
        match self {
            ProviderComponent::Base => 0,
            ProviderComponent::Corrector => 1,
            ProviderComponent::Loop => 2,
            ProviderComponent::Neural => 3,
            ProviderComponent::Tagged(_) => 4,
            ProviderComponent::Unattributed => 5,
            ProviderComponent::Wormhole => 6,
        }
    }
}

/// Coarse confidence of the providing component at prediction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConfidenceBucket {
    /// Weak: a weak counter state or a sum well below the threshold.
    Low,
    /// A sum between half the adaptive threshold and the threshold.
    Medium,
    /// A confident counter or a sum at/above the adaptive threshold.
    High,
}

impl ConfidenceBucket {
    /// Buckets a neural sum magnitude against the host's adaptive
    /// update threshold θ: at/above θ is [`High`](Self::High), at/above
    /// θ/2 is [`Medium`](Self::Medium), else [`Low`](Self::Low).
    pub fn from_sum(sum_abs: i32, theta: i32) -> Self {
        if sum_abs >= theta.max(1) {
            ConfidenceBucket::High
        } else if 2 * sum_abs >= theta {
            ConfidenceBucket::Medium
        } else {
            ConfidenceBucket::Low
        }
    }

    /// Buckets a saturating counter: weak states are
    /// [`Low`](Self::Low), saturated states [`High`](Self::High),
    /// everything between [`Medium`](Self::Medium).
    pub fn from_counter(confidence: u8, max_confidence: u8) -> Self {
        if confidence == 0 {
            ConfidenceBucket::Low
        } else if confidence >= max_confidence {
            ConfidenceBucket::High
        } else {
            ConfidenceBucket::Medium
        }
    }

    /// Stable lower-case label (`"low"`, `"medium"`, `"high"`).
    pub fn label(&self) -> &'static str {
        match self {
            ConfidenceBucket::Low => "low",
            ConfidenceBucket::Medium => "medium",
            ConfidenceBucket::High => "high",
        }
    }
}

/// Attribution of one prediction: who provided it, what the losing path
/// would have said, how confident the provider was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictionAttribution {
    /// The component that provided the final prediction.
    pub component: ProviderComponent,
    /// What the alternate path would have predicted: the TAGE alternate
    /// bank under a tagged provider, the TAGE prediction under a
    /// corrector revert, the subsumed main prediction under a loop or
    /// wormhole override. `None` when no meaningful alternate exists
    /// (single-table predictors, pure neural sums).
    pub alternate: Option<bool>,
    /// Confidence bucket of the provider at prediction time.
    pub confidence: ConfidenceBucket,
}

impl PredictionAttribution {
    /// The attribution reported by predictors that do not implement the
    /// channel.
    pub fn unattributed() -> Self {
        PredictionAttribution {
            component: ProviderComponent::Unattributed,
            alternate: None,
            confidence: ConfidenceBucket::Low,
        }
    }

    /// Convenience constructor.
    pub fn new(
        component: ProviderComponent,
        alternate: Option<bool>,
        confidence: ConfidenceBucket,
    ) -> Self {
        PredictionAttribution {
            component,
            alternate,
            confidence,
        }
    }

    /// Classifies one resolved, attributed prediction into the
    /// provider/save/loss split every tally in the workspace uses
    /// (the suite report's per-component summary and the scenario
    /// layer's per-tenant tallies share this single definition, so the
    /// split cannot drift between them):
    ///
    /// * a **save** is a correct prediction whose alternate path would
    ///   have been wrong — the provider earned its storage on this
    ///   branch;
    /// * a **loss** is the reverse: the provider overrode a correct
    ///   alternate. Both require a meaningful alternate
    ///   ([`alternate`](Self::alternate) is `Some`).
    pub fn classify(&self, pred: bool, taken: bool) -> AttributionOutcome {
        let correct = pred == taken;
        let (save, loss) = match self.alternate {
            Some(alt) => {
                let alt_correct = alt == taken;
                (correct && !alt_correct, !correct && alt_correct)
            }
            None => (false, false),
        };
        AttributionOutcome {
            correct,
            high_confidence: self.confidence == ConfidenceBucket::High,
            save,
            loss,
        }
    }
}

/// The classification of one attributed prediction against its resolved
/// outcome — see [`PredictionAttribution::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributionOutcome {
    /// The provided prediction matched the resolved direction.
    pub correct: bool,
    /// The provider reported [`ConfidenceBucket::High`].
    pub high_confidence: bool,
    /// Correct while the alternate path would have been wrong.
    pub save: bool,
    /// Wrong while the alternate path would have been correct.
    pub loss: bool,
}

/// Per-component prediction outcomes over one run (or aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentTally {
    /// Predictions this component provided.
    pub provided: u64,
    /// Provided predictions that were correct.
    pub correct: u64,
    /// Provided predictions made with high confidence.
    pub high_confidence: u64,
    /// "Steals": provided correctly while the alternate path would have
    /// mispredicted — the mispredictions this component removed.
    pub saves: u64,
    /// Provided wrongly while the alternate path would have been
    /// correct — the mispredictions this component introduced.
    pub losses: u64,
}

impl ComponentTally {
    /// Fraction of provided predictions that were correct, or `None`
    /// before any prediction.
    pub fn accuracy(&self) -> Option<f64> {
        (self.provided != 0).then(|| self.correct as f64 / self.provided as f64)
    }

    /// Net mispredictions removed by this component versus its
    /// alternate path (saves − losses) — a per-component ablation
    /// estimate without re-running the grid.
    pub fn net_saves(&self) -> i64 {
        self.saves as i64 - self.losses as i64
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &ComponentTally) {
        self.provided += other.provided;
        self.correct += other.correct;
        self.high_confidence += other.high_confidence;
        self.saves += other.saves;
        self.losses += other.losses;
    }
}

/// Prediction outcomes folded per aggregation key into a fixed array,
/// one [`ComponentTally`] per [`COMPONENT_KEYS`] slot: the
/// allocation-free accumulator behind every attributed block drive
/// (one array index per branch instead of a map lookup).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionTally {
    slots: [ComponentTally; COMPONENT_KEYS.len()],
}

impl AttributionTally {
    /// Folds one prediction in. `pred` is the final prediction, `taken`
    /// the resolved outcome; the provider/save/loss split is
    /// [`PredictionAttribution::classify`]'s.
    #[inline]
    pub fn record(&mut self, attribution: &PredictionAttribution, pred: bool, taken: bool) {
        let tally = &mut self.slots[attribution.component.slot()];
        let outcome = attribution.classify(pred, taken);
        tally.provided += 1;
        tally.correct += u64::from(outcome.correct);
        tally.high_confidence += u64::from(outcome.high_confidence);
        tally.saves += u64::from(outcome.save);
        tally.losses += u64::from(outcome.loss);
    }

    /// Every component that provided at least one prediction, in key
    /// (alphabetical) order.
    pub fn components(&self) -> impl Iterator<Item = (&'static str, &ComponentTally)> {
        COMPONENT_KEYS
            .iter()
            .zip(&self.slots)
            .filter(|(_, t)| t.provided != 0)
            .map(|(k, t)| (*k, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_slots_follow_key_order() {
        let mut tally = AttributionTally::default();
        let provider =
            |component| PredictionAttribution::new(component, Some(false), ConfidenceBucket::High);
        tally.record(&provider(ProviderComponent::Wormhole), true, true);
        tally.record(&provider(ProviderComponent::Tagged(3)), true, true);
        tally.record(&provider(ProviderComponent::Tagged(7)), false, true);
        tally.record(&provider(ProviderComponent::Base), false, false);
        let keys: Vec<&str> = tally.components().map(|(k, _)| k).collect();
        assert_eq!(keys, ["base", "tagged", "wormhole"]);
        let tagged = tally.components().find(|(k, _)| *k == "tagged").unwrap().1;
        assert_eq!(
            (tagged.provided, tagged.correct, tagged.saves, tagged.losses),
            (2, 1, 1, 0)
        );
        let mut sorted = COMPONENT_KEYS;
        sorted.sort_unstable();
        assert_eq!(sorted, COMPONENT_KEYS, "slot order is alphabetical");
    }

    #[test]
    fn keys_are_stable_and_collapse_banks() {
        assert_eq!(ProviderComponent::Tagged(0).key(), "tagged");
        assert_eq!(ProviderComponent::Tagged(11).key(), "tagged");
        assert_eq!(ProviderComponent::Base.key(), "base");
        assert_eq!(ProviderComponent::Unattributed.key(), "unattributed");
    }

    #[test]
    fn sum_buckets_follow_theta() {
        assert_eq!(ConfidenceBucket::from_sum(20, 10), ConfidenceBucket::High);
        assert_eq!(ConfidenceBucket::from_sum(10, 10), ConfidenceBucket::High);
        assert_eq!(ConfidenceBucket::from_sum(6, 10), ConfidenceBucket::Medium);
        assert_eq!(ConfidenceBucket::from_sum(2, 10), ConfidenceBucket::Low);
        // A zero theta never divides by zero and saturates to High.
        assert_eq!(ConfidenceBucket::from_sum(1, 0), ConfidenceBucket::High);
    }

    #[test]
    fn counter_buckets() {
        assert_eq!(ConfidenceBucket::from_counter(0, 3), ConfidenceBucket::Low);
        assert_eq!(
            ConfidenceBucket::from_counter(1, 3),
            ConfidenceBucket::Medium
        );
        assert_eq!(ConfidenceBucket::from_counter(3, 3), ConfidenceBucket::High);
    }

    #[test]
    fn unattributed_default_shape() {
        let a = PredictionAttribution::unattributed();
        assert_eq!(a.component, ProviderComponent::Unattributed);
        assert_eq!(a.alternate, None);
        assert_eq!(a.confidence.label(), "low");
    }

    #[test]
    fn classify_save_loss_split() {
        let with_alt = |alt| {
            PredictionAttribution::new(
                ProviderComponent::Tagged(3),
                Some(alt),
                ConfidenceBucket::High,
            )
        };
        // Provider right, alternate wrong: a save.
        let o = with_alt(false).classify(true, true);
        assert!(o.correct && o.save && !o.loss && o.high_confidence);
        // Provider wrong, alternate right: a loss.
        let o = with_alt(true).classify(false, true);
        assert!(!o.correct && !o.save && o.loss);
        // Both agree: neither save nor loss.
        let o = with_alt(true).classify(true, true);
        assert!(o.correct && !o.save && !o.loss);
        // No alternate: never a save or loss, whatever the outcome.
        let o = PredictionAttribution::unattributed().classify(false, true);
        assert!(!o.correct && !o.save && !o.loss && !o.high_confidence);
    }
}
