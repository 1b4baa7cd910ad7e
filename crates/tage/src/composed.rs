//! The composed TAGE + SC (+ loop predictor) predictors of the paper.

use crate::sc::{LocalScConfig, ScConfig, ScLookup, StatisticalCorrector};
use bp_components::{
    low_mask, ConditionalPredictor, ConfidenceBucket, ConfigError, ConfigValue, LoopPredictor,
    LoopPredictorConfig, PredictionAttribution, PredictorConfig, ProviderComponent, SharedFrontEnd,
    StorageBudget, StorageItem, Tage, TageConfig, TageStep,
};
use bp_trace::BranchRecord;
use imli::{ImliCheckpoint, ImliConfig};

/// Configuration of a composed [`TageSc`] predictor.
#[derive(Debug, Clone)]
pub struct TageScConfig {
    /// TAGE geometry.
    pub tage: TageConfig,
    /// Statistical corrector geometry (including IMLI/local options).
    pub sc: ScConfig,
    /// Loop predictor (part of the "+L" configurations).
    pub loop_predictor: Option<LoopPredictorConfig>,
    /// Display name.
    pub name: String,
}

// bp-lint: allow-item(hot-path-alloc, "named-configuration construction is cold, once per predictor")
impl TageScConfig {
    /// TAGE-GSC: the paper's base global-history predictor.
    pub fn gsc() -> Self {
        TageScConfig {
            tage: TageConfig::default(),
            sc: ScConfig::default(),
            loop_predictor: None,
            name: "TAGE-GSC".to_owned(),
        }
    }

    /// TAGE-GSC + both IMLI components (Figure 5).
    pub fn gsc_imli() -> Self {
        TageScConfig {
            sc: ScConfig {
                imli: Some(ImliConfig::default()),
                imli_in_global_indices: true,
                ..ScConfig::default()
            },
            name: "TAGE-GSC+IMLI".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-GSC + IMLI-SIC only (the lower bars of Figures 8-11).
    pub fn gsc_sic_only() -> Self {
        TageScConfig {
            sc: ScConfig {
                imli: Some(ImliConfig::sic_only()),
                imli_in_global_indices: true,
                ..ScConfig::default()
            },
            name: "TAGE-GSC+SIC".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-GSC + IMLI-OH only (Figure 13's comparison against WH).
    pub fn gsc_oh_only() -> Self {
        TageScConfig {
            sc: ScConfig {
                imli: Some(ImliConfig::oh_only()),
                ..ScConfig::default()
            },
            name: "TAGE-GSC+OH".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-GSC + loop predictor only (the §4.2.2 loop-predictor-benefit
    /// ablation).
    pub fn gsc_loop() -> Self {
        TageScConfig {
            loop_predictor: Some(LoopPredictorConfig::default()),
            name: "TAGE-GSC+LOOP".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-GSC + IMLI-SIC + loop predictor (the §4.2.2 ablation showing
    /// the loop predictor is nearly redundant once SIC is present).
    pub fn gsc_sic_loop() -> Self {
        TageScConfig {
            loop_predictor: Some(LoopPredictorConfig::default()),
            name: "TAGE-GSC+SIC+LOOP".to_owned(),
            ..Self::gsc_sic_only()
        }
    }

    /// TAGE-SC-L: local-history SC components + loop predictor ("+L").
    pub fn sc_l() -> Self {
        TageScConfig {
            sc: ScConfig {
                local: Some(LocalScConfig::default()),
                ..ScConfig::default()
            },
            loop_predictor: Some(LoopPredictorConfig::default()),
            name: "TAGE-SC-L".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-SC-L + IMLI ("+I+L", the §5 record configuration).
    pub fn sc_l_imli() -> Self {
        TageScConfig {
            sc: ScConfig {
                local: Some(LocalScConfig::default()),
                imli: Some(ImliConfig::default()),
                imli_in_global_indices: true,
                ..ScConfig::default()
            },
            loop_predictor: Some(LoopPredictorConfig::default()),
            name: "TAGE-SC-L+IMLI".to_owned(),
            ..Self::gsc()
        }
    }

    /// Replaces the IMLI configuration (for ablations such as the
    /// §4.3.2 delayed-update experiment).
    #[must_use]
    pub fn with_imli(mut self, imli: ImliConfig, rename: &str) -> Self {
        self.sc.imli = Some(imli);
        self.name = rename.to_owned();
        self
    }
}

// bp-lint: allow-item(hot-path-alloc, "config validation/serialization and build() are cold; never on the per-branch path")
impl PredictorConfig for TageScConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        self.tage.check()?;
        self.sc.check()?;
        if let Some(lp) = &self.loop_predictor {
            lp.check()?;
        }
        if self.name.is_empty() {
            return Err("predictor name must not be empty".into());
        }
        Ok(())
    }

    fn build(&self) -> Box<dyn ConditionalPredictor + Send> {
        Box::new(TageSc::new(self.clone()))
    }

    fn storage_bits_estimate(&self) -> u64 {
        self.tage.storage_bits()
            + self.sc.storage_bits()
            + self
                .loop_predictor
                .as_ref()
                .map_or(0, LoopPredictorConfig::storage_bits)
    }

    fn to_value(&self) -> ConfigValue {
        ConfigValue::map()
            .set("name", ConfigValue::str(&self.name))
            .set("tage", self.tage.to_value())
            .set("sc", self.sc.to_value())
            .set_opt(
                "loop",
                self.loop_predictor
                    .as_ref()
                    .map(LoopPredictorConfig::to_value),
            )
    }

    fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        value.expect_keys("tage-sc config", &["name", "tage", "sc", "loop"])?;
        Ok(TageScConfig {
            name: value.req("name")?.as_str("name")?.to_owned(),
            tage: crate::TageConfig::from_value(value.req("tage")?)?,
            sc: crate::ScConfig::from_value(value.req("sc")?)?,
            loop_predictor: value
                .get("loop")
                .map(LoopPredictorConfig::from_value)
                .transpose()?,
        })
    }
}

/// A TAGE predictor backed by a statistical corrector and an optional
/// loop predictor — the composed predictor family the paper evaluates
/// (TAGE-GSC, TAGE-GSC+IMLI, TAGE-SC-L, TAGE-SC-L+IMLI).
///
/// Prediction flow per the paper's Figure 4: TAGE produces the main
/// prediction and a confidence; the corrector sums its components
/// (including the TAGE vote) and may revert; a confident loop predictor
/// overrides everything.
pub struct TageSc {
    tage: Tage,
    sc: StatisticalCorrector,
    loop_pred: Option<LoopPredictor>,
    name: String,
    last_pred: bool,
    ghist_window: usize,
}

impl TageSc {
    /// Builds the composed predictor.
    ///
    /// # Panics
    ///
    /// Panics if any sub-configuration fails validation.
    pub fn new(config: TageScConfig) -> Self {
        let max_global = config.sc.global_lengths.iter().copied().max().unwrap_or(0);
        TageSc {
            tage: Tage::new(config.tage),
            sc: StatisticalCorrector::new(config.sc),
            loop_pred: config.loop_predictor.map(LoopPredictor::new),
            name: config.name,
            last_pred: false,
            ghist_window: max_global.min(64),
        }
    }

    /// Read-only access to the embedded TAGE.
    pub fn tage(&self) -> &Tage {
        &self.tage
    }

    /// Read-only access to the corrector.
    pub fn corrector(&self) -> &StatisticalCorrector {
        &self.sc
    }

    /// The IMLI speculative checkpoint, when IMLI is configured — the
    /// paper's 26-bit speculation argument, surfaced for the simulator's
    /// speculative-fetch model.
    pub fn imli_checkpoint(&self) -> Option<ImliCheckpoint> {
        self.sc.imli().map(|s| s.checkpoint())
    }

    /// Storage breakdown: (component, bits).
    // bp-lint: allow-item(hot-path-alloc, "reporting helper, cold; never on the per-branch path")
    pub fn budget_breakdown(&self) -> Vec<(String, u64)> {
        let mut parts = vec![
            ("tage".to_owned(), self.tage.storage_bits()),
            ("sc".to_owned(), self.sc.storage_bits()),
        ];
        if let Some(lp) = &self.loop_pred {
            parts.push(("loop".to_owned(), lp.storage_bits()));
        }
        parts
    }

    /// The prediction path behind [`predict`], [`predict_attributed`]
    /// and [`predict_from_tage`]: everything downstream of the TAGE
    /// lookup `step` — this predictor's own (solo) or a shared TAGE's —
    /// so the decision flow cannot diverge. It runs the corrector
    /// lookup, the possible corrector revert and the loop override; the
    /// attribution is assembled from values the prediction needs anyway
    /// and optimizes away when the caller drops it.
    ///
    /// [`predict`]: ConditionalPredictor::predict
    /// [`predict_attributed`]: ConditionalPredictor::predict_attributed
    /// [`predict_from_tage`]: ConditionalPredictor::predict_from_tage
    #[inline]
    fn predict_from(&mut self, pc: u64, step: &TageStep) -> (bool, PredictionAttribution) {
        let ghist = step.ghist & low_mask(self.ghist_window);
        let sl = self
            .sc
            .predict(pc, step.pred, step.low_confidence, ghist, step.path);
        self.finish_predict(pc, step, sl)
    }

    #[inline]
    fn finish_predict(
        &mut self,
        pc: u64,
        tl: &TageStep,
        sl: ScLookup,
    ) -> (bool, PredictionAttribution) {
        let mut pred = sl.pred;
        let mut attribution = if sl.pred != tl.pred {
            // The corrector reverted TAGE; the alternate is TAGE itself.
            PredictionAttribution::new(
                ProviderComponent::Corrector,
                Some(tl.pred),
                ConfidenceBucket::from_sum(sl.sum().abs(), self.sc.theta()),
            )
        } else {
            PredictionAttribution::new(
                match tl.providing_bank {
                    Some(bank) => ProviderComponent::Tagged(bank),
                    None => ProviderComponent::Base,
                },
                Some(tl.alternate_pred),
                if tl.low_confidence {
                    ConfidenceBucket::Low
                } else {
                    ConfidenceBucket::High
                },
            )
        };
        if let Some(lp) = &self.loop_pred {
            if let Some(loop_pred) = lp.predict(pc) {
                if loop_pred.high_confidence {
                    attribution = PredictionAttribution::new(
                        ProviderComponent::Loop,
                        Some(pred),
                        ConfidenceBucket::High,
                    );
                    pred = loop_pred.taken;
                }
            }
        }
        self.last_pred = pred;
        (pred, attribution)
    }
}

impl ConditionalPredictor for TageSc {
    fn predict(&mut self, pc: u64) -> bool {
        self.predict_attributed(pc).0
    }

    fn prefetch(&self, pc: u64) {
        self.tage.prefetch(pc);
        self.sc.prefetch(pc, self.last_pred);
        if let Some(lp) = &self.loop_pred {
            lp.prefetch(pc);
        }
    }

    // The composed predictor's tables (~90 KB with the corrector) are
    // the one working set in the registry that overflows L1, so the
    // lookahead hint is worth its dispatch cost here.
    fn wants_prefetch(&self) -> bool {
        true
    }

    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        let step = self.tage.lookup_step(pc);
        self.predict_from(pc, &step)
    }

    // The solo protocol is the shared one plus this predictor's own
    // TAGE training and history advance, so the two cannot diverge.
    fn update(&mut self, record: &BranchRecord) {
        self.update_shared(record);
        self.tage.update(record.pc, record.taken);
        self.tage.push_history(record.pc, record.taken);
    }

    fn flush_history(&mut self) {
        self.tage.flush_history();
        self.sc.flush_history();
    }

    fn notify_nonconditional(&mut self, record: &BranchRecord) {
        self.notify_shared(record);
        self.tage.push_path(record.pc);
    }

    fn shared_front_end(&mut self) -> Option<SharedFrontEnd<'_>> {
        Some(SharedFrontEnd::Tage(&mut self.tage))
    }

    /// [`ConditionalPredictor::predict`] with the TAGE lookup and
    /// history views taken from a shared TAGE's `step`. The corrector
    /// still computes its own rows: its geometry, local histories and
    /// IMLI state are per-config.
    fn predict_from_tage(&mut self, pc: u64, step: &TageStep) -> (bool, PredictionAttribution) {
        self.predict_from(pc, step)
    }

    /// Trains the loop predictor and corrector through the stashed
    /// lookups, then advances the corrector's own index inputs. The
    /// TAGE component belongs to the shared TAGE.
    fn update_shared(&mut self, record: &BranchRecord) {
        let mispredicted = self.last_pred != record.taken;
        if let Some(lp) = &mut self.loop_pred {
            // Allocate only for backward (loop-closing) branches so that
            // mispredicting forward branches cannot thrash the small
            // loop table.
            lp.update(
                record.pc,
                record.taken,
                mispredicted && record.is_backward(),
            );
        }
        self.sc.update(record.taken);
        self.sc.observe(record);
    }

    fn notify_shared(&mut self, record: &BranchRecord) {
        self.sc.observe(record);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

// bp-lint: allow-item(hot-path-alloc, "storage accounting is cold; never on the per-branch path")
impl StorageBudget for TageSc {
    fn storage_items(&self) -> Vec<StorageItem> {
        let mut items: Vec<StorageItem> = self
            .tage
            .storage_items()
            .into_iter()
            .map(|i| i.prefixed("tage"))
            .collect();
        items.extend(
            self.sc
                .storage_items()
                .into_iter()
                .map(|i| i.prefixed("sc")),
        );
        if let Some(lp) = &self.loop_pred {
            items.push(StorageItem::new("loop", lp.storage_bits()));
        }
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy<F: FnMut(u64) -> bool>(
        p: &mut TageSc,
        pc: u64,
        n: u64,
        warm: u64,
        mut outcome: F,
    ) -> f64 {
        let mut correct = 0u64;
        for i in 0..n {
            let taken = outcome(i);
            let pred = p.predict(pc);
            if i >= warm {
                correct += u64::from(pred == taken);
            }
            p.update(&BranchRecord::conditional(pc, pc + 0x40, taken));
        }
        correct as f64 / (n - warm) as f64
    }

    #[test]
    fn gsc_learns_patterns() {
        let mut p = TageSc::tage_gsc();
        let acc = accuracy(&mut p, 0x400, 6000, 3000, |i| i % 7 < 3);
        assert!(acc > 0.95, "period-7 accuracy {acc:.3}");
    }

    #[test]
    fn named_configs_have_expected_budget_ordering() {
        let gsc = TageSc::tage_gsc().storage_bits();
        let imli = TageSc::tage_gsc_imli().storage_bits();
        let scl = TageSc::tage_sc_l().storage_bits();
        let both = TageSc::tage_sc_l_imli().storage_bits();
        assert!(gsc < imli && imli < scl && scl < both);
        // Paper Table 1 shape: +I costs ~6 Kbit, +L costs ~28 Kbit.
        assert!((imli - gsc) < 8 * 1024, "+I adds {} bits", imli - gsc);
        assert!((scl - gsc) > 24 * 1024, "+L adds {} bits", scl - gsc);
        // Absolute ballpark of the paper's 228 Kbit TAGE-GSC.
        let kbits = gsc as f64 / 1024.0;
        assert!(
            (200.0..=245.0).contains(&kbits),
            "TAGE-GSC storage {kbits:.0} Kbit"
        );
    }

    #[test]
    fn loop_predictor_override_fixes_long_regular_loop() {
        // A 50-iteration constant-trip loop exceeds most history lengths'
        // reach through a bimodal-looking body; the loop predictor nails
        // the exit.
        let mut with_loop = TageSc::tage_sc_l();
        let mut trip = 0u64;
        let acc = accuracy(&mut with_loop, 0x700, 40_000, 20_000, |_| {
            trip = (trip + 1) % 50;
            trip != 0
        });
        assert!(acc > 0.99, "loop exit accuracy {acc:.4}");
    }

    #[test]
    fn imli_checkpoint_only_for_imli_configs() {
        assert!(TageSc::tage_gsc().imli_checkpoint().is_none());
        assert!(TageSc::tage_gsc_imli().imli_checkpoint().is_some());
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(TageSc::tage_gsc().name(), "TAGE-GSC");
        assert_eq!(TageSc::tage_gsc_imli().name(), "TAGE-GSC+IMLI");
        assert_eq!(TageSc::tage_sc_l().name(), "TAGE-SC-L");
        assert_eq!(TageSc::tage_sc_l_imli().name(), "TAGE-SC-L+IMLI");
        assert_eq!(TageSc::tage_gsc_sic().name(), "TAGE-GSC+SIC");
    }

    #[test]
    fn nonconditional_branches_do_not_crash_or_predict() {
        let mut p = TageSc::tage_gsc_imli();
        p.notify_nonconditional(&BranchRecord::call(0x10, 0x1000));
        p.notify_nonconditional(&BranchRecord::ret(0x1004, 0x14));
        let _ = p.predict(0x40);
        p.update(&BranchRecord::conditional(0x40, 0x80, true));
    }
}
