//! Bolting the wormhole side predictor onto a main predictor.

use crate::predictor::{Wormhole, WormholeConfig};
use bp_components::{
    ConditionalPredictor, ConfidenceBucket, GehlPlan, LoopPredictor, LoopPredictorConfig,
    PredictionAttribution, ProviderComponent, SharedFrontEnd, StorageBudget, StorageItem, TageStep,
};
use bp_trace::BranchRecord;

/// A main predictor augmented with the wormhole side predictor, as in the
/// paper's §3.3 evaluation (TAGE-GSC+WH, GEHL+WH).
///
/// The wrapper owns a loop predictor used *only* to learn inner-loop trip
/// counts (the paper isolates WH the same way: "the loop predictor
/// outcome was not used for prediction but only for determining this
/// number of iterations"). The current inner loop is identified by the
/// most recent backward conditional branch, and a confident WH prediction
/// subsumes the main prediction.
pub struct WormholeAugmented<P> {
    main: P,
    wormhole: Wormhole,
    loops: LoopPredictor,
    last_backward_pc: Option<u64>,
    last_pred: bool,
    last_trip: Option<u32>,
    name: String,
}

impl<P: ConditionalPredictor> WormholeAugmented<P> {
    /// Wraps `main` with a default-geometry wormhole predictor.
    pub fn new(main: P) -> Self {
        Self::with_config(main, WormholeConfig::default())
    }

    /// Wraps `main` with an explicit wormhole geometry.
    pub fn with_config(main: P, config: WormholeConfig) -> Self {
        let name = format!("{}+WH", main.name());
        WormholeAugmented {
            main,
            wormhole: Wormhole::new(config),
            loops: LoopPredictor::new(LoopPredictorConfig::default()),
            last_backward_pc: None,
            last_pred: false,
            last_trip: None,
            name,
        }
    }

    /// The wrapped main predictor.
    pub fn main(&self) -> &P {
        &self.main
    }

    /// The wormhole side predictor.
    pub fn wormhole(&self) -> &Wormhole {
        &self.wormhole
    }

    /// Occurrences of a body branch per outer iteration of the loop the
    /// fetch engine is currently inside. The loop predictor counts the
    /// *taken* occurrences of the loop-closing branch; the body executes
    /// once more (the exit iteration), hence the `+ 1`.
    fn current_trip(&self) -> Option<u32> {
        Some(self.loops.trip_count(self.last_backward_pc?)? + 1)
    }

    /// The shared prediction path behind [`predict`],
    /// [`predict_attributed`] and the `predict_from_*` methods — one
    /// flow, so they can never diverge: the wormhole override applied
    /// to the main predictor's attributed prediction `main` for `pc`.
    ///
    /// [`predict`]: ConditionalPredictor::predict
    /// [`predict_attributed`]: ConditionalPredictor::predict_attributed
    #[inline]
    fn resolve(
        &mut self,
        pc: u64,
        main: (bool, PredictionAttribution),
    ) -> (bool, PredictionAttribution) {
        let (main_pred, main_attr) = main;
        let trip = self.current_trip();
        self.last_trip = trip;
        let (pred, attribution) = match self.wormhole.predict(pc, trip, main_pred) {
            // A confident wormhole hit subsumes the main prediction,
            // which becomes the alternate.
            Some(wh) if wh.confident => (
                wh.taken,
                PredictionAttribution::new(
                    ProviderComponent::Wormhole,
                    Some(main_pred),
                    ConfidenceBucket::High,
                ),
            ),
            _ => (main_pred, main_attr),
        };
        self.last_pred = pred;
        (pred, attribution)
    }

    /// The wrapper's own training for a resolved conditional: wormhole
    /// and trip-count loop tables. The main predictor trains separately.
    #[inline]
    fn train(&mut self, record: &BranchRecord) {
        let mispredicted = self.last_pred != record.taken;
        self.wormhole
            .update(record.pc, record.taken, mispredicted, self.last_trip);
        // The loop predictor learns trip counts of every regular loop;
        // it trains on loop-closing (backward) branches.
        if record.is_backward() {
            self.loops.update(record.pc, record.taken, true);
            self.last_backward_pc = Some(record.pc);
        }
    }
}

impl<P: ConditionalPredictor> ConditionalPredictor for WormholeAugmented<P> {
    fn predict(&mut self, pc: u64) -> bool {
        self.predict_attributed(pc).0
    }

    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        let main = self.main.predict_attributed(pc);
        self.resolve(pc, main)
    }

    fn update(&mut self, record: &BranchRecord) {
        self.train(record);
        self.main.update(record);
    }

    // The wrapper reads no history of its own, so it shares whatever
    // front end its main predictor has.
    fn shared_front_end(&mut self) -> Option<SharedFrontEnd<'_>> {
        self.main.shared_front_end()
    }

    fn predict_from_tage(&mut self, pc: u64, step: &TageStep) -> (bool, PredictionAttribution) {
        let main = self.main.predict_from_tage(pc, step);
        self.resolve(pc, main)
    }

    fn predict_from_gehl(&mut self, pc: u64, plan: &GehlPlan) -> (bool, PredictionAttribution) {
        let main = self.main.predict_from_gehl(pc, plan);
        self.resolve(pc, main)
    }

    fn update_shared(&mut self, record: &BranchRecord) {
        self.train(record);
        self.main.update_shared(record);
    }

    fn notify_shared(&mut self, record: &BranchRecord) {
        self.main.notify_shared(record);
    }

    fn flush_history(&mut self) {
        // The wormhole/loop structures are learned per-branch tables
        // (trip counts, inner-history patterns), which survive a
        // partial flush like any other SRAM content; only the wrapped
        // predictor's history state and the fetch-local "which backward
        // branch ran last" register are erased.
        self.last_backward_pc = None;
        self.main.flush_history();
    }

    fn notify_nonconditional(&mut self, record: &BranchRecord) {
        self.main.notify_nonconditional(record);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<P: ConditionalPredictor> StorageBudget for WormholeAugmented<P> {
    fn storage_items(&self) -> Vec<StorageItem> {
        let mut items = self.main.storage_items();
        items.push(StorageItem::new("wormhole", self.wormhole.storage_bits()));
        items.push(StorageItem::new("wh-loop", self.loops.storage_bits()));
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_components::AlwaysTaken;

    /// A 2-D nest whose body branch follows Out[N][M] = Out[N-1][M-1].
    /// The main predictor (AlwaysTaken) is useless; WH must pick it up.
    #[test]
    fn wormhole_rescues_diagonal_branch_over_weak_main() {
        let mut p = WormholeAugmented::new(AlwaysTaken);
        let body = 0x4008u64;
        let back = 0x4010u64;
        let trip = 24usize;
        let outer = 400usize;
        let mut pattern: Vec<bool> = (0..trip + outer + 2).map(|i| (i * 13) % 5 < 2).collect();
        pattern[0] = false;
        let mut correct = 0usize;
        let mut counted = 0usize;
        for n in 0..outer {
            for m in 0..trip {
                let taken = pattern[m + (outer - n)]; // diagonal shift by -1
                let pred = p.predict(body);
                if n > outer / 2 {
                    counted += 1;
                    correct += usize::from(pred == taken);
                }
                p.update(&BranchRecord::conditional(body, body + 0x40, taken));
                let bt = m + 1 < trip;
                let bp = p.predict(back);
                let _ = bp;
                p.update(&BranchRecord::conditional(back, 0x4000, bt));
            }
        }
        let acc = correct as f64 / counted as f64;
        assert!(acc > 0.85, "WH should fix the diagonal branch: {acc:.3}");
    }

    #[test]
    fn variable_trip_count_defeats_wormhole() {
        // The paper's structural limitation (§2.2.2): if the trip count
        // varies, the loop predictor rarely reports a stable `Ni`, the
        // retrieved history bits are misaligned, and WH provides no
        // rescue — accuracy stays at the weak main predictor's level.
        // (IMLI-SIC handles exactly this workload; see bp-gehl's tests.)
        let mut p = WormholeAugmented::new(AlwaysTaken);
        let body = 0x4008u64;
        let back = 0x4010u64;
        let mut rng = 77u64;
        let mut correct = 0usize;
        let mut counted = 0usize;
        let mut outer = 0usize;
        for _ in 0..300 {
            outer += 1;
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let trip = 8 + (rng % 16) as usize;
            for m in 0..trip {
                let taken = m % 2 == 0;
                let pred = p.predict(body);
                if outer > 150 {
                    counted += 1;
                    correct += usize::from(pred == taken);
                }
                p.update(&BranchRecord::conditional(body, body + 0x40, taken));
                let bt = m + 1 < trip;
                let _ = p.predict(back);
                p.update(&BranchRecord::conditional(back, 0x4000, bt));
            }
        }
        let acc = correct as f64 / counted as f64;
        assert!(
            acc < 0.7,
            "WH must not rescue a variable-trip loop (got {acc:.3}); \
             compare with > 0.85 on the constant-trip diagonal"
        );
    }

    #[test]
    fn name_and_storage_compose() {
        let p = WormholeAugmented::new(AlwaysTaken);
        assert_eq!(p.name(), "always-taken+WH");
        assert!(p.storage_bits() > 0);
        assert_eq!(p.main().storage_bits(), 0);
    }
}
