//! The simulator-facing predictor trait.

use crate::attribution::{AttributionTally, PredictionAttribution};
use crate::budget::{StorageBudget, StorageItem};
use crate::frontend::{GehlFrontEnd, GehlPlan};
use crate::tage::{Tage, TageStep};
use bp_trace::BranchRecord;

/// The part of a host the simulator's fused-column drive can share
/// among the same-configuration hosts of a column (see
/// [`ConditionalPredictor::shared_front_end`]).
///
/// Two shared front ends compare equal when they are of one kind with
/// equal configuration and equal state — the condition under which
/// they compute the same output for every future branch of a trace.
#[derive(Debug, PartialEq)]
pub enum SharedFrontEnd<'a> {
    /// The whole TAGE component of a TAGE + corrector host: index
    /// inputs, probe, allocation, usefulness and reset. It trains on
    /// its own lookups only, so its state is a pure function of the
    /// trace.
    Tage(&'a mut Tage),
    /// The global index inputs and index hash of a GEHL host. The GEHL
    /// tables stay per host: their training threshold reads the whole
    /// sum, IMLI and local tables included.
    Gehl(&'a mut GehlFrontEnd),
}

/// One chunk of a shared front end's output, one slot per record of
/// the chunk (slots of non-conditional records are ignored).
#[derive(Debug, Clone, Copy)]
pub enum SharedPlans<'a> {
    /// Steps of a shared [`Tage`] ([`Tage::step_block`]).
    Tage(&'a [TageStep]),
    /// Plans of a shared [`GehlFrontEnd`] ([`GehlFrontEnd::plan_block`]).
    Gehl(&'a [GehlPlan]),
}

/// A conditional branch direction predictor, driven with the CBP protocol:
/// for each conditional branch the simulator calls
/// [`predict`](ConditionalPredictor::predict) and then
/// [`update`](ConditionalPredictor::update) with the resolved outcome;
/// non-conditional branches are reported through
/// [`notify_nonconditional`](ConditionalPredictor::notify_nonconditional)
/// because they still shift path/target history (and, for IMLI-equipped
/// predictors, can matter to loop tracking).
///
/// `predict` takes `&mut self` because table-based predictors cache their
/// lookup state (computed indices, matching banks) between the prediction
/// and the update of the same branch, exactly as the reference CBP
/// simulators do.
///
/// Storage accounting comes from the [`StorageBudget`] supertrait, which
/// itemizes every table's exact bit cost; prediction attribution (which
/// component provided each prediction) from
/// [`predict_attributed`](ConditionalPredictor::predict_attributed),
/// which the hot simulation path simply never calls.
pub trait ConditionalPredictor: StorageBudget {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&mut self, pc: u64) -> bool;

    /// Hints that the branch at `pc` is about to be predicted, so the
    /// predictor may prefetch the table rows its lookup will touch.
    ///
    /// This is the simulator's one-branch lookahead hook: it is called
    /// with the *next* record's PC before the current record is
    /// processed, i.e. under history that is stale by one branch.
    /// Implementations must treat it as a pure hint — reads of
    /// predictor state and cache prefetches only, never a state
    /// change — so that issuing, skipping, or mis-targeting it is
    /// invisible in the predicted stream (the determinism contract the
    /// fused==per-cell tests enforce). The default does nothing.
    fn prefetch(&self, pc: u64) {
        let _ = pc;
    }

    /// Whether the simulator's one-branch lookahead should call
    /// [`prefetch`](ConditionalPredictor::prefetch) at all. The peek +
    /// virtual dispatch + prefetch instructions cost a few nanoseconds
    /// per record, which is a measurable *regression* for predictors
    /// whose whole working set is L1-resident (bimodal, gshare, the
    /// small neural hosts) — so the default is `false`, and only
    /// predictors whose hinted rows actually live beyond L1 opt in.
    /// Purely a performance capability flag: answering `true` or
    /// `false` cannot change any prediction.
    fn wants_prefetch(&self) -> bool {
        false
    }

    /// Predicts like [`predict`](ConditionalPredictor::predict) and also
    /// reports *which component provided* the prediction.
    ///
    /// Drop-in replacement in the CBP protocol (a subsequent
    /// [`update`](ConditionalPredictor::update) applies to it exactly as
    /// to `predict`), guaranteed to return the same direction and leave
    /// the predictor in the same state as `predict` would have. The
    /// default forwards to `predict` and reports
    /// [`PredictionAttribution::unattributed`], so implementing the
    /// channel is optional and the plain path never pays for it.
    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        (self.predict(pc), PredictionAttribution::unattributed())
    }

    /// Trains the predictor with the resolved outcome of the branch that
    /// was just predicted. `record.taken` is the true direction.
    fn update(&mut self, record: &BranchRecord);

    /// Erases the predictor's *history* state — global/folded/path
    /// registers, local-history tables, IMLI counters — while keeping
    /// its learned tables (counters, tags, useful bits, weights).
    ///
    /// This models a partial context-switch flush: an OS switch destroys
    /// the speculative fetch-engine state but leaves the large SRAM
    /// prediction tables (whose contents the incoming tenant then
    /// aliases into). A full flush is modeled by rebuilding the
    /// predictor from its configuration instead — see the scenario
    /// driver in `bp-sim`. Implementations must be allocation-free
    /// (zero existing buffers only), so scenario drive loops stay
    /// allocation-free in steady state, and must leave the predictor in
    /// a state it could have reached from construction (so subsequent
    /// predict/update behavior is well-defined). The default does
    /// nothing, which is exact for history-less predictors (bimodal).
    fn flush_history(&mut self) {}

    /// Reports a non-conditional branch (jump, call, return, indirect).
    fn notify_nonconditional(&mut self, record: &BranchRecord) {
        let _ = record;
    }

    /// Drives this predictor through a block of records with the CBP
    /// protocol (predict/update conditionals, notify the rest),
    /// accumulating outcomes into `stats` — including the one-record
    /// lookahead [`prefetch`](ConditionalPredictor::prefetch) hint for
    /// predictors that opt in via
    /// [`wants_prefetch`](ConditionalPredictor::wants_prefetch).
    ///
    /// A provided method rather than a simulator-side loop so that each
    /// concrete predictor gets a *monomorphized* copy: when the
    /// simulator drives a `Box<dyn ConditionalPredictor>`, the loop
    /// body's `predict`/`update`/`notify_nonconditional` calls dispatch
    /// statically (and inline) inside the predictor's own copy, costing
    /// one virtual call per **block** instead of three per **record**.
    /// The same holds for the other `run_block_*` drives below.
    /// Implementations must not override it — it defines the protocol.
    fn run_block(&mut self, block: &[BranchRecord], stats: &mut PredictorStats) {
        if self.wants_prefetch() {
            for (i, record) in block.iter().enumerate() {
                // Peek one record ahead and hint its lookup rows so the
                // loads overlap the current record's work. Stale-by-one
                // history is fine: `prefetch` is architecturally a
                // no-op, so results stay bit-identical either way.
                if let Some(peek) = block.get(i + 1) {
                    if peek.is_conditional() {
                        self.prefetch(peek.pc);
                    }
                }
                step_record(self, record, stats);
            }
        } else {
            for record in block {
                step_record(self, record, stats);
            }
        }
    }

    /// [`run_block`](ConditionalPredictor::run_block) through the
    /// attribution channel: every prediction comes from
    /// [`predict_attributed`](ConditionalPredictor::predict_attributed)
    /// and is folded into `tally` as well as `stats`.
    fn run_block_attributed(
        &mut self,
        block: &[BranchRecord],
        stats: &mut PredictorStats,
        tally: &mut AttributionTally,
    ) {
        for record in block {
            if record.is_conditional() {
                let (pred, attribution) = self.predict_attributed(record.pc);
                stats.record(pred == record.taken);
                tally.record(&attribution, pred, record.taken);
                self.update(record);
            } else {
                self.notify_nonconditional(record);
            }
        }
    }

    /// The part of this predictor a fused column may share among its
    /// same-configuration hosts, when it has one; `None` (the default)
    /// otherwise.
    ///
    /// The simulator's fused-column drive groups predictors whose
    /// shared front ends compare equal, runs one of them per group —
    /// the first member's — over each chunk of records, and drives
    /// every member through the `*_shared` methods below from its
    /// output. The other members' own copies are neither read nor
    /// advanced meanwhile; the drive copies the leader's into them when
    /// the pass ends. The purity of the shared part makes
    /// this bit-identical to driving each member alone.
    fn shared_front_end(&mut self) -> Option<SharedFrontEnd<'_>> {
        None
    }

    /// Predicts the conditional branch at `pc` from `step`, a shared
    /// TAGE's output for this branch, and reports the providing
    /// component like
    /// [`predict_attributed`](ConditionalPredictor::predict_attributed).
    /// A TAGE + corrector host runs only its corrector, loop predictor
    /// and IMLI state. The default, for predictors without a shared
    /// TAGE, ignores the step.
    fn predict_from_tage(&mut self, pc: u64, step: &TageStep) -> (bool, PredictionAttribution) {
        let _ = step;
        self.predict_attributed(pc)
    }

    /// Predicts the conditional branch at `pc` from `plan`, a shared
    /// GEHL front end's output for this branch, like
    /// [`predict_from_tage`](ConditionalPredictor::predict_from_tage):
    /// a GEHL host adds its own IMLI term to the planned global indices
    /// and reads its own tables. The default ignores the plan.
    fn predict_from_gehl(&mut self, pc: u64, plan: &GehlPlan) -> (bool, PredictionAttribution) {
        let _ = plan;
        self.predict_attributed(pc)
    }

    /// Trains with the resolved outcome of the branch just predicted by
    /// a `predict_from_*` method, and advances every index input the
    /// shared front end does *not* own (local histories, IMLI state).
    /// The default is [`update`](ConditionalPredictor::update).
    fn update_shared(&mut self, record: &BranchRecord) {
        self.update(record);
    }

    /// The non-conditional counterpart of
    /// [`update_shared`](ConditionalPredictor::update_shared). The
    /// default is
    /// [`notify_nonconditional`](ConditionalPredictor::notify_nonconditional).
    fn notify_shared(&mut self, record: &BranchRecord) {
        self.notify_nonconditional(record);
    }

    /// Commits a block from a shared front end's output (`plans` holds
    /// one slot per record of `block`) with the CBP protocol of the
    /// `*_shared` methods.
    fn run_block_shared(
        &mut self,
        block: &[BranchRecord],
        plans: SharedPlans<'_>,
        stats: &mut PredictorStats,
    ) {
        let record = |pred: bool, _: &PredictionAttribution, taken: bool| {
            stats.record(pred == taken);
        };
        match plans {
            SharedPlans::Tage(steps) => {
                commit_shared(self, block, steps, Self::predict_from_tage, record)
            }
            SharedPlans::Gehl(plans) => {
                commit_shared(self, block, plans, Self::predict_from_gehl, record)
            }
        }
    }

    /// [`run_block_shared`](ConditionalPredictor::run_block_shared)
    /// that also folds every prediction into `tally`.
    fn run_block_shared_attributed(
        &mut self,
        block: &[BranchRecord],
        plans: SharedPlans<'_>,
        stats: &mut PredictorStats,
        tally: &mut AttributionTally,
    ) {
        let record = |pred: bool, attribution: &PredictionAttribution, taken: bool| {
            stats.record(pred == taken);
            tally.record(attribution, pred, taken);
        };
        match plans {
            SharedPlans::Tage(steps) => {
                commit_shared(self, block, steps, Self::predict_from_tage, record)
            }
            SharedPlans::Gehl(plans) => {
                commit_shared(self, block, plans, Self::predict_from_gehl, record)
            }
        }
    }

    /// A short human-readable configuration name, e.g. `"TAGE-GSC+IMLI"`.
    fn name(&self) -> &str;
}

/// One CBP-protocol step: predict/update a conditional record, notify a
/// non-conditional one. Shared by both loops of the provided
/// [`ConditionalPredictor::run_block`] so the per-record protocol cannot
/// drift between the prefetching and plain loops.
#[inline]
fn step_record<P: ConditionalPredictor + ?Sized>(
    predictor: &mut P,
    record: &BranchRecord,
    stats: &mut PredictorStats,
) {
    if record.is_conditional() {
        let pred = predictor.predict(record.pc);
        stats.record(pred == record.taken);
        predictor.update(record);
    } else {
        predictor.notify_nonconditional(record);
    }
}

/// The per-record loop of the provided
/// [`ConditionalPredictor::run_block_shared`] drives: `predict` one
/// conditional from its slot of `plans`, hand the outcome to `record`,
/// train through [`ConditionalPredictor::update_shared`]; notify the
/// rest. Generic over the plan kind so both kinds and both tallies
/// share one protocol.
#[inline]
fn commit_shared<P: ConditionalPredictor + ?Sized, T>(
    predictor: &mut P,
    block: &[BranchRecord],
    plans: &[T],
    predict: impl Fn(&mut P, u64, &T) -> (bool, PredictionAttribution),
    mut record: impl FnMut(bool, &PredictionAttribution, bool),
) {
    for (branch, plan) in block.iter().zip(plans) {
        if branch.is_conditional() {
            let (pred, attribution) = predict(predictor, branch.pc, plan);
            record(pred, &attribution, branch.taken);
            predictor.update_shared(branch);
        } else {
            predictor.notify_shared(branch);
        }
    }
}

/// Boxed predictors forward the whole protocol, so composed predictors
/// (e.g. the wormhole wrapper) can wrap a type-erased
/// `Box<dyn ConditionalPredictor + Send>` built from a configuration
/// value. `predict_attributed` forwards explicitly — falling back to
/// the trait default would silently drop the inner predictor's
/// attribution.
impl ConditionalPredictor for Box<dyn ConditionalPredictor + Send> {
    fn predict(&mut self, pc: u64) -> bool {
        (**self).predict(pc)
    }

    fn prefetch(&self, pc: u64) {
        (**self).prefetch(pc)
    }

    fn wants_prefetch(&self) -> bool {
        (**self).wants_prefetch()
    }

    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        (**self).predict_attributed(pc)
    }

    fn update(&mut self, record: &BranchRecord) {
        (**self).update(record)
    }

    fn flush_history(&mut self) {
        (**self).flush_history()
    }

    fn notify_nonconditional(&mut self, record: &BranchRecord) {
        (**self).notify_nonconditional(record)
    }

    fn run_block(&mut self, block: &[BranchRecord], stats: &mut PredictorStats) {
        (**self).run_block(block, stats)
    }

    fn run_block_attributed(
        &mut self,
        block: &[BranchRecord],
        stats: &mut PredictorStats,
        tally: &mut AttributionTally,
    ) {
        (**self).run_block_attributed(block, stats, tally)
    }

    fn shared_front_end(&mut self) -> Option<SharedFrontEnd<'_>> {
        (**self).shared_front_end()
    }

    fn predict_from_tage(&mut self, pc: u64, step: &TageStep) -> (bool, PredictionAttribution) {
        (**self).predict_from_tage(pc, step)
    }

    fn predict_from_gehl(&mut self, pc: u64, plan: &GehlPlan) -> (bool, PredictionAttribution) {
        (**self).predict_from_gehl(pc, plan)
    }

    fn update_shared(&mut self, record: &BranchRecord) {
        (**self).update_shared(record)
    }

    fn notify_shared(&mut self, record: &BranchRecord) {
        (**self).notify_shared(record)
    }

    fn run_block_shared(
        &mut self,
        block: &[BranchRecord],
        plans: SharedPlans<'_>,
        stats: &mut PredictorStats,
    ) {
        (**self).run_block_shared(block, plans, stats)
    }

    fn run_block_shared_attributed(
        &mut self,
        block: &[BranchRecord],
        plans: SharedPlans<'_>,
        stats: &mut PredictorStats,
        tally: &mut AttributionTally,
    ) {
        (**self).run_block_shared_attributed(block, plans, stats, tally)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl StorageBudget for Box<dyn ConditionalPredictor + Send> {
    fn storage_items(&self) -> Vec<StorageItem> {
        (**self).storage_items()
    }
}

/// The trivial static predictor (predicts every branch taken). Useful as a
/// floor baseline and for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysTaken;

impl ConditionalPredictor for AlwaysTaken {
    fn predict(&mut self, _pc: u64) -> bool {
        true
    }

    fn update(&mut self, _record: &BranchRecord) {}

    fn name(&self) -> &str {
        "always-taken"
    }
}

// bp-lint: allow-item(hot-path-alloc, "storage accounting is cold; never on the per-branch path")
impl StorageBudget for AlwaysTaken {
    fn storage_items(&self) -> Vec<StorageItem> {
        Vec::new()
    }
}

/// Running prediction accuracy statistics, maintained by the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional branches predicted.
    pub predicted: u64,
    /// Conditional branches mispredicted.
    pub mispredicted: u64,
}

impl PredictorStats {
    /// Records one prediction outcome.
    #[inline]
    pub fn record(&mut self, correct: bool) {
        self.predicted += 1;
        if !correct {
            self.mispredicted += 1;
        }
    }

    /// Misprediction ratio in `[0, 1]`, or `None` before any prediction.
    pub fn misprediction_rate(&self) -> Option<f64> {
        (self.predicted != 0).then(|| self.mispredicted as f64 / self.predicted as f64)
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &PredictorStats) {
        self.predicted += other.predicted;
        self.mispredicted += other.mispredicted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_behaviour() {
        let mut p = AlwaysTaken;
        assert!(p.predict(0x1234));
        p.update(&BranchRecord::conditional(0x1234, 0x1000, false));
        assert!(p.predict(0x1234), "static predictor never learns");
        assert_eq!(p.storage_bits(), 0);
        assert!(p.storage_items().is_empty());
        assert_eq!(p.name(), "always-taken");
    }

    #[test]
    fn default_attribution_is_unattributed_and_consistent() {
        let mut p = AlwaysTaken;
        let (pred, attr) = p.predict_attributed(0x40);
        assert!(pred);
        assert_eq!(attr, PredictionAttribution::unattributed());
    }

    #[test]
    fn stats_rates() {
        let mut s = PredictorStats::default();
        assert_eq!(s.misprediction_rate(), None);
        s.record(true);
        s.record(false);
        s.record(false);
        assert_eq!(s.predicted, 3);
        assert_eq!(s.mispredicted, 2);
        assert!((s.misprediction_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        let mut t = PredictorStats::default();
        t.record(true);
        t.merge(&s);
        assert_eq!(t.predicted, 4);
        assert_eq!(t.mispredicted, 2);
    }

    #[test]
    fn default_notify_is_a_noop() {
        let mut p = AlwaysTaken;
        p.notify_nonconditional(&BranchRecord::call(0x10, 0x20));
    }
}
