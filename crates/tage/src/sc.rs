//! The statistical corrector (SC) stage.
//!
//! The corrector is a neural summation (paper Figure 5): bias tables
//! indexed with the PC and the TAGE prediction, GEHL-style tables indexed
//! with global history, optionally local-history tables (the "+L"
//! configurations), and optionally the paper's IMLI components. The final
//! prediction is the sign of the sum; counters train on a misprediction
//! or when the sum's magnitude falls below an adaptive threshold.

use bp_components::{
    mix64, pc_bits, sum_centered_padded, AdaptiveThreshold, ConfigError, ConfigValue, CounterBank,
    StorageItem, SumCtx,
};
use bp_history::LocalHistoryTable;
use bp_trace::BranchRecord;
use imli::{ImliConfig, ImliSic, ImliState};

/// Configuration of the local-history part of the corrector (present in
/// the "+L" predictors only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalScConfig {
    /// Local history table entries.
    pub history_entries: usize,
    /// Local history width in bits.
    pub history_width: usize,
    /// Entries per local GEHL table.
    pub table_entries: usize,
    /// Local history lengths of the GEHL tables.
    pub lengths: Vec<usize>,
}

impl Default for LocalScConfig {
    /// 256 × 16-bit local histories and four 1K-entry tables — the
    /// ~28 Kbit addition that turns TAGE-GSC into TAGE-SC-L in Table 1.
    fn default() -> Self {
        LocalScConfig {
            history_entries: 256,
            history_width: 16,
            table_entries: 1024,
            lengths: vec![4, 8, 12, 16],
        }
    }
}

/// Configuration of the [`StatisticalCorrector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScConfig {
    /// Entries of each of the two bias tables.
    pub bias_entries: usize,
    /// Entries of each global-history table.
    pub table_entries: usize,
    /// Counter width throughout the corrector.
    pub counter_bits: usize,
    /// Global history lengths of the GEHL tables.
    pub global_lengths: Vec<usize>,
    /// Weight given to the TAGE prediction in the summation.
    pub tage_weight: i32,
    /// IMLI components (None = the paper's base TAGE-GSC).
    pub imli: Option<ImliConfig>,
    /// Fold the IMLI counter into the indices of the first two global
    /// tables (the paper's §4.2 refinement).
    pub imli_in_global_indices: bool,
    /// Local-history components (None = global-only).
    pub local: Option<LocalScConfig>,
    /// Initial adaptive threshold.
    pub threshold_init: i32,
    /// Threshold ceiling.
    pub threshold_max: i32,
}

impl Default for ScConfig {
    /// The paper's GSC: bias + global tables only, ~18 Kbit.
    fn default() -> Self {
        ScConfig {
            bias_entries: 512,
            table_entries: 512,
            counter_bits: 6,
            global_lengths: vec![3, 8, 16, 33],
            tage_weight: 5,
            imli: None,
            imli_in_global_indices: false,
            local: None,
            threshold_init: 6,
            threshold_max: 255,
        }
    }
}

impl LocalScConfig {
    /// Serializes as a [`ConfigValue`] object.
    pub fn to_value(&self) -> ConfigValue {
        ConfigValue::map()
            .set("history_entries", ConfigValue::int(self.history_entries))
            .set("history_width", ConfigValue::int(self.history_width))
            .set("table_entries", ConfigValue::int(self.table_entries))
            .set("lengths", ConfigValue::int_list(&self.lengths))
    }

    /// Parses from a [`ConfigValue`] object (strict keys).
    pub fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        value.expect_keys(
            "local sc config",
            &[
                "history_entries",
                "history_width",
                "table_entries",
                "lengths",
            ],
        )?;
        Ok(LocalScConfig {
            history_entries: value.req("history_entries")?.as_usize("history_entries")?,
            history_width: value.req("history_width")?.as_usize("history_width")?,
            table_entries: value.req("table_entries")?.as_usize("table_entries")?,
            lengths: value.req("lengths")?.as_usize_list("lengths")?,
        })
    }
}

impl ScConfig {
    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two table sizes or empty length lists.
    /// The non-panicking twin is [`ScConfig::check`].
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            // bp-lint: allow(panic-surface, "documented legacy panicking API; the validate-then-build path uses the non-panicking check()")
            panic!("{e}");
        }
    }

    /// Checks the geometry, returning the first violation instead of
    /// panicking.
    pub fn check(&self) -> Result<(), ConfigError> {
        if !(self.bias_entries.is_power_of_two() && self.table_entries.is_power_of_two()) {
            return Err("table sizes must be powers of two".into());
        }
        if self.bias_entries > 1 << 24 || self.table_entries > 1 << 24 {
            return Err("table sizes must be at most 2^24 entries".into());
        }
        if self.global_lengths.is_empty() {
            return Err("need global tables".into());
        }
        if self.global_lengths.len() > 64 {
            return Err("at most 64 global tables".into());
        }
        if !self.global_lengths.iter().all(|&l| (1..=64).contains(&l)) {
            return Err("global lengths must be in 1..=64".into());
        }
        if !(0..=1024).contains(&self.tage_weight) {
            return Err("tage_weight must be in 0..=1024".into());
        }
        if !(1..=7).contains(&self.counter_bits) {
            return Err("sc counter width must be in 1..=7".into());
        }
        if !(0..=self.threshold_max).contains(&self.threshold_init) {
            return Err("threshold_init must be in 0..=threshold_max".into());
        }
        if let Some(local) = &self.local {
            if !(local.history_entries.is_power_of_two() && local.table_entries.is_power_of_two()) {
                return Err("local table sizes must be powers of two".into());
            }
            if local.history_entries > 1 << 24 || local.table_entries > 1 << 24 {
                return Err("local table sizes must be at most 2^24 entries".into());
            }
            if local.lengths.is_empty() || local.lengths.len() > 64 {
                return Err("local tables must number 1..=64".into());
            }
            if !(1..=32).contains(&local.history_width) {
                return Err("local history width must be in 1..=32".into());
            }
            if !local
                .lengths
                .iter()
                .all(|&l| l >= 1 && l <= local.history_width)
            {
                return Err("local lengths must fit the history width".into());
            }
        }
        if let Some(imli) = &self.imli {
            imli.check()?;
        }
        Ok(())
    }

    /// Exact storage in bits of the built [`StatisticalCorrector`]: two
    /// bias tables, the global (and optional local) GEHL tables, the
    /// local history file, the IMLI structures, and the
    /// adaptive-threshold registers — the same itemization as
    /// [`StatisticalCorrector::storage_items`], computed from the
    /// configuration alone.
    pub fn storage_bits(&self) -> u64 {
        let cb = self.counter_bits as u64;
        let mut bits = 2 * self.bias_entries as u64 * cb;
        bits += self.global_lengths.len() as u64 * self.table_entries as u64 * cb;
        if let Some(local) = &self.local {
            bits += local.lengths.len() as u64 * local.table_entries as u64 * cb;
            bits += (local.history_entries * local.history_width) as u64;
        }
        if let Some(imli) = &self.imli {
            bits += imli.state_storage_bits();
        }
        // AdaptiveThreshold::storage_bits: θ register + 8-bit counter.
        bits += u64::from(32 - (self.threshold_max as u32).leading_zeros().min(31)) + 8;
        bits
    }

    /// Serializes as a [`ConfigValue`] object.
    pub fn to_value(&self) -> ConfigValue {
        ConfigValue::map()
            .set("bias_entries", ConfigValue::int(self.bias_entries))
            .set("table_entries", ConfigValue::int(self.table_entries))
            .set("counter_bits", ConfigValue::int(self.counter_bits))
            .set(
                "global_lengths",
                ConfigValue::int_list(&self.global_lengths),
            )
            .set("tage_weight", ConfigValue::Int(i64::from(self.tage_weight)))
            .set_opt("imli", self.imli.as_ref().map(imli::ImliConfig::to_value))
            .set(
                "imli_in_global_indices",
                ConfigValue::Bool(self.imli_in_global_indices),
            )
            .set_opt("local", self.local.as_ref().map(LocalScConfig::to_value))
            .set(
                "threshold_init",
                ConfigValue::Int(i64::from(self.threshold_init)),
            )
            .set(
                "threshold_max",
                ConfigValue::Int(i64::from(self.threshold_max)),
            )
    }

    /// Parses from a [`ConfigValue`] object (strict keys; absent `imli`
    /// / `local` mean "component not present").
    pub fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        value.expect_keys(
            "sc config",
            &[
                "bias_entries",
                "table_entries",
                "counter_bits",
                "global_lengths",
                "tage_weight",
                "imli",
                "imli_in_global_indices",
                "local",
                "threshold_init",
                "threshold_max",
            ],
        )?;
        Ok(ScConfig {
            bias_entries: value.req("bias_entries")?.as_usize("bias_entries")?,
            table_entries: value.req("table_entries")?.as_usize("table_entries")?,
            counter_bits: value.req("counter_bits")?.as_usize("counter_bits")?,
            global_lengths: value
                .req("global_lengths")?
                .as_usize_list("global_lengths")?,
            tage_weight: value.req("tage_weight")?.as_i32("tage_weight")?,
            imli: value
                .get("imli")
                .map(imli::ImliConfig::from_value)
                .transpose()?,
            imli_in_global_indices: value
                .req("imli_in_global_indices")?
                .as_bool("imli_in_global_indices")?,
            local: value
                .get("local")
                .map(LocalScConfig::from_value)
                .transpose()?,
            threshold_init: value.req("threshold_init")?.as_i32("threshold_init")?,
            threshold_max: value.req("threshold_max")?.as_i32("threshold_max")?,
        })
    }
}

/// The cached per-branch corrector state between `predict` and `update`.
#[derive(Debug, Clone, Copy)]
pub struct ScLookup {
    ctx: SumCtx,
    sum: i32,
    /// The corrector's final prediction (sign of the sum).
    pub pred: bool,
}

impl ScLookup {
    /// The summed corrector vote (including the weighted TAGE vote);
    /// its magnitude against the adaptive threshold is the corrector's
    /// confidence signal.
    pub fn sum(&self) -> i32 {
        self.sum
    }
}

/// Capacity of the corrector's per-branch gather buffers: two bias rows
/// plus at most 64 global and 64 local rows ([`ScConfig::check`] bounds
/// both), so the buffers are fixed-size stack arrays.
const SC_MAX_ADDENDS: usize = 2 + 64 + 64;

/// The statistical corrector stage. See the module docs.
///
/// The counter storage is banked ([`CounterBank`]): both bias tables in
/// one flat allocation, all global GEHL tables in another, all local
/// tables in a third. [`StatisticalCorrector::predict`] runs in two
/// phases over these banks — an *index phase* that computes every row
/// address into a fixed-size buffer, then a *gather phase* that reads
/// the selected counters into a flat `i8` buffer and reduces it with
/// the vector-friendly [`bp_components::sum_centered`] kernel. The phase split keeps
/// the address math and the dependent row reads in separate loops, and
/// the final reduction is a single fixed-stride kernel instead of a
/// chain of per-table reads.
#[derive(Debug, Clone)]
pub struct StatisticalCorrector {
    config: ScConfig,
    /// Table 0: the (pc, tage_pred) bias; table 1: the
    /// (pc, tage_pred, conf) bias.
    bias: CounterBank,
    global_tables: CounterBank,
    local_history: Option<LocalHistoryTable>,
    local_tables: Option<CounterBank>,
    imli: Option<ImliState>,
    threshold: AdaptiveThreshold,
    lookup: Option<ScLookup>,
    /// Row addresses computed by the index phase of
    /// [`StatisticalCorrector::predict`] (bias pair first, then
    /// globals, then locals). `update` trains through these instead of
    /// recomputing: history only advances after the paired
    /// predict/update, so they are the rows the prediction read.
    indices: [u64; SC_MAX_ADDENDS],
    /// `(1 << global_lengths[i]) - 1` (saturating at 64 bits), hoisted
    /// out of the per-branch index phase.
    global_masks: Vec<u64>,
    /// `(1 << local.lengths[i]) - 1`, ditto.
    local_masks: Vec<u64>,
}

impl StatisticalCorrector {
    /// Builds a corrector from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ScConfig::validate`].
    pub fn new(config: ScConfig) -> Self {
        config.validate();
        let cb = config.counter_bits;
        StatisticalCorrector {
            bias: CounterBank::new(2, config.bias_entries, cb),
            global_tables: CounterBank::new(config.global_lengths.len(), config.table_entries, cb),
            local_history: config
                .local
                .as_ref()
                .map(|l| LocalHistoryTable::new(l.history_entries, l.history_width)),
            local_tables: config
                .local
                .as_ref()
                .map(|l| CounterBank::new(l.lengths.len(), l.table_entries, cb)),
            imli: config.imli.as_ref().map(ImliState::new),
            threshold: AdaptiveThreshold::new(config.threshold_init, config.threshold_max),
            lookup: None,
            indices: [0; SC_MAX_ADDENDS],
            global_masks: config
                .global_lengths
                .iter()
                .map(|&len| {
                    if len >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << len) - 1
                    }
                })
                .collect(),
            local_masks: config.local.as_ref().map_or_else(Vec::new, |l| {
                l.lengths.iter().map(|&len| (1u64 << len) - 1).collect()
            }),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScConfig {
        &self.config
    }

    /// Read-only access to the embedded IMLI state, when configured.
    pub fn imli(&self) -> Option<&ImliState> {
        self.imli.as_ref()
    }

    /// Erases the corrector's history state (a context-switch flush):
    /// the per-branch local histories and the IMLI fetch-engine state
    /// (counter + PIPE). Learned structures — bias/global/local counter
    /// banks, the adaptive threshold, the outer-history bit table and
    /// SIC/OH tables — survive, per the flush contract of
    /// `ConditionalPredictor::flush_history`. Allocation-free.
    pub fn flush_history(&mut self) {
        if let Some(lh) = &mut self.local_history {
            lh.clear();
        }
        if let Some(imli) = &mut self.imli {
            imli.flush_history();
        }
    }

    #[inline]
    fn global_index(&self, i: usize, ctx: &SumCtx) -> u64 {
        let hist = ctx.ghist & self.global_masks[i];
        let mut v = pc_bits(ctx.pc) ^ mix64(hist ^ ((i as u64 + 1) << 57)) ^ (ctx.path & 0xFF);
        if self.config.imli_in_global_indices && i < 2 {
            v ^= ImliSic::index(0, ctx.imli_count);
        }
        v
    }

    #[inline]
    fn local_index(&self, i: usize, ctx: &SumCtx) -> u64 {
        let hist = u64::from(ctx.local_history) & self.local_masks[i];
        pc_bits(ctx.pc) ^ mix64(hist.rotate_left(i as u32 * 11) ^ ((i as u64 + 1) << 49))
    }

    /// Issues read prefetches for the corrector rows of `pc` that are
    /// addressable from the PC alone (the two bias rows). A pure hint
    /// for the simulator's one-branch lookahead; the history-indexed
    /// rows are skipped because their addresses change with the
    /// in-flight branch.
    pub fn prefetch(&self, pc: u64, tage_pred: bool) {
        self.bias
            .prefetch(0, (pc_bits(pc) << 1) | u64::from(tage_pred));
        self.bias.prefetch(1, pc_bits(pc) << 2);
    }

    /// Computes the corrector sum and prediction for `pc`.
    ///
    /// `ghist`/`path` come from the host's history state; `tage_pred` and
    /// `tage_conf_low` from the TAGE lookup. The lookup is cached for the
    /// matching [`StatisticalCorrector::update`].
    ///
    /// Two-phase over the counter banks: the index phase fills a
    /// fixed-size `(bank row, index)` buffer, the gather phase reads
    /// every selected counter into a flat `i8` buffer, and the
    /// [`bp_components::sum_centered`] kernel reduces it. The kernel computes
    /// `Σ(2c+1)` as `2·Σc + n` in exact i32 arithmetic, so the sum is
    /// bit-identical to the per-table read chain it replaces.
    pub fn predict(
        &mut self,
        pc: u64,
        tage_pred: bool,
        tage_conf_low: bool,
        ghist: u64,
        path: u64,
    ) -> ScLookup {
        let mut ctx = SumCtx {
            pc,
            main_pred: tage_pred,
            main_conf_low: tage_conf_low,
            ghist,
            path,
            ..SumCtx::default()
        };
        if let Some(lh) = &self.local_history {
            ctx.local_history = lh.history(pc);
        }
        if let Some(imli) = &self.imli {
            imli.fill_ctx(&mut ctx);
        }

        // Index phase: every row address, no table reads yet. The
        // addresses are stashed on the struct so the paired `update`
        // can train through them without recomputing.
        let n_global = self.config.global_lengths.len();
        self.indices[0] = (pc_bits(pc) << 1) | u64::from(tage_pred);
        self.indices[1] =
            (pc_bits(pc) << 2) | (u64::from(tage_pred) << 1) | u64::from(tage_conf_low);
        for i in 0..n_global {
            self.indices[2 + i] = self.global_index(i, &ctx);
        }
        let n_local = self.local_tables.as_ref().map_or(0, CounterBank::tables);
        for i in 0..n_local {
            self.indices[2 + n_global + i] = self.local_index(i, &ctx);
        }

        // Gather phase: read the selected counters into a flat buffer.
        let mut values = [0i8; SC_MAX_ADDENDS];
        self.bias.gather(&self.indices[..2], &mut values[..2]);
        self.global_tables
            .gather(&self.indices[2..2 + n_global], &mut values[2..2 + n_global]);
        if let Some(local) = &self.local_tables {
            local.gather(
                &self.indices[2 + n_global..2 + n_global + n_local],
                &mut values[2 + n_global..2 + n_global + n_local],
            );
        }

        let mut sum = self.config.tage_weight * (2 * i32::from(tage_pred) - 1);
        sum += sum_centered_padded(&values, 2 + n_global + n_local);
        if let Some(imli) = &self.imli {
            sum += imli.read(&ctx);
        }

        let lookup = ScLookup {
            ctx,
            sum,
            pred: sum >= 0,
        };
        self.lookup = Some(lookup);
        lookup
    }

    /// Trains the corrector with the resolved outcome. Must follow a
    /// [`StatisticalCorrector::predict`] for the same branch.
    ///
    /// # Panics
    ///
    /// Panics if no prediction is pending.
    pub fn update(&mut self, taken: bool) {
        // bp-lint: allow(panic-surface, "CBP protocol contract: update() without a pending predict() is caller error, not data-dependent")
        let lookup = self.lookup.take().expect("update without pending predict");
        let ctx = lookup.ctx;
        let mispredicted = lookup.pred != taken;
        let sum_abs = lookup.sum.abs();
        if self.threshold.should_update(sum_abs, mispredicted) {
            // Train through the indices stashed by the paired predict:
            // history has not advanced since, so they are the rows the
            // prediction actually read.
            self.bias.train_all(&self.indices[..2], taken);
            let n_global = self.global_tables.tables();
            self.global_tables
                .train_all(&self.indices[2..2 + n_global], taken);
            if let Some(local) = &mut self.local_tables {
                let n_local = local.tables();
                local.train_all(&self.indices[2 + n_global..2 + n_global + n_local], taken);
            }
            if let Some(imli) = &mut self.imli {
                imli.train(&ctx, taken);
            }
        }
        self.threshold.adapt(sum_abs, mispredicted);
    }

    /// Observes the resolved branch record: advances the IMLI state and
    /// the local history. Call once per branch, after `update`.
    pub fn observe(&mut self, record: &BranchRecord) {
        if let Some(imli) = &mut self.imli {
            imli.observe(record);
        }
        if record.is_conditional() {
            if let Some(lh) = &mut self.local_history {
                lh.update(record.pc, record.taken);
            }
        }
    }

    /// The current adaptive update threshold θ (the corrector's
    /// confidence yardstick).
    pub fn theta(&self) -> i32 {
        self.threshold.theta()
    }

    /// Storage in bits across every configured structure.
    pub fn storage_bits(&self) -> u64 {
        self.storage_items().iter().map(|i| i.bits).sum()
    }

    /// Itemized storage: bias tables, global/local GEHL tables, local
    /// histories, IMLI structures, and the adaptive-threshold registers.
    pub fn storage_items(&self) -> Vec<StorageItem> {
        let mut items = vec![
            StorageItem::new("bias[0]", self.bias.table_storage_bits()),
            StorageItem::new("bias[1]", self.bias.table_storage_bits()),
        ];
        for i in 0..self.global_tables.tables() {
            items.push(StorageItem::new(
                format!("global[{i}]"),
                self.global_tables.table_storage_bits(),
            ));
        }
        if let Some(local) = &self.local_tables {
            for i in 0..local.tables() {
                items.push(StorageItem::new(
                    format!("local[{i}]"),
                    local.table_storage_bits(),
                ));
            }
        }
        if let Some(lh) = &self.local_history {
            items.push(StorageItem::new("local-history", lh.storage_bits()));
        }
        if let Some(imli) = &self.imli {
            items.extend(imli.storage_items());
        }
        items.push(StorageItem::new("threshold", self.threshold.storage_bits()));
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(sc: &mut StatisticalCorrector, pc: u64, tage_pred: bool, taken: bool) -> bool {
        let l = sc.predict(pc, tage_pred, false, 0, 0);
        sc.update(taken);
        sc.observe(&BranchRecord::conditional(pc, pc + 0x40, taken));
        l.pred
    }

    #[test]
    fn follows_tage_when_tage_is_right() {
        let mut sc = StatisticalCorrector::new(ScConfig::default());
        for _ in 0..200 {
            drive(&mut sc, 0x40, true, true);
        }
        let l = sc.predict(0x40, true, false, 0, 0);
        assert!(l.pred);
        sc.update(true);
    }

    #[test]
    fn reverts_tage_when_tage_is_statistically_wrong() {
        // TAGE always predicts taken, outcome is always not-taken: the
        // corrector must learn to revert.
        let mut sc = StatisticalCorrector::new(ScConfig::default());
        for _ in 0..400 {
            drive(&mut sc, 0x40, true, false);
        }
        let l = sc.predict(0x40, true, false, 0, 0);
        assert!(!l.pred, "corrector failed to revert, sum = {}", l.sum);
        sc.update(false);
    }

    #[test]
    fn imli_component_fixes_same_iteration_branch() {
        // Branch outcome depends only on the IMLI count; TAGE (simulated
        // here as always-wrong 50/50 via alternating pred) cannot help,
        // the SIC table can.
        let cfg = ScConfig {
            imli: Some(ImliConfig::default()),
            ..ScConfig::default()
        };
        cfg.validate();
        let mut sc = StatisticalCorrector::new(cfg);
        let body = 0x4008u64;
        let back = BranchRecord::conditional(0x4010, 0x4000, true);
        let exit = BranchRecord::conditional(0x4010, 0x4000, false);
        let mut correct = 0;
        let mut total = 0;
        for n in 0..300 {
            for m in 0..8u32 {
                let taken = m % 2 == 0; // depends on inner iteration only
                let l = sc.predict(body, n % 2 == 0, false, 0, 0);
                if n > 100 {
                    total += 1;
                    correct += u32::from(l.pred == taken);
                }
                sc.update(taken);
                sc.observe(&BranchRecord::conditional(body, body + 0x40, taken));
                sc.observe(if m < 7 { &back } else { &exit });
            }
        }
        let acc = f64::from(correct) / f64::from(total);
        assert!(acc > 0.9, "IMLI-SIC in SC should fix this, got {acc:.3}");
    }

    #[test]
    fn local_component_fixes_periodic_branch() {
        let cfg = ScConfig {
            local: Some(LocalScConfig::default()),
            tage_weight: 2,
            ..ScConfig::default()
        };
        let mut sc = StatisticalCorrector::new(cfg);
        let pc = 0x90;
        let mut correct = 0;
        let mut total = 0;
        for i in 0..4000u64 {
            let taken = i % 5 < 2;
            // TAGE deliberately unhelpful: always predicts taken.
            let l = sc.predict(pc, true, true, 0, 0);
            if i > 2000 {
                total += 1;
                correct += u64::from(l.pred == taken);
            }
            sc.update(taken);
            sc.observe(&BranchRecord::conditional(pc, pc + 0x40, taken));
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "local SC should fix period-5, got {acc:.3}");
    }

    #[test]
    fn storage_accounting_tracks_configuration() {
        let base = StatisticalCorrector::new(ScConfig::default()).storage_bits();
        let with_imli = StatisticalCorrector::new(ScConfig {
            imli: Some(ImliConfig::default()),
            ..ScConfig::default()
        })
        .storage_bits();
        let with_local = StatisticalCorrector::new(ScConfig {
            local: Some(LocalScConfig::default()),
            ..ScConfig::default()
        })
        .storage_bits();
        // IMLI adds its ~708-byte budget (minus packaging rounding).
        assert_eq!(with_imli - base, 10 + 3072 + 1536 + 1024 + 16);
        // Local adds 256*16 + 4*1024*6 = 28672 bits ≈ 28 Kbit.
        assert_eq!(with_local - base, 256 * 16 + 4 * 1024 * 6);
    }

    #[test]
    #[should_panic(expected = "update without pending predict")]
    fn update_requires_predict() {
        let mut sc = StatisticalCorrector::new(ScConfig::default());
        sc.update(true);
    }
}
