//! The front ends of the fused-column drive: the parts of a host's
//! lookup that depend only on the trace.
//!
//! Trace-driven simulation has a *purity invariant*: a host's
//! table-index inputs — the global history, its folds and the path
//! register — evolve only with the trace's `(PC, outcome)` stream.
//! Predictions move counters, usefulness bits and allocation decisions,
//! but never an index input. So every host with the same index geometry
//! computes the same row addresses for every branch of a trace.
//!
//! `TageFrontEnd` is a TAGE's history bundle plus the per-table
//! constants of its index/tag hash, owned by [`Tage`](crate::Tage).
//! [`GehlFrontEnd`] is the same for a GEHL host's global tables: the
//! history bundle and the global index hash. A GEHL host owns one for
//! its own lookups; the simulator's fused-column drive runs one per
//! group of same-geometry GEHL hosts and lets every member commit from
//! the shared [`GehlPlan`]s (see
//! [`ConditionalPredictor::predict_from_gehl`](crate::ConditionalPredictor::predict_from_gehl)).

use crate::hash::pc_bits;
use bp_history::{FoldId, HistoryState};
use bp_trace::BranchRecord;

/// Compile-time bound on the number of TAGE tagged tables.
///
/// Per-table indices and tags live in fixed-capacity inline arrays
/// sized by this constant, so lookups are plain `Copy` values — no heap
/// allocation on the predict/update path. 16 comfortably covers every
/// published TAGE geometry (the paper's is 12 tables; CBP winners use
/// 12-15).
pub const MAX_TAGE_TABLES: usize = 16;

/// Compile-time bound on the number of GEHL global tables (the range
/// `GehlConfig::check` accepts), sizing [`GehlPlan`].
pub const MAX_GEHL_TABLES: usize = 64;

/// The low `bits` bits set, saturating at the full word — the guard
/// for path-history masks, where a legal 64-bit configuration would
/// otherwise hit `1u64 << 64`.
#[inline]
pub fn low_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A TAGE host's index inputs and index/tag hash: the history bundle
/// (global history, one index fold and two tag folds per table, the
/// path register) and the per-table hash constants.
///
/// Two front ends compare equal when they have the same index geometry
/// *and* the same history state — the condition under which they
/// compute the same rows for every future branch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TageFrontEnd {
    history: HistoryState,
    tables: usize,
    log_entries: usize,
    index_folds: [FoldId; MAX_TAGE_TABLES],
    tag_folds: [(FoldId, FoldId); MAX_TAGE_TABLES],
    // Per-table constants hoisted out of the per-branch loops (the
    // geometric history length involves a powf; computing it per
    // branch per table dominated the original lookup profile).
    /// `log2(entries) - (i % log2(entries))`: the PC-fold shift.
    pc_shifts: [u32; MAX_TAGE_TABLES],
    /// Path-history mask for `min(history_length(i), path_bits)` bits.
    path_masks: [u64; MAX_TAGE_TABLES],
    /// `(1 << tag_bits[i]) - 1`.
    tag_masks: [u16; MAX_TAGE_TABLES],
}

impl TageFrontEnd {
    /// Builds the front end of a TAGE with `2^log_entries`-entry tagged
    /// tables whose table `i` hashes `history_lengths[i]` outcomes into
    /// a `tag_bits[i]`-bit tag, over a `path_bits`-bit path register.
    /// `max_history` sizes the global buffer.
    ///
    /// # Panics
    ///
    /// Panics if the two per-table slices differ in length or exceed
    /// [`MAX_TAGE_TABLES`], or under [`HistoryState::add_fold`]'s
    /// conditions. Callers validate the geometry first.
    pub fn new(
        log_entries: usize,
        path_bits: usize,
        max_history: usize,
        history_lengths: &[usize],
        tag_bits: &[usize],
    ) -> Self {
        assert_eq!(
            history_lengths.len(),
            tag_bits.len(),
            "one tag width per table"
        );
        assert!(tag_bits.len() <= MAX_TAGE_TABLES, "too many tagged tables");
        let capacity = (max_history + 1).next_power_of_two().max(2048);
        let mut history = HistoryState::new(capacity, path_bits);
        let mut index_folds = [0; MAX_TAGE_TABLES];
        let mut tag_folds = [(0, 0); MAX_TAGE_TABLES];
        let mut pc_shifts = [0; MAX_TAGE_TABLES];
        let mut path_masks = [0; MAX_TAGE_TABLES];
        let mut tag_masks = [0; MAX_TAGE_TABLES];
        for (i, (&hlen, &tw)) in history_lengths.iter().zip(tag_bits).enumerate() {
            index_folds[i] = history.add_fold(hlen, log_entries);
            tag_folds[i] = (history.add_fold(hlen, tw), history.add_fold(hlen, tw - 1));
            pc_shifts[i] = (log_entries - (i % log_entries)) as u32;
            path_masks[i] = low_mask(hlen.min(path_bits));
            tag_masks[i] = low_mask(tw) as u16;
        }
        TageFrontEnd {
            history,
            tables: tag_bits.len(),
            log_entries,
            index_folds,
            tag_folds,
            pc_shifts,
            path_masks,
            tag_masks,
        }
    }

    /// The history bundle (global, folded and path history).
    pub fn history(&self) -> &HistoryState {
        &self.history
    }

    /// Reference form of table `i`'s row index, pinned against the
    /// fused [`TageFrontEnd::index_phase`] loop by its debug assertions,
    /// hence unused in release builds.
    ///
    /// The path-history contribution is a two-term branchless fold plus
    /// a remainder loop, bit-identical to
    /// `fold_u64(masked_path.max(1), log.min(16))`: the generic fold
    /// XORs successive `fold_bits`-wide slices until the residue is
    /// zero, so unconditionally XORing the first two slices (extra
    /// slices of a short value are zero, and the `.max(1)` argument is
    /// nonzero so the generic loop always consumes slice zero) and then
    /// looping over whatever remains above `2 * fold_bits` computes the
    /// same value. For every registry configuration `masked_path` fits
    /// in `path_bits = 16 <= 2 * fold_bits` bits, making the remainder
    /// loop dead there.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    #[inline]
    fn table_index(&self, pcb: u64, i: usize) -> u32 {
        let log = self.log_entries;
        let fold_bits = log.min(16) as u32;
        let fold_mask = low_mask(fold_bits as usize);
        let x = (self.history.path() & self.path_masks[i]).max(1);
        let mut path_fold = (x & fold_mask) ^ ((x >> fold_bits) & fold_mask);
        let mut rest = x >> (2 * fold_bits);
        while rest != 0 {
            path_fold ^= rest & fold_mask;
            rest >>= fold_bits;
        }
        let v = pcb
            ^ (pcb >> self.pc_shifts[i])
            ^ u64::from(self.history.fold(self.index_folds[i]))
            ^ path_fold;
        (v & low_mask(log)) as u32
    }

    /// Reference form of table `i`'s tag, for the same assertions.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    #[inline]
    fn table_tag(&self, pcb: u64, i: usize) -> u16 {
        let (f1, f2) = self.tag_folds[i];
        let v = pcb ^ u64::from(self.history.fold(f1)) ^ (u64::from(self.history.fold(f2)) << 1);
        (v as u16) & self.tag_masks[i]
    }

    /// The index phase of a TAGE lookup: every bank's row index and tag
    /// for the branch at `pc`, from the current history, in one tight
    /// zipped-iterator loop (the iterations are mutually independent,
    /// so they pipeline; per-table array indexing would cost ~8 bounds
    /// checks per table). The debug assertion at the end pins the
    /// fused loop to the reference helpers term by term.
    #[inline]
    pub fn index_phase(
        &self,
        pc: u64,
        indices: &mut [u32; MAX_TAGE_TABLES],
        tags: &mut [u16; MAX_TAGE_TABLES],
    ) {
        let n = self.tables;
        let pcb = pc_bits(pc);
        let path = self.history.path();
        let log = self.log_entries;
        let fold_bits = log.min(16) as u32;
        let fold_mask = low_mask(fold_bits as usize);
        let index_mask = low_mask(log);
        let comps = self.history.folds();
        for (((((index, tag), &fid), &(tf1, tf2)), &pc_shift), (&path_mask, &tag_mask)) in indices
            [..n]
            .iter_mut()
            .zip(tags[..n].iter_mut())
            .zip(&self.index_folds[..n])
            .zip(&self.tag_folds[..n])
            .zip(&self.pc_shifts[..n])
            .zip(self.path_masks[..n].iter().zip(&self.tag_masks[..n]))
        {
            let x = (path & path_mask).max(1);
            let mut path_fold = (x & fold_mask) ^ ((x >> fold_bits) & fold_mask);
            let mut rest = x >> (2 * fold_bits);
            while rest != 0 {
                path_fold ^= rest & fold_mask;
                rest >>= fold_bits;
            }
            let v = pcb ^ (pcb >> pc_shift) ^ u64::from(comps[fid]) ^ path_fold;
            *index = (v & index_mask) as u32;
            let t = pcb ^ u64::from(comps[tf1]) ^ (u64::from(comps[tf2]) << 1);
            *tag = (t as u16) & tag_mask;
        }
        #[cfg(debug_assertions)]
        for i in 0..n {
            assert_eq!(indices[i], self.table_index(pcb, i));
            assert_eq!(tags[i], self.table_tag(pcb, i));
        }
    }

    /// Pushes a resolved conditional into the direction/path histories.
    #[inline]
    pub fn push(&mut self, pc: u64, taken: bool) {
        self.history.push(taken, pc);
    }

    /// Pushes only path history (non-conditional branches).
    #[inline]
    pub fn push_path(&mut self, pc: u64) {
        self.history.push_path_only(pc);
    }

    /// Erases the direction/folded/path histories (a context-switch
    /// flush). Allocation-free; see [`HistoryState::flush`].
    pub fn flush(&mut self) {
        self.history.flush();
    }
}

/// The GEHL front end's output for one conditional branch: every
/// global table's row index before the IMLI term, plus the history
/// views a GEHL host's IMLI components read — exactly what the host
/// would compute at predict time, captured before the front end
/// advances past the branch.
///
/// 144 bytes, `Copy`: a chunk of plans is flat pre-sized scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GehlPlan {
    /// Per-table row indices, masked to the table size (the first
    /// `tables()` slots are live).
    pub indices: [u16; MAX_GEHL_TABLES],
    /// The 64 newest global-history outcomes, newest in bit 0.
    pub ghist: u64,
    /// The packed path history.
    pub path: u64,
}

impl Default for GehlPlan {
    fn default() -> Self {
        GehlPlan {
            indices: [0; MAX_GEHL_TABLES],
            ghist: 0,
            path: 0,
        }
    }
}

/// A GEHL host's global index inputs and index hash: the history bundle
/// (global history, one fold per history-indexed table, the path
/// register) and the per-table history lengths the hash mixes in.
///
/// Table 0 is PC-indexed; table `i > 0` reads a `log_entries`-bit fold
/// of its `history_lengths[i]` newest outcomes. The IMLI term some
/// hosts XOR into two of the indices, and the local tables of FTL, are
/// host state outside the front end. Two front ends compare equal when
/// they have the same geometry *and* the same history state — the
/// condition under which they produce the same [`GehlPlan`] for every
/// future branch.
#[derive(Debug, Clone, PartialEq)]
pub struct GehlFrontEnd {
    history: HistoryState,
    /// Per-table fold (`None` for the PC-indexed table 0).
    folds: Vec<Option<FoldId>>,
    /// Per-table history length, hoisted out of the per-branch index
    /// loops: the geometric series involves a `powf`, and recomputing
    /// it per table per branch was once the hottest constant on the
    /// GEHL profile.
    hist_lens: Vec<u64>,
    /// `2^log_entries - 1`.
    index_mask: u64,
}

impl GehlFrontEnd {
    /// Builds the front end of a GEHL whose global table `i` holds
    /// `2^log_entries` counters indexed with `history_lengths[i]`
    /// outcomes (0 = PC only), over a `path_bits`-bit path register.
    /// `max_history` sizes the global buffer.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_GEHL_TABLES`] tables,
    /// `log_entries` exceeds 16, or under [`HistoryState::new`]'s and
    /// [`HistoryState::add_fold`]'s conditions. Callers validate the
    /// geometry first.
    // bp-lint: allow-item(hot-path-alloc, "front-end construction is cold, once per predictor")
    pub fn new(
        log_entries: usize,
        path_bits: usize,
        max_history: usize,
        history_lengths: &[usize],
    ) -> Self {
        assert!(
            history_lengths.len() <= MAX_GEHL_TABLES,
            "too many GEHL tables"
        );
        assert!(log_entries <= 16, "GEHL plans hold 16-bit indices");
        let capacity = (max_history + 1).next_power_of_two().max(2048);
        let mut history = HistoryState::new(capacity, path_bits);
        let folds = history_lengths
            .iter()
            .map(|&hlen| (hlen > 0).then(|| history.add_fold(hlen, log_entries)))
            .collect();
        GehlFrontEnd {
            history,
            folds,
            hist_lens: history_lengths.iter().map(|&hlen| hlen as u64).collect(),
            index_mask: low_mask(log_entries),
        }
    }

    /// Number of global tables.
    pub fn tables(&self) -> usize {
        self.folds.len()
    }

    /// The history bundle (global, folded and path history).
    pub fn history(&self) -> &HistoryState {
        &self.history
    }

    /// Global table `i`'s row hash for the branch at `pc` from the
    /// current history, before the IMLI term and unmasked (the counter
    /// bank masks it to the table size).
    #[inline]
    pub fn table_index(&self, i: usize, pc: u64) -> u64 {
        let mut v = pc_bits(pc) ^ ((i as u64) << 59);
        if let Some(fold) = self.folds[i] {
            v ^= u64::from(self.history.fold(fold)) ^ (self.hist_lens[i] << 13);
            v ^= self.history.path() & 0x3F;
        }
        v
    }

    /// Plans the conditional branch at `pc` from the current history
    /// (the caller advances past it afterwards with
    /// [`GehlFrontEnd::push`]).
    #[inline]
    pub fn plan(&self, pc: u64, plan: &mut GehlPlan) {
        let n = self.tables();
        for (i, index) in plan.indices[..n].iter_mut().enumerate() {
            *index = (self.table_index(i, pc) & self.index_mask) as u16;
        }
        plan.ghist = self.history.global().low_bits(64);
        plan.path = self.history.path();
    }

    /// Runs the front end over `records`: plans every conditional into
    /// the matching slot of `plans` and advances the history past every
    /// record. Slots of non-conditional records are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `plans` is shorter than `records`.
    #[inline]
    pub fn plan_block(&mut self, records: &[BranchRecord], plans: &mut [GehlPlan]) {
        for (record, plan) in records.iter().zip(&mut plans[..records.len()]) {
            if record.is_conditional() {
                self.plan(record.pc, plan);
                self.push(record.pc, record.taken);
            } else {
                self.push_path(record.pc);
            }
        }
    }

    /// Pushes a resolved conditional into the direction/path histories.
    #[inline]
    pub fn push(&mut self, pc: u64, taken: bool) {
        self.history.push(taken, pc);
    }

    /// Pushes only path history (non-conditional branches).
    #[inline]
    pub fn push_path(&mut self, pc: u64) {
        self.history.push_path_only(pc);
    }

    /// Erases the direction/folded/path histories (a context-switch
    /// flush). Allocation-free; see [`HistoryState::flush`].
    pub fn flush(&mut self) {
        self.history.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front() -> GehlFrontEnd {
        let lengths: Vec<usize> = (0..17)
            .map(|i| if i == 0 { 0 } else { 2 << (i / 2) })
            .collect();
        GehlFrontEnd::new(11, 16, 600, &lengths)
    }

    #[test]
    fn plans_are_equal_for_equal_front_ends_and_block_planning_advances() {
        let mut a = front();
        let mut b = a.clone();
        let records: Vec<BranchRecord> = (0..300u64)
            .map(|i| {
                if i % 7 == 0 {
                    BranchRecord::call(0x100 + i * 4, 0x4000)
                } else {
                    BranchRecord::conditional(0x400 + (i % 13) * 4, 0x300, i % 3 == 0)
                }
            })
            .collect();
        let mut plans = vec![GehlPlan::default(); records.len()];
        a.plan_block(&records, &mut plans);
        for (record, plan) in records.iter().zip(&plans) {
            if record.is_conditional() {
                let mut expected = GehlPlan::default();
                b.plan(record.pc, &mut expected);
                assert_eq!(*plan, expected);
                for (i, &index) in plan.indices[..b.tables()].iter().enumerate() {
                    assert_eq!(u64::from(index), b.table_index(i, record.pc) & 0x7FF);
                }
                b.push(record.pc, record.taken);
            } else {
                b.push_path(record.pc);
            }
        }
        assert_eq!(
            a, b,
            "block planning advances exactly like per-record pushes"
        );
        a.flush();
        assert_ne!(a, b);
    }

    #[test]
    fn plan_ghist_is_the_newest_64_outcomes() {
        let mut f = front();
        let mut plan = GehlPlan::default();
        for i in 0..100u64 {
            f.push(0x40, i % 5 == 0);
        }
        f.plan(0x40, &mut plan);
        assert_eq!(plan.ghist, f.history().global().low_bits(64));
        assert_eq!(plan.ghist & 1, 0, "newest outcome (i = 99) was not taken");
        assert_eq!(plan.path, f.history().path());
    }
}
