//! Bundled history state: global + folded + path, kept consistent.

use crate::folded::FoldedHistory;
use crate::global::{GlobalHistory, GlobalHistoryCheckpoint};
use crate::path::PathHistory;

/// Identifier of a fold registered with [`HistoryState::add_fold`].
pub type FoldId = usize;

/// A consistent bundle of global direction history, any number of folded
/// views of it, and a path history.
///
/// TAGE-style predictors need, per tagged table, one fold for the index
/// and two for the tag, all over different segment lengths of the *same*
/// global history. `HistoryState` owns the global buffer and updates every
/// registered fold in O(1) per branch, including feeding each fold its own
/// evicted bit.
///
/// The folds are stored structure-of-arrays (current value, fold width,
/// width mask, eviction XOR point in parallel vectors) rather than as a
/// `Vec<FoldedHistory>`: the per-branch update of all folds — 36 for a
/// 12-table TAGE — is the hottest loop on the TAGE-SC-L profile, and the
/// flat layout lets [`HistoryState::push`] update eight folds per
/// iteration with AVX2 variable shifts where the CPU supports it (with a
/// bit-identical scalar loop everywhere else). Every fold follows the
/// exact [`FoldedHistory`] recurrence; the property tests compare against
/// its from-scratch reference.
///
/// ```
/// use bp_history::HistoryState;
/// let mut hs = HistoryState::new(1024, 16);
/// let idx_fold = hs.add_fold(100, 10);
/// hs.push(true, 0x400);
/// assert_eq!(hs.fold(idx_fold) & 1, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryState {
    global: GlobalHistory,
    path: PathHistory,
    /// Current value of each fold (the mutable hot state).
    comps: Vec<u32>,
    /// Fold width (compressed length) per fold.
    clens: Vec<u32>,
    /// `(1 << clen) - 1` per fold.
    masks: Vec<u32>,
    /// `original_len % clen` per fold: where the evicted bit XORs out.
    outpoints: Vec<u32>,
    /// For each fold, the index of its segment length in `unique_lens`.
    eviction_slot: Vec<u32>,
    /// Distinct fold segment lengths, in registration order.
    unique_lens: Vec<usize>,
    /// Per-push scratch: the evicted bit (0/1) of each unique length.
    evicted: Vec<u32>,
    /// Per-push scratch: each fold's evicted bit already shifted to its
    /// XOR-out point (`evicted[slot] << outpoint`). Expanding this with
    /// a scalar loop *before* the fold kernel replaces a `vpgatherdd` +
    /// `vpsllvd` pair per SIMD block — the gather is the slowest
    /// instruction of the whole push and sits on the inter-branch
    /// critical path (the next lookup's indices read the fold
    /// registers this kernel writes).
    evicted_out: Vec<u32>,
    /// Whether any fold is 32 bits wide (forces the u64 scalar loop; no
    /// registry predictor uses folds wider than 16 bits).
    wide_fold: bool,
    /// Host support for the AVX2 fold kernel, probed once at
    /// construction.
    avx2: bool,
}

/// Checkpoint of a [`HistoryState`]: the global head pointer plus the
/// folded values and path register.
///
/// In hardware the folds are recomputed or checkpointed alongside the
/// fetch state; their total size (a few hundred bits for a full TAGE) is
/// reported by [`HistoryCheckpoint::cost_bits`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryCheckpoint {
    global: GlobalHistoryCheckpoint,
    folds: Vec<u32>,
    path: u64,
}

impl HistoryCheckpoint {
    /// Number of state bits a hardware checkpoint of this content would
    /// occupy (global head pointer + every fold + path register).
    pub fn cost_bits(&self, state: &HistoryState) -> u64 {
        let mut bits = u64::from(GlobalHistoryCheckpoint::cost_bits(state.global.capacity()));
        for &clen in &state.clens {
            bits += u64::from(clen);
        }
        bits += state.path.len() as u64;
        bits
    }
}

fn detect_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl HistoryState {
    /// Creates a history bundle with a global buffer of `capacity`
    /// outcomes and a `path_len`-bit path register.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GlobalHistory::new`] and
    /// [`PathHistory::new`].
    // bp-lint: allow-item(hot-path-alloc, "bundle construction is cold; per-branch shift/fold is allocation-free (tests/hotpath_allocations.rs)")
    pub fn new(capacity: usize, path_len: usize) -> Self {
        HistoryState {
            global: GlobalHistory::new(capacity),
            path: PathHistory::new(path_len),
            comps: Vec::new(),
            clens: Vec::new(),
            masks: Vec::new(),
            outpoints: Vec::new(),
            eviction_slot: Vec::new(),
            unique_lens: Vec::new(),
            evicted: Vec::new(),
            evicted_out: Vec::new(),
            wide_fold: false,
            avx2: detect_avx2(),
        }
    }

    /// Registers a fold of the `original_len` most recent outcomes into
    /// `compressed_len` bits; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `original_len` exceeds the global capacity (the evicted
    /// bit would be unreadable) or under [`FoldedHistory::new`]'s
    /// conditions.
    pub fn add_fold(&mut self, original_len: usize, compressed_len: usize) -> FoldId {
        assert!(
            original_len < self.global.capacity(),
            "fold segment ({original_len}) must be shorter than the global capacity ({})",
            self.global.capacity()
        );
        // Reuse the scalar type's validation so both paths reject the
        // same geometries with the same messages.
        let _ = FoldedHistory::new(original_len, compressed_len);
        self.comps.push(0);
        self.clens.push(compressed_len as u32);
        self.masks.push(if compressed_len == 32 {
            u32::MAX
        } else {
            (1u32 << compressed_len) - 1
        });
        self.outpoints.push((original_len % compressed_len) as u32);
        self.wide_fold |= compressed_len == 32;
        let slot = match self.unique_lens.iter().position(|&l| l == original_len) {
            Some(slot) => slot,
            None => {
                self.unique_lens.push(original_len);
                self.evicted.push(0);
                self.unique_lens.len() - 1
            }
        };
        self.eviction_slot.push(slot as u32);
        self.evicted_out.push(0);
        self.comps.len() - 1
    }

    /// Pushes a branch outcome and its PC, updating the global history,
    /// every fold, and the path register.
    ///
    /// Runs once per conditional branch for every history-based
    /// predictor, updating *every* registered fold — 36 folds for a
    /// 12-table TAGE (one index and two tag folds per table), the
    /// hottest loop on the TAGE-SC-L profile. Three passes, each with
    /// mutually independent iterations: read the evicted bit of every
    /// *distinct* segment length (TAGE registers three folds per
    /// segment, so this cuts the global-buffer reads threefold), expand
    /// it per fold pre-shifted to the fold's XOR-out point with a plain
    /// scalar loop, then step all fold registers — eight per AVX2
    /// iteration (`vpsrlvd` for the heterogeneous fold widths, a
    /// straight `loadu` of the expanded eviction words) on hosts that
    /// have it, through the bit-identical scalar recurrence otherwise.
    /// The scalar expansion looks like extra work but removes a
    /// `vpgatherdd`/`vpsllvd` pair per SIMD block, and the gather was
    /// the slowest instruction on the inter-branch critical path.
    pub fn push(&mut self, taken: bool, pc: u64) {
        for (slot, &len) in self.unique_lens.iter().enumerate() {
            self.evicted[slot] = u32::from(self.global.bit(len - 1));
        }
        for ((out, &slot), &op) in self
            .evicted_out
            .iter_mut()
            .zip(&self.eviction_slot)
            .zip(&self.outpoints)
        {
            *out = self.evicted[slot as usize] << op;
        }
        self.fold_step(taken);
        self.global.push(taken);
        self.path.push(pc);
    }

    /// Advances every fold register by one inserted outcome, consuming
    /// the gathered per-segment evicted bits.
    fn fold_step(&mut self, taken: bool) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 && !self.wide_fold {
            // SAFETY: AVX2 support was verified at construction;
            // `wide_fold` guarantees every clen <= 31 so the u32 lane
            // arithmetic cannot overflow a lane; `evicted_out` has one
            // entry per fold by construction.
            unsafe {
                fold_step_avx2(
                    &mut self.comps,
                    &self.clens,
                    &self.masks,
                    &self.evicted_out,
                    taken,
                );
            }
            return;
        }
        self.fold_step_scalar(taken);
    }

    /// Scalar fold step: the [`FoldedHistory::update`] recurrence over
    /// the flat arrays, in u64 so 32-bit-wide folds stay exact.
    fn fold_step_scalar(&mut self, taken: bool) {
        for i in 0..self.comps.len() {
            let wide = (u64::from(self.comps[i]) << 1) | u64::from(taken);
            let comp = (wide ^ (wide >> self.clens[i])) as u32 & self.masks[i];
            self.comps[i] = comp ^ self.evicted_out[i];
        }
    }

    /// Pushes only path information (used for non-conditional branches,
    /// which shift the path but not the direction history).
    pub fn push_path_only(&mut self, pc: u64) {
        self.path.push(pc);
    }

    /// The current value of fold `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`HistoryState::add_fold`].
    #[inline]
    pub fn fold(&self, id: FoldId) -> u32 {
        self.comps[id]
    }

    /// The current values of every registered fold, indexed by
    /// [`FoldId`] — the batched twin of [`HistoryState::fold`] for hot
    /// index phases that read many folds per branch (a 12-table TAGE
    /// reads 36): one slice bound instead of a bounds check per call.
    #[inline]
    pub fn folds(&self) -> &[u32] {
        &self.comps
    }

    /// Direct access to the global history.
    pub fn global(&self) -> &GlobalHistory {
        &self.global
    }

    /// The packed path history.
    #[inline]
    pub fn path(&self) -> u64 {
        self.path.value()
    }

    /// Number of registered folds.
    pub fn fold_count(&self) -> usize {
        self.comps.len()
    }

    /// Erases every component of the bundle (a context-switch flush):
    /// the global buffer's bits, every fold register, and the path
    /// register all read back as after construction.
    ///
    /// Allocation-free — only existing buffers are zeroed — so scenario
    /// drive loops may flush in steady state. The global head pointer is
    /// deliberately kept (see [`GlobalHistory::flush`]): checkpoints
    /// taken before the flush remain restorable under the usual depth
    /// invariants, and restoring one reproduces the *flushed* view, the
    /// correct architectural outcome. The fold registers equal their
    /// naive recomputation over the (now all-zero) global buffer, which
    /// is 0 — the post-flush invariant the property tests pin.
    pub fn flush(&mut self) {
        self.global.flush();
        self.comps.fill(0);
        self.evicted.fill(0);
        self.evicted_out.fill(0);
        self.path.set_value(0);
    }

    /// Takes a checkpoint of the entire bundle.
    // bp-lint: allow-item(hot-path-alloc, "checkpoint capture is wrong-path recovery, off the per-branch predict/update path")
    pub fn checkpoint(&self) -> HistoryCheckpoint {
        HistoryCheckpoint {
            global: self.global.checkpoint(),
            folds: self.comps.clone(),
            path: self.path.value(),
        }
    }

    /// Restores a checkpoint taken earlier on this bundle.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not match this bundle's fold layout
    /// or violates [`GlobalHistory::restore`]'s conditions.
    pub fn restore(&mut self, cp: &HistoryCheckpoint) {
        assert_eq!(
            cp.folds.len(),
            self.comps.len(),
            "checkpoint fold layout mismatch"
        );
        self.global.restore(cp.global);
        for (i, &v) in cp.folds.iter().enumerate() {
            assert!(v <= self.masks[i], "value wider than fold");
            self.comps[i] = v;
        }
        self.path.set_value(cp.path);
    }
}

/// AVX2 fold step: eight folds per iteration, per-lane variable shifts
/// (`vpsrlvd`) for the heterogeneous fold widths, and a straight
/// `loadu` of the pre-expanded, pre-shifted eviction words (see
/// [`HistoryState::push`]), with a scalar tail. Exactly the
/// [`FoldedHistory::update`] recurrence in u32 — sound because the
/// caller guarantees every clen <= 31, so `wide` needs at most 32 bits.
///
/// # Safety
///
/// The caller must verify AVX2 support, that no fold is 32 bits wide,
/// and that `evicted_out` has at least `comps.len()` entries.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fold_step_avx2(
    comps: &mut [u32],
    clens: &[u32],
    masks: &[u32],
    evicted_out: &[u32],
    taken: bool,
) {
    use std::arch::x86_64::*;
    let n = comps.len();
    let ins = _mm256_set1_epi32(i32::from(taken));
    let mut i = 0;
    while i + 8 <= n {
        let c = _mm256_loadu_si256(comps.as_ptr().add(i).cast());
        let cl = _mm256_loadu_si256(clens.as_ptr().add(i).cast());
        let m = _mm256_loadu_si256(masks.as_ptr().add(i).cast());
        let out = _mm256_loadu_si256(evicted_out.as_ptr().add(i).cast());
        let wide = _mm256_or_si256(_mm256_slli_epi32::<1>(c), ins);
        let comp = _mm256_and_si256(_mm256_xor_si256(wide, _mm256_srlv_epi32(wide, cl)), m);
        _mm256_storeu_si256(
            comps.as_mut_ptr().add(i).cast(),
            _mm256_xor_si256(comp, out),
        );
        i += 8;
    }
    while i < n {
        let wide = (comps[i] << 1) | u32::from(taken);
        comps[i] = ((wide ^ (wide >> clens[i])) & masks[i]) ^ evicted_out[i];
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drive(hs: &mut HistoryState, stream: &[(bool, u64)]) {
        for &(taken, pc) in stream {
            hs.push(taken, pc);
        }
    }

    #[test]
    fn folds_track_global_history() {
        let mut hs = HistoryState::new(256, 16);
        let f = hs.add_fold(8, 8);
        for taken in [true, false, true, true] {
            hs.push(taken, 0x40);
        }
        // With olen == clen the fold equals the plain history bits.
        assert_eq!(hs.fold(f) as u64, hs.global().low_bits(8));
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let mut hs = HistoryState::new(256, 20);
        let f1 = hs.add_fold(60, 11);
        let f2 = hs.add_fold(13, 7);
        drive(
            &mut hs,
            &[(true, 0x10), (false, 0x20), (true, 0x32), (true, 0x44)],
        );
        let cp = hs.checkpoint();
        let (v1, v2, p) = (hs.fold(f1), hs.fold(f2), hs.path());
        drive(&mut hs, &[(false, 0x66), (false, 0x68), (true, 0x6a)]);
        hs.restore(&cp);
        assert_eq!(hs.fold(f1), v1);
        assert_eq!(hs.fold(f2), v2);
        assert_eq!(hs.path(), p);
        assert_eq!(hs.fold_count(), 2);
    }

    #[test]
    fn checkpoint_cost_accounts_all_parts() {
        let mut hs = HistoryState::new(2048, 27);
        hs.add_fold(100, 12);
        hs.add_fold(100, 10);
        let cp = hs.checkpoint();
        // 11 (head) + 12 + 10 + 27 (path)
        assert_eq!(cp.cost_bits(&hs), 11 + 12 + 10 + 27);
    }

    #[test]
    #[should_panic(expected = "shorter than the global capacity")]
    fn rejects_fold_longer_than_buffer() {
        let mut hs = HistoryState::new(64, 8);
        hs.add_fold(64, 8);
    }

    #[test]
    #[should_panic(expected = "compressed length")]
    fn rejects_oversized_fold_width() {
        let mut hs = HistoryState::new(64, 8);
        hs.add_fold(32, 33);
    }

    #[test]
    fn full_width_folds_use_the_u64_scalar_path() {
        // clen == 32 disables the u32 SIMD kernel; the u64 scalar loop
        // must still match the reference fold exactly.
        let mut hs = HistoryState::new(256, 16);
        let f = hs.add_fold(64, 32);
        let stream: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        for &taken in &stream {
            hs.push(taken, 0x40);
        }
        let global = hs.global().clone();
        let naive = FoldedHistory::new(64, 32).fold_naive(|age| global.bit(age));
        assert_eq!(hs.fold(f), naive);
    }

    #[test]
    fn path_only_pushes_do_not_touch_direction() {
        let mut hs = HistoryState::new(64, 8);
        let f = hs.add_fold(4, 4);
        hs.push(true, 0x2);
        let fold_before = hs.fold(f);
        let path_before = hs.path();
        hs.push_path_only(0x2);
        assert_eq!(hs.fold(f), fold_before);
        assert_ne!(hs.path(), path_before);
    }

    #[test]
    fn flush_resets_folds_path_and_global_bits() {
        let mut hs = HistoryState::new(256, 16);
        let f1 = hs.add_fold(60, 11);
        let f2 = hs.add_fold(13, 7);
        drive(
            &mut hs,
            &[(true, 0x10), (false, 0x20), (true, 0x32), (true, 0x44)],
        );
        let pushes = hs.global().pushes();
        hs.flush();
        assert_eq!(hs.fold(f1), 0);
        assert_eq!(hs.fold(f2), 0);
        assert_eq!(hs.path(), 0);
        assert_eq!(hs.global().low_bits(64), 0);
        assert_eq!(hs.global().pushes(), pushes, "flush keeps the head");
    }

    #[test]
    fn flush_at_exact_capacity_boundary_keeps_folds_consistent() {
        // The PR 2 off-by-one class: exercise flushes landing exactly on
        // multiples of the global capacity, where the circular buffer
        // wraps onto slot 0, and check the folds still equal their naive
        // recomputation afterwards.
        let capacity = 64;
        let mut hs = HistoryState::new(capacity, 16);
        let f = hs.add_fold(31, 9);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for round in 1..=3 {
            for _ in 0..capacity {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                hs.push(x & 1 == 1, x >> 8);
            }
            // Each round pushes `capacity` here plus `capacity` in the
            // re-align below, so the boundary lands at an odd multiple.
            assert_eq!(hs.global().pushes(), ((2 * round - 1) * capacity) as u64);
            hs.flush();
            assert_eq!(hs.fold(f), 0, "round {round}");
            // Post-flush pushes must keep matching the from-scratch
            // reference over the flushed buffer.
            for _ in 0..17 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                hs.push(x & 1 == 1, x >> 8);
            }
            let global = hs.global().clone();
            let naive = FoldedHistory::new(31, 9).fold_naive(|age| global.bit(age));
            assert_eq!(hs.fold(f), naive, "round {round}");
            // Re-align to the capacity boundary for the next round.
            for _ in 0..(capacity - 17) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                hs.push(x & 1 == 1, x >> 8);
            }
        }
    }

    #[test]
    fn pre_flush_checkpoint_restores_to_flushed_view() {
        let mut hs = HistoryState::new(256, 16);
        let f = hs.add_fold(31, 9);
        drive(&mut hs, &[(true, 0x10), (true, 0x20), (false, 0x30)]);
        let cp = hs.checkpoint();
        drive(&mut hs, &[(false, 0x40), (true, 0x50)]);
        hs.flush();
        hs.restore(&cp);
        // The head rewinds but the destroyed bits stay destroyed; the
        // fold registers come back from the checkpoint by definition.
        assert_eq!(hs.global().low_bits(31), 0);
        assert_ne!(hs.fold(f), 0);
    }

    proptest! {
        /// After any stream, every fold equals its from-scratch naive
        /// recomputation over the global buffer.
        #[test]
        fn folds_always_match_naive(
            stream in proptest::collection::vec((any::<bool>(), 0u64..1024), 1..200),
            olen in 1usize..60,
            clen in 1usize..14,
        ) {
            let mut hs = HistoryState::new(256, 16);
            let f = hs.add_fold(olen, clen);
            for &(taken, pc) in &stream {
                hs.push(taken, pc);
            }
            let global = hs.global().clone();
            let naive = FoldedHistory::new(olen, clen)
                .fold_naive(|age| global.bit(age));
            prop_assert_eq!(hs.fold(f), naive);
        }

        /// A TAGE-shaped fold population (three folds per segment, many
        /// segments — enough to exercise full SIMD blocks and the tail)
        /// matches the scalar [`FoldedHistory`] replay fold-for-fold.
        #[test]
        fn bulk_folds_match_scalar_registers(
            stream in proptest::collection::vec((any::<bool>(), 0u64..1024), 1..150),
            lens in proptest::collection::vec((1usize..100, 1usize..14), 1..14),
        ) {
            let mut hs = HistoryState::new(256, 16);
            let mut scalar = Vec::new();
            let mut ids = Vec::new();
            for &(olen, clen) in &lens {
                // Three same-segment folds, like TAGE's index + two tag
                // folds (widths differ where possible).
                for w in [clen, clen.max(2) - 1, clen] {
                    ids.push(hs.add_fold(olen, w));
                    scalar.push(FoldedHistory::new(olen, w));
                }
            }
            let mut global = crate::GlobalHistory::new(256);
            for &(taken, pc) in &stream {
                for f in scalar.iter_mut() {
                    f.update(taken, global.bit(f.original_len() - 1));
                }
                global.push(taken);
                hs.push(taken, pc);
            }
            for (id, f) in ids.iter().zip(&scalar) {
                prop_assert_eq!(hs.fold(*id), f.value());
            }
        }

        /// Flushing at an arbitrary point and continuing keeps every
        /// fold equal to its from-scratch recomputation over the
        /// (flushed) global buffer — the incremental recurrence and the
        /// zeroed buffer stay mutually consistent.
        #[test]
        fn folds_match_naive_across_flush(
            pre in proptest::collection::vec((any::<bool>(), 0u64..1024), 0..300),
            post in proptest::collection::vec((any::<bool>(), 0u64..1024), 0..100),
            olen in 1usize..60,
            clen in 1usize..14,
        ) {
            let mut hs = HistoryState::new(256, 16);
            let f = hs.add_fold(olen, clen);
            for &(t, pc) in &pre {
                hs.push(t, pc);
            }
            hs.flush();
            for &(t, pc) in &post {
                hs.push(t, pc);
            }
            let global = hs.global().clone();
            let naive = FoldedHistory::new(olen, clen)
                .fold_naive(|age| global.bit(age));
            prop_assert_eq!(hs.fold(f), naive);
        }

        /// Restoring a checkpoint after arbitrary wrong-path pushes
        /// reproduces the pre-speculation state exactly.
        #[test]
        fn speculation_repair_is_exact(
            good in proptest::collection::vec((any::<bool>(), 0u64..1024), 1..100),
            wrong in proptest::collection::vec((any::<bool>(), 0u64..1024), 1..100),
        ) {
            let mut hs = HistoryState::new(256, 16);
            let f = hs.add_fold(31, 9);
            for &(t, pc) in &good {
                hs.push(t, pc);
            }
            let cp = hs.checkpoint();
            let snapshot = (hs.fold(f), hs.path(), hs.global().low_bits(31));
            for &(t, pc) in &wrong {
                hs.push(t, pc);
            }
            hs.restore(&cp);
            prop_assert_eq!(snapshot, (hs.fold(f), hs.path(), hs.global().low_bits(31)));
        }
    }
}
