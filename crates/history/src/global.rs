//! Global direction history with pointer-based speculation repair.

use std::fmt;

/// Checkpoint of a [`GlobalHistory`]: just the speculative head pointer.
///
/// This is the paper's point (§2.3.1): repairing speculative *global*
/// history after a misprediction only requires restoring a small pointer,
/// unlike local history which needs an associative search over the window
/// of in-flight branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalHistoryCheckpoint {
    head: u64,
}

impl GlobalHistoryCheckpoint {
    /// Width in bits of the state that a hardware implementation would
    /// store in a checkpoint for a history buffer of capacity `capacity`.
    pub fn cost_bits(capacity: usize) -> u32 {
        usize::BITS - (capacity.max(2) - 1).leading_zeros()
    }
}

/// Global branch direction history.
///
/// Outcomes are pushed most-recent-first into a circular bit buffer whose
/// head is a monotonically increasing counter. Reading bit `i` returns the
/// direction of the branch `i` occurrences ago (0 = most recent).
///
/// Wrong-path pushes write *ahead* of any committed data, so restoring a
/// checkpoint is just rewinding the head pointer: the bits behind it were
/// never clobbered (as long as the wrong path is shorter than the buffer,
/// which holds by construction for any realistic in-flight window).
///
/// Beside the ring, every `push` shifts the outcome into a newest-first
/// `u64` register of the 64 most recent outcomes, so
/// [`low_bits`](Self::low_bits) is one mask. Only `restore` rebuilds the
/// register, from the ring.
///
/// ```
/// use bp_history::GlobalHistory;
/// let mut h = GlobalHistory::new(256);
/// h.push(true);
/// h.push(false);
/// assert!(!h.bit(0)); // most recent outcome
/// assert!(h.bit(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalHistory {
    words: Vec<u64>,
    mask: u64,
    head: u64,
    /// The 64 most recent outcomes, newest in bit 0: always equal to
    /// the ring's 64-bit window at `head`.
    recent: u64,
}

impl GlobalHistory {
    /// Creates a history buffer with capacity for `capacity` outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or is smaller than 64.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity >= 64,
            "capacity must be a power of two >= 64, got {capacity}"
        );
        GlobalHistory {
            words: vec![0; capacity / 64],
            mask: capacity as u64 - 1,
            head: 0,
            recent: 0,
        }
    }

    /// Capacity in outcomes.
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Number of outcomes pushed so far (monotonic, never wraps in
    /// practice: 2^64 branches is centuries of execution).
    pub fn pushes(&self) -> u64 {
        self.head
    }

    /// Appends the outcome of the most recent branch.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        let slot = self.head & self.mask;
        let word = (slot / 64) as usize;
        let bit = slot % 64;
        if taken {
            self.words[word] |= 1 << bit;
        } else {
            self.words[word] &= !(1 << bit);
        }
        self.head += 1;
        self.recent = (self.recent << 1) | u64::from(taken);
    }

    /// Returns the direction of the branch `age` occurrences ago
    /// (0 = most recent). Branches older than the capacity — or earlier
    /// than the first push — read as not-taken.
    #[inline]
    pub fn bit(&self, age: usize) -> bool {
        if age as u64 >= self.head || age >= self.capacity() {
            return false;
        }
        let slot = (self.head - 1 - age as u64) & self.mask;
        let word = (slot / 64) as usize;
        (self.words[word] >> (slot % 64)) & 1 == 1
    }

    /// Packs the `n` most recent outcomes into the low bits of a `u64`
    /// (bit 0 = most recent). `n` must be at most 64.
    ///
    /// A mask of the register `push` maintains: this runs once per
    /// prediction in every neural-summation host (GEHL, the
    /// perceptron, the TAGE statistical corrector path).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn low_bits(&self, n: usize) -> u64 {
        assert!(n <= 64, "low_bits supports at most 64 bits, got {n}");
        if n == 64 {
            self.recent
        } else {
            self.recent & ((1u64 << n) - 1)
        }
    }

    /// The 64 most recent outcomes gathered from the ring, newest in
    /// bit 0: what `recent` holds, recomputed after a restore.
    fn gather_recent(&self) -> u64 {
        // Bits older than the first push read as not-taken.
        let avail = self.head.min(64) as u32;
        if avail == 0 {
            return 0;
        }
        // Gather `raw`, the window [head - avail, head) packed oldest
        // in bit 0. The capacity is a power of two and a multiple of
        // 64, so circular wrap always lands on a word boundary and a
        // <= 64-bit window spans at most two words.
        let start = (self.head - u64::from(avail)) & self.mask;
        let word = (start / 64) as usize;
        let off = (start % 64) as u32;
        let mut raw = self.words[word] >> off;
        if off != 0 {
            raw |= self.words[(word + 1) % self.words.len()] << (64 - off);
        }
        if avail < 64 {
            raw &= (1u64 << avail) - 1;
        }
        // Newest-in-bit-0 means reversing the window: pad the missing
        // old bits as zeros at the top, then reverse.
        (raw << (64 - avail)).reverse_bits()
    }

    /// Erases every recorded outcome (a context-switch flush): all bits
    /// read back as not-taken, exactly as after construction.
    ///
    /// The monotonic head pointer is deliberately **kept**: checkpoints
    /// taken before the flush stay restorable under the same
    /// future/depth invariants as [`restore`](Self::restore), and
    /// checkpoints taken after it can never alias pre-flush ones. Only
    /// the buffer contents are cleared — post-restore reads then see
    /// the flushed (all-zero) bits, which is the correct architectural
    /// outcome: a flush destroys history, repair cannot resurrect it.
    pub fn flush(&mut self) {
        self.words.fill(0);
        self.recent = 0;
    }

    /// Takes a checkpoint: the current speculative head pointer.
    #[inline]
    pub fn checkpoint(&self) -> GlobalHistoryCheckpoint {
        GlobalHistoryCheckpoint { head: self.head }
    }

    /// Rewinds to a previous checkpoint, discarding wrong-path outcomes.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is in the future, or if more outcomes than
    /// the buffer capacity were pushed since the checkpoint (the bits would
    /// have been physically overwritten — a real pipeline can never be that
    /// deep relative to its history buffer).
    pub fn restore(&mut self, cp: GlobalHistoryCheckpoint) {
        assert!(cp.head <= self.head, "checkpoint is in the future");
        // Strictly less than capacity: the `capacity`-th wrong-path push
        // wraps onto slot `(head - 1) & mask` and silently clobbers the
        // most recent *committed* bit, so `== capacity` is already too
        // deep to repair.
        assert!(
            self.head - cp.head < self.capacity() as u64,
            "wrong path longer than history capacity"
        );
        self.head = cp.head;
        self.recent = self.gather_recent();
    }
}

impl fmt::Display for GlobalHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ghist[{} pushes, cap {}]", self.head, self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = GlobalHistory::new(100);
    }

    #[test]
    fn most_recent_first_ordering() {
        let mut h = GlobalHistory::new(64);
        for taken in [true, true, false, true] {
            h.push(taken);
        }
        assert!(h.bit(0));
        assert!(!h.bit(1));
        assert!(h.bit(2));
        assert!(h.bit(3));
        assert!(!h.bit(4), "pre-history reads as not-taken");
    }

    #[test]
    fn low_bits_packs_msb_oldest() {
        let mut h = GlobalHistory::new(64);
        h.push(true); // age 2
        h.push(false); // age 1
        h.push(true); // age 0
        assert_eq!(h.low_bits(3), 0b101);
        assert_eq!(h.low_bits(0), 0);
    }

    #[test]
    fn low_bits_matches_per_bit_reference() {
        // The register must agree with the per-bit definition for
        // every capacity/fill/width combination, including
        // pre-history zeros and wrapped buffers.
        for capacity in [64usize, 128, 1024] {
            let mut h = GlobalHistory::new(capacity);
            let mut x = 0x1234_5678_9ABC_DEFFu64;
            for push in 0..(2 * capacity + 7) {
                for n in [0usize, 1, 3, 31, 32, 33, 63, 64] {
                    assert_eq!(
                        h.low_bits(n),
                        per_bit_low_bits(&h, n),
                        "capacity {capacity}, {push} pushes, n {n}"
                    );
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.push(x & 1 == 1);
            }
        }
    }

    #[test]
    fn wraps_and_forgets_old_bits() {
        let mut h = GlobalHistory::new(64);
        for _ in 0..64 {
            h.push(true);
        }
        for _ in 0..64 {
            h.push(false);
        }
        assert!(!h.bit(0));
        assert!(!h.bit(63));
        // Older than capacity: unreadable, defined as false.
        assert!(!h.bit(64));
    }

    #[test]
    fn checkpoint_restore_rewinds_speculation() {
        let mut h = GlobalHistory::new(128);
        for i in 0..20 {
            h.push(i % 3 == 0);
        }
        let before: Vec<bool> = (0..20).map(|i| h.bit(i)).collect();
        let cp = h.checkpoint();
        for _ in 0..40 {
            h.push(true); // wrong path
        }
        h.restore(cp);
        let after: Vec<bool> = (0..20).map(|i| h.bit(i)).collect();
        assert_eq!(before, after);
        assert_eq!(h.pushes(), 20);
    }

    #[test]
    fn most_recent_committed_bit_survives_capacity_minus_one_wrong_path() {
        // Regression: restore accepted a wrong path of *exactly*
        // `capacity` pushes, whose last push wraps onto the slot of the
        // most recent committed outcome. At `capacity - 1` pushes that
        // bit must still be intact after repair.
        let mut h = GlobalHistory::new(64);
        for _ in 0..63 {
            h.push(false);
        }
        h.push(true); // the most recent committed bit
        let cp = h.checkpoint();
        for _ in 0..63 {
            h.push(false); // wrong path, one short of capacity
        }
        h.restore(cp);
        assert!(h.bit(0), "most recent committed bit was clobbered");
        assert_eq!(h.pushes(), 64);
    }

    #[test]
    #[should_panic(expected = "wrong path longer")]
    fn restore_rejects_wrong_path_of_exactly_capacity() {
        let mut h = GlobalHistory::new(64);
        h.push(true);
        let cp = h.checkpoint();
        for _ in 0..64 {
            h.push(false);
        }
        h.restore(cp);
    }

    #[test]
    #[should_panic(expected = "future")]
    fn restore_rejects_future_checkpoint() {
        let mut h = GlobalHistory::new(64);
        h.push(true);
        let cp = h.checkpoint();
        let mut h2 = GlobalHistory::new(64);
        h2.restore(cp);
    }

    #[test]
    fn flush_zeroes_bits_but_keeps_head() {
        let mut h = GlobalHistory::new(64);
        for _ in 0..20 {
            h.push(true);
        }
        h.flush();
        assert_eq!(h.pushes(), 20, "flush must not rewind the head");
        for age in 0..64 {
            assert!(!h.bit(age), "bit {age} survived the flush");
        }
        assert_eq!(h.low_bits(64), 0);
        // Post-flush pushes behave normally.
        h.push(true);
        assert!(h.bit(0));
        assert!(!h.bit(1));
    }

    #[test]
    fn pre_flush_checkpoint_stays_restorable() {
        // A checkpoint taken before a flush obeys the same restore
        // invariants; the restored view sees the flushed (zero) bits.
        let mut h = GlobalHistory::new(64);
        for _ in 0..10 {
            h.push(true);
        }
        let cp = h.checkpoint();
        for _ in 0..30 {
            h.push(true);
        }
        h.flush();
        h.restore(cp);
        assert_eq!(h.pushes(), 10);
        assert!(
            !h.bit(0),
            "flush destroys history; repair cannot resurrect it"
        );
    }

    #[test]
    #[should_panic(expected = "wrong path longer")]
    fn flush_does_not_relax_restore_depth_invariant() {
        // Flushing at an exact capacity boundary must not make a
        // too-deep restore legal: the head is monotonic across flushes.
        let mut h = GlobalHistory::new(64);
        h.push(true);
        let cp = h.checkpoint();
        for _ in 0..32 {
            h.push(false);
        }
        h.flush();
        for _ in 0..32 {
            h.push(false);
        }
        h.restore(cp); // 64 == capacity pushes since cp: still rejected
    }

    #[test]
    fn checkpoint_cost_is_logarithmic() {
        assert_eq!(GlobalHistoryCheckpoint::cost_bits(2048), 11);
        assert_eq!(GlobalHistoryCheckpoint::cost_bits(64), 6);
    }

    #[test]
    fn display_is_informative() {
        let h = GlobalHistory::new(64);
        assert!(format!("{h}").contains("cap 64"));
    }

    /// `low_bits(n)` assembled bit by bit from `bit(age)`.
    fn per_bit_low_bits(h: &GlobalHistory, n: usize) -> u64 {
        (0..n)
            .rev()
            .fold(0, |acc, age| (acc << 1) | u64::from(h.bit(age)))
    }

    use proptest::prelude::*;

    proptest! {
        /// Over any mix of pushes, flushes, checkpoints and restores,
        /// the register behind `low_bits` agrees with the ring read bit
        /// by bit, for every width, before 64 pushes and after a flush
        /// included. Op codes: 0..=5 push one outcome, 6 pushes a burst
        /// of 300 (wrapping both rings), 7 flushes, 8 checkpoints,
        /// 9..=10 restore the newest checkpoint the ring can still
        /// repair.
        #[test]
        fn low_bits_register_matches_ring(
            ops in proptest::collection::vec((0u8..11, any::<u64>()), 0..300),
        ) {
            for capacity in [64usize, 1024] {
                let mut h = GlobalHistory::new(capacity);
                let mut checkpoints: Vec<(GlobalHistoryCheckpoint, u64)> = Vec::new();
                for &(op, payload) in &ops {
                    match op {
                        0..=5 => h.push(payload & 1 == 1),
                        6 => {
                            let mut x = payload | 1;
                            for _ in 0..300 {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                h.push(x & 1 == 1);
                            }
                        }
                        7 => h.flush(),
                        8 => checkpoints.push((h.checkpoint(), h.pushes())),
                        _ => {
                            while let Some((cp, at)) = checkpoints.pop() {
                                if h.pushes() - at < capacity as u64 {
                                    h.restore(cp);
                                    break;
                                }
                            }
                        }
                    }
                    for n in 0..=64 {
                        prop_assert_eq!(h.low_bits(n), per_bit_low_bits(&h, n));
                    }
                }
            }
        }
    }
}
