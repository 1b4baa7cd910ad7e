//! GShare: the classic global-history XOR-indexed predictor.

use crate::attribution::{ConfidenceBucket, PredictionAttribution, ProviderComponent};
use crate::budget::{StorageBudget, StorageItem};
use crate::counter::SaturatingCounter;
use crate::hash::pc_bits;
use crate::predictor::ConditionalPredictor;
use bp_trace::BranchRecord;

/// GShare (McFarling 1993): a single table of 2-bit counters indexed by
/// `PC ⊕ global history`. Included as a calibration baseline — any
/// benchmark where TAGE fails to beat GShare decisively indicates a
/// degenerate workload.
///
/// ```
/// use bp_components::{ConditionalPredictor, GShare};
/// let mut p = GShare::new(14, 12);
/// assert!(p.predict(0x400)); // optimistic reset state
/// ```
#[derive(Debug, Clone)]
pub struct GShare {
    counters: Vec<SaturatingCounter>,
    /// Global history register, newest outcome in bit 0. At most 64
    /// bits are ever read and `update` pushes in commit order, so a
    /// plain shift register suffices: no ring, no checkpoint.
    history: u64,
    /// Selects the `history_len` newest bits of `history`.
    history_mask: u64,
    history_len: usize,
    mask: u64,
    name: String,
}

impl GShare {
    /// Creates a GShare with `2^log_entries` counters and
    /// `history_len` history bits.
    ///
    /// # Panics
    ///
    /// Panics if `log_entries` is 0 or greater than 28, or if
    /// `history_len` is greater than 64.
    pub fn new(log_entries: usize, history_len: usize) -> Self {
        assert!((1..=28).contains(&log_entries), "log_entries out of range");
        assert!(history_len <= 64, "history_len must be at most 64");
        let entries = 1usize << log_entries;
        GShare {
            counters: vec![SaturatingCounter::new(2); entries],
            history: 0,
            history_mask: crate::frontend::low_mask(history_len),
            history_len,
            mask: entries as u64 - 1,
            name: format!("gshare-{log_entries}x{history_len}"),
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc_bits(pc) ^ (self.history & self.history_mask)) & self.mask) as usize
    }
}

impl ConditionalPredictor for GShare {
    fn predict(&mut self, pc: u64) -> bool {
        self.counters[self.index(pc)].is_taken()
    }

    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        let c = self.counters[self.index(pc)];
        (
            c.is_taken(),
            PredictionAttribution::new(
                ProviderComponent::Base,
                None,
                ConfidenceBucket::from_counter(c.confidence(), c.max() as u8),
            ),
        )
    }

    fn update(&mut self, record: &BranchRecord) {
        let idx = self.index(record.pc);
        self.counters[idx].train(record.taken);
        self.history = (self.history << 1) | u64::from(record.taken);
    }

    fn flush_history(&mut self) {
        self.history = 0;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl StorageBudget for GShare {
    fn storage_items(&self) -> Vec<StorageItem> {
        vec![
            StorageItem::new("gshare-table", self.counters.len() as u64 * 2),
            StorageItem::new("gshare-history", self.history_len as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_history_correlated_branch() {
        // Branch outcome == outcome of previous branch: gshare separates
        // the two history contexts and learns both.
        let mut p = GShare::new(10, 8);
        let pc = 0x4040;
        let mut last = true;
        let mut correct = 0;
        let total = 2000;
        for i in 0..total {
            let taken = last;
            let pred = p.predict(pc);
            if pred == taken {
                correct += 1;
            }
            p.update(&BranchRecord::conditional(pc, 0x4000, taken));
            last = i % 7 < 3;
        }
        assert!(
            correct > total * 8 / 10,
            "gshare should track history correlation, got {correct}/{total}"
        );
    }

    #[test]
    fn storage_and_name() {
        let p = GShare::new(12, 16);
        assert_eq!(p.storage_bits(), (1 << 12) * 2 + 16);
        assert_eq!(p.name(), "gshare-12x16");
    }

    #[test]
    #[should_panic(expected = "log_entries")]
    fn rejects_zero_entries() {
        let _ = GShare::new(0, 4);
    }
}
