//! `GShare` against a readable reference built on `GlobalHistory`.
//!
//! `GShare` keeps its global history as a plain newest-first `u64`
//! shift register. The reference below is the textbook form instead:
//! a `GlobalHistory` ring read through `low_bits`, with the index
//! `(pc_bits(pc) ^ history) & mask` spelled out. Over a generated
//! benchmark with a context-switch flush mid-run, every prediction
//! and the final statistics must agree at every history length the
//! register handles differently: none, one bit, a typical length, and
//! the two widest.

use imli_repro::components::{
    pc_bits, ConditionalPredictor, GShare, PredictorStats, SaturatingCounter,
};
use imli_repro::history::GlobalHistory;
use imli_repro::sim::drive_block;
use imli_repro::trace::BranchRecord;
use imli_repro::workloads::find_benchmark;

const LOG_ENTRIES: usize = 14;

/// Gshare spelled out over the ring-buffer history.
struct ReferenceGShare {
    counters: Vec<SaturatingCounter>,
    history: GlobalHistory,
    history_bits: usize,
}

impl ReferenceGShare {
    fn new(history_bits: usize) -> Self {
        ReferenceGShare {
            counters: vec![SaturatingCounter::new(2); 1 << LOG_ENTRIES],
            history: GlobalHistory::new(1024),
            history_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << LOG_ENTRIES) - 1;
        ((pc_bits(pc) ^ self.history.low_bits(self.history_bits)) & mask) as usize
    }

    fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)].is_taken()
    }

    fn update(&mut self, record: &BranchRecord) {
        let idx = self.index(record.pc);
        self.counters[idx].train(record.taken);
        self.history.push(record.taken);
    }
}

#[test]
fn gshare_register_matches_ring_reference_across_a_flush() {
    let spec = find_benchmark("SPEC2K6-04").expect("catalogue benchmark");
    let records: Vec<BranchRecord> = spec.stream(300_000).collect();
    let (before, after) = records.split_at(records.len() / 2);
    for history_bits in [0usize, 1, 12, 63, 64] {
        let mut reference = ReferenceGShare::new(history_bits);
        let mut stepped = GShare::new(LOG_ENTRIES, history_bits);
        let mut driven = GShare::new(LOG_ENTRIES, history_bits);
        let mut reference_stats = PredictorStats::default();
        let mut driven_stats = PredictorStats::default();
        for (half, window) in [before, after].into_iter().enumerate() {
            if half == 1 {
                reference.history.flush();
                stepped.flush_history();
                driven.flush_history();
            }
            for (i, record) in window.iter().enumerate() {
                if !record.is_conditional() {
                    continue;
                }
                let want = reference.predict(record.pc);
                assert_eq!(
                    stepped.predict(record.pc),
                    want,
                    "history_bits {history_bits}: prediction {i} of half {half} diverged"
                );
                reference_stats.record(want == record.taken);
                reference.update(record);
                stepped.update(record);
            }
            // The same records through the drive loop the simulator runs.
            drive_block(&mut driven, window, &mut driven_stats);
        }
        assert!(
            reference_stats.predicted > 20_000,
            "the run exercised gshare"
        );
        assert_eq!(
            driven_stats, reference_stats,
            "history_bits {history_bits}: final stats diverged"
        );
    }
}
