//! Single-benchmark simulation.

use crate::shared::{commit_plain, ColumnDrive};
use bp_components::{ConditionalPredictor, PredictorStats};
use bp_trace::{BranchStream, Trace};
use std::fmt;

/// The result of simulating one predictor over one benchmark trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Predictor configuration name.
    pub predictor: String,
    /// Retired instructions in the trace.
    pub instructions: u64,
    /// Dynamic branch records consumed from the stream (all kinds, not
    /// just conditionals) — the denominator of records/sec throughput.
    pub records: u64,
    /// Prediction counts.
    pub stats: PredictorStats,
}

impl SimResult {
    /// MPKI of this run.
    pub fn mpki(&self) -> f64 {
        Mpki::of(self).value()
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {:.3} MPKI ({} mispredictions / {} instructions)",
            self.predictor,
            self.benchmark,
            self.mpki(),
            self.stats.mispredicted,
            self.instructions
        )
    }
}

/// Mispredictions Per Kilo Instructions — the paper's accuracy metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mpki(f64);

impl Mpki {
    /// Computes the MPKI of a simulation result.
    ///
    /// ```
    /// use bp_sim::{Mpki, SimResult};
    /// use bp_components::PredictorStats;
    /// let mut stats = PredictorStats::default();
    /// for i in 0..100 { stats.record(i % 10 != 0); }
    /// let r = SimResult {
    ///     benchmark: "b".into(),
    ///     predictor: "p".into(),
    ///     instructions: 5_000,
    ///     records: 100,
    ///     stats,
    /// };
    /// assert_eq!(Mpki::of(&r).value(), 2.0);
    /// ```
    pub fn of(result: &SimResult) -> Mpki {
        Mpki::from_counts(result.stats.mispredicted, result.instructions)
    }

    /// MPKI from raw counts.
    pub fn from_counts(mispredictions: u64, instructions: u64) -> Mpki {
        if instructions == 0 {
            return Mpki(0.0);
        }
        Mpki(mispredictions as f64 * 1000.0 / instructions as f64)
    }

    /// The numeric value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl fmt::Display for Mpki {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

/// Simulates `predictor` over `trace` with the CBP protocol: predict and
/// update every conditional branch, notify non-conditional branches.
///
/// The predictor is *not* reset — callers wanting cold-start behaviour
/// construct a fresh predictor per trace (as [`crate::run_suite`] does).
///
/// Drives the materialized record slice directly through
/// [`drive_block`] — the same CBP protocol and one-record lookahead as
/// [`simulate_stream`], minus the per-record stream-cursor overhead,
/// and bit-identical to it on the equivalent stream (the lookahead
/// peek is `block[i + 1]` either way).
// bp-lint: allow-item(hot-path-alloc, "per-run setup and result assembly, once per benchmark; the per-branch loop is drive_block, which is allocation-free (tests/hotpath_allocations.rs)")
pub fn simulate<P: ConditionalPredictor + ?Sized>(predictor: &mut P, trace: &Trace) -> SimResult {
    let records = trace.records();
    let mut stats = PredictorStats::default();
    drive_block(predictor, records, &mut stats);
    SimResult {
        benchmark: trace.name().to_owned(),
        predictor: predictor.name().to_owned(),
        instructions: records
            .iter()
            .map(bp_trace::BranchRecord::instructions)
            .sum(),
        records: records.len() as u64,
        stats,
    }
}

/// Simulates `predictor` over any [`BranchStream`] with the CBP
/// protocol, consuming the stream record-by-record.
///
/// This is the simulator's native entry point: paired with a streaming
/// producer (`bp_workloads::stream_benchmark`, `bp_trace::TraceReader`)
/// it runs a benchmark of any length in O(`MULTI_BLOCK_RECORDS`)
/// memory — the stream is pulled in blocks so the predictor's
/// monomorphized block drive gets whole-record slices. Produces
/// bit-identical [`SimResult`]s to [`simulate`] on the materialized
/// equivalent of the same stream: the only cross-block difference is
/// prefetch-hint timing, and [`ConditionalPredictor::prefetch`] is
/// architecturally a no-op.
// bp-lint: allow-item(hot-path-alloc, "per-run setup, block buffer, and result assembly, once per benchmark; the per-branch loop is drive_block, which is allocation-free (tests/hotpath_allocations.rs)")
pub fn simulate_stream<P, S>(predictor: &mut P, mut stream: S) -> SimResult
where
    P: ConditionalPredictor + ?Sized,
    S: BranchStream,
{
    let benchmark = stream.name().to_owned();
    let mut stats = PredictorStats::default();
    let mut instructions = 0u64;
    let mut records = 0u64;
    let mut block = Vec::with_capacity(MULTI_BLOCK_RECORDS);
    loop {
        fill_multi_block(&mut stream, &mut block, &mut instructions, &mut records);
        if block.is_empty() {
            break;
        }
        drive_block(predictor, &block, &mut stats);
        if block.len() < MULTI_BLOCK_RECORDS {
            break;
        }
    }
    SimResult {
        benchmark,
        predictor: predictor.name().to_owned(),
        instructions,
        records,
        stats,
    }
}

/// Records per fused block: large enough to amortize the per-block
/// predictor sweep, small enough (≈ 96 KiB of records) that the block
/// plus one predictor's tables stay cache-resident.
pub(crate) const MULTI_BLOCK_RECORDS: usize = 4096;

/// Refills `block` (cleared first) with up to [`MULTI_BLOCK_RECORDS`]
/// records from `stream`, accumulating the running instruction/record
/// totals. Shared by both fused sweeps (plain and attributed) so the
/// block protocol — fill size, counting, and the
/// empty/short-block termination the callers key off — cannot drift
/// between them.
pub(crate) fn fill_multi_block<S: BranchStream>(
    stream: &mut S,
    block: &mut Vec<bp_trace::BranchRecord>,
    instructions: &mut u64,
    records: &mut u64,
) {
    block.clear();
    while block.len() < MULTI_BLOCK_RECORDS {
        match stream.next_record() {
            Some(record) => {
                *instructions += record.instructions();
                *records += 1;
                block.push(record);
            }
            None => break,
        }
    }
}

/// Drives one predictor through one block of records with the CBP
/// protocol, including the one-record lookahead prefetch hint for
/// predictors that opt in (see [`simulate_stream`]). Shared by the
/// fused sweep and the hot-path allocation tests so the steady-state
/// loop they exercise is the one that actually runs.
///
/// Delegates to [`ConditionalPredictor::run_block`]: the loop lives as
/// a provided trait method so every concrete predictor carries a
/// monomorphized copy with `predict`/`update` statically dispatched —
/// driving a `Box<dyn ConditionalPredictor>` costs one virtual call
/// per block here instead of three per record.
#[inline]
pub fn drive_block<P: ConditionalPredictor + ?Sized>(
    predictor: &mut P,
    block: &[bp_trace::BranchRecord],
    stats: &mut PredictorStats,
) {
    predictor.run_block(block, stats);
}

/// Simulates *several* predictors over **one** pass of a
/// [`BranchStream`] with the CBP protocol — the shared-decode core of
/// the engine's column shards.
///
/// The stream is pulled once, in blocks of 4096 records
/// (`MULTI_BLOCK_RECORDS`), and each block is driven through a
/// shared-front-end column drive: TAGE hosts with equal TAGE state
/// share one TAGE pass, and GEHL hosts with equal global front ends one
/// front-end pass, per 256-record chunk and commit from its output;
/// every other predictor consumes the whole block before the next
/// starts. Per-record broadcast (predictor-inner loop) would touch
/// every predictor's tables on every record and thrash the cache; the
/// blocked sweep keeps one predictor's working set hot for hundreds to
/// thousands of records while still generating/decoding the stream
/// exactly once instead of `N` times.
///
/// Because the predictors are independent state machines driven with
/// the identical record sequence, and a shared TAGE or front end
/// computes exactly what each member's own would, the returned results are
/// **bit-identical** to running [`simulate_stream`] once per predictor
/// over equal streams — and so is every predictor's state afterwards.
///
/// Returns one [`SimResult`] per predictor, in input order.
// bp-lint: allow-item(hot-path-alloc, "per-run block buffer, column setup and result assembly, amortized over whole blocks; the per-branch loop is allocation-free (tests/hotpath_allocations.rs)")
pub fn simulate_stream_multi<S>(
    predictors: &mut [Box<dyn ConditionalPredictor + Send>],
    mut stream: S,
) -> Vec<SimResult>
where
    S: BranchStream,
{
    let benchmark = stream.name().to_owned();
    let mut stats = vec![PredictorStats::default(); predictors.len()];
    let mut instructions = 0u64;
    let mut records = 0u64;
    let mut block = Vec::with_capacity(MULTI_BLOCK_RECORDS);
    let mut drive = ColumnDrive::new(predictors);
    loop {
        fill_multi_block(&mut stream, &mut block, &mut instructions, &mut records);
        if block.is_empty() {
            break;
        }
        drive.drive(predictors, &block, |i, predictor, records, plans| {
            commit_plain(predictor, records, plans, &mut stats[i]);
        });
        if block.len() < MULTI_BLOCK_RECORDS {
            break;
        }
    }
    drive.finish(predictors);
    predictors
        .iter()
        .zip(stats)
        .map(|(predictor, stats)| SimResult {
            benchmark: benchmark.clone(),
            predictor: predictor.name().to_owned(),
            instructions,
            records,
            stats,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_components::{AlwaysTaken, Bimodal};
    use bp_trace::BranchRecord;

    fn biased_trace(n: usize, taken: bool) -> Trace {
        let mut t = Trace::new("biased");
        for _ in 0..n {
            t.push(BranchRecord::conditional(0x40, 0x80, taken).with_leading_instructions(9));
        }
        t
    }

    #[test]
    fn always_taken_on_taken_trace_is_perfect() {
        let r = simulate(&mut AlwaysTaken, &biased_trace(100, true));
        assert_eq!(r.stats.mispredicted, 0);
        assert_eq!(r.mpki(), 0.0);
        assert_eq!(r.stats.predicted, 100);
    }

    #[test]
    fn always_taken_on_not_taken_trace_is_all_wrong() {
        let r = simulate(&mut AlwaysTaken, &biased_trace(100, false));
        assert_eq!(r.stats.mispredicted, 100);
        // 100 mispredictions over 1000 instructions = 100 MPKI.
        assert_eq!(r.mpki(), 100.0);
        assert!(format!("{r}").contains("MPKI"));
    }

    #[test]
    fn bimodal_learns_during_simulation() {
        let mut p = Bimodal::new(64);
        let r = simulate(&mut p, &biased_trace(1000, false));
        assert!(r.stats.mispredicted < 5, "only warmup mispredictions");
    }

    #[test]
    fn dyn_predictors_are_supported() {
        let mut boxed: Box<dyn ConditionalPredictor> = Box::new(AlwaysTaken);
        let r = simulate(boxed.as_mut(), &biased_trace(10, true));
        assert_eq!(r.predictor, "always-taken");
    }

    #[test]
    fn nonconditionals_do_not_count() {
        let mut t = biased_trace(10, true);
        t.push(BranchRecord::call(0x100, 0x1000));
        t.push(BranchRecord::ret(0x1008, 0x104));
        let r = simulate(&mut AlwaysTaken, &t);
        assert_eq!(r.stats.predicted, 10);
    }

    #[test]
    fn mpki_handles_empty() {
        assert_eq!(Mpki::from_counts(5, 0).value(), 0.0);
        assert_eq!(format!("{}", Mpki::from_counts(1, 1000)), "1.000");
    }

    #[test]
    fn streamed_and_materialized_results_are_identical() {
        let trace = biased_trace(500, false);
        let materialized = simulate(&mut Bimodal::new(64), &trace);
        let streamed = simulate_stream(&mut Bimodal::new(64), trace.stream());
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn multi_stream_matches_individual_runs_exactly() {
        let mut t = biased_trace(400, true);
        for i in 0..200u64 {
            t.push(BranchRecord::conditional(0x90, 0x40, i % 3 == 0));
            if i % 5 == 0 {
                t.push(BranchRecord::call(0x100, 0x1000));
            }
        }
        let mut predictors: Vec<Box<dyn ConditionalPredictor + Send>> = vec![
            Box::new(AlwaysTaken),
            Box::new(Bimodal::new(64)),
            Box::new(Bimodal::new(1024)),
        ];
        let fused = simulate_stream_multi(&mut predictors, t.stream());
        assert_eq!(fused.len(), 3);
        let solo = [
            simulate(&mut AlwaysTaken, &t),
            simulate(&mut Bimodal::new(64), &t),
            simulate(&mut Bimodal::new(1024), &t),
        ];
        for (f, s) in fused.iter().zip(solo.iter()) {
            assert_eq!(f, s, "fused cell must equal the per-predictor run");
        }
    }

    #[test]
    fn multi_stream_with_no_predictors_is_empty() {
        let t = biased_trace(10, true);
        let mut none: Vec<Box<dyn ConditionalPredictor + Send>> = Vec::new();
        assert!(simulate_stream_multi(&mut none, t.stream()).is_empty());
    }
}
