//! Determinism proof for the two-phase / lookahead-prefetch hot path.
//!
//! The simulator's one-record lookahead calls
//! [`ConditionalPredictor::prefetch`] with the *next* PC before the
//! current record is processed, under history that is stale by one
//! branch. The contract says those hints (issued, skipped, or
//! mis-targeted) can never change a prediction. These tests enforce the
//! contract the strong way: for **every** registry configuration, the
//! one-record-lookahead [`simulate`] driver, the fused
//! [`simulate_stream_multi`] driver, and a bare hand-rolled
//! predict/update loop that never calls `prefetch` at all must produce
//! identical prediction statistics.
//!
//! [`ConditionalPredictor::prefetch`]: imli_repro::components::ConditionalPredictor::prefetch
//! [`simulate`]: imli_repro::sim::simulate
//! [`simulate_stream_multi`]: imli_repro::sim::simulate_stream_multi

use imli_repro::components::{ConditionalPredictor, PredictorStats};
use imli_repro::sim::{registry, simulate, simulate_stream_multi};
use imli_repro::workloads::{cbp4_suite, generate, stream_benchmark};

const INSTRUCTIONS: u64 = 60_000;

/// The reference semantics: the CBP protocol with no lookahead and no
/// prefetch hints whatsoever.
fn drive_plain(
    predictor: &mut (dyn ConditionalPredictor + Send),
    trace: &imli_repro::trace::Trace,
) -> PredictorStats {
    let mut stats = PredictorStats::default();
    for record in trace.iter() {
        if record.is_conditional() {
            let pred = predictor.predict(record.pc);
            stats.record(pred == record.taken);
            predictor.update(record);
        } else {
            predictor.notify_nonconditional(record);
        }
    }
    stats
}

#[test]
fn lookahead_prefetch_is_invisible_for_every_registry_config() {
    let spec = &cbp4_suite()[0];
    let trace = generate(spec, INSTRUCTIONS);
    let specs = registry();
    assert!(specs.len() >= 20, "registry unexpectedly small");

    let mut any_prefetching = false;
    for spec_entry in &specs {
        let mut with_hints = spec_entry.make();
        any_prefetching |= with_hints.wants_prefetch();
        // `simulate` drives the block loop with the one-record
        // lookahead hint.
        let streamed = simulate(with_hints.as_mut(), &trace);

        let mut bare = spec_entry.make();
        let plain = drive_plain(bare.as_mut(), &trace);

        assert_eq!(
            streamed.stats, plain,
            "{}: lookahead prefetch changed predictions",
            spec_entry.name
        );
    }
    assert!(
        any_prefetching,
        "no registry predictor opts into prefetch; the lookahead path went untested"
    );
}

#[test]
fn fused_multi_lookahead_matches_plain_loop_for_every_registry_config() {
    let spec = &cbp4_suite()[0];
    let trace = generate(spec, INSTRUCTIONS);
    let specs = registry();

    // One fused pass over all registry predictors (block-sliced drive
    // with intra-block lookahead, and the shared TAGE front end)...
    let mut fleet: Vec<_> = specs.iter().map(|s| s.make()).collect();
    let fused = simulate_stream_multi(&mut fleet, stream_benchmark(spec, INSTRUCTIONS));

    // ...must match the bare per-predictor loop, prediction for
    // prediction.
    for (spec_entry, fused_result) in specs.iter().zip(&fused) {
        let mut bare = spec_entry.make();
        let plain = drive_plain(bare.as_mut(), &trace);
        assert_eq!(
            fused_result.stats, plain,
            "{}: fused lookahead drive diverged from the plain loop",
            spec_entry.name
        );
    }
}
