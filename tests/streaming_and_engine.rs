//! Workspace-level guarantees of the streaming data path and the
//! parallel grid engine:
//!
//! * streamed generation + simulation is *bit-identical* to the
//!   materialized path, for hosts of every family;
//! * `Engine::run_grid` returns the identical grid regardless of
//!   worker count;
//! * `BranchStream::fill_block` hands over exactly the `next_record`
//!   sequence, in any block size and mixed with `next_record`, for
//!   every stream kind, and a truncated v2 file ends in its decoded
//!   prefix plus an error.

use imli_repro::sim::{lookup, make_predictor, simulate, simulate_stream, Engine, PredictorSpec};
use imli_repro::trace::{
    write_trace, write_trace_v2, BlockWriter, BranchRecord, BranchStream, TraceReader,
};
use imli_repro::workloads::{
    cbp4_suite, find_benchmark, generate, stream_benchmark, BenchmarkSpec, KernelSpec, TripCount,
};
use proptest::prelude::*;

/// The three hosts the streaming-equivalence property covers: a
/// baseline, a TAGE-family IMLI host, and a GEHL-family IMLI host.
const EQUIVALENCE_CONFIGS: [&str; 3] = ["gshare", "tage-gsc+imli", "gehl+sic"];

/// A benchmark spec whose kernel mix exercises the nest, bias, and
/// irregular generators, parameterized by seed.
fn spec_for_seed(seed: u64) -> BenchmarkSpec {
    BenchmarkSpec::new(
        format!("prop-{seed:x}"),
        seed,
        vec![
            (
                KernelSpec::Biased {
                    probabilities: vec![0.95, 0.6, 0.1],
                },
                1.5,
            ),
            (
                KernelSpec::SameIteration {
                    trip: TripCount::Variable { min: 4, max: 28 },
                    drift: 0.2,
                    noise_branches: 1,
                },
                1.0,
            ),
            (
                KernelSpec::Irregular {
                    branches: 4,
                    spread: 0.15,
                },
                0.3,
            ),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed and budget, simulating the streamed benchmark
    /// yields bit-identical `PredictorStats` (and instruction counts)
    /// to simulating the materialized `Trace` of the same spec.
    #[test]
    fn streamed_simulation_equals_materialized_simulation(
        seed in any::<u64>(),
        instructions in 20_000u64..60_000,
    ) {
        let spec = spec_for_seed(seed);
        let trace = generate(&spec, instructions);
        for config in EQUIVALENCE_CONFIGS {
            let mut materialized = make_predictor(config).expect("registered");
            let mut streamed = make_predictor(config).expect("registered");
            let via_trace = simulate(materialized.as_mut(), &trace);
            let via_stream =
                simulate_stream(streamed.as_mut(), stream_benchmark(&spec, instructions));
            prop_assert_eq!(
                &via_trace.stats, &via_stream.stats,
                "{} stats diverged between paths", config
            );
            prop_assert_eq!(via_trace.instructions, via_stream.instructions);
            prop_assert_eq!(&via_trace.benchmark, &via_stream.benchmark);
        }
    }
}

/// Streaming equivalence also holds on the real suite benchmarks the
/// paper's analysis singles out (fixed seeds, planted correlations).
#[test]
fn streamed_simulation_equals_materialized_on_suite_benchmarks() {
    let suite = cbp4_suite();
    for bench in ["SPEC2K6-04", "SPEC2K6-12", "MM-4"] {
        let spec = suite.iter().find(|s| s.name == bench).expect("in suite");
        let trace = generate(spec, 80_000);
        for config in EQUIVALENCE_CONFIGS {
            let mut a = make_predictor(config).expect("registered");
            let mut b = make_predictor(config).expect("registered");
            let materialized = simulate(a.as_mut(), &trace);
            let streamed = simulate_stream(b.as_mut(), spec.stream(80_000));
            assert_eq!(materialized, streamed, "{config} on {bench}");
        }
    }
}

/// `Engine::run_grid` with 1 worker and with 8 workers produces
/// identical result grids: same MPKI in every cell, same
/// predictor-major ordering.
#[test]
fn engine_grid_is_deterministic_across_job_counts() {
    let predictors: Vec<PredictorSpec> = EQUIVALENCE_CONFIGS
        .iter()
        .map(|c| lookup(c).expect("registered"))
        .collect();
    let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(6).collect();

    let sequential = Engine::with_jobs(1).run_grid(&predictors, &benchmarks, 50_000);
    let parallel = Engine::with_jobs(8).run_grid(&predictors, &benchmarks, 50_000);

    assert_eq!(sequential.predictors, parallel.predictors);
    assert_eq!(sequential.benchmarks, parallel.benchmarks);
    for p in 0..predictors.len() {
        for (b, bench) in benchmarks.iter().enumerate() {
            let (s, q) = (sequential.cell(p, b), parallel.cell(p, b));
            assert_eq!(s, q, "cell ({p}, {b}) diverged");
            assert_eq!(s.benchmark, bench.name, "ordering broke");
        }
    }
    assert_eq!(sequential, parallel);
}

/// The engine's grid agrees with the one-at-a-time sequential API: each
/// row equals a fresh `run_suite` of that configuration.
#[test]
fn engine_grid_matches_sequential_suite_runs() {
    let predictors: Vec<PredictorSpec> = ["gshare", "tage-gsc+imli"]
        .iter()
        .map(|c| lookup(c).expect("registered"))
        .collect();
    let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(4).collect();
    let grid = Engine::new().run_grid(&predictors, &benchmarks, 40_000);
    for spec in &predictors {
        let suite = imli_repro::sim::run_suite(&|| spec.make(), &benchmarks, 40_000);
        let row = grid.suite_result(&spec.name).expect("row exists");
        assert_eq!(suite.rows, row.rows, "{}", spec.name);
    }
}

/// Block sizes around the simulator's 4096-record block and the v2
/// frame size (also 4096), plus sizes that straddle frames unevenly.
const FILL_SIZES: [usize; 5] = [1, 7, 4095, 4096, 4097];

/// Drains `stream` with `fill_block(max)` alone, checking that every
/// block but the last is full and that a short block is the end.
fn drain_by_blocks<S: BranchStream>(mut stream: S, max: usize) -> Vec<BranchRecord> {
    let mut out = Vec::new();
    loop {
        let before = out.len();
        stream.fill_block(&mut out, max);
        let added = out.len() - before;
        assert!(added <= max, "fill_block({max}) appended {added}");
        if added < max {
            break;
        }
    }
    let end = out.len();
    stream.fill_block(&mut out, max);
    assert_eq!(out.len(), end, "records after a short block");
    assert!(
        stream.next_record().is_none(),
        "records after a short block"
    );
    out
}

/// Drains `stream` alternating one `next_record` with one
/// `fill_block(max)`.
fn drain_mixed<S: BranchStream>(mut stream: S, max: usize) -> Vec<BranchRecord> {
    let mut out = Vec::new();
    while let Some(record) = stream.next_record() {
        out.push(record);
        let before = out.len();
        stream.fill_block(&mut out, max);
        if out.len() - before < max {
            assert!(
                stream.next_record().is_none(),
                "records after a short block"
            );
            break;
        }
    }
    out
}

fn drain_by_records<S: BranchStream>(mut stream: S) -> Vec<BranchRecord> {
    std::iter::from_fn(|| stream.next_record()).collect()
}

/// Checks the `fill_block` contract on fresh streams from `make`, also
/// through `&mut S`, and runs `clean` on each drained stream.
fn check_fill_block<S: BranchStream>(
    what: &str,
    make: impl Fn() -> S,
    expected: &[BranchRecord],
    clean: impl Fn(&S),
) {
    assert_eq!(drain_by_records(make()), expected, "{what}: next_record");
    for max in FILL_SIZES {
        let mut stream = make();
        assert_eq!(
            drain_by_blocks(&mut stream, max),
            expected,
            "{what}: fill_block({max}) through &mut"
        );
        clean(&stream);
        let mut stream = make();
        assert_eq!(
            drain_mixed(&mut stream, max),
            expected,
            "{what}: next_record mixed with fill_block({max})"
        );
        clean(&stream);
        assert_eq!(
            drain_by_blocks(make(), max),
            expected,
            "{what}: fill_block({max})"
        );
    }
}

#[test]
fn fill_block_hands_over_the_next_record_sequence_for_every_stream() {
    let spec = find_benchmark("SPEC2K6-04").expect("catalogue benchmark");
    let instructions = 120_000;
    let trace = generate(&spec, instructions);
    assert!(trace.len() > 3 * 4096, "several v2 frames");
    let expected = trace.records();

    let mut v1 = Vec::new();
    write_trace(&mut v1, &trace).expect("v1");
    let mut v2 = Vec::new();
    write_trace_v2(&mut v2, &trace).expect("v2");
    let mut v2_streamed = Vec::new();
    let mut writer = BlockWriter::new(&mut v2_streamed, trace.name()).expect("v2 writer");
    for record in trace.iter() {
        writer.push(record).expect("push");
    }
    writer.finish().expect("finish");

    let reader_clean = |r: &TraceReader<&[u8]>| assert!(r.error().is_none(), "{:?}", r.error());
    for (what, bytes) in [
        ("v1 file", &v1),
        ("v2 file, declared count", &v2),
        ("v2 file, unknown count", &v2_streamed),
    ] {
        let make = || TraceReader::new(bytes.as_slice()).expect("header");
        check_fill_block(what, make, expected, reader_clean);
    }
    check_fill_block(
        "benchmark stream",
        || spec.stream(instructions),
        expected,
        |_| {},
    );
    check_fill_block("trace stream", || trace.stream(), expected, |_| {});
}

#[test]
fn truncated_v2_file_fills_its_decoded_prefix_then_errors() {
    let spec = find_benchmark("SPEC2K6-04").expect("catalogue benchmark");
    let trace = generate(&spec, 120_000);
    let mut v2 = Vec::new();
    write_trace_v2(&mut v2, &trace).expect("v2");
    // Cut inside a data frame, well before the terminator.
    let cut = &v2[..v2.len() / 2];

    let mut reader = TraceReader::new(cut).expect("header");
    let prefix = drain_by_records(&mut reader);
    assert!(reader.error().is_some(), "truncation must be reported");
    assert!(!prefix.is_empty() && prefix.len() < trace.len());
    assert_eq!(prefix.len() % 4096, 0, "the prefix is whole frames");
    assert_eq!(prefix, trace.records()[..prefix.len()]);

    for max in FILL_SIZES {
        let mut reader = TraceReader::new(cut).expect("header");
        assert_eq!(
            drain_by_blocks(&mut reader, max),
            prefix,
            "fill_block({max})"
        );
        assert!(
            reader.error().is_some(),
            "fill_block({max}): truncation lost"
        );
        let mut reader = TraceReader::new(cut).expect("header");
        assert_eq!(drain_mixed(&mut reader, max), prefix, "mixed, {max}");
        assert!(reader.error().is_some(), "mixed, {max}: truncation lost");
    }
}
