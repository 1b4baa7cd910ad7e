//! Bit-equivalence of the shared TAGE front end.
//!
//! The fused-column drives (`simulate_stream_multi`,
//! `simulate_stream_attributed_multi`, `simulate_scenario_multi`) group
//! TAGE hosts whose front ends compare equal, run one front end per
//! group and let every member commit from the shared plans. The whole
//! justification is the purity invariant: a TAGE host's index inputs
//! evolve only with the trace, so a shared front end computes exactly
//! what each member's own would. These tests pin that a fused column
//! equals per-config solo runs — stats, MPKI, attribution, per-tenant
//! tallies and post-run predictor state — for every registry config, at
//! block and plan-chunk boundaries, across partial and full flushes,
//! and in a column that mixes TAGE geometries.

use imli_repro::components::ConditionalPredictor;
use imli_repro::sim::{
    lookup, registry, scenario_by_name, simulate, simulate_scenario, simulate_scenario_multi,
    simulate_stream_attributed, simulate_stream_attributed_multi, simulate_stream_multi,
    solve_budget, FamilyConfig, PredictorSpec, ScenarioFlush,
};
use imli_repro::trace::Trace;
use imli_repro::workloads::{cbp4_suite, generate, FlushMode};

const INSTRUCTIONS: u64 = 60_000;

/// The simulator's fused block size and the shared front end's plan
/// chunk, in records.
const BLOCK: usize = 4096;
const CHUNK: usize = 512;

fn column(specs: &[PredictorSpec]) -> Vec<Box<dyn ConditionalPredictor + Send>> {
    specs.iter().map(PredictorSpec::make).collect()
}

/// The first `n` records of `trace`, as a trace of its own.
fn prefix(trace: &Trace, n: usize) -> Trace {
    let mut out = Trace::new(trace.name());
    for record in &trace.records()[..n] {
        out.push(*record);
    }
    out
}

/// Asserts a fused plain and attributed column over `trace` equals solo
/// runs of every spec, and that every fused predictor ends in its solo
/// state (a solo continuation over `probe` agrees).
fn assert_fused_matches_solo(specs: &[PredictorSpec], trace: &Trace, warmup: u64, probe: &Trace) {
    let mut fused = column(specs);
    let plain = simulate_stream_multi(&mut fused, trace.stream());
    let mut fused_attributed = column(specs);
    let attributed =
        simulate_stream_attributed_multi(&mut fused_attributed, trace.stream(), warmup);
    for (i, spec) in specs.iter().enumerate() {
        let mut solo = spec.make();
        let expected = simulate(solo.as_mut(), trace);
        assert_eq!(plain[i], expected, "{}: fused stats diverged", spec.name);
        assert_eq!(
            plain[i].mpki(),
            expected.mpki(),
            "{}: MPKI diverged",
            spec.name
        );
        let solo_attributed =
            simulate_stream_attributed(spec.make().as_mut(), trace.stream(), warmup);
        assert_eq!(
            attributed[i], solo_attributed,
            "{}: fused attribution diverged",
            spec.name
        );
        assert_eq!(
            attributed[i].result, expected,
            "{}: attributed stats",
            spec.name
        );

        // Post-run state: any difference in a table, counter, history or
        // threshold would show in a solo continuation.
        let continued = simulate(fused[i].as_mut(), probe);
        let reference = simulate(solo.as_mut(), probe);
        assert_eq!(
            continued, reference,
            "{}: post-run state diverged after the fused pass",
            spec.name
        );
    }
}

#[test]
fn fused_column_matches_solo_runs_for_every_registry_config() {
    let suite = cbp4_suite();
    let trace = generate(&suite[0], INSTRUCTIONS);
    let probe = generate(&suite[1], INSTRUCTIONS / 4);
    let specs = registry();
    let tage_hosts = specs
        .iter()
        .filter(|s| matches!(s.config.base, FamilyConfig::TageSc(_)))
        .count();
    assert!(tage_hosts >= 6, "the column must share a front end");
    assert_fused_matches_solo(&specs, &trace, INSTRUCTIONS / 5, &probe);
}

#[test]
fn block_and_chunk_boundaries_are_invisible() {
    let suite = cbp4_suite();
    let long = generate(&suite[2], 4 * INSTRUCTIONS);
    let probe = generate(&suite[3], INSTRUCTIONS / 4);
    let specs: Vec<PredictorSpec> = [
        "tage-gsc",
        "tage-gsc+imli",
        "tage-gsc+wh",
        "tage-sc-l",
        "tage-sc-l+imli",
        "gehl+imli",
    ]
    .iter()
    .map(|n| lookup(n).expect("registered"))
    .collect();
    for n in [
        1,
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        BLOCK + CHUNK - 1,
        BLOCK + CHUNK + 1,
        3 * BLOCK - CHUNK,
    ] {
        assert!(long.len() > n, "trace long enough for {n} records");
        let trace = prefix(&long, n);
        // A warmup boundary that falls inside a plan chunk.
        let warmup = trace.instruction_count() / 3;
        assert_fused_matches_solo(&specs, &trace, warmup, &probe);
    }
}

#[test]
fn mixed_geometry_column_forms_separate_groups() {
    // Two sweep-solved budgets: each budget's TAGE-GSC and
    // TAGE-GSC+IMLI solve to one geometry, the two budgets to two
    // different ones, and the 256-Kbit solution is the registry's
    // default geometry. So the column holds two shared groups —
    // {gsc@64, gsc+imli@64} and {gsc@256, gsc+imli@256, tage-gsc,
    // tage-sc-l+imli} — plus a solo host, and a grouping that merged
    // geometries would commit members from the wrong plans.
    let solved = |family: &str, kbit: u64| {
        let config = solve_budget(family, kbit * 1024).expect("solvable budget");
        PredictorSpec::new(format!("{family}@{kbit}"), "sweep", config)
    };
    let specs = vec![
        solved("tage-gsc", 64),
        solved("tage-gsc+imli", 64),
        solved("tage-gsc", 256),
        solved("tage-gsc+imli", 256),
        lookup("tage-gsc").expect("registered"),
        lookup("tage-sc-l+imli").expect("registered"),
        lookup("gshare").expect("registered"),
    ];
    let tage = |spec: &PredictorSpec| match &spec.config.base {
        FamilyConfig::TageSc(c) => c.tage.clone(),
        _ => unreachable!("TAGE host"),
    };
    assert_eq!(tage(&specs[0]), tage(&specs[1]), "one geometry per budget");
    assert_eq!(tage(&specs[2]), tage(&specs[3]), "one geometry per budget");
    assert_eq!(
        tage(&specs[2]),
        tage(&specs[4]),
        "256 Kbit solves to the default"
    );
    assert_eq!(tage(&specs[4]), tage(&specs[5]));
    assert_ne!(
        tage(&specs[0]),
        tage(&specs[2]),
        "budgets differ in geometry"
    );

    let suite = cbp4_suite();
    let trace = generate(&suite[4], INSTRUCTIONS);
    let probe = generate(&suite[5], INSTRUCTIONS / 4);
    assert_fused_matches_solo(&specs, &trace, INSTRUCTIONS / 5, &probe);
}

#[test]
fn scenario_partial_and_full_flushes_match_solo_runs() {
    let specs: Vec<PredictorSpec> = [
        "tage-sc-l",
        "tage-gsc+imli",
        "tage-gsc+wh",
        "tage-sc-l+imli",
        "gehl+imli",
        "bimodal",
    ]
    .iter()
    .map(|n| lookup(n).expect("registered"))
    .collect();
    for (name, mode) in [
        ("paper_switch", FlushMode::Partial),
        ("paper_switch", FlushMode::Full),
        ("hostile_mix", FlushMode::Partial),
    ] {
        let mut scenario = scenario_by_name(name).expect("builtin");
        scenario.instructions = 40_000;
        // A period that lands flushes mid-block and mid-chunk.
        scenario.flush = Some(ScenarioFlush {
            period: 9_001,
            mode,
        });
        let fused = simulate_scenario_multi(&specs, scenario.events().as_mut());
        assert!(fused[0].flushes > 2, "{name}: the run crosses flushes");
        for (spec, run) in specs.iter().zip(&fused) {
            let solo = simulate_scenario(spec, scenario.events().as_mut());
            assert_eq!(
                *run, solo,
                "{name} {mode:?}: {} diverged from its solo run (stats or tenant tallies)",
                spec.name
            );
        }
    }
}
