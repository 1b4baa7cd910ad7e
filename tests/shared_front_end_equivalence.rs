//! Bit-equivalence of the shared TAGE and GEHL front ends.
//!
//! The fused-column drives (`simulate_stream_multi`,
//! `simulate_stream_attributed_multi`, `simulate_scenario_multi`) group
//! TAGE hosts with equal TAGE configuration and state, and GEHL hosts
//! with equal global geometry and history. Each group runs one copy of
//! the shared part — the whole TAGE, or the GEHL global index inputs —
//! and every member commits from its output. The whole justification is
//! purity: a TAGE host's TAGE trains on its own lookups only, and a
//! host's index inputs evolve only with the trace, so a shared copy
//! computes exactly what each member's own would. These tests pin that
//! a fused column equals per-config solo runs — stats, MPKI,
//! attribution, per-tenant tallies, the shared part itself and the
//! whole post-run predictor state — for every registry config, at block
//! and plan-chunk boundaries, across partial and full flushes, and in
//! columns that mix TAGE geometries and configurations.

use imli_repro::components::ConditionalPredictor;
use imli_repro::sim::{
    lookup, registry, scenario_by_name, simulate, simulate_scenario, simulate_scenario_multi,
    simulate_stream_attributed, simulate_stream_attributed_multi, simulate_stream_multi,
    solve_budget, FamilyConfig, PredictorSpec, RegistryConfig, ScenarioFlush,
};
use imli_repro::trace::Trace;
use imli_repro::workloads::{cbp4_suite, generate, FlushMode};

const INSTRUCTIONS: u64 = 60_000;

/// The simulator's fused block size and the shared front end's plan
/// chunk, in records.
const BLOCK: usize = 4096;
const CHUNK: usize = 256;

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
/// state: its shared part (a TAGE host's whole TAGE, a GEHL host's
/// front end) equals the solo run's, and a solo continuation over
/// `probe` agrees.
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

        // The shared part, copied back from the group's leader when the
        // pass ended, equals the one the solo run built itself.
        assert!(
            fused[i].shared_front_end() == solo.shared_front_end(),
            "{}: shared TAGE / front end diverged after the fused pass",
            spec.name
        );
        assert!(
            fused_attributed[i].shared_front_end() == solo.shared_front_end(),
            "{}: shared TAGE / front end diverged after the attributed pass",
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
fn gehl_family_column_matches_solo_runs_at_block_and_chunk_boundaries() {
    // Every GEHL/FTL host of the registry that shares the default
    // global geometry: one GEHL group mixing IMLI terms, wormhole
    // wrapping and FTL's local tables and loop predictor.
    let suite = cbp4_suite();
    let long = generate(&suite[6], 2 * INSTRUCTIONS);
    let probe = generate(&suite[7], INSTRUCTIONS / 4);
    let specs: Vec<PredictorSpec> = [
        "gehl",
        "gehl+sic",
        "gehl+oh",
        "gehl+imli",
        "gehl+wh",
        "ftl",
        "ftl+imli",
    ]
    .iter()
    .map(|n| lookup(n).expect("registered"))
    .collect();
    for n in [BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, CHUNK + 1] {
        assert!(long.len() > n, "trace long enough for {n} records");
        let trace = prefix(&long, n);
        let warmup = trace.instruction_count() / 3;
        assert_fused_matches_solo(&specs, &trace, warmup, &probe);
    }
}

#[test]
fn tage_hosts_with_one_index_geometry_but_other_widths_match_solo_runs() {
    // Equal index geometry, different counter or usefulness widths:
    // the TAGE states diverge from the first update, so each width
    // forms its own group — {gsc, gsc+imli}, {gsc/ctr4, sc-l/ctr4},
    // {gsc+imli/u3, sc-l+imli/u3} — and a grouping keyed on the index
    // geometry alone would commit members from the wrong TAGE.
    let with_tage = |name: &str, label: &str, edit: &dyn Fn(&mut imli_repro::tage::TageConfig)| {
        let mut spec = lookup(name).expect("registered");
        let FamilyConfig::TageSc(mut config) = spec.config.base.clone() else {
            unreachable!("TAGE host")
        };
        edit(&mut config.tage);
        spec.config = RegistryConfig::plain(FamilyConfig::TageSc(config));
        spec.name = format!("{name}/{label}");
        spec
    };
    let counter = |t: &mut imli_repro::tage::TageConfig| t.counter_bits = 4;
    let useful = |t: &mut imli_repro::tage::TageConfig| t.useful_bits = 3;
    let specs = vec![
        lookup("tage-gsc").expect("registered"),
        with_tage("tage-gsc", "ctr4", &counter),
        with_tage("tage-gsc+imli", "u3", &useful),
        lookup("tage-gsc+imli").expect("registered"),
        with_tage("tage-sc-l", "ctr4", &counter),
        with_tage("tage-sc-l+imli", "u3", &useful),
    ];
    let suite = cbp4_suite();
    let trace = generate(&suite[3], INSTRUCTIONS);
    let probe = generate(&suite[2], INSTRUCTIONS / 4);
    // The widths must matter on this trace, or a merged group would
    // pass unnoticed.
    let solo = |spec: &PredictorSpec| simulate(spec.make().as_mut(), &trace).stats;
    assert_ne!(solo(&specs[0]), solo(&specs[1]), "counter width is visible");
    assert_ne!(solo(&specs[3]), solo(&specs[2]), "useful width is visible");
    assert_fused_matches_solo(&specs, &trace, INSTRUCTIONS / 5, &probe);
}

#[test]
fn scenario_partial_and_full_flushes_match_solo_runs() {
    // Both group kinds — a TAGE group of four and a GEHL group of four —
    // plus a solo GEHL-family host with no partner and a baseline.
    let specs: Vec<PredictorSpec> = [
        "tage-sc-l",
        "tage-gsc+imli",
        "tage-gsc+wh",
        "tage-sc-l+imli",
        "gehl",
        "gehl+imli",
        "gehl+wh",
        "ftl+imli",
        "perceptron+imli",
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
