//! Shared-predictor scenario runs: multi-tenant traffic, context-switch
//! flushes, and adversarial streams, reported per tenant.
//!
//! The paper's grid treats every predictor as private to its benchmark.
//! This module drives registry predictors through the `bp-workloads`
//! combinator layer instead — N tenants interleaved into one fetch
//! stream ([`bp_workloads::interleave`]), periodic context-switch
//! flushes ([`bp_workloads::context_switch`]), adversarial genomes —
//! and reports *per tenant*: each tenant's MPKI plus the same
//! provider/save/loss attribution split the suite report uses (one
//! shared definition: [`PredictionAttribution::classify`]).
//!
//! * [`ScenarioSpec`] — a named scenario (tenants, schedule, flush),
//!   buildable by name ([`scenario_by_name`]) or from a config file
//!   ([`parse_scenario_file`]);
//! * [`run_scenario`] — the engine-scheduled run producing a
//!   [`ScenarioReport`] with byte-deterministic Markdown/JSON
//!   renderings (`bp scenario`), identical across worker counts;
//! * [`simulate_scenario_multi`] — the fused core: every predictor
//!   consumes the one event stream block-wise, applying flush events
//!   in place (partial: [`ConditionalPredictor::flush_history`]; full:
//!   a cold rebuild from the spec);
//! * [`adversarial_search`] — the seeded hill-climb over
//!   [`Genome`]s maximizing MPKI against one registry config. No
//!   wall-clock anywhere in the loop: a fixed seed reproduces the
//!   identical worst-case stream.

use crate::cache::{scenario_cell_key, CacheKey, SimCache};
use crate::engine::{
    auto_fuses, run_columns, run_indexed, transpose_columns, CellLabel, CellUpdate,
};
use crate::registry::{lookup, PredictorSpec};
use crate::report::AttributionSummary;
use crate::run::{simulate_stream, Mpki};
use crate::shared::{ColumnDrive, Tally};
use bp_components::{
    json_string as json_str, ConditionalPredictor, ConfigError, ConfigValue, PredictorStats,
};
use bp_trace::{BranchRecord, BranchStream};
use bp_workloads::{
    context_switch, find_benchmark, interleave, EventStream, FlushMode, Genome, InterleaveSchedule,
    ScenarioEvent,
};
use std::fmt::Write as _;

/// One tenant of a scenario: a named synthetic benchmark, or an
/// adversarial genome replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantSpec {
    /// A benchmark by suite name (resolved via
    /// [`bp_workloads::find_benchmark`]).
    Benchmark(String),
    /// A seeded adversarial genome ([`Genome::seeded`]).
    Adversarial {
        /// Genome seed.
        seed: u64,
        /// Gene count (>= 1).
        genes: usize,
    },
}

impl TenantSpec {
    /// Stable display label of this tenant.
    pub fn label(&self) -> String {
        match self {
            TenantSpec::Benchmark(name) => name.clone(),
            TenantSpec::Adversarial { seed, genes } => {
                format!("adversarial(seed={seed}, genes={genes})")
            }
        }
    }

    /// Builds this tenant's branch stream. The spec must have passed
    /// [`ScenarioSpec::validate`] (unknown benchmark names panic here).
    pub fn stream(&self, instructions: u64) -> Box<dyn BranchStream + Send> {
        match self {
            TenantSpec::Benchmark(name) => {
                let spec = find_benchmark(name).expect("validated benchmark name");
                Box::new(spec.stream(instructions))
            }
            TenantSpec::Adversarial { seed, genes } => {
                Box::new(Genome::seeded(*seed, *genes).stream(instructions))
            }
        }
    }
}

/// The periodic context-switch setting of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFlush {
    /// Flush period in retired instructions of the combined stream.
    pub period: u64,
    /// What each flush erases.
    pub mode: FlushMode,
}

/// A complete scenario: tenants, schedule, flush policy, and per-tenant
/// instruction budget. Everything is data — the same spec always
/// produces the identical event sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Scenario name (artifact stem: `SCENARIO_<name>.md/.json`).
    pub name: String,
    /// The tenants, in id order (tenant `i` gets PC region `i`).
    pub tenants: Vec<TenantSpec>,
    /// Interleave schedule across the tenants.
    pub schedule: InterleaveSchedule,
    /// Periodic context-switch flushes, or `None` for an undisturbed
    /// shared predictor.
    pub flush: Option<ScenarioFlush>,
    /// Instructions per tenant stream.
    pub instructions: u64,
}

impl ScenarioSpec {
    /// Checks the spec is runnable: at least one tenant, resolvable
    /// benchmark names, positive budgets/quanta/periods, and an
    /// artifact-safe name.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!(
                "scenario name `{}` must be non-empty [A-Za-z0-9_-] (it names the artifact files)",
                self.name
            ));
        }
        if self.tenants.is_empty() {
            return Err("scenario needs at least one tenant".to_owned());
        }
        if self.instructions == 0 {
            return Err("scenario needs a positive per-tenant instruction budget".to_owned());
        }
        for tenant in &self.tenants {
            match tenant {
                TenantSpec::Benchmark(name) => {
                    if find_benchmark(name).is_none() {
                        return Err(format!(
                            "unknown benchmark `{name}` (try `bp list benchmarks`)"
                        ));
                    }
                }
                TenantSpec::Adversarial { genes, .. } => {
                    if *genes == 0 {
                        return Err("adversarial tenant needs at least one gene".to_owned());
                    }
                }
            }
        }
        match self.schedule {
            InterleaveSchedule::RoundRobin { quantum } => {
                if quantum == 0 {
                    return Err("round-robin quantum must be >= 1".to_owned());
                }
            }
            InterleaveSchedule::SeededBursts { min, max, .. } => {
                if min == 0 || min > max {
                    return Err("seeded-burst range must satisfy 1 <= min <= max".to_owned());
                }
            }
        }
        if let Some(flush) = &self.flush {
            if flush.period == 0 {
                return Err("flush period must be positive".to_owned());
            }
        }
        Ok(())
    }

    /// Display labels of the tenants, in tenant-id order.
    pub fn tenant_labels(&self) -> Vec<String> {
        self.tenants.iter().map(TenantSpec::label).collect()
    }

    /// Builds the scenario's event stream. Each call starts a fresh,
    /// identical stream (pure function of the spec).
    pub fn events(&self) -> Box<dyn EventStream + Send> {
        let streams: Vec<Box<dyn BranchStream + Send>> = self
            .tenants
            .iter()
            .map(|t| t.stream(self.instructions))
            .collect();
        let mixed = interleave(streams, self.schedule);
        match &self.flush {
            Some(flush) => Box::new(context_switch(mixed, flush.period, flush.mode)),
            None => Box::new(mixed),
        }
    }

    /// Stable one-line schedule label for reports.
    pub fn schedule_label(&self) -> String {
        match self.schedule {
            InterleaveSchedule::RoundRobin { quantum } => {
                format!("round-robin(quantum={quantum})")
            }
            InterleaveSchedule::SeededBursts { seed, min, max } => {
                format!("seeded-bursts(seed={seed}, min={min}, max={max})")
            }
        }
    }

    /// Stable one-line flush label for reports (`"none"` when the
    /// scenario never flushes).
    pub fn flush_label(&self) -> String {
        match &self.flush {
            None => "none".to_owned(),
            Some(f) => format!("{} every {} instructions", f.mode.label(), f.period),
        }
    }

    /// Renders the spec as the canonical `bp scenario --config`
    /// document — [`parse_scenario_file`] round-trips it exactly
    /// (tested). Byte-equal canonical values describe byte-identical
    /// event streams, which makes this rendering the scenario's
    /// *workload identity* for the result cache.
    pub fn to_value(&self) -> ConfigValue {
        let tenants = ConfigValue::List(
            self.tenants
                .iter()
                .map(|t| match t {
                    TenantSpec::Benchmark(name) => {
                        ConfigValue::map().set("benchmark", ConfigValue::str(name.as_str()))
                    }
                    TenantSpec::Adversarial { seed, genes } => ConfigValue::map().set(
                        "adversarial",
                        ConfigValue::map()
                            .set("seed", crate::cache::int_u64(*seed))
                            .set("genes", crate::cache::int_u64(*genes as u64)),
                    ),
                })
                .collect(),
        );
        let schedule = match self.schedule {
            InterleaveSchedule::RoundRobin { quantum } => ConfigValue::map().set(
                "round_robin",
                ConfigValue::map().set("quantum", ConfigValue::int(quantum)),
            ),
            InterleaveSchedule::SeededBursts { seed, min, max } => ConfigValue::map().set(
                "seeded_bursts",
                ConfigValue::map()
                    .set("seed", crate::cache::int_u64(seed))
                    .set("min", ConfigValue::int(min))
                    .set("max", ConfigValue::int(max)),
            ),
        };
        ConfigValue::map()
            .set("name", ConfigValue::str(self.name.as_str()))
            .set("instructions", crate::cache::int_u64(self.instructions))
            .set("tenants", tenants)
            .set("schedule", schedule)
            .set_opt(
                "flush",
                self.flush.as_ref().map(|f| {
                    ConfigValue::map()
                        .set("period", crate::cache::int_u64(f.period))
                        .set("mode", ConfigValue::str(f.mode.label()))
                }),
            )
    }

    /// [`ScenarioSpec::to_value`] rendered as deterministic text.
    pub fn canonical_text(&self) -> String {
        self.to_value().to_text()
    }
}

/// The built-in scenario names, in presentation order.
pub const SCENARIO_NAMES: [&str; 3] = ["paper_mix", "paper_switch", "hostile_mix"];

/// Looks up a built-in scenario by name (see [`SCENARIO_NAMES`]):
///
/// * `paper_mix` — four paper benchmarks round-robin interleaved, no
///   flushes: pure cross-tenant table sharing;
/// * `paper_switch` — the same mix with a partial flush every 50k
///   instructions: the OS context-switch shape (history erased, learned
///   tables survive);
/// * `hostile_mix` — two paper benchmarks co-scheduled with an
///   adversarial genome tenant under seeded bursts plus partial
///   flushes: the hostile end of the axis.
pub fn scenario_by_name(name: &str) -> Option<ScenarioSpec> {
    let bench = |n: &str| TenantSpec::Benchmark(n.to_owned());
    let spec = match name {
        "paper_mix" => ScenarioSpec {
            name: "paper_mix".to_owned(),
            tenants: vec![
                bench("SPEC2K6-04"),
                bench("MM-4"),
                bench("CLIENT02"),
                bench("WS04"),
            ],
            schedule: InterleaveSchedule::RoundRobin { quantum: 64 },
            flush: None,
            instructions: 150_000,
        },
        "paper_switch" => ScenarioSpec {
            name: "paper_switch".to_owned(),
            tenants: vec![
                bench("SPEC2K6-04"),
                bench("MM-4"),
                bench("CLIENT02"),
                bench("WS04"),
            ],
            schedule: InterleaveSchedule::RoundRobin { quantum: 64 },
            flush: Some(ScenarioFlush {
                period: 50_000,
                mode: FlushMode::Partial,
            }),
            instructions: 150_000,
        },
        "hostile_mix" => ScenarioSpec {
            name: "hostile_mix".to_owned(),
            tenants: vec![
                bench("SPEC2K6-04"),
                bench("MM-4"),
                TenantSpec::Adversarial {
                    seed: 0xC0FFEE,
                    genes: 12,
                },
            ],
            schedule: InterleaveSchedule::SeededBursts {
                seed: 0x5EED,
                min: 16,
                max: 256,
            },
            flush: Some(ScenarioFlush {
                period: 50_000,
                mode: FlushMode::Partial,
            }),
            instructions: 150_000,
        },
        _ => return None,
    };
    Some(spec)
}

/// The default predictor set of `bp scenario`: one representative per
/// rung of the configuration ladder, small enough that the committed
/// exemplar artifact regenerates quickly in CI.
pub const SCENARIO_REPORT_NAMES: [&str; 6] = [
    "bimodal",
    "gshare",
    "tage-sc-l",
    "tage-gsc+imli",
    "gehl+imli",
    "perceptron+imli",
];

/// Resolves [`SCENARIO_REPORT_NAMES`] from the registry.
///
/// # Panics
///
/// Panics if a default name is missing from the registry — a workspace
/// bug caught by tests, not a runtime condition.
pub fn scenario_report_predictors() -> Vec<PredictorSpec> {
    SCENARIO_REPORT_NAMES
        .iter()
        .map(|name| lookup(name).expect("scenario default names are registered"))
        .collect()
}

/// One tenant's outcome under one predictor: instruction share,
/// prediction counts, and per-component attribution — the same
/// provider/save/loss split as the suite report, tallied per tenant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantTally {
    /// Instructions this tenant retired in the combined stream.
    pub instructions: u64,
    /// Prediction counts over this tenant's branches.
    pub stats: PredictorStats,
    /// Per-component attribution of this tenant's predictions.
    pub attribution: AttributionSummary,
}

impl TenantTally {
    /// MPKI over this tenant's slice of the combined stream.
    pub fn mpki(&self) -> f64 {
        Mpki::from_counts(self.stats.mispredicted, self.instructions).value()
    }
}

/// One predictor's complete scenario outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// Display name of the predictor instance.
    pub predictor: String,
    /// Instructions of the combined stream.
    pub instructions: u64,
    /// Branch records of the combined stream.
    pub records: u64,
    /// Combined prediction counts.
    pub stats: PredictorStats,
    /// Context-switch flushes applied.
    pub flushes: u64,
    /// Per-tenant tallies, in tenant-id order. Their stats sum exactly
    /// to `stats` (property-tested conservation).
    pub tenants: Vec<TenantTally>,
}

impl ScenarioRun {
    /// MPKI over the combined stream.
    pub fn mpki(&self) -> f64 {
        Mpki::from_counts(self.stats.mispredicted, self.instructions).value()
    }
}

/// Events pulled per block of the fused pass — same granularity as the
/// record-block fusion in `bp-sim`'s grid core.
const SCENARIO_BLOCK_EVENTS: usize = 4096;

/// Drives every predictor through **one** pass of the scenario's event
/// stream — the scenario twin of the fused grid path. Events are
/// pulled once in blocks, and each block is split into runs of one
/// tenant's records at every tenant switch and flush. Each run is
/// driven through the shared-front-end column drive (TAGE hosts with
/// equal TAGE state commit from one TAGE pass, GEHL hosts with equal
/// global front ends from one front-end pass; everyone else runs solo)
/// into the tenant's tallies. A flush applies to every predictor at its
/// stream position — and so to every group, whose shared part is its
/// leader's: a partial flush calls
/// [`ConditionalPredictor::flush_history`], a full flush rebuilds the
/// predictor cold from its spec.
///
/// The result is a pure function of `(specs, events)` — identical
/// across runs, worker counts, and against one-predictor-at-a-time
/// simulation of the same events (tested).
pub fn simulate_scenario_multi(
    specs: &[PredictorSpec],
    events: &mut dyn EventStream,
) -> Vec<ScenarioRun> {
    let tenant_count = events.tenant_count() as usize;
    let mut predictors: Vec<Box<dyn ConditionalPredictor + Send>> =
        specs.iter().map(PredictorSpec::make).collect();
    let mut tallies = vec![vec![Tally::default(); tenant_count]; specs.len()];
    let mut tenant_instructions = vec![0u64; tenant_count];
    let mut block: Vec<ScenarioEvent> = Vec::with_capacity(SCENARIO_BLOCK_EVENTS);
    let mut run: Vec<BranchRecord> = Vec::with_capacity(SCENARIO_BLOCK_EVENTS);
    let mut drive = ColumnDrive::new(&mut predictors);
    let mut instructions = 0u64;
    let mut records = 0u64;
    let mut flushes = 0u64;
    loop {
        block.clear();
        while block.len() < SCENARIO_BLOCK_EVENTS {
            match events.next_event() {
                Some(ev) => block.push(ev),
                None => break,
            }
        }
        if block.is_empty() {
            break;
        }
        let mut next = 0;
        while let Some(event) = block.get(next) {
            let tenant = match *event {
                ScenarioEvent::Record { tenant, .. } => tenant,
                ScenarioEvent::Flush(mode) => {
                    next += 1;
                    flushes += 1;
                    match mode {
                        FlushMode::Partial => {
                            for predictor in &mut predictors {
                                predictor.flush_history();
                            }
                        }
                        FlushMode::Full => {
                            for (spec, predictor) in specs.iter().zip(&mut predictors) {
                                *predictor = spec.make();
                            }
                        }
                    }
                    continue;
                }
            };
            run.clear();
            while let Some(&ScenarioEvent::Record { record, tenant: t }) = block.get(next) {
                if t != tenant {
                    break;
                }
                run.push(record);
                next += 1;
            }
            let t = tenant as usize;
            let run_instructions: u64 = run.iter().map(BranchRecord::instructions).sum();
            tenant_instructions[t] += run_instructions;
            instructions += run_instructions;
            records += run.len() as u64;
            drive.drive(&mut predictors, &run, |i, predictor, records, plans| {
                tallies[i][t].commit(predictor, records, plans);
            });
        }
        if block.len() < SCENARIO_BLOCK_EVENTS {
            break;
        }
    }
    drive.finish(&mut predictors);
    predictors
        .iter()
        .zip(tallies)
        .map(|(predictor, tallies)| {
            let mut stats = PredictorStats::default();
            let tenants = tallies
                .iter()
                .zip(&tenant_instructions)
                .map(|(tally, &instructions)| {
                    stats.merge(&tally.stats);
                    TenantTally {
                        instructions,
                        stats: tally.stats,
                        attribution: AttributionSummary::from_tally(&tally.attribution),
                    }
                })
                .collect();
            ScenarioRun {
                predictor: predictor.name().to_owned(),
                instructions,
                records,
                stats,
                flushes,
                tenants,
            }
        })
        .collect()
}

/// [`simulate_scenario_multi`] for a single predictor — implemented *as*
/// a one-element fused pass, so the solo and fused paths cannot
/// diverge.
pub fn simulate_scenario(spec: &PredictorSpec, events: &mut dyn EventStream) -> ScenarioRun {
    simulate_scenario_multi(std::slice::from_ref(spec), events)
        .pop()
        .expect("one spec, one run")
}

/// One predictor row of a [`ScenarioReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Registry name.
    pub name: String,
    /// Display name of the built instance.
    pub display: String,
    /// Family label.
    pub family: String,
    /// The run outcome.
    pub run: ScenarioRun,
}

/// A complete scenario report: every predictor's combined and
/// per-tenant outcome, plus the scenario's own parameters, rendered as
/// byte-deterministic Markdown/JSON artifacts.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Instructions per tenant stream.
    pub instructions: u64,
    /// Schedule label ([`ScenarioSpec::schedule_label`]).
    pub schedule: String,
    /// Flush label ([`ScenarioSpec::flush_label`]).
    pub flush: String,
    /// Tenant labels, in tenant-id order.
    pub tenants: Vec<String>,
    /// Predictor rows, in input order.
    pub rows: Vec<ScenarioRow>,
    /// Wall seconds per row — throughput telemetry only, never
    /// serialized, excluded from equality.
    pub cell_seconds: Vec<f64>,
}

/// Equality deliberately ignores `cell_seconds`, mirroring
/// [`crate::SuiteReport`]: content is deterministic, wall-clock is not.
impl PartialEq for ScenarioReport {
    fn eq(&self, other: &Self) -> bool {
        self.scenario == other.scenario
            && self.instructions == other.instructions
            && self.schedule == other.schedule
            && self.flush == other.flush
            && self.tenants == other.tenants
            && self.rows == other.rows
    }
}

/// Runs `predictors` through `scenario` on the engine's scheduling
/// model and folds the outcome into a [`ScenarioReport`].
///
/// Scheduling mirrors the grid: a scenario is one shared event stream
/// (one "column"), so the fused path — every predictor consuming the
/// stream once, block-wise — is taken whenever it can keep the workers
/// busy; otherwise predictors fan out individually, each regenerating
/// the identical stream. Both paths produce the identical report
/// (tested), so worker count never changes a byte of the artifacts.
pub fn run_scenario(
    scenario: &ScenarioSpec,
    predictors: &[PredictorSpec],
    jobs: usize,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> Result<ScenarioReport, String> {
    run_scenario_with_cache(scenario, predictors, jobs, None, progress)
}

/// [`run_scenario`] with an optional result cache. Each predictor's
/// run is keyed on its config text plus the scenario's whole canonical
/// spec text; verified hits are spliced in (progress first, in input
/// order) and only the missing predictors re-consume the event stream
/// — fused together when they can keep the workers busy. The report is
/// bit-identical with the cache absent, cold, or warm.
pub fn run_scenario_with_cache(
    scenario: &ScenarioSpec,
    predictors: &[PredictorSpec],
    jobs: usize,
    cache: Option<&SimCache>,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> Result<ScenarioReport, String> {
    scenario.validate()?;
    if predictors.is_empty() {
        return Err("scenario needs at least one predictor".to_owned());
    }
    let timed: Vec<(ScenarioRun, f64)> = if let Some(cache) = cache.filter(|c| c.enabled()) {
        run_scenario_cached(cache, scenario, predictors, jobs, progress)
    } else if auto_fuses(predictors.len(), 1, jobs) {
        let columns = run_columns(
            jobs,
            1,
            0,
            predictors.len(),
            |_| {
                let mut events = scenario.events();
                let runs = simulate_scenario_multi(predictors, events.as_mut());
                let labels = predictors
                    .iter()
                    .zip(&runs)
                    .map(|(spec, run)| CellLabel {
                        predictor: &spec.name,
                        benchmark: &scenario.name,
                        mpki: run.mpki(),
                    })
                    .collect();
                (runs, labels)
            },
            progress,
        );
        let (cells, seconds) = transpose_columns(columns, predictors.len(), 1);
        cells.into_iter().zip(seconds).collect()
    } else {
        run_indexed(
            jobs,
            predictors.len(),
            0,
            predictors.len(),
            |idx| {
                let spec = &predictors[idx];
                let mut events = scenario.events();
                let run = simulate_scenario(spec, events.as_mut());
                let label = CellLabel {
                    predictor: &spec.name,
                    benchmark: &scenario.name,
                    mpki: run.mpki(),
                };
                (run, label)
            },
            progress,
        )
    };
    let (runs, cell_seconds): (Vec<ScenarioRun>, Vec<f64>) = timed.into_iter().unzip();
    let rows = predictors
        .iter()
        .zip(runs)
        .map(|(spec, run)| ScenarioRow {
            name: spec.name.clone(),
            display: run.predictor.clone(),
            family: spec.family.to_string(),
            run,
        })
        .collect();
    Ok(ScenarioReport {
        scenario: scenario.name.clone(),
        instructions: scenario.instructions,
        schedule: scenario.schedule_label(),
        flush: scenario.flush_label(),
        tenants: scenario.tenant_labels(),
        rows,
        cell_seconds,
    })
}

/// The cache-aware scenario dispatch behind
/// [`run_scenario_with_cache`]: probe every predictor's key, splice
/// verified hits (zero wall seconds), then run only the missing
/// predictors over the shared event stream — fused when the miss-set
/// alone satisfies the engine's fusing heuristic, individually
/// otherwise. Computed runs are written back under the policy.
fn run_scenario_cached(
    cache: &SimCache,
    scenario: &ScenarioSpec,
    predictors: &[PredictorSpec],
    jobs: usize,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> Vec<(ScenarioRun, f64)> {
    let total = predictors.len();
    let keys: Vec<CacheKey> = predictors
        .iter()
        .map(|spec| scenario_cell_key(spec, scenario))
        .collect();
    let mut cells: Vec<Option<(ScenarioRun, f64)>> = keys
        .iter()
        .map(|key| {
            cache
                .lookup_scenario(key, scenario.tenants.len())
                .map(|run| (run, 0.0))
        })
        .collect();
    let mut completed = 0usize;
    for (idx, cell) in cells.iter().enumerate() {
        if let Some((run, _)) = cell {
            completed += 1;
            progress(CellUpdate {
                predictor: &predictors[idx].name,
                benchmark: &scenario.name,
                mpki: run.mpki(),
                completed,
                total,
            });
        }
    }
    let misses: Vec<usize> = (0..total).filter(|&idx| cells[idx].is_none()).collect();
    if misses.is_empty() {
        // Every predictor was a verified hit; nothing to simulate.
    } else if auto_fuses(misses.len(), 1, jobs) {
        // Fuse only the missing predictors over one shared stream:
        // fusing a subset is bit-identical to solo runs.
        let miss_specs: Vec<PredictorSpec> =
            misses.iter().map(|&idx| predictors[idx].clone()).collect();
        let columns = run_columns(
            jobs,
            1,
            completed,
            total,
            |_| {
                let mut events = scenario.events();
                let runs = simulate_scenario_multi(&miss_specs, events.as_mut());
                let labels = miss_specs
                    .iter()
                    .zip(&runs)
                    .map(|(spec, run)| CellLabel {
                        predictor: &spec.name,
                        benchmark: &scenario.name,
                        mpki: run.mpki(),
                    })
                    .collect();
                (runs, labels)
            },
            progress,
        );
        let (cell_runs, seconds) = transpose_columns(columns, miss_specs.len(), 1);
        for ((&idx, run), seconds) in misses.iter().zip(cell_runs).zip(seconds) {
            cache.store_scenario(&keys[idx], &run);
            cells[idx] = Some((run, seconds));
        }
    } else {
        let computed = run_indexed(
            jobs,
            misses.len(),
            completed,
            total,
            |j| {
                let spec = &predictors[misses[j]];
                let mut events = scenario.events();
                let run = simulate_scenario(spec, events.as_mut());
                let label = CellLabel {
                    predictor: &spec.name,
                    benchmark: &scenario.name,
                    mpki: run.mpki(),
                };
                (run, label)
            },
            progress,
        );
        for (&idx, (run, seconds)) in misses.iter().zip(computed) {
            cache.store_scenario(&keys[idx], &run);
            cells[idx] = Some((run, seconds));
        }
    }
    cells
        .into_iter()
        .map(|cell| cell.expect("every scenario cell filled"))
        .collect()
}

impl ScenarioReport {
    /// Renders the report as a deterministic JSON document (stable key
    /// order, fixed float precision, no timestamps).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"report\": \"bp-scenario\",");
        let _ = writeln!(out, "  \"scenario\": {},", json_str(&self.scenario));
        let _ = writeln!(out, "  \"instructions\": {},", self.instructions);
        let _ = writeln!(out, "  \"schedule\": {},", json_str(&self.schedule));
        let _ = writeln!(out, "  \"flush\": {},", json_str(&self.flush));
        out.push_str("  \"tenants\": [");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(t));
        }
        out.push_str("],\n  \"predictors\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json_str(&row.name));
            let _ = writeln!(out, "      \"display\": {},", json_str(&row.display));
            let _ = writeln!(out, "      \"family\": {},", json_str(&row.family));
            let _ = writeln!(out, "      \"mpki\": {:.6},", row.run.mpki());
            let _ = writeln!(out, "      \"instructions\": {},", row.run.instructions);
            let _ = writeln!(out, "      \"records\": {},", row.run.records);
            let _ = writeln!(out, "      \"predicted\": {},", row.run.stats.predicted);
            let _ = writeln!(
                out,
                "      \"mispredicted\": {},",
                row.run.stats.mispredicted
            );
            let _ = writeln!(out, "      \"flushes\": {},", row.run.flushes);
            out.push_str("      \"tenants\": [\n");
            for (t, tally) in row.run.tenants.iter().enumerate() {
                out.push_str("        {");
                let _ = write!(
                    out,
                    "\"label\": {}, \"instructions\": {}, \"predicted\": {}, \
                     \"mispredicted\": {}, \"mpki\": {:.6}, \"attribution\": {}",
                    json_str(&self.tenants[t]),
                    tally.instructions,
                    tally.stats.predicted,
                    tally.stats.mispredicted,
                    tally.mpki(),
                    crate::report::attribution_json(&tally.attribution, "        ")
                );
                out.push_str(if t + 1 < row.run.tenants.len() {
                    "},\n"
                } else {
                    "}\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 < self.rows.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the report as deterministic Markdown: the scenario
    /// parameters, the combined/per-tenant MPKI table, and per-tenant
    /// component attribution.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Scenario report — `{}`", self.scenario);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Deterministic output of `bp scenario {} --instr {}`: the same inputs \
             produce a byte-identical report (no timestamps, no wall-clock, identical \
             across `--jobs` settings).",
            self.scenario, self.instructions
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "- tenants: {} × {} instructions each, interleaved into one shared stream",
            self.tenants.len(),
            self.instructions
        );
        for (t, label) in self.tenants.iter().enumerate() {
            let _ = writeln!(out, "  - tenant {t}: {label}");
        }
        let _ = writeln!(out, "- schedule: {}", self.schedule);
        let _ = writeln!(out, "- flush: {}", self.flush);
        let _ = writeln!(out, "- predictors: {}", self.rows.len());
        let _ = writeln!(out);

        let _ = writeln!(out, "## MPKI (combined and per tenant, lower is better)");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Every predictor is shared by all tenants; per-tenant MPKI counts a \
             tenant's mispredictions against its own retired instructions."
        );
        let _ = writeln!(out);
        let mut header = String::from("| config | family | combined | flushes |");
        let mut rule = String::from("|---|---|---:|---:|");
        for t in 0..self.tenants.len() {
            let _ = write!(header, " t{t} |");
            rule.push_str("---:|");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            let _ = write!(
                out,
                "| `{}` | {} | {:.3} | {} |",
                row.name,
                row.family,
                row.run.mpki(),
                row.run.flushes
            );
            for tally in &row.run.tenants {
                let _ = write!(out, " {:.3} |", tally.mpki());
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "## Per-tenant component attribution");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Which component provided each tenant's predictions, with the suite \
             report's save/loss split: *saves* are predictions the provider got right \
             while its alternate path would have mispredicted, *losses* the reverse, \
             *net/ki* their difference per kilo instruction of the tenant."
        );
        for row in &self.rows {
            let _ = writeln!(out);
            let _ = writeln!(out, "### `{}` — {}", row.name, row.display);
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "| tenant | component | provided | share | accuracy | saves | losses | net/ki |"
            );
            let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|");
            for (t, tally) in row.run.tenants.iter().enumerate() {
                let total = tally.attribution.total_provided();
                for (key, tallied) in tally.attribution.components() {
                    let share = if total == 0 {
                        0.0
                    } else {
                        tallied.provided as f64 / total as f64 * 100.0
                    };
                    let accuracy = tallied.accuracy().unwrap_or(0.0) * 100.0;
                    let net_per_ki = if tally.instructions == 0 {
                        0.0
                    } else {
                        tallied.net_saves() as f64 * 1000.0 / tally.instructions as f64
                    };
                    let _ = writeln!(
                        out,
                        "| t{t} | {key} | {} | {share:.1} % | {accuracy:.1} % | {} | {} | {net_per_ki:+.3} |",
                        tallied.provided, tallied.saves, tallied.losses
                    );
                }
            }
        }
        out
    }
}

/// Converts a parsed value to `u32` with a range check.
fn as_u32(value: &ConfigValue, what: &str) -> Result<u32, ConfigError> {
    let n = value.as_u64(what)?;
    u32::try_from(n).map_err(|_| ConfigError::new(format!("{what} out of range: {n}")))
}

/// Parses a `bp scenario --config` file: a JSON-subset document of the
/// form
///
/// ```text
/// {
///   "name": "my_mix",
///   "instructions": 150000,
///   "tenants": [
///     {"benchmark": "SPEC2K6-04"},
///     {"adversarial": {"seed": 7, "genes": 12}}
///   ],
///   "schedule": {"round_robin": {"quantum": 64}},
///   "flush": {"period": 50000, "mode": "partial"}
/// }
/// ```
///
/// `instructions` defaults to 150 000; `schedule` defaults to
/// round-robin with quantum 64; `flush` is optional (absent = never
/// flush); `mode` is `"partial"` or `"full"`; `schedule` alternatively
/// takes `{"seeded_bursts": {"seed": N, "min": N, "max": N}}`. The
/// parsed spec is fully validated.
pub fn parse_scenario_file(text: &str) -> Result<ScenarioSpec, ConfigError> {
    let doc = ConfigValue::parse(text)?;
    doc.expect_keys(
        "scenario file",
        &["name", "instructions", "tenants", "schedule", "flush"],
    )?;
    let name = doc.req("name")?.as_str("name")?.to_owned();
    let instructions = match doc.get("instructions") {
        Some(v) => v.as_u64("instructions")?,
        None => 150_000,
    };
    let tenants = doc
        .req("tenants")?
        .as_list("tenants")?
        .iter()
        .map(|entry| -> Result<TenantSpec, ConfigError> {
            entry.expect_keys("tenant entry", &["benchmark", "adversarial"])?;
            match (entry.get("benchmark"), entry.get("adversarial")) {
                (Some(b), None) => Ok(TenantSpec::Benchmark(b.as_str("benchmark")?.to_owned())),
                (None, Some(a)) => {
                    a.expect_keys("adversarial tenant", &["seed", "genes"])?;
                    Ok(TenantSpec::Adversarial {
                        seed: a.req("seed")?.as_u64("seed")?,
                        genes: a.req("genes")?.as_usize("genes")?,
                    })
                }
                _ => Err(ConfigError::new(
                    "tenant entry needs exactly one of `benchmark` or `adversarial`",
                )),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let schedule = match doc.get("schedule") {
        None => InterleaveSchedule::RoundRobin { quantum: 64 },
        Some(s) => {
            s.expect_keys("schedule", &["round_robin", "seeded_bursts"])?;
            match (s.get("round_robin"), s.get("seeded_bursts")) {
                (Some(rr), None) => {
                    rr.expect_keys("round_robin schedule", &["quantum"])?;
                    InterleaveSchedule::RoundRobin {
                        quantum: as_u32(rr.req("quantum")?, "quantum")?,
                    }
                }
                (None, Some(sb)) => {
                    sb.expect_keys("seeded_bursts schedule", &["seed", "min", "max"])?;
                    InterleaveSchedule::SeededBursts {
                        seed: sb.req("seed")?.as_u64("seed")?,
                        min: as_u32(sb.req("min")?, "min")?,
                        max: as_u32(sb.req("max")?, "max")?,
                    }
                }
                _ => {
                    return Err(ConfigError::new(
                        "schedule needs exactly one of `round_robin` or `seeded_bursts`",
                    ))
                }
            }
        }
    };
    let flush = doc
        .get("flush")
        .map(|f| -> Result<ScenarioFlush, ConfigError> {
            f.expect_keys("flush", &["period", "mode"])?;
            let period = f.req("period")?.as_u64("period")?;
            let mode = match f.req("mode")?.as_str("mode")? {
                "partial" => FlushMode::Partial,
                "full" => FlushMode::Full,
                other => {
                    return Err(ConfigError::new(format!(
                        "unknown flush mode `{other}` (partial, full)"
                    )))
                }
            };
            Ok(ScenarioFlush { period, mode })
        })
        .transpose()?;
    let spec = ScenarioSpec {
        name,
        tenants,
        schedule,
        flush,
        instructions,
    };
    spec.validate().map_err(ConfigError::new)?;
    Ok(spec)
}

/// Outcome of an [`adversarial_search`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialSearchResult {
    /// The worst-case genome found. Replaying it
    /// ([`Genome::stream`]) reproduces `mpki` exactly.
    pub genome: Genome,
    /// MPKI of the target config on the worst-case stream.
    pub mpki: f64,
    /// MPKI of the same config on the quiet reference benchmark at the
    /// same instruction budget — the search must end strictly above it.
    pub baseline_mpki: f64,
    /// Streams evaluated (initial genome + one per iteration).
    pub evaluations: u32,
    /// Accepted (strictly improving) mutations.
    pub improvements: u32,
}

/// Seeded hill-climb over branch-pattern [`Genome`]s maximizing the
/// MPKI of one registry config.
///
/// Each iteration proposes one deterministic point mutation of the
/// incumbent ([`Genome::mutated`], seeded from `seed` and the iteration
/// index) and keeps it iff the target predictor — rebuilt cold for
/// every evaluation, per the CBP protocol — mispredicts strictly more
/// per kilo instruction. There is **no wall-clock anywhere in the
/// loop**: the same `(target, seed, genes, instructions, iterations)`
/// always walks the same path to the same worst-case genome, so a
/// reported result is reproducible from its parameters alone.
pub fn adversarial_search(
    target: &PredictorSpec,
    seed: u64,
    genes: usize,
    instructions: u64,
    iterations: u32,
) -> AdversarialSearchResult {
    let eval = |g: &Genome| simulate_stream(target.make().as_mut(), g.stream(instructions)).mpki();
    let mut best = Genome::seeded(seed, genes);
    let mut best_mpki = eval(&best);
    let mut improvements = 0u32;
    for i in 0..iterations {
        let mutation_seed = seed ^ (u64::from(i) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let candidate = best.mutated(mutation_seed);
        let mpki = eval(&candidate);
        if mpki > best_mpki {
            best = candidate;
            best_mpki = mpki;
            improvements += 1;
        }
    }
    let baseline = bp_workloads::quick_benchmark("quiet-baseline", 1, instructions);
    let baseline_mpki = crate::run::simulate(target.make().as_mut(), &baseline).mpki();
    AdversarialSearchResult {
        genome: best,
        mpki: best_mpki,
        baseline_mpki,
        evaluations: iterations + 1,
        improvements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_workloads::SingleTenant;

    fn two_predictors() -> Vec<PredictorSpec> {
        ["bimodal", "tage-gsc+imli"]
            .iter()
            .map(|n| lookup(n).expect("registered"))
            .collect()
    }

    #[test]
    fn builtin_scenarios_validate_and_unknown_is_none() {
        for name in SCENARIO_NAMES {
            let spec = scenario_by_name(name).expect("builtin");
            assert_eq!(spec.name, name);
            spec.validate().expect("builtin scenarios are valid");
        }
        assert!(scenario_by_name("nope").is_none());
    }

    #[test]
    fn scenario_default_predictors_resolve() {
        assert_eq!(
            scenario_report_predictors().len(),
            SCENARIO_REPORT_NAMES.len()
        );
    }

    #[test]
    fn single_tenant_scenario_matches_plain_simulation() {
        // The degenerate scenario — one tenant, no flushes — must be
        // bit-identical to simulate_stream on the raw benchmark.
        let bench = find_benchmark("SPEC2K6-04").expect("paper benchmark");
        for spec in two_predictors() {
            let plain = simulate_stream(spec.make().as_mut(), bench.stream(40_000));
            let mut events = SingleTenant::new(bench.stream(40_000));
            let run = simulate_scenario(&spec, &mut events);
            assert_eq!(run.stats, plain.stats, "{}", spec.name);
            assert_eq!(run.instructions, plain.instructions);
            assert_eq!(run.records, plain.records);
            assert_eq!(run.flushes, 0);
            assert_eq!(run.tenants.len(), 1);
            assert_eq!(run.tenants[0].stats, plain.stats);
        }
    }

    #[test]
    fn tenant_tallies_conserve_combined_totals() {
        let scenario = scenario_by_name("paper_mix").expect("builtin");
        for spec in two_predictors() {
            let mut events = scenario.events();
            let run = simulate_scenario(&spec, events.as_mut());
            assert_eq!(run.tenants.len(), scenario.tenants.len());
            let mut stats = PredictorStats::default();
            let mut instructions = 0u64;
            for tally in &run.tenants {
                stats.merge(&tally.stats);
                instructions += tally.instructions;
                assert_eq!(
                    tally.attribution.total_provided(),
                    tally.stats.predicted,
                    "every prediction is attributed to its tenant"
                );
            }
            assert_eq!(
                stats, run.stats,
                "{}: tenant stats must sum exactly",
                spec.name
            );
            assert_eq!(instructions, run.instructions);
        }
    }

    #[test]
    fn fused_and_solo_scenario_runs_are_identical() {
        let scenario = scenario_by_name("paper_switch").expect("builtin");
        let predictors = two_predictors();
        let mut events = scenario.events();
        let fused = simulate_scenario_multi(&predictors, events.as_mut());
        for (spec, fused_run) in predictors.iter().zip(&fused) {
            let mut solo_events = scenario.events();
            let solo = simulate_scenario(spec, solo_events.as_mut());
            assert_eq!(fused_run, &solo, "{} diverged under fusion", spec.name);
        }
    }

    #[test]
    fn scenario_report_is_deterministic_across_jobs() {
        let scenario = scenario_by_name("paper_mix").expect("builtin");
        let predictors = two_predictors();
        let a = run_scenario(&scenario, &predictors, 1, &|_| {}).expect("runs");
        let b = run_scenario(&scenario, &predictors, 8, &|_| {}).expect("runs");
        assert_eq!(a, b, "report must not depend on worker count");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_markdown(), b.to_markdown());
        let md = a.to_markdown();
        assert!(md.contains("## MPKI (combined and per tenant"));
        assert!(md.contains("## Per-tenant component attribution"));
        let json = a.to_json();
        assert!(json.contains("\"report\": \"bp-scenario\""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn partial_flushes_fire_and_hurt_accuracy() {
        let quiet = scenario_by_name("paper_mix").expect("builtin");
        let flushed = scenario_by_name("paper_switch").expect("builtin");
        let spec = lookup("tage-gsc+imli").expect("registered");
        let mut quiet_events = quiet.events();
        let quiet_run = simulate_scenario(&spec, quiet_events.as_mut());
        let mut flushed_events = flushed.events();
        let flushed_run = simulate_scenario(&spec, flushed_events.as_mut());
        assert_eq!(quiet_run.flushes, 0);
        assert!(
            flushed_run.flushes >= 10,
            "600k/50k: {}",
            flushed_run.flushes
        );
        assert!(
            flushed_run.stats.mispredicted > quiet_run.stats.mispredicted,
            "history flushes must cost mispredictions ({} vs {})",
            flushed_run.stats.mispredicted,
            quiet_run.stats.mispredicted
        );
    }

    #[test]
    fn full_flush_is_at_least_as_destructive_as_partial() {
        let mut scenario = scenario_by_name("paper_switch").expect("builtin");
        let spec = lookup("tage-gsc+imli").expect("registered");
        let mut partial_events = scenario.events();
        let partial = simulate_scenario(&spec, partial_events.as_mut());
        scenario.flush = Some(ScenarioFlush {
            period: 50_000,
            mode: FlushMode::Full,
        });
        let mut full_events = scenario.events();
        let full = simulate_scenario(&spec, full_events.as_mut());
        assert_eq!(partial.flushes, full.flushes);
        assert!(
            full.stats.mispredicted > partial.stats.mispredicted,
            "cold rebuilds forget learned tables too ({} vs {})",
            full.stats.mispredicted,
            partial.stats.mispredicted
        );
    }

    #[test]
    fn parse_scenario_file_roundtrip_and_errors() {
        let spec = parse_scenario_file(
            r#"{
                "name": "custom",
                "instructions": 60000,
                "tenants": [
                    {"benchmark": "SPEC2K6-04"},
                    {"adversarial": {"seed": 7, "genes": 12}}
                ],
                "schedule": {"seeded_bursts": {"seed": 3, "min": 8, "max": 64}},
                "flush": {"period": 20000, "mode": "full"}
            }"#,
        )
        .expect("valid file");
        assert_eq!(spec.name, "custom");
        assert_eq!(spec.instructions, 60_000);
        assert_eq!(spec.tenants.len(), 2);
        assert_eq!(
            spec.schedule,
            InterleaveSchedule::SeededBursts {
                seed: 3,
                min: 8,
                max: 64
            }
        );
        assert_eq!(
            spec.flush,
            Some(ScenarioFlush {
                period: 20_000,
                mode: FlushMode::Full
            })
        );

        // Defaults: schedule and flush optional.
        let spec = parse_scenario_file(r#"{"name": "d", "tenants": [{"benchmark": "MM-4"}]}"#)
            .expect("defaults");
        assert_eq!(
            spec.schedule,
            InterleaveSchedule::RoundRobin { quantum: 64 }
        );
        assert_eq!(spec.flush, None);
        assert_eq!(spec.instructions, 150_000);

        for bad in [
            r#"{"tenants": [{"benchmark": "MM-4"}]}"#,
            r#"{"name": "x", "tenants": []}"#,
            r#"{"name": "x", "tenants": [{"benchmark": "no-such-benchmark"}]}"#,
            r#"{"name": "x", "tenants": [{"benchmark": "MM-4"}], "flush": {"period": 1, "mode": "sideways"}}"#,
            r#"{"name": "bad name!", "tenants": [{"benchmark": "MM-4"}]}"#,
            r#"{"name": "x", "tenants": [{"benchmark": "MM-4", "adversarial": {"seed": 1, "genes": 2}}]}"#,
        ] {
            assert!(parse_scenario_file(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn adversarial_search_is_reproducible_and_beats_quiet_baseline() {
        let spec = lookup("tage-gsc+imli").expect("registered");
        let a = adversarial_search(&spec, 0xBAD5EED, 8, 20_000, 12);
        let b = adversarial_search(&spec, 0xBAD5EED, 8, 20_000, 12);
        assert_eq!(a, b, "fixed seed must reproduce the identical search");
        assert!(
            a.mpki > a.baseline_mpki,
            "worst case ({:.3} MPKI) must sit strictly above the quiet baseline ({:.3})",
            a.mpki,
            a.baseline_mpki
        );
        // The genome alone reproduces the reported MPKI.
        let replayed = simulate_stream(spec.make().as_mut(), a.genome.stream(20_000)).mpki();
        assert!((replayed - a.mpki).abs() < 1e-12);
        assert_eq!(a.evaluations, 13);
        // A different seed walks a different path.
        let c = adversarial_search(&spec, 0x0DD5EED, 8, 20_000, 12);
        assert_ne!(a.genome, c.genome);
    }
}
