//! Traced layer legs of the perfbench workloads.
//!
//! `run.py --trace 1` runs this binary once per traced run. It repeats a
//! workload's work as a sequence of calls into the workspace crates'
//! public functions and wraps each call in a span (name, start, end,
//! parent, counts). Spans stay in memory and are written out as one
//! JSON document at the end; `run.py` turns them into per-layer self
//! times, the accounting line and the per-layer metrics.
//!
//! Every workload runs every leg group, so every layer metric has a
//! value on every workload. The groups that make up the workload's own
//! work run at full size and are marked `accounted`; the others run on
//! a small probe input and are left out of the accounting.
//!
//! ```text
//! perfbench-tracer --workload NAME --work DIR --benches a,b,c --instr N
//!                  [--scenario FILE] [--cache-src DIR] [--spans on|off]
//! perfbench-tracer --spawn FILE -- COMMAND...   # runs COMMAND, writes its peak RSS (KiB) to FILE
//! ```

mod spawn;

use bp_cache::CacheStore;
use bp_components::StorageBudget;
use bp_history::HistoryState;
use bp_sim::{
    grid_cell_key, lookup, paper_report_predictors, parse_scenario_file, registry, run_scenario,
    scenario_by_name, scenario_report_predictors, simulate, simulate_stream_attributed,
    solve_budget, PhaseSummary, PredictorSpec, ReportRow, SuiteReport, SweepReport, SweepRow,
    STANDARD_BUDGETS_KBIT, SWEEP_FAMILIES,
};
use bp_tage::TageScConfig;
use bp_trace::{write_trace_v2, BranchStream, Trace, TraceReader};
use bp_workloads::{find_benchmark, generate, BenchmarkSpec};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Instructions of the probe input every non-accounted group runs on.
const PROBE_INSTRUCTIONS: u64 = 200_000;

/// Configurations of the per-host probe: the paper report ladder plus
/// the two table-only baselines.
const BASELINES: [&str; 2] = ["bimodal", "gshare"];

/// The configuration whose history fold set and attributed drive the
/// probes measure.
const PROBE_CONFIG: &str = "tage-sc-l+imli";

struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    accounted: bool,
    counts: Vec<(&'static str, u64)>,
}

/// In-memory span recorder. With `on == false` every call is a no-op,
/// so the same legs run untraced for the overhead measurement.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: impl Into<String>, accounted: bool) -> usize {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
            accounted,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize, counts: &[(&'static str, u64)]) {
        if !self.on {
            return;
        }
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos();
        span.counts.extend_from_slice(counts);
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the counts to attach.
    fn span<R>(
        &mut self,
        name: impl Into<String>,
        accounted: bool,
        f: impl FnOnce() -> (R, Vec<(&'static str, u64)>),
    ) -> R {
        let id = self.begin(name, accounted);
        let (result, counts) = f();
        self.end(id, &counts);
        result
    }
}

struct Args {
    workload: String,
    work: PathBuf,
    benches: Vec<BenchmarkSpec>,
    instructions: u64,
    scenario: Option<PathBuf>,
    cache_src: Option<PathBuf>,
    spans: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let work = PathBuf::from(get("--work").ok_or("--work is required")?);
    let benches = get("--benches")
        .ok_or("--benches is required")?
        .split(',')
        .map(|n| find_benchmark(n).ok_or_else(|| format!("unknown benchmark {n}")))
        .collect::<Result<Vec<_>, _>>()?;
    let instructions = get("--instr")
        .ok_or("--instr is required")?
        .parse()
        .map_err(|e| format!("bad --instr: {e}"))?;
    let spans = match get("--spans").as_deref() {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("bad --spans {other}")),
    };
    Ok(Args {
        workload,
        work,
        benches,
        instructions,
        scenario: get("--scenario").map(PathBuf::from),
        cache_src: get("--cache-src").map(PathBuf::from),
        spans,
    })
}

fn counts_of(trace: &Trace) -> Vec<(&'static str, u64)> {
    let branches = trace.iter().filter(|r| r.is_conditional()).count() as u64;
    vec![("records", trace.len() as u64), ("branches", branches)]
}

fn sim_counts(result: &bp_sim::SimResult) -> Vec<(&'static str, u64)> {
    vec![
        ("records", result.records),
        ("branches", result.stats.predicted),
        ("mispredicts", result.stats.mispredicted),
    ]
}

/// One simulated cell, written out for `run.py`'s reference checks.
struct Cell {
    leg: &'static str,
    config: String,
    benchmark: String,
    instructions: u64,
    mispredicted: u64,
}

struct Legs<'a> {
    tr: Tracer,
    args: &'a Args,
    cells: Vec<Cell>,
    checks: Vec<(String, bool)>,
}

impl Legs<'_> {
    fn generate_all(&mut self, benches: &[BenchmarkSpec], instr: u64, acc: bool) -> Vec<Trace> {
        benches
            .iter()
            .map(|spec| {
                self.tr.span("workloads.generate", acc, || {
                    let trace = generate(spec, instr);
                    let counts = counts_of(&trace);
                    (trace, counts)
                })
            })
            .collect()
    }

    /// The paper report: the attributed drive of every report config
    /// over every benchmark, folded into the report and emitted.
    fn report(&mut self, traces: &[Trace], instr: u64, acc: bool) -> Result<(), String> {
        let predictors = self.tr.span("registry.build", acc, || {
            let p = paper_report_predictors();
            let n = p.len() as u64;
            (p, vec![("configs", n)])
        });
        let warmup = instr / 5;
        let mut runs = Vec::with_capacity(predictors.len() * traces.len());
        for spec in &predictors {
            for trace in traces {
                let mut p = self.tr.span("registry.make", acc, || (spec.make(), vec![]));
                let run = self.tr.span("drive.attributed", acc, || {
                    let run = simulate_stream_attributed(p.as_mut(), trace.stream(), warmup);
                    let counts = sim_counts(&run.result);
                    (run, counts)
                });
                runs.push(run);
            }
        }
        let w = traces.len();
        let rows = predictors
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let instance = spec.make();
                let storage_items = instance.storage_items();
                let mut warmup = PhaseSummary::default();
                let mut steady = PhaseSummary::default();
                for run in &runs[i * w..(i + 1) * w] {
                    warmup.merge(&run.warmup);
                    steady.merge(&run.steady);
                }
                ReportRow {
                    name: spec.name.clone(),
                    display: instance.name().to_owned(),
                    family: spec.family.to_string(),
                    paper_ref: spec.paper_ref.clone(),
                    storage_bits: storage_items.iter().map(|item| item.bits).sum(),
                    storage_items,
                    mpki: runs[i * w..(i + 1) * w]
                        .iter()
                        .map(|r| r.result.mpki())
                        .collect(),
                    warmup,
                    steady,
                }
            })
            .collect();
        let report = SuiteReport {
            suite: "paper".to_owned(),
            instructions: instr,
            warmup_instructions: warmup,
            benchmarks: traces.iter().map(|t| t.name().to_owned()).collect(),
            rows,
            cell_records: runs.iter().map(|r| r.result.records).collect(),
            cell_seconds: vec![0.0; runs.len()],
        };
        let (json, md) = self.tr.span("report.emit", acc, || {
            let docs = (report.to_json(), report.to_markdown());
            let bytes = (docs.0.len() + docs.1.len()) as u64;
            (docs, vec![("bytes", bytes)])
        });
        if acc {
            self.write_doc("REPORT_paper.json", &json)?;
            self.write_doc("REPORT_paper.md", &md)?;
        }
        Ok(())
    }

    /// The seeded scenario through the library's scenario runner at one
    /// job; its JSON is compared with `bp scenario`'s.
    fn scenario(&mut self, acc: bool) -> Result<(), String> {
        let spec = match &self.args.scenario {
            Some(path) if acc => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                parse_scenario_file(&text).map_err(|e| format!("{}: {e}", path.display()))?
            }
            _ => {
                let mut spec = scenario_by_name("paper_switch").ok_or("paper_switch missing")?;
                spec.instructions = PROBE_INSTRUCTIONS / 4;
                spec
            }
        };
        let predictors = self.tr.span("registry.build", acc, || {
            let p = scenario_report_predictors();
            let n = p.len() as u64;
            (p, vec![("configs", n)])
        });
        let report = self.tr.span("scenario.run", acc, || {
            let report = run_scenario(&spec, &predictors, 1, &|_| {});
            let counts = match &report {
                Ok(r) => {
                    let first = &r.rows[0].run;
                    vec![
                        ("events", first.records + first.flushes),
                        ("records", first.records),
                        ("flushes", first.flushes),
                        ("branches", first.stats.predicted),
                        ("predictors", r.rows.len() as u64),
                    ]
                }
                Err(_) => vec![],
            };
            (report, counts)
        })?;
        let json = self.tr.span("report.emit", acc, || {
            let doc = report.to_json();
            let bytes = doc.len() as u64;
            (doc, vec![("bytes", bytes)])
        });
        if acc {
            self.write_doc(&format!("SCENARIO_{}.json", report.scenario), &json)?;
        }
        Ok(())
    }

    /// The budget sweep: solve every (budget, family), drive every solved
    /// config over every benchmark, and emit the sweep documents.
    fn sweep(&mut self, traces: &[Trace], instr: u64, acc: bool) -> Result<(), String> {
        let families: Vec<String> = SWEEP_FAMILIES.iter().map(|&f| f.to_owned()).collect();
        let mut specs = Vec::new();
        for &budget in STANDARD_BUDGETS_KBIT.iter() {
            for family in &families {
                let config = self.tr.span("sweep.solve", acc, || {
                    (solve_budget(family, budget * 1024), vec![("solves", 1)])
                });
                let config = config.map_err(|e| e.to_string())?;
                specs.push((
                    budget,
                    family.clone(),
                    PredictorSpec::new(
                        format!("{family}@{budget}"),
                        format!("budget sweep: {budget} Kbit target"),
                        config,
                    ),
                ));
            }
        }
        let mut rows = Vec::with_capacity(specs.len());
        for (budget, family, spec) in &specs {
            let mut display = String::new();
            let mut mpki = Vec::with_capacity(traces.len());
            for trace in traces {
                let mut p = self.tr.span("registry.make", acc, || (spec.make(), vec![]));
                let result = self.tr.span(format!("sweep.b{budget}"), acc, || {
                    let r = simulate(p.as_mut(), trace);
                    let counts = sim_counts(&r);
                    (r, counts)
                });
                display.clone_from(&result.predictor);
                mpki.push(result.mpki());
                self.cells.push(Cell {
                    leg: "sweep",
                    config: spec.name.clone(),
                    benchmark: trace.name().to_owned(),
                    instructions: result.instructions,
                    mispredicted: result.stats.mispredicted,
                });
            }
            rows.push(SweepRow {
                family: family.clone(),
                budget_kbit: *budget,
                storage_bits: spec.storage_bits(),
                config: spec.config.clone(),
                display,
                mpki,
            });
        }
        let report = SweepReport {
            suite: "paper".to_owned(),
            instructions: instr,
            budgets_kbit: STANDARD_BUDGETS_KBIT.to_vec(),
            families,
            benchmarks: traces.iter().map(|t| t.name().to_owned()).collect(),
            rows,
        };
        let (json, md) = self.tr.span("report.emit", acc, || {
            let docs = (report.to_json(), report.to_markdown());
            let bytes = (docs.0.len() + docs.1.len()) as u64;
            (docs, vec![("bytes", bytes)])
        });
        self.cache(&specs, traces, instr, acc)?;
        if acc {
            self.write_doc("SWEEP_paper.json", &json)?;
            self.write_doc("SWEEP_paper.md", &md)?;
        }
        Ok(())
    }

    /// The result cache. On `budget_sweep` the probe reads the entries
    /// `bp sweep` stored (a warm read) and the store writes them into a
    /// fresh directory (a cold write); elsewhere the sweep probe's cells
    /// are stored and read back.
    fn cache(
        &mut self,
        specs: &[(u64, String, PredictorSpec)],
        traces: &[Trace],
        instr: u64,
        acc: bool,
    ) -> Result<(), String> {
        let keys: Vec<_> = specs
            .iter()
            .flat_map(|(_, _, spec)| {
                traces
                    .iter()
                    .map(move |t| grid_cell_key(spec, t.name(), instr))
            })
            .collect();
        let fresh = CacheStore::new(self.args.work.join("tracer-cache"));
        fresh.clear();
        let payloads: Vec<String> = match (&self.args.cache_src, acc) {
            (Some(src), true) => {
                let src = CacheStore::new(src);
                self.probe(&src, &keys, acc)
            }
            _ => {
                let first = self.cells.len() - keys.len();
                self.cells[first..]
                    .iter()
                    .map(|c| format!("{{\"mispredicted\": {}}}", c.mispredicted))
                    .collect()
            }
        };
        let id = self.tr.begin("cache.store", acc);
        let mut written = 0u64;
        for (key, payload) in keys.iter().zip(&payloads) {
            fresh
                .save(key, payload)
                .map_err(|e| format!("cache store failed: {e}"))?;
            written += 1;
        }
        self.tr.end(id, &[("entries", written)]);
        let bytes: u64 = keys
            .iter()
            .filter_map(|k| std::fs::metadata(fresh.entry_path(k)).ok())
            .map(|m| m.len())
            .sum();
        if !(self.args.cache_src.is_some() && acc) {
            let loaded = self.probe(&fresh, &keys, acc);
            self.check(
                "cache reads back the stored payloads".to_owned(),
                loaded == payloads,
            );
        }
        let id = self.tr.begin("cache.size", false);
        self.tr
            .end(id, &[("entries", keys.len() as u64), ("bytes", bytes)]);
        fresh.clear();
        Ok(())
    }

    fn probe(&mut self, store: &CacheStore, keys: &[bp_cache::CacheKey], acc: bool) -> Vec<String> {
        let id = self.tr.begin("cache.probe", acc);
        let loaded: Vec<Option<String>> = keys.iter().map(|k| store.load(k)).collect();
        let hits = loaded.iter().filter(|p| p.is_some()).count() as u64;
        self.tr
            .end(id, &[("probes", keys.len() as u64), ("hits", hits)]);
        loaded.into_iter().map(Option::unwrap_or_default).collect()
    }

    /// `bp generate` then `bp simulate` per config on the written file:
    /// encode to a v2 file, decode it back once per config, drive.
    fn replay(&mut self, traces: &[Trace], acc: bool) -> Result<(), String> {
        let configs: Vec<PredictorSpec> = BASELINES
            .iter()
            .map(|n| lookup(n).ok_or_else(|| format!("{n} not registered")))
            .collect::<Result<_, _>>()?;
        let path = self.args.work.join("tracer-replay.bptr");
        for trace in traces {
            self.tr
                .span("trace.encode", acc, || {
                    let file = File::create(&path).and_then(|f| {
                        let mut w = BufWriter::new(f);
                        write_trace_v2(&mut w, trace).map_err(std::io::Error::other)?;
                        w.flush()
                    });
                    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                    (
                        file,
                        vec![("records", trace.len() as u64), ("bytes", bytes)],
                    )
                })
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            for spec in &configs {
                // `bp simulate` decodes the file once per config.
                let decoded = self.tr.span("trace.decode", acc, || {
                    let decoded = decode_matches(&path, trace);
                    let n = decoded.as_ref().map_or(0, |&(n, _)| n);
                    (decoded, vec![("records", n)])
                })?;
                self.check(
                    format!("v2 decode of {} equals the generated records", trace.name()),
                    decoded.1,
                );
                let mut p = self.tr.span("registry.make", acc, || (spec.make(), vec![]));
                let result = self.tr.span("drive.plain", acc, || {
                    let r = simulate(p.as_mut(), trace);
                    let counts = sim_counts(&r);
                    (r, counts)
                });
                if acc {
                    self.cells.push(Cell {
                        leg: "replay",
                        config: spec.name.clone(),
                        benchmark: trace.name().to_owned(),
                        instructions: result.instructions,
                        mispredicted: result.stats.mispredicted,
                    });
                }
            }
        }
        std::fs::remove_file(&path).map_err(|e| format!("cannot remove {}: {e}", path.display()))
    }

    /// Layer legs that run alone on the probe trace whatever the
    /// workload: the history fold front end, every host's plain drive,
    /// and the attributed drive against the plain one.
    fn probes(&mut self, trace: &Trace) -> Result<(), String> {
        let tage = TageScConfig::sc_l_imli().tage;
        self.tr.span("probe.history.push", false, || {
            let capacity = (tage.max_history + 1).next_power_of_two().max(2048);
            let mut history = HistoryState::new(capacity, tage.path_bits);
            for i in 0..tage.num_tables() {
                let len = tage.history_length(i);
                let width = tage.tag_bits[i];
                history.add_fold(len, tage.tagged_log_entries);
                history.add_fold(len, width);
                history.add_fold(len, width - 1);
            }
            let mut branches = 0u64;
            for r in trace.iter().filter(|r| r.is_conditional()) {
                history.push(r.taken, r.pc);
                branches += 1;
            }
            std::hint::black_box(history.folds());
            let folds = history.fold_count() as u64;
            ((), vec![("branches", branches), ("folds", folds)])
        });
        let names = paper_report_predictors()
            .into_iter()
            .map(|s| s.name)
            .chain(BASELINES.iter().map(|&n| n.to_owned()));
        for name in names {
            let spec = lookup(&name).ok_or_else(|| format!("{name} not registered"))?;
            let mut p = spec.make();
            self.tr.span(format!("probe.hosts.{name}"), false, || {
                let r = simulate(p.as_mut(), trace);
                (r.stats.predicted, sim_counts(&r))
            });
        }
        let spec = lookup(PROBE_CONFIG).ok_or("probe config not registered")?;
        let mut p = spec.make();
        self.tr.span("probe.sim.plain", false, || {
            let r = simulate(p.as_mut(), trace);
            ((), sim_counts(&r))
        });
        let mut p = spec.make();
        self.tr.span("probe.sim.attributed", false, || {
            let run = simulate_stream_attributed(p.as_mut(), trace.stream(), 0);
            ((), sim_counts(&run.result))
        });
        Ok(())
    }

    fn check(&mut self, name: String, ok: bool) {
        self.checks.push((name, ok));
    }

    fn write_doc(&self, name: &str, text: &str) -> Result<(), String> {
        let path = self.args.work.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Streams a v2 file back and compares every record with `expected`;
/// returns the records decoded and whether all of them matched.
fn decode_matches(path: &Path, expected: &Trace) -> Result<(u64, bool), String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut reader = TraceReader::new(BufReader::new(file))
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let mut want = expected.iter();
    let mut n = 0u64;
    let mut same = reader.name() == expected.name();
    while let Some(record) = reader.next_record() {
        same &= want.next() == Some(&record);
        n += 1;
    }
    same &= want.next().is_none() && reader.error().is_none();
    Ok((n, same))
}

/// Per-span bookkeeping cost: begin/end pairs timed on a throwaway tracer.
fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let mut tr = Tracer::new(true);
    let started = Instant::now();
    for _ in 0..PAIRS {
        let id = tr.begin("calibrate", false);
        tr.end(id, &[("n", 1)]);
    }
    started.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let started = Instant::now();
    let mut legs = Legs {
        tr: Tracer::new(args.spans),
        args,
        cells: Vec::new(),
        checks: Vec::new(),
    };
    let is = |w: &str| args.workload == w;
    legs.tr.span("registry.build", false, || {
        let n = registry().len() as u64;
        ((), vec![("configs", n)])
    });
    let traces = legs.generate_all(&args.benches, args.instructions, true);
    let probe_bench = std::slice::from_ref(&args.benches[0]);
    let probe = legs.generate_all(probe_bench, PROBE_INSTRUCTIONS, false);
    let (own, small) = (&traces[..], &probe[..]);

    // A group runs on the workload's own traces and budget when it is
    // the workload's work, on the probe trace otherwise.
    let input = |acc: bool| {
        if acc {
            (own, args.instructions)
        } else {
            (small, PROBE_INSTRUCTIONS)
        }
    };
    let acc = is("paper_repro");
    let (traces_in, instr) = input(acc);
    legs.report(traces_in, instr, acc)?;
    legs.scenario(acc)?;
    let acc = is("budget_sweep");
    let (traces_in, instr) = input(acc);
    legs.sweep(traces_in, instr, acc)?;
    let acc = is("trace_replay");
    legs.replay(input(acc).0, acc)?;
    legs.probes(&probe[0])?;
    let total_s = started.elapsed().as_secs_f64();
    let span_cost = span_cost_ns();

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", args.workload);
    let _ = writeln!(out, "  \"spans_on\": {},", args.spans);
    let _ = writeln!(out, "  \"total_s\": {total_s:.9},");
    let _ = writeln!(out, "  \"span_cost_ns\": {span_cost:.3},");
    out.push_str("  \"checks\": [");
    for (i, (name, ok)) in legs.checks.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\n    {{\"name\": \"{name}\", \"ok\": {ok}}}");
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"spans\": [");
    for (i, s) in legs.tr.spans.iter().enumerate() {
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
             \"accounted\": {}, \"counts\": {{{}}}}}",
            if i > 0 { "," } else { "" },
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or(-1, |p| p as i64),
            s.accounted,
            counts.join(", ")
        );
    }
    out.push_str("\n  ],\n  \"cells\": [");
    for (i, c) in legs.cells.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"leg\": \"{}\", \"config\": \"{}\", \"benchmark\": \"{}\", \
             \"instructions\": {}, \"mispredicted\": {}}}",
            if i > 0 { "," } else { "" },
            c.leg,
            c.config,
            c.benchmark,
            c.instructions,
            c.mispredicted
        );
    }
    out.push_str("\n  ]\n}\n");
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--spawn") if argv.get(2).map(String::as_str) == Some("--") => {
            return match spawn::spawn(&argv[3..]) {
                Ok((code, maxrss_kib)) => match std::fs::write(&argv[1], maxrss_kib.to_string()) {
                    Ok(()) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
                    Err(e) => {
                        eprintln!("perfbench-tracer: cannot write {}: {e}", argv[1]);
                        ExitCode::FAILURE
                    }
                },
                Err(e) => {
                    eprintln!("perfbench-tracer: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(doc) => {
            let path = args.work.join(if args.spans {
                "spans.json"
            } else {
                "spans_off.json"
            });
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("perfbench-tracer: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
