//! The parallel evaluation-grid engine and its column scheduler.
//!
//! The paper's evaluation is a grid: predictor configurations ×
//! benchmarks. Every grid-shaped run — [`Engine::run_grid`], the
//! attributed report ([`crate::run_report`]) and the scenario
//! ([`crate::run_scenario`], one column) — goes through one column
//! scheduler, [`run_cells`]:
//!
//! 1. with a result cache attached, probe every cell and splice the
//!    verified hits; without one, every cell is a miss;
//! 2. plan the misses into *shards* ([`plan_shards`]): a shard is some
//!    predictor rows of one column, driven fused over **one** pass of
//!    the column's stream ([`simulate_stream_multi`] and its attributed
//!    and scenario twins), so the stream is generated once per shard
//!    and same-configuration hosts share their TAGE or GEHL front end.
//!    A column is split into more than one shard only when there are
//!    fewer columns than workers, and never inside a share group;
//! 3. run the shards across worker threads with *dynamic
//!    self-scheduling*: all workers pull the next unclaimed shard from
//!    one atomic cursor, so an idle worker never waits behind a static
//!    partition;
//! 4. splice the results back by cell index and store the computed
//!    cells when a cache is attached.
//!
//! Each shard generates its stream lazily
//! ([`bp_workloads::BenchmarkSpec::stream`]), so per-worker memory stays
//! O(1) in trace length. Results are written back by cell index, so a
//! grid comes back in deterministic (predictor-major) order regardless
//! of worker count or scheduling: `run_grid` with 1 job and with N jobs
//! return identical [`GridResult`]s.

use crate::cache::{grid_cell_key, CacheKey, SimCache};
use crate::registry::PredictorSpec;
use crate::run::{simulate_stream_multi, SimResult};
use crate::shared::share_units;
use crate::suite::SuiteResult;
use bp_components::ConditionalPredictor;
use bp_workloads::BenchmarkSpec;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How [`Engine::run_grid`] plans the (predictor × benchmark) grid.
///
/// Both strategies produce **bit-identical** [`GridResult`]s — every
/// cell still runs one fresh cold predictor over the full benchmark
/// stream (the CBP protocol). They differ only in how many predictors
/// share one pass of a stream:
///
/// * [`FusedColumns`](GridStrategy::FusedColumns) (default) — the
///   column scheduler's share-group shards: each benchmark is
///   generated once per shard, and a shard's same-configuration hosts
///   share one TAGE or GEHL front end;
/// * [`PerCell`](GridStrategy::PerCell) — one shard per cell: every
///   cell regenerates its benchmark and drives its predictor alone. The
///   solo reference the fused drive is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridStrategy {
    /// One shard per cell (the solo reference).
    PerCell,
    /// Share-group shards of whole benchmark columns.
    #[default]
    FusedColumns,
}

/// Progress report delivered after each completed grid cell.
#[derive(Debug, Clone, Copy)]
pub struct CellUpdate<'a> {
    /// Registry name of the cell's predictor configuration.
    pub predictor: &'a str,
    /// Benchmark name of the cell.
    pub benchmark: &'a str,
    /// The cell's MPKI.
    pub mpki: f64,
    /// Cells completed so far (including this one).
    pub completed: usize,
    /// Total cells in the grid.
    pub total: usize,
}

/// The parallel grid runner. Construct with [`Engine::new`] (one worker
/// per available core) or [`Engine::with_jobs`].
#[derive(Debug, Clone)]
pub struct Engine {
    jobs: usize,
    strategy: GridStrategy,
    cache: Option<SimCache>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with one worker per available core.
    pub fn new() -> Self {
        Engine::with_jobs(std::thread::available_parallelism().map_or(4, NonZeroUsize::get))
    }

    /// An engine with exactly `jobs` workers (`jobs == 1` runs on the
    /// calling thread; 0 is clamped to 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            strategy: GridStrategy::default(),
            cache: None,
        }
    }

    /// Sets the grid planning strategy (default:
    /// [`GridStrategy::FusedColumns`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: GridStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a result cache: every grid cell is probed **before**
    /// scheduling, only the miss-set is dispatched to workers, and the
    /// grid comes back bit-identical to an uncached run (hit cells are
    /// spliced into place, miss cells computed and written back per the
    /// cache's policy).
    #[must_use]
    pub fn with_cache(mut self, cache: Option<SimCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&SimCache> {
        self.cache.as_ref()
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The configured planning strategy.
    pub fn strategy(&self) -> GridStrategy {
        self.strategy
    }

    /// Runs the full (predictor × benchmark) grid at `instructions`
    /// retired instructions per benchmark, one fresh cold predictor per
    /// cell (the CBP protocol).
    pub fn run_grid(
        &self,
        predictors: &[PredictorSpec],
        benchmarks: &[BenchmarkSpec],
        instructions: u64,
    ) -> GridResult {
        self.run_grid_with_progress(predictors, benchmarks, instructions, &|_| {})
    }

    /// [`Engine::run_grid`] with a progress callback, invoked once per
    /// completed cell (serialized — callbacks never run concurrently —
    /// but in *completion* order, which varies with scheduling).
    pub fn run_grid_with_progress(
        &self,
        predictors: &[PredictorSpec],
        benchmarks: &[BenchmarkSpec],
        instructions: u64,
        progress: &(dyn Fn(CellUpdate<'_>) + Sync),
    ) -> GridResult {
        let columns: Vec<&str> = benchmarks.iter().map(|b| b.name.as_str()).collect();
        let cache = self
            .cache
            .as_ref()
            .filter(|c| c.enabled())
            .map(|cache| CellCache {
                keys: predictors
                    .iter()
                    .flat_map(|spec| {
                        benchmarks
                            .iter()
                            .map(|bench| grid_cell_key(spec, &bench.name, instructions))
                    })
                    .collect(),
                lookup: Box::new(|key: &CacheKey, b: usize| {
                    cache.lookup_sim(key, &benchmarks[b].name)
                }),
                store: Box::new(|key: &CacheKey, result: &SimResult| cache.store_sim(key, result)),
            });
        let plan = Plan {
            jobs: self.jobs,
            strategy: self.strategy,
            predictors,
            columns: &columns,
        };
        let timed = run_cells(
            &plan,
            cache,
            |shard| {
                let mut column: Vec<Box<dyn ConditionalPredictor + Send>> =
                    shard.rows.iter().map(|&p| predictors[p].make()).collect();
                simulate_stream_multi(&mut column, benchmarks[shard.column].stream(instructions))
            },
            progress,
        );
        let (cells, cell_seconds) = timed.into_iter().unzip();
        GridResult {
            predictors: predictors.iter().map(|s| s.name.to_owned()).collect(),
            benchmarks: benchmarks.iter().map(|b| b.name.clone()).collect(),
            cells,
            cell_seconds,
        }
    }
}

/// A cell payload of the column scheduler.
pub(crate) trait CellResult: Clone + Send {
    /// The cell's MPKI, reported to progress callbacks.
    fn mpki(&self) -> f64;
}

impl CellResult for SimResult {
    fn mpki(&self) -> f64 {
        SimResult::mpki(self)
    }
}

/// The cells [`run_cells`] computes: `predictors` rows × `columns`
/// (benchmark or scenario names), planned for `jobs` workers.
pub(crate) struct Plan<'a> {
    pub(crate) jobs: usize,
    pub(crate) strategy: GridStrategy,
    pub(crate) predictors: &'a [PredictorSpec],
    pub(crate) columns: &'a [&'a str],
}

/// An attached result cache as [`run_cells`] sees one payload kind:
/// each cell's key (predictor-major), the verified probe of a key in a
/// column, and the write-back.
pub(crate) struct CellCache<'c, T> {
    pub(crate) keys: Vec<CacheKey>,
    pub(crate) lookup: CacheLookup<'c, T>,
    pub(crate) store: CacheStoreFn<'c, T>,
}

/// The verified probe of a cell key in a column.
type CacheLookup<'c, T> = Box<dyn Fn(&CacheKey, usize) -> Option<T> + 'c>;

/// The write-back of a computed cell under its key.
type CacheStoreFn<'c, T> = Box<dyn Fn(&CacheKey, &T) + 'c>;

/// One work unit of the column scheduler: some predictor rows of one
/// column, driven fused over one pass of the column's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Shard {
    /// The column index.
    pub(crate) column: usize,
    /// Predictor rows, in column order.
    pub(crate) rows: Vec<usize>,
}

/// The column scheduler behind every grid-shaped run: probes `cache`
/// (when attached) and splices its verified hits, plans the misses into
/// shards ([`plan_shards`]), runs each shard through `shard` across the
/// workers, and splices and stores the computed cells. Returns every
/// cell with its wall seconds, predictor-major; a shard's wall time is
/// split evenly over its cells, and spliced cells cost zero.
///
/// Progress fires once per cell with a monotonic `completed`: hits
/// first, in cell order, then computed cells as their shards finish.
/// Under a cache, misses with byte-equal keys (a sweep whose solver
/// landed on one config twice) are computed once and replicated last.
/// The result is bit-identical whatever the plan, because fusing any
/// subset of predictors over one stream equals driving each alone.
pub(crate) fn run_cells<T, F>(
    plan: &Plan<'_>,
    cache: Option<CellCache<'_, T>>,
    shard: F,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> Vec<(T, f64)>
where
    T: CellResult,
    F: Fn(&Shard) -> Vec<T> + Sync,
{
    let n_c = plan.columns.len();
    let total = plan.predictors.len() * n_c;
    let report = |idx: usize, mpki: f64, completed: usize| {
        progress(CellUpdate {
            predictor: &plan.predictors[idx / n_c].name,
            benchmark: plan.columns[idx % n_c],
            mpki,
            completed,
            total,
        });
    };
    let mut cells: Vec<Option<(T, f64)>> = match &cache {
        Some(cache) => cache
            .keys
            .iter()
            .enumerate()
            .map(|(idx, key)| (cache.lookup)(key, idx % n_c).map(|hit| (hit, 0.0)))
            .collect(),
        None => (0..total).map(|_| None).collect(),
    };
    let mut completed = 0usize;
    for (idx, cell) in cells.iter().enumerate() {
        if let Some((hit, _)) = cell {
            completed += 1;
            report(idx, hit.mpki(), completed);
        }
    }

    // The rows each column computes, and the cells replicated from an
    // equal-key representative.
    let mut misses: Vec<Vec<usize>> = vec![Vec::new(); n_c];
    let mut dup_of: Vec<(usize, usize)> = Vec::new();
    let mut representative: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    for idx in (0..total).filter(|&idx| cells[idx].is_none()) {
        if let Some(cache) = &cache {
            match representative.entry((cache.keys[idx].config.as_str(), idx % n_c)) {
                Entry::Occupied(first) => {
                    dup_of.push((idx, *first.get()));
                    continue;
                }
                Entry::Vacant(slot) => {
                    slot.insert(idx);
                }
            }
        }
        misses[idx % n_c].push(idx / n_c);
    }

    let shards = plan_shards(plan, &misses);
    let ran = run_units(
        plan.jobs,
        shards.len(),
        completed,
        |s| {
            let Shard { column, rows } = &shards[s];
            let results = shard(&shards[s]);
            debug_assert_eq!(results.len(), rows.len());
            let labels = rows
                .iter()
                .zip(&results)
                .map(|(&row, result)| (row * n_c + column, result.mpki()))
                .collect();
            (results, labels)
        },
        &report,
    );
    for (Shard { column, rows }, (results, seconds)) in shards.iter().zip(ran) {
        let per_cell = seconds / rows.len() as f64;
        for (&row, result) in rows.iter().zip(results) {
            let idx = row * n_c + column;
            if let Some(cache) = &cache {
                (cache.store)(&cache.keys[idx], &result);
            }
            completed += 1;
            cells[idx] = Some((result, per_cell));
        }
    }

    for (idx, first) in dup_of {
        let (result, _) = cells[first].clone().expect("representatives are computed");
        completed += 1;
        report(idx, result.mpki(), completed);
        cells[idx] = Some((result, 0.0));
    }
    debug_assert_eq!(completed, total);
    cells
        .into_iter()
        .map(|cell| cell.expect("every cell filled"))
        .collect()
}

/// Plans the shards of the rows `misses[c]` each column `c` computes.
///
/// Under [`GridStrategy::PerCell`] every cell is a shard of its own.
/// Otherwise each column with work gets `k = ceil(jobs / columns)`
/// shards, at most one per share unit ([`share_units`]: a TAGE or GEHL
/// group, or a solo host) of its rows. With `k == 1` — as many columns
/// as workers, the usual shape — a column is one shard and no predictor
/// is built for planning. With `k > 1` the units are packed
/// longest-first into the lightest shard, weighing each unit by its
/// summed [`PredictorSpec::storage_bits`]: a static weight, so the plan
/// depends on the inputs only. A unit is never split, and every shard
/// lists its rows in column order.
pub(crate) fn plan_shards(plan: &Plan<'_>, misses: &[Vec<usize>]) -> Vec<Shard> {
    let busy = misses.iter().filter(|rows| !rows.is_empty()).count();
    let k = plan.jobs.div_ceil(busy.max(1));
    let columns = misses
        .iter()
        .enumerate()
        .filter(|(_, rows)| !rows.is_empty());
    if plan.strategy == GridStrategy::PerCell {
        return columns
            .flat_map(|(column, rows)| {
                rows.iter().map(move |&row| Shard {
                    column,
                    rows: vec![row],
                })
            })
            .collect();
    }
    if k <= 1 {
        return columns
            .map(|(column, rows)| Shard {
                column,
                rows: rows.clone(),
            })
            .collect();
    }
    // The share units of every row that runs anywhere, found once; a
    // column's units are their restriction to its rows (equality of
    // shared front ends partitions any subset the same way).
    let mut rows: Vec<usize> = misses.concat();
    rows.sort_unstable();
    rows.dedup();
    let mut built: Vec<Box<dyn ConditionalPredictor + Send>> =
        rows.iter().map(|&p| plan.predictors[p].make()).collect();
    let units: Vec<Vec<usize>> = share_units(&mut built)
        .into_iter()
        .map(|unit| unit.into_iter().map(|i| rows[i]).collect())
        .collect();
    drop(built);
    let mut shards = Vec::new();
    for (column, rows) in columns {
        let mut weighted: Vec<(u64, Vec<usize>)> = units
            .iter()
            .map(|unit| -> Vec<usize> {
                unit.iter().copied().filter(|p| rows.contains(p)).collect()
            })
            .filter(|unit| !unit.is_empty())
            .map(|unit| {
                let weight = unit
                    .iter()
                    .map(|&p| plan.predictors[p].storage_bits())
                    .sum();
                (weight, unit)
            })
            .collect();
        weighted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1[0].cmp(&b.1[0])));
        let mut bins: Vec<(u64, Vec<usize>)> = vec![(0, Vec::new()); k.min(weighted.len())];
        for (weight, unit) in weighted {
            let lightest = (0..bins.len())
                .min_by_key(|&b| (bins[b].0, b))
                .expect("at least one shard");
            bins[lightest].0 += weight;
            bins[lightest].1.extend(unit);
        }
        shards.extend(bins.into_iter().map(|(_, mut rows)| {
            rows.sort_unstable();
            Shard { column, rows }
        }));
    }
    shards
}

/// Runs `total_units` work units across `jobs` workers with dynamic
/// self-scheduling, returning `(unit results, unit wall seconds)` in
/// unit-index order. A unit returns its results plus one
/// `(cell index, MPKI)` label per result; `progress(cell, mpki,
/// completed)` fires once per label, serialized under the collection
/// lock, with a monotonic `completed` counter starting after
/// `progress_base` (the scheduler reports spliced cache hits before
/// dispatching). Wall time is measured around the unit, outside the
/// lock.
pub(crate) fn run_units<T, F>(
    jobs: usize,
    total_units: usize,
    progress_base: usize,
    unit: F,
    progress: &(dyn Fn(usize, f64, usize) + Sync),
) -> Vec<(Vec<T>, f64)>
where
    T: Send,
    F: Fn(usize) -> (Vec<T>, Vec<(usize, f64)>) + Sync,
{
    let next = AtomicUsize::new(0);
    type Collected<T> = (Vec<(usize, Vec<T>, f64)>, usize);
    // Collected units plus the monotonic completed-cell counter behind
    // the progress callbacks, under one lock.
    let collected: Mutex<Collected<T>> =
        Mutex::new((Vec::with_capacity(total_units), progress_base));
    let worker = || loop {
        let u = next.fetch_add(1, Ordering::Relaxed);
        if u >= total_units {
            break;
        }
        let started = std::time::Instant::now();
        let (results, labels) = unit(u);
        let seconds = started.elapsed().as_secs_f64();
        let mut guard = collected.lock().expect("results lock");
        let (units, completed) = &mut *guard;
        for (cell, mpki) in labels {
            *completed += 1;
            progress(cell, mpki, *completed);
        }
        units.push((u, results, seconds));
    };
    if jobs <= 1 || total_units <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(total_units) {
                scope.spawn(worker);
            }
        });
    }
    let (mut units, _) = collected.into_inner().expect("results lock");
    units.sort_unstable_by_key(|(u, _, _)| *u);
    units
        .into_iter()
        .map(|(_, results, seconds)| (results, seconds))
        .collect()
}

/// A completed evaluation grid: per-cell [`SimResult`]s in
/// deterministic predictor-major order, plus per-cell wall time.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Registry names of the predictor rows, in input order.
    pub predictors: Vec<String>,
    /// Benchmark names of the columns, in input order.
    pub benchmarks: Vec<String>,
    /// Row-major cells: `cells[p * benchmarks.len() + b]`.
    cells: Vec<SimResult>,
    /// Wall seconds spent on each cell (generation + simulation),
    /// row-major like `cells`.
    cell_seconds: Vec<f64>,
}

/// Equality deliberately ignores `cell_seconds`: simulation output is
/// deterministic across worker counts and runs, wall-clock is not, and
/// the engine's determinism guarantees are stated (and tested) as grid
/// equality.
impl PartialEq for GridResult {
    fn eq(&self, other: &Self) -> bool {
        self.predictors == other.predictors
            && self.benchmarks == other.benchmarks
            && self.cells == other.cells
    }
}

impl GridResult {
    /// The cell for predictor row `p` and benchmark column `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, p: usize, b: usize) -> &SimResult {
        assert!(p < self.predictors.len() && b < self.benchmarks.len());
        &self.cells[p * self.benchmarks.len() + b]
    }

    /// One predictor's row of per-benchmark results, in suite order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn row(&self, p: usize) -> &[SimResult] {
        let w = self.benchmarks.len();
        &self.cells[p * w..(p + 1) * w]
    }

    /// All cells, row-major.
    pub fn cells(&self) -> &[SimResult] {
        &self.cells
    }

    /// Wall seconds spent on each cell, row-major like
    /// [`GridResult::cells`].
    pub fn cell_seconds(&self) -> &[f64] {
        &self.cell_seconds
    }

    /// End-to-end throughput of one cell in branch records per second
    /// (0.0 if the cell ran too fast to time). The denominator is the
    /// cell's whole wall time — lazy benchmark generation *plus*
    /// simulation — since that is what a grid run actually costs; it is
    /// not comparable to pure simulate-path timings.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn records_per_sec(&self, p: usize, b: usize) -> f64 {
        assert!(p < self.predictors.len() && b < self.benchmarks.len());
        let i = p * self.benchmarks.len() + b;
        let seconds = self.cell_seconds[i];
        if seconds <= 0.0 {
            return 0.0;
        }
        self.cells[i].records as f64 / seconds
    }

    /// One predictor row's aggregate throughput: the row's total
    /// records over its total per-cell wall seconds (0.0 when untimed).
    /// Under the fused strategy the shared column time is apportioned
    /// evenly, so rows reflect the amortized cost.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn row_records_per_sec(&self, p: usize) -> f64 {
        assert!(p < self.predictors.len());
        let w = self.benchmarks.len();
        let seconds: f64 = self.cell_seconds[p * w..(p + 1) * w].iter().sum();
        if seconds <= 0.0 {
            return 0.0;
        }
        self.row(p).iter().map(|c| c.records as f64).sum::<f64>() / seconds
    }

    /// Aggregate end-to-end throughput: total records over total
    /// per-cell wall seconds, generation included (CPU-time-ish: cells
    /// overlap across workers, so this is per-worker throughput, not
    /// wall-clock grid throughput).
    pub fn mean_records_per_sec(&self) -> f64 {
        let seconds: f64 = self.cell_seconds.iter().sum();
        if seconds <= 0.0 {
            return 0.0;
        }
        self.cells.iter().map(|c| c.records as f64).sum::<f64>() / seconds
    }

    /// One predictor's row as a [`SuiteResult`] (the sequential API's
    /// result type), by registry name.
    pub fn suite_result(&self, predictor: &str) -> Option<SuiteResult> {
        let p = self.predictors.iter().position(|n| n == predictor)?;
        Some(SuiteResult {
            predictor: self
                .row(p)
                .first()
                .map_or_else(|| predictor.to_owned(), |r| r.predictor.clone()),
            rows: self.row(p).to_vec(),
        })
    }

    /// Mean MPKI of each predictor row, in row order, as
    /// `(registry name, mean MPKI)`.
    pub fn mean_mpki_rows(&self) -> Vec<(&str, f64)> {
        self.predictors
            .iter()
            .enumerate()
            .map(|(p, name)| {
                let row = self.row(p);
                let mean = if row.is_empty() {
                    0.0
                } else {
                    row.iter().map(SimResult::mpki).sum::<f64>() / row.len() as f64
                };
                (name.as_str(), mean)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{lookup, registry, PredictorFamily};
    use bp_workloads::cbp4_suite;
    use std::sync::atomic::AtomicUsize;

    fn small_grid() -> (Vec<PredictorSpec>, Vec<BenchmarkSpec>) {
        let predictors: Vec<PredictorSpec> = ["bimodal", "gshare"]
            .iter()
            .map(|n| lookup(n).expect("registered"))
            .collect();
        let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(3).collect();
        (predictors, benchmarks)
    }

    #[test]
    fn grid_shape_and_ordering() {
        let (predictors, benchmarks) = small_grid();
        let grid = Engine::with_jobs(4).run_grid(&predictors, &benchmarks, 20_000);
        assert_eq!(grid.predictors, vec!["bimodal", "gshare"]);
        assert_eq!(grid.benchmarks.len(), 3);
        assert_eq!(grid.cells().len(), 6);
        for (p, name) in grid.predictors.iter().enumerate() {
            for (b, bench) in grid.benchmarks.iter().enumerate() {
                let cell = grid.cell(p, b);
                assert_eq!(&cell.benchmark, bench);
                let expected = lookup(name).unwrap().make().name().to_owned();
                assert_eq!(cell.predictor, expected);
            }
        }
    }

    #[test]
    fn parallel_grid_matches_sequential_grid() {
        let (predictors, benchmarks) = small_grid();
        let sequential = Engine::with_jobs(1).run_grid(&predictors, &benchmarks, 20_000);
        let parallel = Engine::with_jobs(8).run_grid(&predictors, &benchmarks, 20_000);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn progress_fires_once_per_cell() {
        let (predictors, benchmarks) = small_grid();
        let fired = AtomicUsize::new(0);
        let grid = Engine::with_jobs(3).run_grid_with_progress(
            &predictors,
            &benchmarks,
            10_000,
            &|update| {
                fired.fetch_add(1, Ordering::Relaxed);
                assert!(update.completed >= 1 && update.completed <= update.total);
                assert_eq!(update.total, 6);
            },
        );
        assert_eq!(fired.load(Ordering::Relaxed), 6);
        assert_eq!(grid.cells().len(), 6);
    }

    #[test]
    fn suite_result_bridge_matches_rows() {
        let (predictors, benchmarks) = small_grid();
        let grid = Engine::with_jobs(2).run_grid(&predictors, &benchmarks, 10_000);
        let suite = grid.suite_result("gshare").expect("row exists");
        assert_eq!(suite.rows, grid.row(1));
        assert!(grid.suite_result("nope").is_none());
        let means = grid.mean_mpki_rows();
        assert_eq!(means.len(), 2);
        assert!((means[1].1 - suite.mean_mpki()).abs() < 1e-12);
    }

    #[test]
    fn per_cell_timings_and_throughput_are_populated() {
        let (predictors, benchmarks) = small_grid();
        let grid = Engine::with_jobs(2).run_grid(&predictors, &benchmarks, 20_000);
        assert_eq!(grid.cell_seconds().len(), grid.cells().len());
        for (p, _) in grid.predictors.iter().enumerate() {
            for (b, _) in grid.benchmarks.iter().enumerate() {
                assert!(grid.cell(p, b).records > 0);
                assert!(grid.records_per_sec(p, b) >= 0.0);
            }
        }
        assert!(grid.mean_records_per_sec() > 0.0);
        // Equality ignores wall time: a re-run with different timings
        // still compares equal cell-for-cell.
        let rerun = Engine::with_jobs(1).run_grid(&predictors, &benchmarks, 20_000);
        assert_eq!(grid, rerun);
    }

    #[test]
    fn fused_grid_is_bit_identical_to_per_cell_grid() {
        let predictors: Vec<PredictorSpec> = ["bimodal", "gshare", "tage-gsc"]
            .iter()
            .map(|n| lookup(n).expect("registered"))
            .collect();
        let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(3).collect();
        let per_cell = Engine::with_jobs(1)
            .with_strategy(GridStrategy::PerCell)
            .run_grid(&predictors, &benchmarks, 20_000);
        for jobs in [1, 8] {
            let fused = Engine::with_jobs(jobs)
                .with_strategy(GridStrategy::FusedColumns)
                .run_grid(&predictors, &benchmarks, 20_000);
            assert_eq!(per_cell, fused, "fused grid diverged at jobs={jobs}");
            assert_eq!(fused.cell_seconds().len(), fused.cells().len());
        }
    }

    #[test]
    fn fused_grid_fires_progress_once_per_cell() {
        let (predictors, benchmarks) = small_grid();
        let fired = AtomicUsize::new(0);
        let grid = Engine::with_jobs(2)
            .with_strategy(GridStrategy::FusedColumns)
            .run_grid_with_progress(&predictors, &benchmarks, 10_000, &|update| {
                fired.fetch_add(1, Ordering::Relaxed);
                assert!(update.completed >= 1 && update.completed <= update.total);
                assert_eq!(update.total, 6);
            });
        assert_eq!(fired.load(Ordering::Relaxed), 6);
        assert_eq!(grid.cells().len(), 6);
    }

    #[test]
    fn fused_columns_is_the_default_and_per_cell_plans_one_shard_per_cell() {
        let (predictors, benchmarks) = small_grid();
        let engine = Engine::with_jobs(2);
        assert_eq!(engine.strategy(), GridStrategy::FusedColumns);
        let columns: Vec<&str> = benchmarks.iter().map(|b| b.name.as_str()).collect();
        let plan = Plan {
            jobs: 2,
            strategy: GridStrategy::PerCell,
            predictors: &predictors,
            columns: &columns,
        };
        let misses = vec![vec![0, 1], vec![1], vec![]];
        let shards = plan_shards(&plan, &misses);
        assert_eq!(
            shards,
            [
                Shard {
                    column: 0,
                    rows: vec![0]
                },
                Shard {
                    column: 0,
                    rows: vec![1]
                },
                Shard {
                    column: 1,
                    rows: vec![1]
                },
            ]
        );
    }

    /// The shards `jobs` workers get for `predictors` over `columns`
    /// columns with every cell missing, as predictor names per shard.
    fn planned(
        predictors: &[PredictorSpec],
        columns: usize,
        jobs: usize,
    ) -> Vec<(usize, Vec<&str>)> {
        let names = vec!["column"; columns];
        let plan = Plan {
            jobs,
            strategy: GridStrategy::FusedColumns,
            predictors,
            columns: &names,
        };
        let misses = vec![(0..predictors.len()).collect::<Vec<_>>(); columns];
        plan_shards(&plan, &misses)
            .into_iter()
            .map(|shard| {
                let rows = shard
                    .rows
                    .iter()
                    .map(|&p| predictors[p].name.as_str())
                    .collect();
                (shard.column, rows)
            })
            .collect()
    }

    #[test]
    fn paper_scenario_splits_along_its_tage_group_at_two_jobs() {
        let predictors = crate::scenario::scenario_report_predictors();
        assert_eq!(
            planned(&predictors, 1, 2),
            [
                (0, vec!["tage-sc-l", "tage-gsc+imli"]),
                (0, vec!["bimodal", "gshare", "gehl+imli", "perceptron+imli"]),
            ]
        );
        // One worker, or as many columns as workers: whole columns.
        assert_eq!(planned(&predictors, 1, 1).len(), 1);
        assert_eq!(planned(&predictors, 2, 2).len(), 2);
    }

    #[test]
    fn paper_report_plans_whole_columns_at_two_jobs_and_halves_at_sixteen() {
        let predictors = crate::registry::paper_report_predictors();
        let all: Vec<&str> = predictors.iter().map(|s| s.name.as_str()).collect();
        let whole = planned(&predictors, 8, 2);
        assert_eq!(whole.len(), 8);
        for (b, (column, rows)) in whole.iter().enumerate() {
            assert_eq!((*column, rows), (b, &all));
        }
        let halves = planned(&predictors, 8, 16);
        assert_eq!(halves.len(), 16);
        for (b, pair) in halves.chunks(2).enumerate() {
            assert_eq!(pair[0].0, b);
            assert_eq!(pair[1].0, b);
            assert_eq!(
                pair[0].1,
                [
                    "tage-gsc",
                    "tage-gsc+sic",
                    "tage-gsc+imli",
                    "tage-gsc+wh",
                    "tage-sc-l",
                    "tage-sc-l+imli"
                ]
            );
            assert_eq!(
                pair[1].1,
                [
                    "gehl",
                    "gehl+imli",
                    "gehl+wh",
                    "ftl",
                    "ftl+imli",
                    "perceptron+imli"
                ]
            );
        }
    }

    #[test]
    fn no_share_group_is_ever_split_and_every_cell_is_planned_once() {
        for predictors in [
            crate::registry::paper_report_predictors(),
            crate::scenario::scenario_report_predictors(),
            registry(),
        ] {
            let mut built: Vec<_> = predictors.iter().map(PredictorSpec::make).collect();
            let groups: Vec<Vec<usize>> = share_units(&mut built)
                .into_iter()
                .filter(|unit| unit.len() > 1)
                .collect();
            for columns in [1, 3] {
                for jobs in 1..=8 {
                    let names = vec!["column"; columns];
                    let plan = Plan {
                        jobs,
                        strategy: GridStrategy::FusedColumns,
                        predictors: &predictors,
                        columns: &names,
                    };
                    let misses = vec![(0..predictors.len()).collect::<Vec<_>>(); columns];
                    let shards = plan_shards(&plan, &misses);
                    let k = jobs.div_ceil(columns);
                    assert!(shards.len() <= columns * k, "jobs={jobs}");
                    let mut cells: Vec<(usize, usize)> = shards
                        .iter()
                        .flat_map(|s| s.rows.iter().map(move |&p| (s.column, p)))
                        .collect();
                    cells.sort_unstable();
                    let expected: Vec<(usize, usize)> = (0..columns)
                        .flat_map(|c| (0..predictors.len()).map(move |p| (c, p)))
                        .collect();
                    assert_eq!(cells, expected, "jobs={jobs} columns={columns}");
                    for shard in &shards {
                        assert!(shard.rows.is_sorted(), "rows keep column order");
                        for group in &groups {
                            let inside = group.iter().filter(|p| shard.rows.contains(p)).count();
                            assert!(
                                inside == 0 || inside == group.len(),
                                "jobs={jobs}: group {group:?} split by {shard:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cached_grid_is_bit_identical_off_cold_and_warm() {
        let (predictors, benchmarks) = small_grid();
        let dir = std::env::temp_dir().join(format!("bp-engine-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let baseline = Engine::with_jobs(2).run_grid(&predictors, &benchmarks, 20_000);
        for strategy in [GridStrategy::PerCell, GridStrategy::FusedColumns] {
            let _ = std::fs::remove_dir_all(&dir);
            let cold_cache = SimCache::new(&dir, crate::CachePolicy::ReadWrite);
            let cold = Engine::with_jobs(2)
                .with_strategy(strategy)
                .with_cache(Some(cold_cache.clone()))
                .run_grid(&predictors, &benchmarks, 20_000);
            assert_eq!(baseline, cold, "cold cached grid diverged ({strategy:?})");
            assert_eq!(cold_cache.hits(), 0);
            assert_eq!(cold_cache.stores(), 6);
            let warm_cache = SimCache::new(&dir, crate::CachePolicy::ReadWrite);
            let fired = AtomicUsize::new(0);
            let warm = Engine::with_jobs(4)
                .with_strategy(strategy)
                .with_cache(Some(warm_cache.clone()))
                .run_grid_with_progress(&predictors, &benchmarks, 20_000, &|update| {
                    fired.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(update.total, 6);
                });
            assert_eq!(baseline, warm, "warm cached grid diverged ({strategy:?})");
            assert_eq!(warm_cache.hits(), 6, "warm run must not simulate");
            assert_eq!(warm_cache.stores(), 0);
            assert_eq!(fired.load(Ordering::Relaxed), 6);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_grid_computes_duplicate_configs_once() {
        let spec = lookup("gshare").expect("registered");
        let twin = PredictorSpec::new("gshare-twin", "same config, different name", {
            spec.config.clone()
        });
        let predictors = vec![spec, twin];
        let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(2).collect();
        let dir = std::env::temp_dir().join(format!("bp-engine-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SimCache::new(&dir, crate::CachePolicy::ReadWrite);
        let grid = Engine::with_jobs(1)
            .with_strategy(GridStrategy::PerCell)
            .with_cache(Some(cache.clone()))
            .run_grid(&predictors, &benchmarks, 10_000);
        // 4 cells, but only 2 distinct (config, benchmark) keys: the
        // twins replicate without simulating or re-storing.
        assert_eq!(cache.stores(), 2);
        assert_eq!(grid.row(0), grid.row(1));
        let baseline = Engine::with_jobs(1)
            .with_strategy(GridStrategy::PerCell)
            .run_grid(&predictors, &benchmarks, 10_000);
        assert_eq!(baseline, grid);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn family_filtered_grids_run() {
        let predictors = crate::registry::family_members(PredictorFamily::Baseline);
        let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(2).collect();
        let grid = Engine::new().run_grid(&predictors, &benchmarks, 10_000);
        assert_eq!(grid.cells().len(), 4);
        assert!(Engine::new().jobs() >= 1);
        assert_eq!(Engine::with_jobs(0).jobs(), 1);
        // Sanity: registry() is the full grid's row source.
        assert!(registry().len() >= 20);
    }
}
