//! Allocation-regression guard for the simulator hot path.
//!
//! The steady-state predict/update loop runs once per conditional
//! branch — millions of times per MPKI point — and must never touch
//! the heap: per-branch `Vec`s and lookup clones are exactly the
//! regressions this PR removed (`TageLookup` used to allocate two
//! `Vec`s *and* clone itself on every branch). A counting global
//! allocator wraps the system allocator; after warmup, a measured
//! window of predict/update/notify calls must perform **zero**
//! allocations for every predictor the acceptance criteria name.

use imli_repro::sim::{drive_block, fill_multi_block, make_predictor, scenario_by_name};
use imli_repro::workloads::{cbp4_suite, EventStream, ScenarioEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation entering the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through wrapper around the `System` allocator
// plus a relaxed atomic increment; every GlobalAlloc contract
// obligation (layout validity, pointer provenance) is delegated
// unchanged to `System`, which upholds it.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller obligations forwarded verbatim to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller obligations forwarded verbatim to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller obligations forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, passed
        // through unchanged; `ptr` was produced by this same allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller obligations forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (`System` underneath)
        // with the same `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Replays materialized scenario events.
struct Replay<'a> {
    events: std::slice::Iter<'a, ScenarioEvent>,
    tenants: u32,
}

impl EventStream for Replay<'_> {
    fn name(&self) -> &str {
        "replay"
    }

    fn next_event(&mut self) -> Option<ScenarioEvent> {
        self.events.next().copied()
    }

    fn tenant_count(&self) -> u32 {
        self.tenants
    }
}

/// One test drives all predictors sequentially: the counter is global,
/// so concurrent tests in this binary would alias each other's counts.
#[test]
fn steady_state_predict_update_is_allocation_free() {
    // Materialize the record stream *before* any measurement so the
    // driving loop itself cannot allocate.
    let spec = &cbp4_suite()[0];
    let records: Vec<_> = spec.stream(400_000).collect();
    let (warmup, measured) = records.split_at(records.len() / 2);
    assert!(measured.len() > 20_000, "need a real measurement window");

    // The three the acceptance criteria name, plus the other hosts
    // whose per-branch paths this PR de-allocated (IMLI variants reach
    // a steady outer-history queue depth during warmup).
    for name in [
        "tage-sc-l",
        "gshare",
        "perceptron",
        "gehl",
        "tage-sc-l+imli",
        "bimodal",
    ] {
        let mut predictor = make_predictor(name).expect("registered");
        let mut drive = |window: &[imli_repro::trace::BranchRecord]| -> u64 {
            let mut predicted = 0u64;
            for record in window {
                if record.is_conditional() {
                    let _ = predictor.predict(record.pc);
                    predictor.update(record);
                    predicted += 1;
                } else {
                    predictor.notify_nonconditional(record);
                }
            }
            predicted
        };
        drive(warmup);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let predicted = drive(measured);
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert!(predicted > 10_000, "{name}: window exercised the hot path");
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state predict/update allocated {} times over {} branches",
            after - before,
            predicted
        );
    }

    // The same guarantee for the drive loop the simulator actually
    // runs: `drive_block` adds the one-record lookahead and the
    // `prefetch` hint for predictors that opt in (TAGE-SC-L's two-phase
    // index/probe lookup behind a prefetched base row), and none of
    // that may allocate either. Driven here for a prefetching and a
    // non-prefetching predictor so both branches of the loop are
    // measured.
    for name in ["tage-sc-l", "gehl"] {
        let mut predictor = make_predictor(name).expect("registered");
        let mut stats = imli_repro::components::PredictorStats::default();
        drive_block(predictor.as_mut(), warmup, &mut stats);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        drive_block(predictor.as_mut(), measured, &mut stats);
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert!(stats.predicted > 20_000, "{name}: drive_block ran");
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state drive_block allocated {} times",
            after - before,
        );
    }

    // The same drive in simulator-sized blocks, so block starts and
    // ends fall inside the measured window, for every IMLI host family
    // the solo path runs: TAGE-SC-L, FTL and the perceptron.
    for name in ["tage-sc-l+imli", "ftl+imli", "perceptron+imli"] {
        let mut predictor = make_predictor(name).expect("registered");
        let mut stats = imli_repro::components::PredictorStats::default();
        for block in warmup.chunks(4096) {
            drive_block(predictor.as_mut(), block, &mut stats);
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for block in measured.chunks(4096) {
            drive_block(predictor.as_mut(), block, &mut stats);
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert!(stats.predicted > 20_000, "{name}: block drive ran");
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state block drive allocated {} times",
            after - before,
        );
    }

    // The file-replay loop `bp simulate <file>` runs: a v2 reader
    // refilling the simulator's block with one `fill_block` copy per
    // block, then the block drive. The first block sizes the buffers
    // (the reader's payload and decoded-record scratch, the drive's
    // block); every later block must reuse them.
    {
        let mut trace = imli_repro::trace::Trace::with_capacity(spec.name.clone(), records.len());
        for record in &records {
            trace.push(*record);
        }
        let mut v2 = Vec::new();
        imli_repro::trace::write_trace_v2(&mut v2, &trace).expect("serialize v2");
        for name in ["bimodal", "gshare", "tage-sc-l+imli"] {
            let mut predictor = make_predictor(name).expect("registered");
            let mut reader = imli_repro::trace::TraceReader::new(v2.as_slice()).expect("v2 header");
            let mut stats = imli_repro::components::PredictorStats::default();
            let (mut block, mut instructions, mut replayed) = (Vec::new(), 0u64, 0u64);
            fill_multi_block(&mut reader, &mut block, &mut instructions, &mut replayed);
            drive_block(predictor.as_mut(), &block, &mut stats);

            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let mut blocks = 0;
            loop {
                fill_multi_block(&mut reader, &mut block, &mut instructions, &mut replayed);
                if block.is_empty() {
                    break;
                }
                drive_block(predictor.as_mut(), &block, &mut stats);
                blocks += 1;
            }
            let after = ALLOCATIONS.load(Ordering::Relaxed);

            assert!(reader.error().is_none(), "{name}: {:?}", reader.error());
            assert_eq!(replayed, records.len() as u64, "{name}: records lost");
            assert!(blocks >= 10, "{name}: the window spans many blocks");
            assert_eq!(
                after - before,
                0,
                "{name}: file replay allocated {} times over {blocks} blocks",
                after - before,
            );
        }
    }

    // The fused-column drives with both kinds of shared group: a TAGE
    // group (shared TAGE step chunks) and a GEHL group (shared global
    // front-end plan chunks, FTL and wormhole members included), each
    // committed plain and attributed, plus solo hosts. Every allocation
    // these drives make is per pass — block buffers, plan scratch, the
    // grouping, copying the leaders' shared parts back, result assembly
    // — so a pass over three times the records must allocate exactly as
    // often as a short one.
    {
        use imli_repro::sim::{
            simulate_scenario_multi, simulate_stream_attributed_multi, simulate_stream_multi,
        };
        let names = [
            "tage-gsc",
            "tage-gsc+imli",
            "tage-gsc+wh",
            "tage-sc-l+imli",
            "gehl",
            "gehl+imli",
            "gehl+wh",
            "ftl+imli",
            "perceptron+imli",
        ];
        let specs: Vec<_> = names
            .iter()
            .map(|n| imli_repro::sim::lookup(n).expect("registered"))
            .collect();
        let mut short = imli_repro::trace::Trace::new("short");
        let mut long = imli_repro::trace::Trace::new("long");
        for (i, record) in records.iter().enumerate() {
            if i < records.len() / 4 {
                short.push(*record);
            }
            if i < 3 * records.len() / 4 {
                long.push(*record);
            }
        }
        let count = |pass: &mut dyn FnMut()| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            pass();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        };
        let plain = |trace: &imli_repro::trace::Trace| {
            let mut column: Vec<_> = specs.iter().map(|s| s.make()).collect();
            count(&mut || {
                let _ = simulate_stream_multi(&mut column, trace.stream());
            })
        };
        assert_eq!(
            plain(&short),
            plain(&long),
            "shared-front-end plain drive allocated in steady state"
        );
        let attributed = |trace: &imli_repro::trace::Trace| {
            let mut column: Vec<_> = specs.iter().map(|s| s.make()).collect();
            count(&mut || {
                let _ = simulate_stream_attributed_multi(&mut column, trace.stream(), 20_000);
            })
        };
        assert_eq!(
            attributed(&short),
            attributed(&long),
            "shared-front-end attributed drive allocated in steady state"
        );

        // The scenario drive, over materialized events (event
        // *generation* may allocate; consuming them must not) with
        // partial flushes, which reset each group leader's shared part
        // in place.
        let scenario = scenario_by_name("paper_switch").expect("builtin");
        let mut events = scenario.events();
        let mut all: Vec<ScenarioEvent> = Vec::new();
        while let Some(ev) = events.next_event() {
            all.push(ev);
        }
        let flushes = |window: &[ScenarioEvent]| {
            window
                .iter()
                .filter(|ev| matches!(ev, ScenarioEvent::Flush(_)))
                .count()
        };
        let (short_events, long_events) = (&all[..all.len() / 4], &all[..3 * all.len() / 4]);
        assert!(flushes(short_events) > 0 && flushes(long_events) > flushes(short_events));
        let scenario_pass = |window: &[ScenarioEvent]| {
            let mut replay = Replay {
                events: window.iter(),
                tenants: scenario.tenants.len() as u32,
            };
            count(&mut || {
                let _ = simulate_scenario_multi(&specs, &mut replay);
            })
        };
        assert_eq!(
            scenario_pass(short_events),
            scenario_pass(long_events),
            "shared-front-end scenario drive allocated in steady state"
        );
    }

    // The scenario drive loop: multi-tenant records plus partial
    // context-switch flushes, exactly what `bp scenario` replays per
    // event. The events are materialized up front (event *generation*
    // may allocate; consuming them must not), and partial flushes go
    // through `flush_history()`, which is required to reuse the
    // predictor's existing buffers. Full flushes rebuild the predictor
    // and are allocating by design, so they are excluded here.
    {
        let scenario = scenario_by_name("paper_switch").expect("builtin");
        let mut events = scenario.events();
        let mut all: Vec<ScenarioEvent> = Vec::new();
        while let Some(ev) = events.next_event() {
            all.push(ev);
        }
        let (warmup_events, measured_events) = all.split_at(all.len() / 2);
        for name in ["tage-sc-l", "tage-gsc+imli", "gehl+imli"] {
            let mut predictor = make_predictor(name).expect("registered");
            let mut drive = |window: &[ScenarioEvent]| -> (u64, u64) {
                let (mut predicted, mut flushes) = (0u64, 0u64);
                for ev in window {
                    match ev {
                        ScenarioEvent::Record { record, .. } => {
                            if record.is_conditional() {
                                let _ = predictor.predict_attributed(record.pc);
                                predictor.update(record);
                                predicted += 1;
                            } else {
                                predictor.notify_nonconditional(record);
                            }
                        }
                        ScenarioEvent::Flush(_) => {
                            predictor.flush_history();
                            flushes += 1;
                        }
                    }
                }
                (predicted, flushes)
            };
            drive(warmup_events);

            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let (predicted, flushes) = drive(measured_events);
            let after = ALLOCATIONS.load(Ordering::Relaxed);

            assert!(
                predicted > 20_000,
                "{name}: scenario window drove the hot path"
            );
            assert!(flushes > 0, "{name}: the window crossed flush boundaries");
            assert_eq!(
                after - before,
                0,
                "{name}: steady-state scenario drive (incl. {flushes} partial flushes) \
                 allocated {} times over {predicted} branches",
                after - before,
            );
        }
    }
}
