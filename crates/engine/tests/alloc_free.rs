//! Verifies the campaign-engine acceptance criterion: the steady-state
//! event loop performs **zero heap allocations per event**, and a reused
//! [`SimWorkspace`] makes entire repeat runs allocation-free.
//!
//! [`bc_testkit::CountingAlloc`] tallies every allocation on the
//! measuring thread; the tests warm the workspace (first runs grow the
//! arenas to their high-water marks), then drive thousands more
//! events/runs inside [`count_allocs`] and assert the count did not
//! move. Counting is switched per thread, so tests running concurrently
//! cannot turn each other's measurement off, and the probe tests show
//! that one deliberate allocation in the counted region trips each proof.

use bc_engine::{NullSink, RingRecorder, SimConfig, SimWorkspace, Simulation, TraceSink};
use bc_platform::{RandomTreeConfig, Tree};
use bc_simcore::split_seed;
use bc_testkit::{count_allocs, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn random_tree(seed: u64) -> Tree {
    RandomTreeConfig::default().generate(seed)
}

/// A deliberate allocation, for the probes that show a proof can fail.
fn probe_alloc() {
    black_box(Box::new(0u64));
}

/// Warms `sim` until 2000 tasks have completed, then counts the
/// allocations of up to 5000 further steps, calling `probe` after each.
fn steady_state_allocs<S: TraceSink>(mut sim: Simulation<S>, probe: impl Fn()) -> u64 {
    sim.start();
    // Warm up: completion_times is pre-reserved, but the agenda heap,
    // free list, and per-node queues reach their high-water marks only
    // once the pipeline is saturated.
    while sim.completed() < 2000 {
        assert!(sim.step(), "run ended during warm-up");
    }
    count_allocs(|| {
        for _ in 0..5000 {
            if !sim.step() {
                break;
            }
            probe();
        }
    })
    .0
}

/// Within one run: once start-up has passed, each further event touches
/// only pre-sized containers.
///
/// Both tests measure the *production* (unchecked) path: checked mode's
/// terminal oracle does exact rational analysis, which allocates, so the
/// configs opt out explicitly (under `debug_assertions` checked would
/// otherwise default on).
#[test]
fn steady_state_loop_is_allocation_free_per_event() {
    for cfg in [
        SimConfig::interruptible(3, 4000).with_checked(false),
        SimConfig::non_interruptible(1, 4000).with_checked(false),
    ] {
        let sim = Simulation::with_workspace(random_tree(7), cfg, SimWorkspace::new());
        let allocs = steady_state_allocs(sim, || {});
        assert_eq!(allocs, 0, "steady-state event loop allocated");
    }
}

/// The tracing claim: with the default [`NullSink`], instrumentation
/// compiles down to nothing — the explicitly-traced simulation is exactly
/// as allocation-free per event as the untraced one. This is the
/// "zero overhead when off" half of the trace subsystem's contract.
#[test]
fn null_sink_traced_loop_is_allocation_free_per_event() {
    let cfg = SimConfig::interruptible(3, 4000).with_checked(false);
    let sim = Simulation::traced(random_tree(7), cfg, SimWorkspace::new(), NullSink);
    let allocs = steady_state_allocs(sim, || {});
    assert_eq!(allocs, 0, "NullSink-traced event loop allocated");
}

/// And the "cheap when on" half: a [`RingRecorder`] preallocates its ring
/// at construction, so steady-state recording into it is allocation-free
/// too — safe to leave armed in checked production runs.
#[test]
fn ring_recorder_traced_loop_is_allocation_free_per_event() {
    let cfg = SimConfig::interruptible(3, 4000).with_checked(false);
    let sink = RingRecorder::new(512);
    let sim = Simulation::traced(random_tree(7), cfg, SimWorkspace::new(), sink);
    let allocs = steady_state_allocs(sim, || {});
    assert_eq!(allocs, 0, "RingRecorder-traced event loop allocated");
}

/// The per-event proofs can fail: the same measurement with one
/// deliberate allocation per step counts every one of them.
#[test]
fn probe_allocation_trips_the_per_event_proof() {
    let cfg = SimConfig::interruptible(3, 4000).with_checked(false);
    let sim = Simulation::with_workspace(random_tree(7), cfg, SimWorkspace::new());
    let allocs = steady_state_allocs(sim, probe_alloc);
    assert!(
        allocs >= 5000,
        "counter missed deliberate allocations ({allocs})"
    );
}

/// Allocations per run of `runs` repeat simulations on a warmed
/// workspace, calling `probe` inside the counted region once per run.
fn repeat_run_allocs(runs: u64, probe: impl Fn()) -> u64 {
    let cfg = SimConfig::interruptible(3, 500).with_checked(false);
    let mut ws = SimWorkspace::new();
    let tree = random_tree(split_seed(42, 9));
    // Warm runs on the same tree grow every arena to its final size.
    for _ in 0..3 {
        let r = ws.run(tree.clone(), cfg.clone());
        assert_eq!(r.tasks_completed(), 500);
    }
    let trees: Vec<Tree> = (0..runs).map(|_| tree.clone()).collect();
    let (allocs, ()) = count_allocs(|| {
        for t in trees {
            // `t` is consumed and dropped inside; only `into_result`'s
            // final trace vectors allocate, and those are the product we
            // measure separately below.
            let (result, returned) =
                Simulation::with_workspace(t, cfg.clone(), std::mem::take(&mut ws)).run_reusing();
            ws = returned;
            // RunResult construction allocates its per-node summary
            // vectors (the completion_times Vec is moved, not copied);
            // everything else must be free.
            assert_eq!(result.tasks_completed(), 500);
            drop(result);
            probe();
        }
    });
    allocs / runs
}

/// Per run: exactly the six per-node summary vectors plus the next run's
/// completion_times/checkpoint reserve — a small constant, independent
/// of event count (~570k events would otherwise show up as tens of
/// thousands of allocations).
const REPEAT_RUN_ALLOC_BOUND: u64 = 16;

/// Across runs: after a few campaign iterations warm the workspace,
/// whole simulations (construction included) run without allocating.
#[test]
fn reused_workspace_makes_repeat_runs_allocation_free() {
    let per_run = repeat_run_allocs(5, || {});
    assert!(
        per_run <= REPEAT_RUN_ALLOC_BOUND,
        "expected only constant per-run result allocations, got {per_run} per run"
    );
}

/// The repeat-run proof can fail: one more deliberate allocation per run
/// than the bound allows pushes the per-run count past it.
#[test]
fn probe_allocation_trips_the_repeat_run_proof() {
    let per_run = repeat_run_allocs(5, || {
        for _ in 0..=REPEAT_RUN_ALLOC_BOUND {
            probe_alloc();
        }
    });
    assert!(
        per_run > REPEAT_RUN_ALLOC_BOUND,
        "counter missed deliberate allocations ({per_run} per run)"
    );
}
