//! Extends the engine's counting-allocator discipline to the streaming
//! campaign loop: folding into a [`CampaignAccumulator`] is *exactly*
//! allocation-free, and a whole streaming sharded campaign allocates
//! O(trees) — per-tree setup (generation, analysis, result summary),
//! never per event. A campaign whose runs process ~8x the events must
//! not allocate meaningfully more than one with short runs.
//!
//! The vendored worker shim runs inline on the calling thread at one
//! worker, so a thread-local counter observes every allocation the
//! streaming engine makes.

use bc_engine::SimConfig;
use bc_experiments::campaign::{
    accumulate_materialized, run_campaign_streaming, run_campaign_with_results,
    CampaignAccumulator, CampaignConfig,
};
use bc_metrics::OnsetConfig;
use bc_platform::RandomTreeConfig;
use bc_testkit::{count_allocs, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn campaign(tasks: u64) -> CampaignConfig {
    CampaignConfig {
        trees: 12,
        tasks,
        seed: 2003,
        tree_config: RandomTreeConfig {
            min_nodes: 5,
            max_nodes: 40,
            comm_min: 1,
            comm_max: 15,
            compute_scale: 200,
        },
        onset: OnsetConfig {
            window_threshold: 100,
            crossings: 2,
        },
    }
}

/// The accumulator itself is integer arithmetic: merging shard
/// accumulators performs **zero** heap allocations, and folding a run's
/// summary in costs at most a tiny constant (converting an oversized
/// exact rational rate to fixed point can allocate a scratch bignum —
/// nothing that scales with events). This is what lets the streaming
/// engine retire each tree's result immediately without any aggregation
/// cost showing up per event.
#[test]
fn fold_is_constant_and_merge_is_allocation_free() {
    let (fold_allocs, merge_allocs, runs) = fold_and_merge_allocs(|| {});
    assert_eq!(merge_allocs, 0, "accumulator merge allocated");
    assert!(
        fold_allocs <= FOLD_ALLOCS_PER_RUN * runs,
        "fold allocated {fold_allocs} times over {runs} runs — more than the \
         small per-run constant the rate conversion can justify"
    );
}

/// The fold and merge proofs can fail: a probe allocating one more time
/// per fold than the bound allows, and once in the merge region, trips
/// both.
#[test]
fn probe_allocation_trips_the_fold_and_merge_proofs() {
    let (fold_allocs, merge_allocs, runs) = fold_and_merge_allocs(|| {
        for _ in 0..=FOLD_ALLOCS_PER_RUN {
            black_box(Box::new(0u64));
        }
    });
    assert!(merge_allocs > 0, "counter missed the merge probe");
    assert!(
        fold_allocs > FOLD_ALLOCS_PER_RUN * runs,
        "counter missed the fold probes ({fold_allocs} over {runs} runs)"
    );
}

/// Allocations a fold may make per run (the rate conversion's scratch).
const FOLD_ALLOCS_PER_RUN: u64 = 4;

/// Folds a small campaign's runs into two shard accumulators and merges
/// them, counting each phase; `probe` runs inside the counted region
/// after every fold and once during the merge. Returns the fold count,
/// the merge count and the number of runs, after checking the merged
/// total against the materialized aggregate.
fn fold_and_merge_allocs(probe: impl Fn()) -> (u64, u64, u64) {
    let runs = run_campaign_with_results(&campaign(500), |t| SimConfig::interruptible(3, t));
    let (a, b) = runs.split_at(runs.len() / 2);

    let (fold_allocs, (left, right)) = count_allocs(|| {
        let mut left = CampaignAccumulator::new();
        for (run, result) in a {
            left.fold_summary(run, result);
            probe();
        }
        let mut right = CampaignAccumulator::new();
        for (run, result) in b {
            right.fold_summary(run, result);
            probe();
        }
        (left, right)
    });
    let (merge_allocs, total) = count_allocs(|| {
        let mut total = left.clone();
        total.merge(&right);
        probe();
        total
    });
    assert_eq!(total, accumulate_materialized(&runs));
    (fold_allocs, merge_allocs, runs.len() as u64)
}

/// End to end: a streaming sharded campaign allocates per *tree*
/// (generation, oracle analysis, summary vectors), not per *event*.
/// Scaling each run's event count ~8x must leave the campaign's
/// allocation count essentially unchanged — the steady-state event loop
/// inside each shard is allocation-free after the workspace arenas warm
/// up, exactly as the engine's `alloc_free` suite proves for single
/// runs.
#[test]
fn streaming_campaign_allocates_per_tree_not_per_event() {
    let (allocs_short, events_short) = streaming_allocs(500, |_| {});
    let (allocs_long, events_long) = streaming_allocs(4_000, |_| {});

    // Premise: the long campaign really does far more simulation work,
    // and the counter really is observing the inline worker.
    assert!(
        events_long >= events_short * 4,
        "expected ~8x events, got {events_short} vs {events_long}"
    );
    assert!(
        allocs_short > c_trees(),
        "counter saw almost nothing ({allocs_short} allocations) — \
         streaming no longer runs inline at one worker?"
    );

    // The claim: allocations track trees, not events. Everything that
    // allocates (tree generation, Theorem-1 analysis, per-run summary
    // vectors) happens once per tree; the event loop itself is
    // allocation-free, so 8x the events must not even double the count.
    assert!(
        allocs_long < allocs_short * 2,
        "streaming campaign allocations scaled with events: \
         {allocs_short} allocations over {events_short} events vs \
         {allocs_long} over {events_long}"
    );
}

fn c_trees() -> u64 {
    campaign(500).trees as u64
}

/// Allocations and events of one streaming campaign at `tasks` per tree,
/// run inline on the measuring thread. `probe` runs inside the counted
/// region once per simulation, with the run's task count.
fn streaming_allocs(tasks: u64, probe: impl Fn(u64) + Sync) -> (u64, u128) {
    // One inline worker so the thread-local counter sees the whole run.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .unwrap();
    let c = campaign(tasks);
    let config = |t| {
        probe(t);
        SimConfig::interruptible(3, t)
    };
    // Warm-up pass: libstd and the generator lazily initialize some
    // one-time state (thread RNG, etc.) the first time through.
    let _ = run_campaign_streaming(&c, 4, config);
    let (allocs, acc) = count_allocs(|| run_campaign_streaming(&c, 4, config));
    (allocs, acc.run_stats.events)
}

/// The per-tree proof can fail: a probe allocating once per task inside
/// the counted region makes allocations scale with the run length, and
/// the same bound the proof asserts catches it.
#[test]
fn probe_allocation_trips_the_per_tree_proof() {
    let per_task = |tasks: u64| {
        for _ in 0..tasks {
            black_box(Box::new(0u64));
        }
    };
    let (allocs_short, _) = streaming_allocs(500, per_task);
    let (allocs_long, _) = streaming_allocs(4_000, per_task);
    assert!(
        allocs_long >= allocs_short * 2,
        "counter missed per-task allocations: {allocs_short} vs {allocs_long}"
    );
}
