//! Shared campaign infrastructure: run one protocol over many random
//! trees in parallel and summarize each run.
//!
//! Reproducibility: tree `i` of a campaign is generated from
//! `split_seed(campaign_seed, i)`, so any subset of a campaign can be
//! re-run independently and results never depend on thread scheduling.

use bc_engine::durability::{fnv1a64, CheckpointError, CheckpointKind, CheckpointStore};
use bc_engine::{RunResult, RunStatsAccumulator, RunStatsCodec, SimConfig, SimWorkspace};
use bc_metrics::{detect_onset, OnsetConfig};
use bc_platform::{RandomTreeConfig, Tree, UsedStats};
use bc_rational::Rational;
use bc_simcore::wire::{Arr, Codec, Le, Reader, Seq, WireError};
use bc_simcore::{split_seed, wire_struct};
use bc_steady::SteadyState;
use rayon::prelude::*;
use std::convert::Infallible;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Log-2 bucket count of the streaming histograms (onset times up to
/// 2^15 and buffer pools up to 2^15 resolve to distinct buckets; larger
/// values saturate into the last one).
pub const HIST_BUCKETS: usize = 16;

/// Configuration of a multi-tree campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of random trees.
    pub trees: usize,
    /// Tasks per application run.
    pub tasks: u64,
    /// Campaign seed (tree `i` uses `split_seed(seed, i)`).
    pub seed: u64,
    /// Random-tree generator parameters (§4.1).
    pub tree_config: RandomTreeConfig,
    /// Onset-detection parameters (§4.1 heuristic).
    pub onset: OnsetConfig,
}

impl CampaignConfig {
    /// The paper's campaign shape with a configurable tree count
    /// (25 000 at full paper scale).
    pub fn paper(trees: usize, tasks: u64, seed: u64) -> Self {
        CampaignConfig {
            trees,
            tasks,
            seed,
            tree_config: RandomTreeConfig::default(),
            onset: OnsetConfig::default(),
        }
    }

    /// The tree for campaign index `i`.
    pub fn tree(&self, i: usize) -> Tree {
        campaign_tree(&self.tree_config, self.seed, i)
    }

    /// Generates and analyzes tree `i` exactly once; the result is shared
    /// by the Theorem 1 oracle and every simulation run over the tree.
    pub fn prepare(&self, i: usize) -> PreparedTree {
        let tree = self.tree(i);
        let analysis = SteadyState::analyze(&tree);
        PreparedTree {
            index: i,
            tree,
            analysis,
        }
    }

    /// Prepares the whole campaign population in parallel.
    pub fn prepare_all(&self) -> Vec<PreparedTree> {
        (0..self.trees)
            .into_par_iter()
            .map(|i| self.prepare(i))
            .collect()
    }
}

/// The canonical campaign indexing scheme: tree `i` of a population
/// seeded by `seed`. Every experiment that walks a tree population uses
/// this one function, so index `i` names the same platform everywhere.
pub fn campaign_tree(tree_config: &RandomTreeConfig, seed: u64, i: usize) -> Tree {
    tree_config.generate(split_seed(seed, i as u64))
}

/// A campaign tree plus its steady-state analysis, generated once and
/// reused across protocols (multi-protocol experiments like Table 1 and
/// Fig 6 previously regenerated and re-analyzed every tree per protocol).
#[derive(Clone, Debug)]
pub struct PreparedTree {
    /// Campaign index of the tree.
    pub index: usize,
    /// The generated platform.
    pub tree: Tree,
    /// Theorem 1 analysis of the tree (the oracle side).
    pub analysis: SteadyState,
}

/// Summary of one simulated tree (completion times are reduced to the
/// onset verdict and buffer statistics to keep big campaigns in memory).
#[derive(Clone, Debug)]
pub struct TreeRun {
    /// Campaign index of the tree.
    pub index: usize,
    /// Node count.
    pub nodes: usize,
    /// Tree depth.
    pub depth: usize,
    /// Exact optimal steady-state rate from Theorem 1.
    pub optimal_rate: Rational,
    /// Onset window (None = never reached optimal steady state).
    pub onset: Option<u64>,
    /// Global max buffer-pool size across nodes.
    pub max_buffers: u32,
    /// `(tasks_completed, global max buffers so far)` checkpoints.
    pub checkpoint_max_buffers: Vec<(u64, u32)>,
    /// Size/depth of the ancestor-closed hull of nodes that computed ≥ 1
    /// task (Fig 6's "used nodes").
    pub used: UsedStats,
    /// Wall-clock of the simulated run in timesteps.
    pub end_time: u64,
    /// Simulator effort.
    pub events: u64,
}

impl TreeRun {
    /// Did this run reach the optimal steady-state rate?
    pub fn reached(&self) -> bool {
        self.onset.is_some()
    }
}

/// Runs `make_config(tasks)`-configured simulations over every tree of
/// the campaign, in parallel, and summarizes each.
pub fn run_campaign(
    campaign: &CampaignConfig,
    make_config: impl Fn(u64) -> SimConfig + Sync,
) -> Vec<TreeRun> {
    run_campaign_prepared(&campaign.prepare_all(), campaign, make_config)
}

/// Like [`run_campaign`], but over an already-prepared population: the
/// trees and their oracle analyses are shared, not regenerated. Callers
/// running several protocols over the same population should prepare once
/// and call this per protocol.
pub fn run_campaign_prepared(
    prepared: &[PreparedTree],
    campaign: &CampaignConfig,
    make_config: impl Fn(u64) -> SimConfig + Sync,
) -> Vec<TreeRun> {
    prepared
        .par_iter()
        .map_init(SimWorkspace::new, |ws, p| {
            // Each worker thread keeps one workspace for its whole share
            // of the campaign, so after its first few trees warm the
            // arenas the event loop never allocates (see the engine's
            // `alloc_free` test). Results are identical at any thread
            // count: each run depends only on its tree and config.
            let result = ws.run(p.tree.clone(), make_config(campaign.tasks));
            summarize(p.index, &p.tree, &p.analysis, &result, campaign.onset)
        })
        .collect()
}

/// Summarizes one finished run.
pub fn summarize(
    index: usize,
    tree: &Tree,
    analysis: &SteadyState,
    result: &RunResult,
    onset_cfg: OnsetConfig,
) -> TreeRun {
    let optimal = analysis.optimal_rate();
    let onset = detect_onset(&result.completion_times, &optimal, onset_cfg);
    TreeRun {
        index,
        nodes: tree.len(),
        depth: tree.depth(),
        optimal_rate: optimal,
        onset,
        max_buffers: result.max_buffers(),
        checkpoint_max_buffers: result.checkpoint_max_buffers.clone(),
        used: tree.used_subtree_stats(&result.used_nodes()),
        end_time: result.end_time,
        events: result.events_processed,
    }
}

/// Fraction of runs that reached the optimal steady state.
pub fn fraction_reached(runs: &[TreeRun]) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().filter(|r| r.reached()).count() as f64 / runs.len() as f64
}

// ---------------------------------------------------------------------------
// Streaming sharded campaigns
// ---------------------------------------------------------------------------

/// Log-2 histogram bucket of a value: 0 → 0, otherwise
/// `floor(log2(v)) + 1`, saturating into the last bucket.
fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Exact, mergeable aggregate of a campaign — everything the reports
/// derive from a `Vec<TreeRun>`, folded into integer counters so a
/// streamed sharded campaign never materializes per-tree results.
///
/// Like [`bc_engine::RunStatsAccumulator`] (embedded here for the raw
/// engine facts), every field is an integer sum/min/max/histogram, so
/// `merge` is exact, associative, and commutative, and `default()` is
/// the merge identity: a sharded streamed campaign produces
/// **bit-identical** aggregates to folding the materialized
/// [`TreeRun`]s, at any thread count and any shard size. The optimal
/// rate is accumulated in fixed point (microtasks per timestep, rounded
/// from the correctly-rounded `to_f64` of the exact rational) for the
/// same reason — an `f64` sum would be grouping-sensitive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignAccumulator {
    /// Raw engine-level facts (events, end times, buffers, faults).
    pub run_stats: RunStatsAccumulator,
    /// Runs that reached the optimal steady-state rate.
    pub reached: u64,
    /// Sum of onset times over reached runs.
    pub onset_sum: u128,
    /// Largest onset time seen.
    pub onset_max: u64,
    /// Log-2 histogram of onset times (reached runs only).
    pub onset_hist: [u64; HIST_BUCKETS],
    /// Log-2 histogram of per-run global max buffer-pool sizes.
    pub max_buffers_hist: [u64; HIST_BUCKETS],
    /// Sum of node counts.
    pub nodes_sum: u128,
    /// Largest node count.
    pub nodes_max: u64,
    /// Sum of tree depths.
    pub depth_sum: u128,
    /// Largest tree depth.
    pub depth_max: u64,
    /// Sum of used-hull sizes (Fig 6's "used nodes").
    pub used_size_sum: u128,
    /// Sum of used-hull depths.
    pub used_depth_sum: u128,
    /// Sum of optimal rates in fixed point (microtasks per timestep,
    /// `round(rate * 1e6)` per tree).
    pub rate_micros_sum: u128,
}

impl CampaignAccumulator {
    /// The merge identity (an accumulator over zero trees).
    pub fn new() -> Self {
        Self::default()
    }

    /// Trees folded in.
    pub fn trees(&self) -> u64 {
        self.run_stats.runs
    }

    /// Folds one summarized run in. The streaming path and the
    /// materialized path both funnel through this, so their aggregates
    /// agree bit for bit by construction.
    pub fn fold_summary(&mut self, run: &TreeRun, result: &RunResult) {
        self.run_stats.fold(result);
        if let Some(onset) = run.onset {
            self.reached += 1;
            self.onset_sum += onset as u128;
            self.onset_max = self.onset_max.max(onset);
            self.onset_hist[log2_bucket(onset)] += 1;
        }
        self.max_buffers_hist[log2_bucket(run.max_buffers as u64)] += 1;
        self.nodes_sum += run.nodes as u128;
        self.nodes_max = self.nodes_max.max(run.nodes as u64);
        self.depth_sum += run.depth as u128;
        self.depth_max = self.depth_max.max(run.depth as u64);
        self.used_size_sum += run.used.size as u128;
        self.used_depth_sum += run.used.depth as u128;
        self.rate_micros_sum += (run.optimal_rate.to_f64() * 1e6).round() as u128;
    }

    /// Summarizes and folds one raw run (the streaming path: nothing of
    /// the run outlives this call).
    pub fn record(
        &mut self,
        index: usize,
        tree: &Tree,
        analysis: &SteadyState,
        result: &RunResult,
        onset_cfg: OnsetConfig,
    ) {
        let run = summarize(index, tree, analysis, result, onset_cfg);
        self.fold_summary(&run, result);
    }

    /// Merges another accumulator in (exact; associative and
    /// commutative; `default()` is the identity).
    pub fn merge(&mut self, other: &Self) {
        self.run_stats.merge(&other.run_stats);
        self.reached += other.reached;
        self.onset_sum += other.onset_sum;
        self.onset_max = self.onset_max.max(other.onset_max);
        for (a, b) in self.onset_hist.iter_mut().zip(&other.onset_hist) {
            *a += b;
        }
        for (a, b) in self
            .max_buffers_hist
            .iter_mut()
            .zip(&other.max_buffers_hist)
        {
            *a += b;
        }
        self.nodes_sum += other.nodes_sum;
        self.nodes_max = self.nodes_max.max(other.nodes_max);
        self.depth_sum += other.depth_sum;
        self.depth_max = self.depth_max.max(other.depth_max);
        self.used_size_sum += other.used_size_sum;
        self.used_depth_sum += other.used_depth_sum;
        self.rate_micros_sum += other.rate_micros_sum;
    }

    /// Fraction of folded runs that reached the optimal rate.
    pub fn fraction_reached(&self) -> f64 {
        if self.trees() == 0 {
            return 0.0;
        }
        self.reached as f64 / self.trees() as f64
    }

    /// Mean onset time over reached runs (0 when none reached).
    pub fn mean_onset(&self) -> f64 {
        if self.reached == 0 {
            return 0.0;
        }
        self.onset_sum as f64 / self.reached as f64
    }

    /// Mean node count (0 when empty).
    pub fn mean_nodes(&self) -> f64 {
        if self.trees() == 0 {
            return 0.0;
        }
        self.nodes_sum as f64 / self.trees() as f64
    }

    /// Mean optimal rate (tasks per timestep; 0 when empty).
    pub fn mean_optimal_rate(&self) -> f64 {
        if self.trees() == 0 {
            return 0.0;
        }
        self.rate_micros_sum as f64 / 1e6 / self.trees() as f64
    }
}

/// Like [`run_campaign`], but keeps each tree's raw [`RunResult`]
/// alongside its summary — the fully **materialized** campaign mode.
/// This is what a post-hoc aggregation needs to compute everything a
/// [`CampaignAccumulator`] holds, and the memory baseline the streaming
/// mode is benchmarked (and tested bit-identical) against.
pub fn run_campaign_with_results(
    campaign: &CampaignConfig,
    make_config: impl Fn(u64) -> SimConfig + Sync,
) -> Vec<(TreeRun, RunResult)> {
    campaign
        .prepare_all()
        .par_iter()
        .map_init(SimWorkspace::new, |ws, p| {
            let result = ws.run(p.tree.clone(), make_config(campaign.tasks));
            let run = summarize(p.index, &p.tree, &p.analysis, &result, campaign.onset);
            (run, result)
        })
        .collect()
}

/// Folds a materialized campaign into an accumulator, tree-index order.
/// This is the reference the streaming path is tested bit-identical
/// against — note it needs the raw `RunResult`s kept alive, which is
/// exactly what the streaming path exists to avoid.
pub fn accumulate_materialized(runs: &[(TreeRun, RunResult)]) -> CampaignAccumulator {
    let mut acc = CampaignAccumulator::new();
    for (run, result) in runs {
        acc.fold_summary(run, result);
    }
    acc
}

/// Runs a campaign in streaming sharded mode: trees are processed in
/// contiguous shards of `shard_size`, each worker folding its shard
/// into a [`CampaignAccumulator`] (per-tree results die immediately),
/// and shard accumulators are merged in shard order on the calling
/// thread as they arrive. Peak memory is one in-flight shard per worker
/// plus the accumulators of shards that finished ahead of a slower one,
/// instead of `O(trees)` summaries.
///
/// Results are bit-identical to folding the materialized path's output
/// through the same accumulator, at any thread count and shard size.
pub fn run_campaign_streaming(
    campaign: &CampaignConfig,
    shard_size: usize,
    make_config: impl Fn(u64) -> SimConfig + Sync,
) -> CampaignAccumulator {
    let mut total = CampaignAccumulator::new();
    let Ok(()) = stream_shards::<Infallible>(
        std::slice::from_ref(campaign),
        shard_size,
        0..shard_count(campaign.trees, shard_size),
        |_| make_config(campaign.tasks),
        |_, _, acc| {
            total.merge(&acc);
            Ok(())
        },
    );
    total
}

/// Shards a campaign of `trees` trees splits into.
fn shard_count(trees: usize, shard_size: usize) -> usize {
    assert!(shard_size >= 1, "shard_size must be at least 1");
    trees.div_ceil(shard_size)
}

/// Runs shards `todo` of `campaigns` and hands each shard's accumulator
/// to `fold(shard, campaign, acc)` on the calling thread, in shard
/// order. Each campaign is cut into `shard_size`-tree shards, listed
/// campaign by campaign; all campaigns have the same tree count.
///
/// `rayon::current_num_threads()` scoped workers each keep one
/// `SimWorkspace` for the whole pass and claim one shard at a time off
/// an atomic cursor, so no worker waits on another or on `fold` (where
/// checkpoint saves run). Shards that finish ahead of the oldest
/// unfinished one wait in a reorder buffer. A `fold` error, or a panic
/// in a shard, drops the channel, so each worker stops at its next send;
/// the error is returned (the panic resumed) once all have joined. At
/// one worker everything runs inline on the calling thread.
fn stream_shards<E>(
    campaigns: &[CampaignConfig],
    shard_size: usize,
    todo: std::ops::Range<usize>,
    make_config: impl Fn(usize) -> SimConfig + Sync,
    mut fold: impl FnMut(usize, usize, CampaignAccumulator) -> Result<(), E>,
) -> Result<(), E> {
    let per = campaigns
        .first()
        .map_or(1, |c| shard_count(c.trees, shard_size).max(1));
    let shard = &|ws: &mut SimWorkspace, w: usize| {
        let (campaign, start) = (&campaigns[w / per], w % per * shard_size);
        let mut acc = CampaignAccumulator::new();
        for i in start..campaign.trees.min(start + shard_size) {
            let p = campaign.prepare(i);
            let result = ws.run(p.tree.clone(), make_config(w / per));
            acc.record(i, &p.tree, &p.analysis, &result, campaign.onset);
        }
        acc
    };
    let workers = rayon::current_num_threads().min(todo.len());
    if workers <= 1 {
        let ws = &mut SimWorkspace::new();
        return todo
            .into_iter()
            .try_for_each(|w| fold(w, w / per, shard(ws, w)));
    }
    let next = &AtomicUsize::new(todo.start);
    let end = todo.end;
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        for tx in vec![tx; workers] {
            scope.spawn(move || {
                let mut ws = SimWorkspace::new();
                let claims = std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)));
                for w in claims.take_while(|&w| w < end) {
                    let acc = panic::catch_unwind(AssertUnwindSafe(|| shard(&mut ws, w)));
                    let panicked = acc.is_err();
                    if tx.send((w, acc)).is_err() || panicked {
                        return;
                    }
                }
            });
        }
        let mut ahead = std::collections::BTreeMap::new();
        let mut want = todo.start;
        for (w, acc) in rx {
            ahead.insert(w, acc.unwrap_or_else(|p| panic::resume_unwind(p)));
            while let Some(acc) = ahead.remove(&want) {
                fold(want, want / per, acc)?;
                want += 1;
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Parameter-grid sweeps
// ---------------------------------------------------------------------------

/// A parameter grid over the paper's campaign knobs: tree size `m`,
/// task count `n`, buffer allowance `b`, communication-delay range `d`,
/// and compute scale `x`. The cartesian product of the axes defines the
/// grid's cells; each cell simulates `trees_per_cell` random trees
/// seeded from `split_seed(seed, cell_index)`, so any cell can be
/// re-run independently of the rest of the sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignGrid {
    /// Tree-size axis `m` (max nodes; min nodes is `min(10, m)`).
    pub max_nodes: Vec<usize>,
    /// Task-count axis `n`.
    pub tasks: Vec<u64>,
    /// Buffer-allowance axis `b` (the protocol's FB threshold).
    pub buffers: Vec<u32>,
    /// Communication-delay axis `d` (comm times uniform in `[1, d]`).
    pub comm_max: Vec<u64>,
    /// Compute-scale axis `x` (compute times uniform in `[x/100, x]`).
    pub compute_scale: Vec<u64>,
    /// Random trees per cell.
    pub trees_per_cell: usize,
    /// Sweep seed.
    pub seed: u64,
    /// Onset-detection parameters shared by every cell.
    pub onset: OnsetConfig,
}

impl CampaignGrid {
    /// A small default grid: 16 cells spanning tree size, buffers,
    /// delay spread, and compute scale at a fixed task count.
    pub fn default_grid(trees_per_cell: usize, seed: u64) -> Self {
        CampaignGrid {
            max_nodes: vec![30, 120],
            tasks: vec![500],
            buffers: vec![2, 3],
            comm_max: vec![10, 30],
            compute_scale: vec![100, 500],
            trees_per_cell,
            seed,
            // The paper's threshold (300 windows) assumes 10_000-task
            // runs; grid cells run a few hundred tasks, so the startup
            // exclusion is scaled down proportionally.
            onset: OnsetConfig {
                window_threshold: 100,
                crossings: 2,
            },
        }
    }

    /// The grid's cells in canonical (m, n, b, d, x) nested order.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut cells = Vec::new();
        for &m in &self.max_nodes {
            for &n in &self.tasks {
                for &b in &self.buffers {
                    for &d in &self.comm_max {
                        for &x in &self.compute_scale {
                            cells.push(GridCell {
                                index: cells.len(),
                                max_nodes: m,
                                tasks: n,
                                buffers: b,
                                comm_max: d,
                                compute_scale: x,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Total trees the sweep will simulate.
    pub fn total_trees(&self) -> usize {
        self.max_nodes.len()
            * self.tasks.len()
            * self.buffers.len()
            * self.comm_max.len()
            * self.compute_scale.len()
            * self.trees_per_cell
    }

    /// The per-cell campaign: tree `i` of a cell is seeded from the
    /// cell's own `split_seed(grid.seed, cell_index)` stream, so cells
    /// are independent and individually reproducible.
    pub fn cell_campaign(&self, cell: &GridCell) -> CampaignConfig {
        CampaignConfig {
            trees: self.trees_per_cell,
            tasks: cell.tasks,
            seed: split_seed(self.seed, cell.index as u64),
            tree_config: RandomTreeConfig {
                min_nodes: cell.max_nodes.min(10),
                max_nodes: cell.max_nodes,
                comm_min: 1,
                comm_max: cell.comm_max,
                compute_scale: cell.compute_scale,
            },
            onset: self.onset,
        }
    }
}

/// One point of a [`CampaignGrid`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridCell {
    /// Position in the canonical cell order.
    pub index: usize,
    /// Tree-size parameter `m`.
    pub max_nodes: usize,
    /// Task count `n`.
    pub tasks: u64,
    /// Buffer allowance `b`.
    pub buffers: u32,
    /// Communication-delay bound `d`.
    pub comm_max: u64,
    /// Compute scale `x`.
    pub compute_scale: u64,
}

/// Runs a whole grid sweep in streaming sharded mode and returns one
/// accumulator per cell (cell order).
///
/// The (cell, shard) pairs of the entire sweep are flattened into one
/// work list, so workers stay busy across cell boundaries and each
/// worker's `SimWorkspace` stays thread-affine for the whole sweep.
/// Shard accumulators are merged into their cells in work-list order,
/// keeping the per-cell aggregates bit-identical at any thread count.
pub fn run_grid_streaming(
    grid: &CampaignGrid,
    shard_size: usize,
    make_config: impl Fn(&GridCell) -> SimConfig + Sync,
) -> Vec<(GridCell, CampaignAccumulator)> {
    let cells = grid.cells();
    let campaigns: Vec<CampaignConfig> = cells.iter().map(|c| grid.cell_campaign(c)).collect();
    let mut accs = vec![CampaignAccumulator::new(); cells.len()];
    let Ok(()) = stream_shards::<Infallible>(
        &campaigns,
        shard_size,
        0..cells.len() * shard_count(grid.trees_per_cell, shard_size),
        |ci| make_config(&cells[ci]),
        |_, ci, acc| {
            accs[ci].merge(&acc);
            Ok(())
        },
    );
    cells.into_iter().zip(accs).collect()
}

// ---------------------------------------------------------------------------
// Durable, resumable streaming
// ---------------------------------------------------------------------------

wire_struct! {
    /// Accumulator-state byte form, fixed-width little-endian in field
    /// order (integrity is the `BCCK` container's job).
    CampaignCodec for CampaignAccumulator {
        run_stats: RunStatsCodec,
        reached: Le,
        onset_sum: Le,
        onset_max: Le,
        onset_hist: Arr(Le),
        max_buffers_hist: Arr(Le),
        nodes_sum: Le,
        nodes_max: Le,
        depth_sum: Le,
        depth_max: Le,
        used_size_sum: Le,
        used_depth_sum: Le,
        rate_micros_sum: Le,
    }
}

impl CampaignAccumulator {
    /// Appends the canonical byte form to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        CampaignCodec.put(out, self);
    }

    /// Decodes one accumulator from the front of `input`, advancing
    /// past the consumed bytes. `None` on truncation.
    pub fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let mut r = Reader::new(input);
        let acc = CampaignCodec.get(&mut r).ok()?;
        *input = r.rest();
        Some(acc)
    }
}

/// Why a resumable sweep could not start from (or write to) its
/// checkpoint directory.
#[derive(Debug)]
pub enum ResumeError {
    /// The durable store failed (io, corruption with no fallback, ...).
    Checkpoint(CheckpointError),
    /// A verified payload didn't parse as a campaign checkpoint — a
    /// format drift between writer and reader versions.
    Format(&'static str),
    /// The checkpoint belongs to a different sweep (different grid
    /// parameters, seed, or shard size) — resuming would silently mix
    /// incompatible aggregates.
    FingerprintMismatch {
        /// Fingerprint of the sweep being launched.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "resume: {e}"),
            ResumeError::Format(what) => write!(f, "resume: malformed checkpoint ({what})"),
            ResumeError::FingerprintMismatch { expected, found } => write!(
                f,
                "resume: checkpoint is from a different sweep \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        ResumeError::Checkpoint(e)
    }
}

impl From<WireError> for ResumeError {
    fn from(e: WireError) -> Self {
        ResumeError::Format(match e {
            WireError::Truncated => "truncated payload",
            WireError::Corrupt(what) => what,
        })
    }
}

/// Campaign-checkpoint payload format revision.
const CAMPAIGN_CKPT_VERSION: u8 = 1;

/// Durability knobs for a resumable streaming sweep.
#[derive(Debug)]
pub struct CheckpointPolicy {
    /// Directory the generation files live in.
    pub dir: std::path::PathBuf,
    /// Save a generation after every `every_shards` completed
    /// (cell, shard) work items (min 1).
    pub every_shards: usize,
    /// Continue from the newest good generation instead of starting
    /// fresh. Without this, existing checkpoints are ignored (and
    /// overwritten as new generations land).
    pub resume: bool,
    /// Stop (checkpointing first) after this many work items were
    /// processed *in this invocation* — the deterministic stand-in for
    /// a kill, used by the equivalence tests and the chaos harness's
    /// bounded legs. `None` runs to completion.
    pub stop_after_shards: Option<usize>,
    /// Generations to retain (min 1; 2+ recommended so a torn newest
    /// generation can fall back).
    pub keep: usize,
}

impl CheckpointPolicy {
    /// A policy with the defaults the CLI uses: checkpoint every
    /// `every_shards`, keep 2 generations, fresh start.
    pub fn new(dir: impl Into<std::path::PathBuf>, every_shards: usize) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every_shards: every_shards.max(1),
            resume: false,
            stop_after_shards: None,
            keep: 2,
        }
    }

    /// Enable resuming from the newest good generation.
    pub fn resuming(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }
}

/// What a resumable sweep invocation did.
#[derive(Debug)]
pub struct ResumableOutcome<T> {
    /// Per-cell aggregates (final iff `completed`).
    pub results: T,
    /// Whether the sweep ran to the end (false = stopped by
    /// `stop_after_shards`; relaunch with `resume` to continue).
    pub completed: bool,
    /// Work items done over all invocations (the cursor).
    pub shards_done: usize,
    /// Total work items in the sweep.
    pub shards_total: usize,
    /// Generation the invocation resumed from, if any.
    pub resumed_from_generation: Option<u64>,
}

/// Fingerprint of a grid sweep's identity: every parameter that shapes
/// the flattened work list or the per-tree runs. Two invocations with
/// equal fingerprints partition identical work identically.
fn grid_fingerprint(grid: &CampaignGrid, shard_size: usize) -> u64 {
    let widen = |vs: &[usize]| vs.iter().map(|&v| v as u64).collect::<Vec<_>>();
    let widen32 = |vs: &[u32]| vs.iter().map(|&v| u64::from(v)).collect::<Vec<_>>();
    let mut b = Vec::new();
    for axis in [
        widen(&grid.max_nodes),
        grid.tasks.clone(),
        widen32(&grid.buffers),
        grid.comm_max.clone(),
        grid.compute_scale.clone(),
    ] {
        Seq(Le, Le).put(&mut b, &axis);
    }
    Le.put(&mut b, &(grid.trees_per_cell as u64));
    Le.put(&mut b, &grid.seed);
    Le.put(&mut b, &grid.onset.window_threshold);
    Le.put(&mut b, &grid.onset.crossings);
    Le.put(&mut b, &(shard_size as u64));
    fnv1a64(&b)
}

/// A grid sweep's durable state: its identity, the work-list cursor,
/// and one accumulator per cell, in cell order. The payload is
/// [`CAMPAIGN_CKPT_VERSION`] followed by this record.
struct GridCheckpoint {
    fingerprint: u64,
    cursor: u64,
    cells: Vec<CampaignAccumulator>,
}

wire_struct! {
    GridCheckpointW for GridCheckpoint {
        fingerprint: Le,
        cursor: Le,
        cells: Seq(Le, CampaignCodec),
    }
}

impl GridCheckpoint {
    fn to_payload(&self) -> Vec<u8> {
        let mut b = vec![CAMPAIGN_CKPT_VERSION];
        GridCheckpointW.put(&mut b, self);
        b
    }

    /// Decodes a payload written by [`GridCheckpoint::to_payload`] and
    /// checks that it belongs to the sweep being resumed.
    fn from_payload(
        payload: &[u8],
        expected_fingerprint: u64,
        expected_cells: usize,
        work_items: usize,
    ) -> Result<GridCheckpoint, ResumeError> {
        let mut r = Reader::new(payload);
        let version = r.u8().map_err(|_| ResumeError::Format("empty payload"))?;
        if version != CAMPAIGN_CKPT_VERSION {
            return Err(ResumeError::Format("unknown payload version"));
        }
        let ckpt = GridCheckpointW.get(&mut r)?;
        if ckpt.fingerprint != expected_fingerprint {
            return Err(ResumeError::FingerprintMismatch {
                expected: expected_fingerprint,
                found: ckpt.fingerprint,
            });
        }
        if ckpt.cells.len() != expected_cells {
            return Err(ResumeError::Format("cell count mismatch"));
        }
        if r.remaining() != 0 {
            return Err(ResumeError::Format("trailing bytes"));
        }
        if ckpt.cursor > work_items as u64 {
            return Err(ResumeError::Format("cursor beyond work list"));
        }
        Ok(ckpt)
    }
}

/// [`run_grid_streaming`] with durable progress: after every
/// `policy.every_shards` completed (cell, shard) work items the
/// per-cell accumulators and the work-list cursor are written
/// atomically to `policy.dir` (generation files, checksummed — see
/// [`bc_engine::durability`]). A killed sweep relaunched with
/// `policy.resume` picks up at the last checkpointed cursor and
/// produces final per-cell aggregates **bit-identical** to an
/// uninterrupted run: work items are deterministic in their (cell,
/// shard) coordinates alone, and shards are folded in work-list order,
/// so every generation holds exactly the folded prefix of the list.
///
/// Saves run on the calling thread while the workers keep simulating;
/// they land at the cursors `first + k·every_shards` and at the stop
/// point, whatever the thread count or the order shards finish in.
///
/// At most `every_shards` work items are re-simulated after a crash —
/// re-running a shard is idempotent by determinism, so a kill *between*
/// checkpoint boundaries costs duplicated work, never duplicated
/// counts.
pub fn run_grid_streaming_checkpointed(
    grid: &CampaignGrid,
    shard_size: usize,
    make_config: impl Fn(&GridCell) -> SimConfig + Sync,
    policy: &CheckpointPolicy,
) -> Result<ResumableOutcome<Vec<(GridCell, CampaignAccumulator)>>, ResumeError> {
    let cells = grid.cells();
    let campaigns: Vec<CampaignConfig> = cells.iter().map(|c| grid.cell_campaign(c)).collect();
    let shards = cells.len() * shard_count(grid.trees_per_cell, shard_size);
    let fingerprint = grid_fingerprint(grid, shard_size);
    let mut store =
        CheckpointStore::open(&policy.dir, "grid", CheckpointKind::Campaign, policy.keep)?;

    let mut state = GridCheckpoint {
        fingerprint,
        cursor: 0,
        cells: vec![CampaignAccumulator::new(); cells.len()],
    };
    let mut resumed_from_generation = None;
    if policy.resume {
        if let Some(loaded) = store.load_latest()? {
            state =
                GridCheckpoint::from_payload(&loaded.payload, fingerprint, cells.len(), shards)?;
            resumed_from_generation = Some(loaded.generation);
        }
    }

    let first = state.cursor as usize;
    let every = policy.every_shards.max(1);
    let stop = (policy.stop_after_shards).map_or(shards, |s| shards.min(first.saturating_add(s)));
    stream_shards(
        &campaigns,
        shard_size,
        first..stop,
        |ci| make_config(&cells[ci]),
        |w, ci, acc| {
            state.cells[ci].merge(&acc);
            let cursor = w + 1;
            if (cursor - first).is_multiple_of(every) || cursor == stop {
                state.cursor = cursor as u64;
                store.save(&state.to_payload())?;
            }
            Ok::<_, ResumeError>(())
        },
    )?;

    Ok(ResumableOutcome {
        completed: stop == shards,
        shards_done: stop,
        shards_total: shards,
        resumed_from_generation,
        results: cells.into_iter().zip(state.cells).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> CampaignConfig {
        CampaignConfig {
            trees: 8,
            tasks: 800,
            seed: 42,
            tree_config: RandomTreeConfig {
                min_nodes: 5,
                max_nodes: 30,
                comm_min: 1,
                comm_max: 10,
                compute_scale: 100,
            },
            onset: OnsetConfig {
                window_threshold: 100,
                crossings: 2,
            },
        }
    }

    #[test]
    fn campaign_is_deterministic_and_parallel_safe() {
        let c = tiny_campaign();
        let a = run_campaign(&c, |t| SimConfig::interruptible(3, t));
        let b = run_campaign(&c, |t| SimConfig::interruptible(3, t));
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.onset, y.onset);
            assert_eq!(x.end_time, y.end_time);
            assert_eq!(x.events, y.events);
        }
    }

    #[test]
    fn trees_differ_across_indices() {
        let c = tiny_campaign();
        assert_ne!(
            (c.tree(0).len(), c.tree(0).depth()),
            (c.tree(1).len(), c.tree(1).depth()),
        );
    }

    #[test]
    fn ic3_reaches_optimal_on_most_small_trees() {
        let c = tiny_campaign();
        let runs = run_campaign(&c, |t| SimConfig::interruptible(3, t));
        let frac = fraction_reached(&runs);
        assert!(frac >= 0.5, "IC/FB=3 reached only {frac}");
    }

    #[test]
    fn streaming_matches_materialized_at_every_shard_size() {
        let c = tiny_campaign();
        let materialized = run_campaign_with_results(&c, |t| SimConfig::interruptible(3, t));
        let reference = accumulate_materialized(&materialized);
        assert_eq!(reference.trees(), 8);
        assert!(reference.fraction_reached() > 0.0);
        for shard_size in [1usize, 3, 8, 64] {
            let streamed =
                run_campaign_streaming(&c, shard_size, |t| SimConfig::interruptible(3, t));
            assert_eq!(
                streamed, reference,
                "streamed aggregate differs at shard_size {shard_size}"
            );
        }
    }

    #[test]
    fn accumulator_merge_is_exact_over_shard_groupings() {
        let c = tiny_campaign();
        let materialized = run_campaign_with_results(&c, |t| SimConfig::interruptible(3, t));
        let whole = accumulate_materialized(&materialized);
        let (a, b) = materialized.split_at(3);
        let mut left = accumulate_materialized(a);
        let right = accumulate_materialized(b);
        left.merge(&right);
        assert_eq!(left, whole);
        // Identity.
        let mut with_id = whole.clone();
        with_id.merge(&CampaignAccumulator::default());
        assert_eq!(with_id, whole);
    }

    #[test]
    fn accumulator_codec_roundtrips() {
        let c = tiny_campaign();
        let acc = run_campaign_streaming(&c, 3, |t| SimConfig::interruptible(3, t));
        let mut bytes = Vec::new();
        acc.encode_into(&mut bytes);
        let mut input = bytes.as_slice();
        let decoded = CampaignAccumulator::decode_from(&mut input).unwrap();
        assert_eq!(decoded, acc);
        assert!(input.is_empty());
        for cut in 0..bytes.len() {
            let mut short = &bytes[..cut];
            assert!(CampaignAccumulator::decode_from(&mut short).is_none());
        }
    }

    #[test]
    fn grid_cells_enumerate_cartesian_product_in_order() {
        let grid = CampaignGrid::default_grid(5, 7);
        let cells = grid.cells();
        assert_eq!(cells.len(), 16);
        assert_eq!(grid.total_trees(), 80);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        // Innermost axis (x) varies fastest.
        assert_eq!(cells[0].compute_scale, 100);
        assert_eq!(cells[1].compute_scale, 500);
        assert_eq!(cells[0].comm_max, cells[1].comm_max);
        // Cells get distinct seed streams.
        assert_ne!(
            grid.cell_campaign(&cells[0]).seed,
            grid.cell_campaign(&cells[1]).seed
        );
    }

    #[test]
    fn grid_sweep_is_deterministic_and_streams_per_cell() {
        let grid = CampaignGrid {
            max_nodes: vec![12, 25],
            tasks: vec![400],
            buffers: vec![2, 3],
            comm_max: vec![8],
            compute_scale: vec![100],
            trees_per_cell: 4,
            seed: 99,
            onset: OnsetConfig {
                window_threshold: 50,
                crossings: 2,
            },
        };
        let a = run_grid_streaming(&grid, 2, |c| SimConfig::interruptible(c.buffers, c.tasks));
        let b = run_grid_streaming(&grid, 3, |c| SimConfig::interruptible(c.buffers, c.tasks));
        assert_eq!(a.len(), 4);
        for ((cell_a, acc_a), (cell_b, acc_b)) in a.iter().zip(&b) {
            assert_eq!(cell_a, cell_b);
            assert_eq!(
                acc_a, acc_b,
                "cell {} differs across shard sizes",
                cell_a.index
            );
            assert_eq!(acc_a.trees(), 4);
        }
        // And each cell matches its own standalone streaming campaign.
        for (cell, acc) in &a {
            let standalone = run_campaign_streaming(&grid.cell_campaign(cell), 4, |t| {
                SimConfig::interruptible(cell.buffers, t)
            });
            assert_eq!(&standalone, acc, "cell {} standalone mismatch", cell.index);
        }
    }
}
