//! `grid_sweep`: `CampaignGrid::default_grid` (16 cells, 500 tasks)
//! through `run_grid_streaming_checkpointed`, checkpointing every few
//! shards into a fresh directory per repetition.

use crate::trace::{probe, Tracer, REP};
use crate::workload::{RepOut, Workload};
use bc_engine::durability::fnv1a64;
use bc_engine::{CheckpointKind, CheckpointStore, SimConfig, SimWorkspace};
use bc_experiments::campaign::{
    run_grid_streaming, run_grid_streaming_checkpointed, summarize, CampaignAccumulator,
    CampaignGrid, CheckpointPolicy, GridCell,
};
use bc_simcore::split_seed;
use bc_steady::SteadyState;
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const TREES_PER_CELL: usize = 48;
pub const SHARD_SIZE: usize = 6;
pub const CHECKPOINT_EVERY: usize = 4;
/// Generations the sweep keeps (`CheckpointPolicy::new`'s default).
const KEEP: usize = 2;

pub struct Grid {
    seed: u64,
    trees_per_cell: usize,
    scratch: PathBuf,
}

fn make_config(c: &GridCell) -> SimConfig {
    SimConfig::interruptible(c.buffers, c.tasks)
}

impl Grid {
    pub fn new(seed: u64, trees_per_cell: usize, scratch: &Path) -> Self {
        Grid {
            seed,
            trees_per_cell,
            scratch: scratch.to_path_buf(),
        }
    }

    fn grid(&self, rep: u64) -> CampaignGrid {
        CampaignGrid::default_grid(self.trees_per_cell, split_seed(self.seed, rep))
    }

    /// A directory no earlier repetition used.
    fn fresh_dir(&self, tag: &str, rep: u64) -> PathBuf {
        let dir = self.scratch.join(format!("{tag}-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A one-tree-per-cell sweep with a fixed seed (independent of the
    /// run's), so thread start-up and first-touch allocation are paid
    /// before timing. It writes no file: set-up time should not hang on
    /// the disk.
    pub fn warm_up() {
        let grid = CampaignGrid::default_grid(1, 0x5EED);
        std::hint::black_box(run_grid_streaming(&grid, 1, make_config));
    }
}

/// The sweep identity `run_grid_streaming_checkpointed` stamps into its
/// checkpoints (the campaign module's private `grid_fingerprint`, rebuilt from public fields; the
/// payload comparison in `public` proves the two agree).
fn fingerprint(grid: &CampaignGrid, shard_size: usize) -> u64 {
    let mut b = Vec::new();
    let mut axis = |vs: Vec<u64>| {
        b.extend((vs.len() as u64).to_le_bytes());
        for v in vs {
            b.extend(v.to_le_bytes());
        }
    };
    axis(grid.max_nodes.iter().map(|&m| m as u64).collect());
    axis(grid.tasks.clone());
    axis(grid.buffers.iter().map(|&v| v as u64).collect());
    axis(grid.comm_max.clone());
    axis(grid.compute_scale.clone());
    b.extend((grid.trees_per_cell as u64).to_le_bytes());
    b.extend(grid.seed.to_le_bytes());
    b.extend(grid.onset.window_threshold.to_le_bytes());
    b.extend(grid.onset.crossings.to_le_bytes());
    b.extend((shard_size as u64).to_le_bytes());
    fnv1a64(&b)
}

/// The sweep's checkpoint payload: version, fingerprint, cursor, cells.
fn payload(fingerprint: u64, cursor: usize, cells: &[(GridCell, CampaignAccumulator)]) -> Vec<u8> {
    let mut b = vec![1u8];
    b.extend(fingerprint.to_le_bytes());
    b.extend((cursor as u64).to_le_bytes());
    b.extend((cells.len() as u64).to_le_bytes());
    for (_, acc) in cells {
        acc.encode_into(&mut b);
    }
    b
}

/// Digest of the per-cell accumulator bytes plus the final checkpoint.
fn rep_out(wall_ns: u64, cells: &[(GridCell, CampaignAccumulator)], last_payload: &[u8]) -> RepOut {
    let mut b = Vec::new();
    for (_, acc) in cells {
        acc.encode_into(&mut b);
    }
    b.extend(fnv1a64(last_payload).to_le_bytes());
    let trees: u64 = cells.iter().map(|(_, a)| a.trees()).sum();
    let mut out = RepOut {
        wall_ns,
        items: trees,
        digest: fnv1a64(&b),
        ..RepOut::default()
    };
    out.counters.insert("trees", trees);
    out.counters
        .insert("reached_ic", cells.iter().map(|(_, a)| a.reached).sum());
    out.counters.insert(
        "events",
        cells.iter().map(|(_, a)| a.run_stats.events as u64).sum(),
    );
    out.counters
        .insert("checkpoint_bytes", last_payload.len() as u64);
    out
}

impl Workload for Grid {
    fn workers(&self) -> usize {
        rayon::current_num_threads()
    }

    fn nominal_rep_s(&self) -> f64 {
        0.32
    }

    fn public(&mut self, rep: u64) -> RepOut {
        let grid = self.grid(rep);
        let dir = self.fresh_dir("public", rep);
        let policy = CheckpointPolicy::new(&dir, CHECKPOINT_EVERY);
        let t0 = Instant::now();
        let outcome = run_grid_streaming_checkpointed(
            &grid,
            SHARD_SIZE,
            |c| {
                probe::stamp();
                make_config(c)
            },
            &policy,
        )
        .expect("grid sweep");
        let wall = t0.elapsed().as_nanos() as u64;
        assert!(outcome.completed, "sweep stopped early");
        let store = CheckpointStore::open(&dir, "grid", CheckpointKind::Campaign, KEEP)
            .expect("reopen checkpoint store");
        let last = store
            .load_latest()
            .expect("load checkpoint")
            .expect("sweep wrote a checkpoint");
        let out = rep_out(wall, &outcome.results, &last.payload);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    fn decomposed(&mut self, rep: u64, tracer: &mut Tracer) -> RepOut {
        let grid = self.grid(rep);
        let dir = self.fresh_dir("traced", rep);
        let t0 = Instant::now();
        let rep_span = tracer.enter(REP, rep);
        let cells = grid.cells();
        let campaigns: Vec<_> = cells.iter().map(|c| grid.cell_campaign(c)).collect();
        let mut work: Vec<(usize, usize, usize)> = Vec::new();
        for ci in 0..cells.len() {
            for start in (0..grid.trees_per_cell).step_by(SHARD_SIZE) {
                work.push((ci, start, (start + SHARD_SIZE).min(grid.trees_per_cell)));
            }
        }
        let fp = fingerprint(&grid, SHARD_SIZE);
        let mut store = CheckpointStore::open(&dir, "grid", CheckpointKind::Campaign, KEEP)
            .expect("open checkpoint store");
        let mut out: Vec<(GridCell, CampaignAccumulator)> = cells
            .iter()
            .cloned()
            .map(|c| (c, CampaignAccumulator::new()))
            .collect();
        let on = tracer.is_on();
        let mut last_payload = Vec::new();
        let mut cursor = 0;
        while cursor < work.len() {
            let chunk_end = (cursor + CHECKPOINT_EVERY).min(work.len());
            let ph = tracer.enter("phase.chunk", cursor as u64);
            let parent = tracer.current();
            let chunk: Vec<(usize, CampaignAccumulator)> = work[cursor..chunk_end]
                .par_iter()
                .map_init(
                    || (SimWorkspace::new(), Tracer::new(on, parent)),
                    |(ws, t), &(ci, start, end)| {
                        let cell = &cells[ci];
                        let campaign = &campaigns[ci];
                        let mut acc = CampaignAccumulator::new();
                        for i in start..end {
                            let item = (ci * grid.trees_per_cell + i) as u64;
                            let tree_span = t.enter("campaign.tree", item);
                            let g = t.enter("platform.generate", item);
                            let tree = campaign.tree(i);
                            t.exit(g, 0);
                            let a = t.enter("steady.analyze", item);
                            let analysis = SteadyState::analyze(&tree);
                            t.exit(a, 0);
                            let run_tree = tree.clone();
                            let e = t.enter("engine.run", item);
                            let result = ws.run(run_tree, make_config(cell));
                            t.exit(e, result.events_processed);
                            let s = t.enter("campaign.summarize", item);
                            let run = summarize(i, &tree, &analysis, &result, campaign.onset);
                            t.exit(s, 0);
                            let f = t.enter("campaign.fold", item);
                            acc.fold_summary(&run, &result);
                            t.exit(f, 0);
                            t.exit(tree_span, 0);
                        }
                        (ci, acc)
                    },
                )
                .collect();
            tracer.exit(ph, 0);
            let m = tracer.enter("campaign.merge", cursor as u64);
            for (ci, acc) in &chunk {
                out[*ci].1.merge(acc);
            }
            tracer.exit(m, 0);
            cursor = chunk_end;
            let s = tracer.enter("durability.save", cursor as u64);
            last_payload = payload(fp, cursor, &out);
            store.save(&last_payload).expect("save checkpoint");
            tracer.exit(s, last_payload.len() as u64);
        }
        tracer.exit(rep_span, 0);
        let wall = t0.elapsed().as_nanos() as u64;
        let result = rep_out(wall, &out, &last_payload);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }
}
