//! Kill/resume bit-identity for durable streaming sweeps.
//!
//! A checkpointed grid sweep stopped after *any* number of shards and
//! relaunched with `resume` must produce per-cell aggregates
//! **bit-identical** to an uninterrupted run — proptested over kill
//! points, thread counts, and shard sizes (the accumulators are exact
//! integers and their merge is associative with `default()` as
//! identity, so this is provable, and here we pin it empirically).
//!
//! Thread counts are exercised with rayon pools scoped per assertion;
//! determinism across pool sizes is the engine's existing contract,
//! re-checked here through the checkpointed path.

use bc_engine::durability::{CheckpointError, CheckpointKind, CheckpointStore};
use bc_engine::{SimConfig, SimWorkspace};
use bc_experiments::campaign::{
    run_grid_streaming, run_grid_streaming_checkpointed, CampaignAccumulator, CampaignGrid,
    CheckpointPolicy, GridCell, ResumeError,
};
use bc_metrics::OnsetConfig;
use proptest::prelude::*;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A grid small enough to sweep hundreds of times under proptest but
/// with several cells and shards so kill points land mid-cell, at cell
/// boundaries, and mid-sweep.
fn tiny_grid(seed: u64, trees_per_cell: usize) -> CampaignGrid {
    CampaignGrid {
        max_nodes: vec![10, 20],
        tasks: vec![200],
        buffers: vec![2, 3],
        comm_max: vec![8],
        compute_scale: vec![100],
        trees_per_cell,
        seed,
        onset: OnsetConfig {
            window_threshold: 50,
            crossings: 2,
        },
    }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    // Proptest reruns cases; a per-case unique suffix keeps directories
    // from bleeding between iterations.
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bc-resume-prop-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stop after `kill_after` shards (any point in the work list, a
    /// deterministic stand-in for SIGKILL at a shard boundary), resume
    /// in a pool with a different thread count, and demand the final
    /// per-cell aggregates equal the uninterrupted single-invocation
    /// run bit for bit.
    #[test]
    fn kill_anywhere_resume_is_bit_identical(
        seed in 0u64..10_000,
        trees_per_cell in 3usize..7,
        shard_size in 1usize..4,
        kill_after in 0usize..16,
        every in 1usize..4,
        threads_a in 1usize..4,
        threads_b in 1usize..4,
    ) {
        let grid = tiny_grid(seed, trees_per_cell);
        let reference = run_grid_streaming(&grid, shard_size, |c| {
            SimConfig::interruptible(c.buffers, c.tasks)
        });

        let dir = fresh_dir("kill");
        let mut policy = CheckpointPolicy::new(&dir, every);
        policy.stop_after_shards = Some(kill_after);
        // The vendored rayon shim has one global worker-count knob;
        // flipping it between invocations is exactly the point — the
        // aggregates must not care.
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads_a)
            .build_global()
            .unwrap();
        let partial = run_grid_streaming_checkpointed(
            &grid,
            shard_size,
            |c| SimConfig::interruptible(c.buffers, c.tasks),
            &policy,
        ).unwrap();
        prop_assert_eq!(partial.shards_done, kill_after.min(partial.shards_total));

        let policy = CheckpointPolicy::new(&dir, every).resuming(true);
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads_b)
            .build_global()
            .unwrap();
        let full = run_grid_streaming_checkpointed(
            &grid,
            shard_size,
            |c| SimConfig::interruptible(c.buffers, c.tasks),
            &policy,
        ).unwrap();
        rayon::ThreadPoolBuilder::new().num_threads(0).build_global().unwrap();
        prop_assert!(full.completed);
        if kill_after > 0 {
            prop_assert!(full.resumed_from_generation.is_some());
        }
        prop_assert_eq!(full.results, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Resume after the newest checkpoint generation was torn (truncated
    /// to a random fraction) or bit-flipped: the corruption is detected,
    /// the sweep falls back to the previous good generation, and the
    /// final aggregates are still bit-identical. With only one (now
    /// corrupt) generation, the failure is a typed error — never a
    /// panic, never silent garbage.
    #[test]
    fn corrupt_newest_generation_falls_back_bit_identically(
        seed in 0u64..10_000,
        kill_after in 2usize..10,
        cut_num in 1usize..9,
        flip_coin in 0u8..2,
        flip_byte in 0usize..1_000_000,
    ) {
        let grid = tiny_grid(seed, 4);
        let shard_size = 2;
        let reference = run_grid_streaming(&grid, shard_size, |c| {
            SimConfig::interruptible(c.buffers, c.tasks)
        });

        let dir = fresh_dir("corrupt");
        let mut policy = CheckpointPolicy::new(&dir, 1);
        policy.stop_after_shards = Some(kill_after);
        policy.keep = 16; // retain every generation for this leg
        run_grid_streaming_checkpointed(
            &grid,
            shard_size,
            |c| SimConfig::interruptible(c.buffers, c.tasks),
            &policy,
        ).unwrap();

        // Corrupt the newest generation file.
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "bcc"))
            .collect();
        files.sort();
        prop_assert!(!files.is_empty());
        let newest = files.last().unwrap();
        let bytes = std::fs::read(newest).unwrap();
        if flip_coin == 1 {
            let mut bad = bytes.clone();
            let at = flip_byte % bad.len();
            bad[at] ^= 0x40;
            std::fs::write(newest, &bad).unwrap();
        } else {
            std::fs::write(newest, &bytes[..bytes.len() * cut_num / 10]).unwrap();
        }

        let mut policy = CheckpointPolicy::new(&dir, 1).resuming(true);
        policy.keep = 16;
        let full = run_grid_streaming_checkpointed(
            &grid,
            shard_size,
            |c| SimConfig::interruptible(c.buffers, c.tasks),
            &policy,
        ).unwrap();
        prop_assert!(full.completed);
        prop_assert_eq!(full.results, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// All generations corrupt → typed `NoUsableGeneration`, not a panic.
#[test]
fn all_generations_corrupt_is_a_typed_error() {
    let grid = tiny_grid(7, 3);
    let dir = fresh_dir("allbad");
    let mut policy = CheckpointPolicy::new(&dir, 1);
    policy.stop_after_shards = Some(3);
    run_grid_streaming_checkpointed(
        &grid,
        2,
        |c| SimConfig::interruptible(c.buffers, c.tasks),
        &policy,
    )
    .unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "bcc") {
            std::fs::write(&path, b"not a checkpoint at all").unwrap();
        }
    }
    let policy = CheckpointPolicy::new(&dir, 1).resuming(true);
    match run_grid_streaming_checkpointed(
        &grid,
        2,
        |c| SimConfig::interruptible(c.buffers, c.tasks),
        &policy,
    ) {
        Err(ResumeError::Checkpoint(CheckpointError::NoUsableGeneration)) => {}
        other => panic!("expected NoUsableGeneration, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mid-sweep kill between checkpoint boundaries only ever *repeats*
/// work: resuming replays at most `every_shards` shards and the counts
/// never double (the cursor and the accumulators move atomically,
/// within one container write).
#[test]
fn counts_never_double_across_repeated_kills() {
    let grid = tiny_grid(99, 5);
    let shard_size = 2;
    let reference = run_grid_streaming(&grid, shard_size, |c| {
        SimConfig::interruptible(c.buffers, c.tasks)
    });
    let dir = fresh_dir("repeat");
    // Kill after every single shard until the sweep completes.
    let mut kills = 0usize;
    loop {
        let mut policy = CheckpointPolicy::new(&dir, 1).resuming(true);
        policy.stop_after_shards = Some(1);
        let outcome = run_grid_streaming_checkpointed(
            &grid,
            shard_size,
            |c| SimConfig::interruptible(c.buffers, c.tasks),
            &policy,
        )
        .unwrap();
        if outcome.completed {
            assert_eq!(outcome.results, reference);
            break;
        }
        kills += 1;
        assert!(kills < 1000, "sweep never completed");
    }
    assert!(kills > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming from another sweep's checkpoint would silently mix
/// incompatible aggregates: same directory, different seed, and the
/// fingerprint check must refuse before any shard runs.
#[test]
fn resume_rejects_a_different_sweeps_checkpoint() {
    let dir = fresh_dir("fingerprint");
    let mut policy = CheckpointPolicy::new(&dir, 1);
    policy.stop_after_shards = Some(1);
    let config =
        |c: &bc_experiments::campaign::GridCell| SimConfig::interruptible(c.buffers, c.tasks);
    run_grid_streaming_checkpointed(&tiny_grid(5, 3), 2, config, &policy).unwrap();
    let policy = CheckpointPolicy::new(&dir, 1).resuming(true);
    match run_grid_streaming_checkpointed(&tiny_grid(5 ^ 0xDEAD, 3), 2, config, &policy) {
        Err(ResumeError::FingerprintMismatch { expected, found }) => assert_ne!(expected, found),
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Pipelined saves: generations do not depend on completion order
// ---------------------------------------------------------------------------

/// The sweep configuration, slowed down on `slow_cell` so that shards
/// listed after it finish first and wait in the driver's reorder buffer.
fn slow_on(slow_cell: usize) -> impl Fn(&GridCell) -> SimConfig + Sync {
    move |c: &GridCell| {
        if c.index == slow_cell {
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        SimConfig::interruptible(c.buffers, c.tasks)
    }
}

/// Sets the global worker count for the next sweep (0 restores the
/// default). Other tests in this binary flip the same knob, so a count
/// is the one a call most likely sees, not a guarantee; every assertion
/// here holds at any count.
fn set_threads(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .unwrap();
}

/// Each shard of the sweep's work list, in (cell, shard) order, run
/// serially on this thread: `(cell index, shard accumulator)`.
fn serial_shards(grid: &CampaignGrid, shard_size: usize) -> Vec<(usize, CampaignAccumulator)> {
    let mut ws = SimWorkspace::new();
    let mut shards = Vec::new();
    for cell in grid.cells() {
        let campaign = grid.cell_campaign(&cell);
        for start in (0..grid.trees_per_cell).step_by(shard_size) {
            let mut acc = CampaignAccumulator::new();
            for i in start..grid.trees_per_cell.min(start + shard_size) {
                let p = campaign.prepare(i);
                let result = ws.run(
                    p.tree.clone(),
                    SimConfig::interruptible(cell.buffers, cell.tasks),
                );
                acc.record(i, &p.tree, &p.analysis, &result, campaign.onset);
            }
            shards.push((cell.index, acc));
        }
    }
    shards
}

/// The checkpoint payload of the first `cursor` shards folded serially:
/// payload version 1, the sweep fingerprint, the cursor, the cell count
/// and one accumulator per cell, integers little-endian.
fn prefix_payload(
    shards: &[(usize, CampaignAccumulator)],
    cells: usize,
    fingerprint: u64,
    cursor: usize,
) -> Vec<u8> {
    let mut accs = vec![CampaignAccumulator::new(); cells];
    for (ci, acc) in &shards[..cursor] {
        accs[*ci].merge(acc);
    }
    let mut b = vec![1u8];
    b.extend(fingerprint.to_le_bytes());
    b.extend((cursor as u64).to_le_bytes());
    b.extend((cells as u64).to_le_bytes());
    for acc in &accs {
        acc.encode_into(&mut b);
    }
    b
}

/// Every generation in `dir`, oldest first: `(generation, payload)`.
fn generations(dir: &std::path::Path) -> Vec<(u64, Vec<u8>)> {
    let store = CheckpointStore::open(dir, "grid", CheckpointKind::Campaign, 1).unwrap();
    let gens = store.generations().unwrap();
    gens.into_iter()
        .map(|g| (g, store.load_generation(g).unwrap()))
        .collect()
}

fn fingerprint_of(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload[1..9].try_into().unwrap())
}

fn cursor_of(payload: &[u8]) -> usize {
    u64::from_le_bytes(payload[9..17].try_into().unwrap()) as usize
}

/// The cursors one invocation saves at: `first + k·every` up to the
/// stop point, and the stop point itself.
fn save_cursors(first: usize, stop: usize, every: usize) -> Vec<usize> {
    let mut cursors: Vec<usize> = (first + every..stop).step_by(every).collect();
    if stop > first {
        cursors.push(stop);
    }
    cursors
}

/// Whatever order shards finish in, a checkpointed sweep saves the same
/// generations as a serial prefix fold: same numbers, same cursors,
/// same payload bytes, at 1, 2, 4 and 7 workers, fresh and resumed.
#[test]
fn pipelined_saves_match_a_serial_prefix_fold() {
    let grid = tiny_grid(2003, 5);
    let shard_size = 2;
    let every = 2;
    let shards = serial_shards(&grid, shard_size);
    let cells = grid.cells().len();
    assert_eq!(shards.len(), 12);
    // (stop_after_shards per invocation; None runs to the end.) The
    // resumed legs stop mid-cell and resume off the `every` grid.
    let scenarios: [&[Option<usize>]; 2] = [&[None], &[Some(5), Some(4), None]];
    let mut sweep_id = None;
    for legs in scenarios {
        let mut expected_cursors = Vec::new();
        let mut first = 0;
        for stop_after in legs {
            let stop = stop_after.map_or(shards.len(), |s| shards.len().min(first + s));
            expected_cursors.extend(save_cursors(first, stop, every));
            first = stop;
        }
        for threads in [1, 2, 4, 7] {
            let dir = fresh_dir("pipeline");
            for (leg, stop_after) in legs.iter().enumerate() {
                let mut policy = CheckpointPolicy::new(&dir, every).resuming(leg > 0);
                policy.keep = 1000;
                policy.stop_after_shards = *stop_after;
                set_threads(threads);
                let outcome =
                    run_grid_streaming_checkpointed(&grid, shard_size, slow_on(1), &policy);
                set_threads(0);
                outcome.unwrap();
            }
            let gens = generations(&dir);
            let numbers: Vec<u64> = gens.iter().map(|(g, _)| *g).collect();
            let expected_numbers: Vec<u64> = (0..expected_cursors.len() as u64).collect();
            assert_eq!(
                numbers, expected_numbers,
                "threads {threads}, legs {legs:?}"
            );
            // Every run shares one sweep identity.
            let fingerprint = *sweep_id.get_or_insert(fingerprint_of(&gens[0].1));
            for ((g, payload), &cursor) in gens.iter().zip(&expected_cursors) {
                assert_eq!(
                    cursor_of(payload),
                    cursor,
                    "generation {g}, threads {threads}"
                );
                assert!(
                    *payload == prefix_payload(&shards, cells, fingerprint, cursor),
                    "generation {g} (cursor {cursor}) differs from the serial fold \
                     at {threads} threads, legs {legs:?}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A save that fails mid-sweep (the checkpoint directory vanishes once
/// the sweep reaches cell 2) is a typed error, and by the time the call
/// returns every worker has stopped: no simulation starts afterwards.
#[test]
fn failed_save_mid_sweep_is_an_error_and_stops_every_worker() {
    let grid = tiny_grid(11, 5);
    for threads in [1, 2, 4] {
        let dir = fresh_dir("savefail");
        let policy = CheckpointPolicy::new(&dir, 1);
        let calls = AtomicUsize::new(0);
        let config = |c: &GridCell| {
            calls.fetch_add(1, Ordering::SeqCst);
            if c.index == 2 {
                while dir.exists() {
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
            SimConfig::interruptible(c.buffers, c.tasks)
        };
        set_threads(threads);
        let outcome = run_grid_streaming_checkpointed(&grid, 2, config, &policy);
        set_threads(0);
        match outcome {
            Err(ResumeError::Checkpoint(_)) => {}
            other => panic!("expected a checkpoint error at {threads} threads, got {other:?}"),
        }
        let seen = calls.load(Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            seen,
            "a worker kept simulating after the sweep returned ({threads} threads)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A panic inside `make_config` reaches the caller with its own
/// payload, and no generation saved before it records a cursor past the
/// shard that panicked: each holds exactly a serially folded prefix.
#[test]
fn panicking_shard_propagates_and_no_generation_passes_it() {
    let grid = tiny_grid(13, 5);
    let shard_size = 2;
    let shards = serial_shards(&grid, shard_size);
    let cells = grid.cells().len();
    // Cell 2's first shard is work item 6.
    let poisoned = 6;
    for threads in [1, 2, 4, 7] {
        let dir = fresh_dir("panic");
        let mut policy = CheckpointPolicy::new(&dir, 1);
        policy.keep = 1000;
        let config = |c: &GridCell| {
            if c.index == 2 {
                panic!("poisoned cell");
            }
            SimConfig::interruptible(c.buffers, c.tasks)
        };
        set_threads(threads);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_grid_streaming_checkpointed(&grid, shard_size, config, &policy)
        }));
        set_threads(0);
        let payload = outcome.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"poisoned cell"));
        let gens = generations(&dir);
        if threads == 1 {
            assert_eq!(gens.len(), poisoned, "inline sweep saved every clean shard");
        }
        for (i, (g, payload)) in gens.iter().enumerate() {
            let cursor = cursor_of(payload);
            assert_eq!(cursor, i + 1, "generation {g} at {threads} threads");
            assert!(
                cursor <= poisoned,
                "generation {g} passed the panicked shard"
            );
            let fingerprint = fingerprint_of(payload);
            assert!(
                *payload == prefix_payload(&shards, cells, fingerprint, cursor),
                "generation {g} differs from the serial fold at {threads} threads"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
