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

use bc_engine::durability::CheckpointError;
use bc_engine::SimConfig;
use bc_experiments::campaign::{
    run_grid_streaming, run_grid_streaming_checkpointed, CampaignGrid, CheckpointPolicy,
    ResumeError,
};
use bc_metrics::OnsetConfig;
use proptest::prelude::*;

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
