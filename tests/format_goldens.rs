//! Byte-format goldens: every persisted binary format is pinned to a
//! committed fixture under `tests/golden/formats/`.
//!
//! * `BCSS` simulation snapshots (`bcss-*.hex`) whose configurations and
//!   captured states between them use every tag of every enum in the
//!   format (the `bc-engine` unit test `format_fixtures_cover_every_tag`
//!   proves the coverage);
//! * the compact binary trace of one golden scenario (`trace-*.hex`);
//! * a tiny grid sweep's per-cell accumulator bytes and its final
//!   `BCCK` checkpoint payload (`grid-*.hex`);
//! * the `bc-serve` journal payload of the smoke session, taken before
//!   its `run-all` while all three sessions are live (`journal-*.hex`).
//!
//! Each test checks both directions: encoding reproduces the fixture
//! byte for byte, and decoding the fixture then re-encoding reproduces
//! it again. A layout change must bump the format's version byte and
//! re-bless with
//!
//! ```text
//! BLESS=1 cargo test --test format_goldens
//! ```
//!
//! then review the fixture diff like source (see CONTRIBUTING.md). On a
//! mismatch the actual bytes are written to `$TMPDIR/format-failures/`
//! so CI can upload them as artifacts.

use bandwidth_centric::core::{BufferPolicy, GrowthGate, ObserverKind};
use bandwidth_centric::engine::{
    AdmissionPolicy, ArrivalPlan, ArrivalProcess, ChangeKind, CheckpointKind, CheckpointStore,
    FaultEvent, FaultInjection, FaultKind, FaultPlan, PlannedChange, RecoveryTuning, SelectorKind,
    SimConfig, SimSnapshot, Simulation, TaskClass,
};
use bandwidth_centric::experiments::campaign::{
    run_grid_streaming_checkpointed, CampaignAccumulator, CampaignGrid, CheckpointPolicy,
};
use bandwidth_centric::experiments::goldens::{golden_scenarios, record_trace};
use bandwidth_centric::metrics::OnsetConfig;
use bandwidth_centric::platform::{NodeId, Tree};
use bandwidth_centric::simcore::trace;
use bc_serve::Server;
use std::fs;
use std::path::{Path, PathBuf};

fn format_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/formats")
}

fn failure_dir() -> PathBuf {
    std::env::temp_dir().join("format-failures")
}

fn bless_requested() -> bool {
    std::env::var("BLESS").map(|v| v == "1").unwrap_or(false)
}

/// Lowercase hex, 32 bytes per line, so a fixture diff points at the
/// offset that moved.
fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for line in bytes.chunks(32) {
        for b in line {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

fn from_hex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex digit count");
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).expect("hex fixture"))
        .collect()
}

/// Compares `actual` with the committed fixture `name` (or writes it
/// under `BLESS=1`) and returns the fixture's bytes.
fn check_fixture(name: &str, actual: &[u8]) -> Vec<u8> {
    let path = format_dir().join(format!("{name}.hex"));
    let text = to_hex(actual);
    if bless_requested() {
        fs::create_dir_all(format_dir()).expect("create format fixture dir");
        fs::write(&path, &text).expect("bless format fixture");
        return actual.to_vec();
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing format fixture {} ({e}); generate with BLESS=1 cargo test --test format_goldens",
            path.display()
        )
    });
    if expected != text {
        fs::create_dir_all(failure_dir()).expect("create failure dir");
        let stashed = failure_dir().join(format!("{name}.hex"));
        fs::write(&stashed, &text).expect("write failure artifact");
        let line = expected
            .lines()
            .zip(text.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(text.lines().count()));
        panic!(
            "format fixture {name} differs from the encoder's bytes at offset {} \
             (expected {} bytes, got {}); actual bytes written to {}. A deliberate \
             layout change bumps the format version and re-blesses with \
             BLESS=1 cargo test --test format_goldens",
            line * 32,
            from_hex(&expected).len(),
            actual.len(),
            stashed.display()
        );
    }
    from_hex(&expected)
}

// ---------------------------------------------------------------------------
// BCSS snapshots
// ---------------------------------------------------------------------------

/// A seven-node tree with two levels, small enough that captures stay a
/// few hundred bytes.
fn fixture_tree() -> Tree {
    let mut t = Tree::new(6);
    let a = t.add_child(NodeId::ROOT, 2, 5);
    let b = t.add_child(NodeId::ROOT, 3, 4);
    t.add_child(a, 1, 3);
    t.add_child(a, 2, 7);
    t.add_child(b, 1, 2);
    t.add_child(b, 4, 3);
    t
}

fn growable(initial: u32, cap: Option<u32>, gate: GrowthGate, decay: Option<u64>) -> BufferPolicy {
    BufferPolicy::Growable {
        initial,
        cap,
        gate,
        decay_after: decay,
    }
}

/// A fast root over one slow child: once the child's buffers are full
/// the root is inert and computes long back-to-back chains.
fn chain_tree() -> Tree {
    let mut t = Tree::new(1);
    t.add_child(NodeId::ROOT, 1, 1000);
    t
}

/// The snapshot scenarios: (fixture name, tree, configuration, event
/// counts to capture at). Between them they use every tag of `Protocol`,
/// `BufferPolicy`, `GrowthGate`, `SelectorKind`/`ChildSelector`,
/// `ObserverKind`, `ChangeKind`, `FaultInjection` (and its absence),
/// `FaultKind`, `ArrivalProcess`, `AdmissionPolicy` and the kernel's
/// `Event`.
fn snapshot_scenarios() -> Vec<(&'static str, Tree, SimConfig, Vec<u64>)> {
    let all_faults = FaultPlan {
        seed: 5,
        faults: vec![
            FaultEvent {
                at: 2,
                node: NodeId(3),
                kind: FaultKind::RequestLoss { batches: 5 },
            },
            FaultEvent {
                at: 9,
                node: NodeId(2),
                kind: FaultKind::TransferAbort,
            },
            FaultEvent {
                at: 12,
                node: NodeId(4),
                kind: FaultKind::LinkOutage { duration: 40 },
            },
            FaultEvent {
                at: 25,
                node: NodeId(2),
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at: 200,
                node: NodeId(3),
                kind: FaultKind::DuplicateDelivery { copies: 2 },
            },
        ],
        recovery: RecoveryTuning {
            request_timeout: 8,
            backoff_cap: 3,
            max_retries: 4,
            missed_ack_threshold: 2,
            reissue_delay: 30,
        },
    };
    let mut faults = SimConfig::interruptible(2, 80)
        .with_checked(false)
        .with_fault(FaultInjection::FbOffByOne)
        .with_fault_plan(all_faults);
    faults.observer = ObserverKind::Ema {
        initial: 3,
        num: 1,
        den: 4,
    };

    let mut changes = SimConfig::non_interruptible_gated(1, GrowthGate::EveryEvent, 60)
        .with_checked(false)
        .with_fault(FaultInjection::LeakTask { every: 1000 })
        .with_checkpoints(vec![10, 30])
        .with_change(PlannedChange {
            after_tasks: 5,
            node: NodeId(1),
            kind: ChangeKind::CommTime(4),
        })
        .with_change(PlannedChange {
            after_tasks: 10,
            node: NodeId(2),
            kind: ChangeKind::ComputeTime(9),
        })
        .with_change(PlannedChange {
            after_tasks: 15,
            node: NodeId(3),
            kind: ChangeKind::Join {
                comm: 2,
                compute: 5,
            },
        })
        .with_change(PlannedChange {
            after_tasks: 40,
            node: NodeId(6),
            kind: ChangeKind::Leave,
        });
    changes.buffers = growable(1, Some(4), GrowthGate::EveryEvent, Some(50));
    changes.selector = SelectorKind::ComputeCentric;
    changes.observer = ObserverKind::LastSample { initial: 2 };

    let classes = vec![
        TaskClass {
            name: "poisson".into(),
            work_units: 1,
            process: ArrivalProcess::Poisson {
                mean_gap: 3,
                count: 12,
            },
        },
        TaskClass {
            name: "burst".into(),
            work_units: 2,
            process: ArrivalProcess::Burst {
                phase: 4,
                period: 25,
                size: 3,
                bursts: 3,
            },
        },
        TaskClass {
            name: "trace".into(),
            work_units: 1,
            process: ArrivalProcess::Trace {
                times: vec![1, 2, 3, 5, 8, 13, 21, 34],
            },
        },
    ];
    let mut defer = SimConfig::non_interruptible_gated(1, GrowthGate::OncePerArrival, 1)
        .with_checked(false)
        .with_fault(FaultInjection::LeakQueuedTask { every: 1000 })
        .with_arrivals(ArrivalPlan {
            seed: 17,
            classes: classes.clone(),
            queue_cap: 3,
            policy: AdmissionPolicy::Defer,
        });
    defer.selector = SelectorKind::RoundRobin;

    let mut drop = SimConfig::non_interruptible_gated(2, GrowthGate::AfterPoolFilled, 1)
        .with_checked(false)
        .with_fault(FaultInjection::SwallowReissue)
        .with_arrivals(ArrivalPlan {
            seed: 23,
            classes,
            queue_cap: 2,
            policy: AdmissionPolicy::Drop,
        });
    drop.buffers = growable(2, None, GrowthGate::AfterPoolFilled, None);

    // Fixed buffers, no faults, no tracing: the elided `ComputeChain`
    // macro-event shows up in the agenda.
    let elided = SimConfig::interruptible(3, 400).with_checked(false);

    let t = fixture_tree();
    vec![
        ("bcss-faults", t.clone(), faults, vec![0, 30]),
        ("bcss-changes", t.clone(), changes, vec![40, 120]),
        ("bcss-arrivals-defer", t.clone(), defer, vec![25, 70]),
        ("bcss-arrivals-drop", t, drop, vec![25]),
        ("bcss-elided", chain_tree(), elided, vec![9]),
    ]
}

fn capture(tree: &Tree, cfg: &SimConfig, events: u64) -> Vec<u8> {
    let mut sim = Simulation::new(tree.clone(), cfg.clone());
    while sim.events_processed() < events && sim.step() {}
    sim.snapshot().to_bytes()
}

#[test]
fn bcss_snapshots_match_fixtures() {
    for (name, tree, cfg, points) in snapshot_scenarios() {
        for events in points {
            let fixture = check_fixture(&format!("{name}-{events}"), &capture(&tree, &cfg, events));
            let decoded = SimSnapshot::from_bytes(&fixture)
                .unwrap_or_else(|e| panic!("fixture {name}-{events} does not decode: {e}"));
            assert!(
                decoded.to_bytes() == fixture,
                "fixture {name}-{events} does not re-encode to itself"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Binary trace
// ---------------------------------------------------------------------------

#[test]
fn binary_trace_matches_fixture() {
    let (name, tree, cfg) = golden_scenarios()
        .into_iter()
        .find(|(name, _, _)| name == "fig1-ic-fb3")
        .expect("golden scenario fig1-ic-fb3");
    let bytes = trace::to_binary(&record_trace(&tree, &cfg));
    let fixture = check_fixture(&format!("trace-{name}"), &bytes);
    let decoded = trace::from_binary(&fixture).expect("trace fixture decodes");
    assert!(
        trace::to_binary(&decoded) == fixture,
        "trace fixture does not re-encode to itself"
    );
}

// ---------------------------------------------------------------------------
// Campaign accumulators and the grid checkpoint payload
// ---------------------------------------------------------------------------

fn tiny_grid() -> CampaignGrid {
    CampaignGrid {
        max_nodes: vec![8, 14],
        tasks: vec![120],
        buffers: vec![1, 3],
        comm_max: vec![6],
        compute_scale: vec![40],
        trees_per_cell: 3,
        seed: 2024,
        onset: OnsetConfig {
            window_threshold: 20,
            crossings: 2,
        },
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bc-format-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn encode_cells<'a>(accs: impl IntoIterator<Item = &'a CampaignAccumulator>) -> Vec<u8> {
    let mut out = Vec::new();
    for acc in accs {
        acc.encode_into(&mut out);
    }
    out
}

#[test]
fn grid_accumulators_and_checkpoint_match_fixtures() {
    let grid = tiny_grid();
    let config = |c: &bandwidth_centric::experiments::campaign::GridCell| {
        SimConfig::interruptible(c.buffers, c.tasks).with_checked(false)
    };
    let dir = scratch_dir("grid");
    let outcome =
        run_grid_streaming_checkpointed(&grid, 2, config, &CheckpointPolicy::new(&dir, 1))
            .expect("grid sweep");
    assert!(outcome.completed);
    let cells = check_fixture(
        "grid-cell-accumulators",
        &encode_cells(outcome.results.iter().map(|(_, acc)| acc)),
    );
    let store = CheckpointStore::open(&dir, "grid", CheckpointKind::Campaign, 2).unwrap();
    let payload = store.load_latest().unwrap().expect("sweep checkpointed");
    let payload = check_fixture("grid-checkpoint-payload", &payload.payload);
    let _ = fs::remove_dir_all(&dir);

    // Decode direction, per cell: every accumulator re-encodes to itself.
    let mut input = cells.as_slice();
    let mut decoded = Vec::new();
    while !input.is_empty() {
        decoded.push(CampaignAccumulator::decode_from(&mut input).expect("cell fixture decodes"));
    }
    assert_eq!(decoded.len(), outcome.results.len());
    assert!(encode_cells(&decoded) == cells);

    // Decode direction, whole payload: a sweep resumed from the fixture
    // finds its cursor at the end and returns exactly the fixture cells.
    let dir = scratch_dir("grid-resume");
    CheckpointStore::open(&dir, "grid", CheckpointKind::Campaign, 2)
        .unwrap()
        .save(&payload)
        .unwrap();
    let resumed = run_grid_streaming_checkpointed(
        &grid,
        2,
        config,
        &CheckpointPolicy::new(&dir, 1).resuming(true),
    )
    .expect("resume from the fixture payload");
    let _ = fs::remove_dir_all(&dir);
    assert!(resumed.completed);
    assert!(resumed.resumed_from_generation.is_some());
    assert!(encode_cells(resumed.results.iter().map(|(_, acc)| acc)) == cells);
}

// ---------------------------------------------------------------------------
// bc-serve journal
// ---------------------------------------------------------------------------

const SMOKE_SCRIPT: &str = include_str!("../crates/serve/tests/fixtures/smoke_session.jsonl");

#[test]
fn serve_journal_matches_fixture() {
    // Up to (not including) `run-all`: alpha (arrivals), beta and gamma
    // (a link outage, traced) are all live mid-run.
    let mut server = Server::new();
    for line in SMOKE_SCRIPT.lines().take_while(|l| !l.contains("run-all")) {
        server.handle_line(line);
    }
    let fixture = check_fixture("journal-smoke-session", &server.journal_bytes());
    let mut recovered = Server::new();
    let report = recovered
        .recover_from_bytes(&fixture)
        .expect("journal fixture recovers");
    assert_eq!(report.recovered.len(), 3, "skipped: {:?}", report.skipped);
    assert!(
        recovered.journal_bytes() == fixture,
        "recovered journal does not re-encode to the fixture"
    );
}
