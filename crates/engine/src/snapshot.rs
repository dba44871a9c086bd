//! Snapshot, restore, and what-if forking of a running simulation.
//!
//! A [`SimSnapshot`] captures the *complete* state of a [`Simulation`]
//! at a quiescent point (between [`Simulation::step`]s): the platform
//! tree, the configuration, every workspace arena — the two-tier agenda
//! including tombstones, drained-bucket heads, slot generations and the
//! free-list order, so outstanding [`bc_simcore::EventHandle`]s stay
//! valid — and every progress cursor. A simulation rebuilt from a
//! snapshot continues **bit-identically**: same `RunResult`, same trace
//! suffix, same panics (the `snapshot_roundtrip` suite proptests this
//! across protocols, fault legs, and elision regimes).
//!
//! Three consumers:
//!
//! * **What-if forking** ([`SimSnapshot::fork`]): branch K divergent
//!   continuations off one mid-run state — degrade a link, inject a
//!   crash — and diff the outcomes through the existing trace folds
//!   (`whatif` binary).
//! * **Fuzzer suffix replay**: `fuzz_protocols` snapshots periodically
//!   and re-confirms failures from the last snapshot, exercising
//!   restore exactness adversarially.
//! * **Checker time travel**: checked mode keeps a periodic snapshot
//!   and, on an invariant violation, emits it plus the replayed trace
//!   suffix leading up to the violation (`BC_SNAPSHOT_DIR` or the
//!   system temp dir).
//!
//! Snapshots also serialize to a compact versioned binary format
//! ([`SimSnapshot::to_bytes`] / [`SimSnapshot::from_bytes`]): magic
//! `BCSS`, a format version byte, then LEB128 varints for integers.
//! The format is self-contained (tree and config travel with the
//! state) and re-encoding a decoded snapshot reproduces the input
//! bytes exactly.

use crate::arrivals::{AdmissionPolicy, ArrivalPlan, ArrivalProcess, TaskClass};
use crate::config::{
    ChangeKind, FaultEvent, FaultInjection, FaultKind, FaultPlan, PlannedChange, Protocol,
    RecoveryTuning, SelectorKind, SimConfig,
};
use crate::result::FaultStats;
use crate::sim::{
    ActiveTransfer, ColdNode, Event, FaultRt, HotNode, Sending, SimWorkspace, Simulation,
    SlotTransfer,
};
use bc_core::{
    BufferLedger, BufferPolicy, ChildSelector, GrowthGate, LatencyObserver, LedgerState,
    ObserverKind, ObserverState,
};
use bc_platform::{NodeId, Tree};
use bc_simcore::wire::{
    opt, Bool, Byte, Checked, Codec, Le, Leb, Narrow, Opt, Reader, Seq, Utf8, Via, WireError,
    ZeroNone,
};
use bc_simcore::{
    wire_enum, wire_struct, AgendaSnapshot, EventHandle, NullSink, PackedEvent, SlotSnapshot, Time,
    TraceSink, VecSink,
};

/// Near-tier calendar size of the kernel agenda — bucket indices in a
/// serialized snapshot must stay below this (mirrors
/// `bc_simcore::agenda::NEAR_BUCKETS`).
const NEAR_BUCKETS: u32 = 1024;

// ---------------------------------------------------------------------------
// In-memory snapshot types
// ---------------------------------------------------------------------------

/// Verbatim capture of a [`SimWorkspace`]'s runtime containers. The
/// between-steps scratch (service queue, queued flags, candidate list)
/// is empty at any quiescent point and is not captured; restore
/// re-clears it.
#[derive(Clone)]
pub struct WorkspaceSnapshot {
    pub(crate) agenda: AgendaSnapshot<Event>,
    pub(crate) hot: Vec<HotNode>,
    pub(crate) cold: Vec<ColdNode>,
    pub(crate) sending: Vec<Option<Sending>>,
    pub(crate) active: Vec<Option<ActiveTransfer>>,
    pub(crate) faults: Vec<FaultRt>,
    pub(crate) parent_of: Vec<Option<usize>>,
    pub(crate) child_pos: Vec<usize>,
    pub(crate) kid_start: Vec<u32>,
    pub(crate) kid_node: Vec<u32>,
    pub(crate) kid_pending: Vec<u32>,
    pub(crate) kid_slot: Vec<Option<SlotTransfer>>,
    pub(crate) kid_comm: Vec<u64>,
    pub(crate) kid_compute: Vec<u64>,
    pub(crate) kid_missed: Vec<u8>,
    pub(crate) pending_sum: Vec<u32>,
    pub(crate) slots_used: Vec<u32>,
    pub(crate) kid_gone: Vec<bool>,
    pub(crate) completion_times: Vec<Time>,
    pub(crate) checkpoint_records: Vec<(u64, u32)>,
}

/// The progress cursors of a [`Simulation`] — everything that is not a
/// workspace container, the tree, or the configuration.
#[derive(Clone)]
pub(crate) struct CursorSnapshot {
    pub(crate) remaining: u64,
    pub(crate) completed: u64,
    pub(crate) next_checkpoint: u64,
    pub(crate) next_change: u64,
    pub(crate) events_processed: u64,
    pub(crate) preemptions: u64,
    pub(crate) transfers_started: u64,
    pub(crate) requests_sent: u64,
    pub(crate) started: bool,
    pub(crate) finished: bool,
    pub(crate) check_last_now: Time,
    pub(crate) events_since_sweep: u32,
    pub(crate) faulty_deliveries: u64,
    pub(crate) fault_active: bool,
    pub(crate) recovery: RecoveryTuning,
    pub(crate) fault_seed: u64,
    pub(crate) dead_threshold: u8,
    pub(crate) lost_pending: u64,
    pub(crate) fstats: FaultStats,
    pub(crate) elided: u64,
    pub(crate) finish_target: u64,
    pub(crate) arrivals: Option<ArrivalCursor>,
}

/// Open-world arrival runtime state at capture — everything except the
/// pregenerated schedule, which is a pure function of the configuration
/// and is regenerated on restore (bit-identically, by design).
#[derive(Clone)]
pub(crate) struct ArrivalCursor {
    pub(crate) cursor: u64,
    pub(crate) deferred: Vec<u32>,
    pub(crate) deferred_units: u64,
    pub(crate) submitted: u64,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) deferrals: u64,
    pub(crate) peak_deferred: u64,
    pub(crate) leak_tick: u64,
    pub(crate) admit_times: Vec<Time>,
    pub(crate) dispatch_times: Vec<Time>,
    pub(crate) admit_class: Vec<u32>,
    pub(crate) admitted_per_class: Vec<u64>,
}

/// Complete mid-run state of a [`Simulation`], captured by
/// [`Simulation::snapshot`]. Self-contained: the tree and configuration
/// travel with the runtime state, so a snapshot can be serialized,
/// shipped, and resumed elsewhere.
#[derive(Clone)]
pub struct SimSnapshot {
    pub(crate) tree: Tree,
    pub(crate) cfg: SimConfig,
    pub(crate) ws: WorkspaceSnapshot,
    pub(crate) cur: CursorSnapshot,
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("nodes", &self.tree.len())
            .field("now", &self.ws.agenda.now)
            .field("events_processed", &self.cur.events_processed)
            .field("completed", &self.cur.completed)
            .field("finished", &self.cur.finished)
            .finish_non_exhaustive()
    }
}

impl SimSnapshot {
    /// Simulation time at capture.
    pub fn now(&self) -> Time {
        self.ws.agenda.now
    }

    /// Events processed up to capture.
    pub fn events_processed(&self) -> u64 {
        self.cur.events_processed
    }

    /// Tasks completed up to capture.
    pub fn completed(&self) -> u64 {
        self.cur.completed
    }

    /// The platform tree as of capture (scripted changes applied).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The run configuration.
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// Builds the unmodified continuation — shorthand for
    /// [`Simulation::from_snapshot`].
    pub fn resume(&self) -> Simulation {
        Simulation::from_snapshot(self)
    }

    /// Builds a what-if branch: clones this snapshot, lets `tweak`
    /// perturb it through a [`WhatIf`], and returns the divergent
    /// continuation. The original snapshot is untouched, so K branches
    /// can be forked off the same capture.
    pub fn fork(&self, tweak: impl FnOnce(&mut WhatIf)) -> Simulation {
        self.fork_traced(SimWorkspace::new(), NullSink, tweak)
    }

    /// [`SimSnapshot::fork`] with a caller-supplied workspace and trace
    /// sink, for branches whose divergence is diffed through trace folds.
    pub fn fork_traced<S: TraceSink>(
        &self,
        ws: SimWorkspace,
        sink: S,
        tweak: impl FnOnce(&mut WhatIf),
    ) -> Simulation<S> {
        let mut what_if = WhatIf {
            snap: self.clone(),
            touched: Vec::new(),
            injected: Vec::new(),
        };
        tweak(&mut what_if);
        let WhatIf {
            snap,
            touched,
            injected,
        } = what_if;
        let mut sim = Simulation::from_snapshot_traced(&snap, ws, sink);
        sim.apply_fork_edits(&touched, &injected);
        sim
    }
}

/// Mutator handed to [`SimSnapshot::fork`] closures: the supported
/// divergence axes of a what-if branch. Weight changes follow the exact
/// semantics of a scripted [`ChangeKind`] applied at the fork instant
/// (in-flight work keeps its old duration; the neighborhood is
/// re-examined under the new weights); injected faults join the fault
/// plan and strike at their scheduled time (clamped to the fork
/// instant if already past).
pub struct WhatIf {
    snap: SimSnapshot,
    touched: Vec<usize>,
    injected: Vec<FaultEvent>,
}

impl WhatIf {
    /// Simulation time of the fork point.
    pub fn now(&self) -> Time {
        self.snap.now()
    }

    /// The branch's platform tree (pre-tweak weights until set below).
    pub fn tree(&self) -> &Tree {
        &self.snap.tree
    }

    /// Sets the edge weight `c_node` from the fork instant on, exactly
    /// like a scripted [`ChangeKind::CommTime`].
    pub fn set_comm_time(&mut self, node: NodeId, c: u64) {
        self.snap.tree.set_comm_time(node, c);
        let i = node.index();
        let ws = &mut self.snap.ws;
        if let Some(p) = ws.parent_of[i] {
            if ws.cold[p].observer.is_oracle() {
                let k = ws.kid_start[p] as usize + ws.child_pos[i];
                ws.kid_comm[k] = c;
            }
            self.touched.push(p);
        }
        self.touched.push(i);
        self.register_change(node, ChangeKind::CommTime(c));
    }

    /// Sets the compute weight `w_node` from the fork instant on,
    /// exactly like a scripted [`ChangeKind::ComputeTime`].
    pub fn set_compute_time(&mut self, node: NodeId, w: u64) {
        self.snap.tree.set_compute_time(node, w);
        let i = node.index();
        let ws = &mut self.snap.ws;
        if let Some(p) = ws.parent_of[i] {
            let k = ws.kid_start[p] as usize + ws.child_pos[i];
            ws.kid_compute[k] = w;
            self.touched.push(p);
        }
        self.touched.push(i);
        self.register_change(node, ChangeKind::ComputeTime(w));
    }

    /// Records an already-applied weight tweak in the branch's change
    /// script, just before the cursor: the branch configuration then
    /// documents that its platform mutated mid-run (so the terminal
    /// theory oracle, which requires a static platform, knows to stand
    /// down — exactly as for a scripted change).
    fn register_change(&mut self, node: NodeId, kind: ChangeKind) {
        let idx = self.snap.cur.next_change as usize;
        self.snap.cfg.changes.insert(
            idx,
            PlannedChange {
                after_tasks: self.snap.cur.completed,
                node,
                kind,
            },
        );
        self.snap.cur.next_change += 1;
    }

    /// Schedules an additional environment fault on the branch. Faults
    /// dated before the fork instant strike immediately. If the
    /// captured run had no fault plan, a default-tuned one is
    /// materialized (and event elision is disabled on the branch, as on
    /// any faulted run).
    pub fn add_fault(&mut self, fault: FaultEvent) {
        assert!(
            fault.node.index() < self.snap.ws.hot.len(),
            "fault targets unknown node {}",
            fault.node
        );
        self.injected.push(fault);
    }
}

// ---------------------------------------------------------------------------
// Workspace capture / restore
// ---------------------------------------------------------------------------

impl SimWorkspace {
    /// Captures every runtime container verbatim. Must be called at a
    /// quiescent point (the between-steps scratch is empty and is not
    /// captured).
    pub fn snapshot(&self) -> WorkspaceSnapshot {
        // The candidate scratch is cleared at its next use (not after),
        // so it may hold stale content here; only the service queue
        // proves quiescence.
        debug_assert!(
            self.service_queue.is_empty(),
            "workspace snapshot requires quiescence (between steps)"
        );
        WorkspaceSnapshot {
            agenda: self.agenda.snapshot(),
            hot: self.hot.clone(),
            cold: self.cold.clone(),
            sending: self.sending.clone(),
            active: self.active.clone(),
            faults: self.faults.clone(),
            parent_of: self.parent_of.clone(),
            child_pos: self.child_pos.clone(),
            kid_start: self.kid_start.clone(),
            kid_node: self.kid_node.clone(),
            kid_pending: self.kid_pending.clone(),
            kid_slot: self.kid_slot.clone(),
            kid_comm: self.kid_comm.clone(),
            kid_compute: self.kid_compute.clone(),
            kid_missed: self.kid_missed.clone(),
            pending_sum: self.pending_sum.clone(),
            slots_used: self.slots_used.clone(),
            kid_gone: self.kid_gone.clone(),
            completion_times: self.completion_times.clone(),
            checkpoint_records: self.checkpoint_records.clone(),
        }
    }

    /// Overwrites this workspace with a captured state, reusing existing
    /// allocations where possible. The scratch containers are re-cleared
    /// to their quiescent (empty) state.
    pub fn restore(&mut self, s: &WorkspaceSnapshot) {
        self.agenda.restore(&s.agenda);
        self.hot.clone_from(&s.hot);
        self.cold.clone_from(&s.cold);
        self.sending.clone_from(&s.sending);
        self.active.clone_from(&s.active);
        self.faults.clone_from(&s.faults);
        self.parent_of.clone_from(&s.parent_of);
        self.child_pos.clone_from(&s.child_pos);
        self.kid_start.clone_from(&s.kid_start);
        self.kid_node.clone_from(&s.kid_node);
        self.kid_pending.clone_from(&s.kid_pending);
        self.kid_slot.clone_from(&s.kid_slot);
        self.kid_comm.clone_from(&s.kid_comm);
        self.kid_compute.clone_from(&s.kid_compute);
        self.kid_missed.clone_from(&s.kid_missed);
        self.pending_sum.clone_from(&s.pending_sum);
        self.slots_used.clone_from(&s.slots_used);
        self.kid_gone.clone_from(&s.kid_gone);
        self.completion_times.clone_from(&s.completion_times);
        self.checkpoint_records.clone_from(&s.checkpoint_records);
        self.service_queue.clear();
        self.queued.clear();
        self.queued.resize(s.hot.len(), false);
        self.candidates.clear();
    }
}

// ---------------------------------------------------------------------------
// Checker time travel
// ---------------------------------------------------------------------------

/// Checked-mode flight recorder: a periodic full snapshot so an
/// invariant violation can be replayed from just before it. Lives
/// behind `cfg.checked`; the unchecked hot path never touches it.
pub(crate) struct TimeTravel {
    /// Events between captures (`BC_TIME_TRAVEL_PERIOD`, default 32768 —
    /// large enough that short checked tests never capture at all).
    pub(crate) period: u64,
    /// The newest capture and the event count it was taken at.
    pub(crate) last: Option<(Box<SimSnapshot>, u64)>,
}

impl TimeTravel {
    pub(crate) fn from_env() -> TimeTravel {
        let period = std::env::var("BC_TIME_TRAVEL_PERIOD")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&p: &u64| p > 0)
            .unwrap_or(32_768);
        TimeTravel { period, last: None }
    }
}

impl<S: TraceSink> Simulation<S> {
    /// Turns on (or re-tunes) periodic time-travel snapshots: every
    /// `period` events the simulation keeps a full [`SimSnapshot`], and
    /// a checked-mode invariant violation dumps the newest one plus the
    /// replayed trace suffix leading up to the violation. Checked mode
    /// arms this automatically with a large period; tests and the
    /// fuzzer use a small one.
    pub fn enable_time_travel(&mut self, period: u64) {
        assert!(period > 0, "time-travel period must be positive");
        match &mut self.time_travel {
            Some(tt) => tt.period = period,
            None => {
                self.time_travel = Some(Box::new(TimeTravel { period, last: None }));
            }
        }
    }

    /// The newest periodic snapshot and the event count it was taken at,
    /// if time travel is armed and a capture has happened.
    pub fn last_time_travel_snapshot(&self) -> Option<(&SimSnapshot, u64)> {
        self.time_travel
            .as_deref()
            .and_then(|tt| tt.last.as_ref().map(|(s, at)| (s.as_ref(), *at)))
    }

    /// Checked-tick hook: captures a periodic snapshot when one is due.
    /// Called *after* the invariant sweep, so only verified-good states
    /// are kept.
    pub(crate) fn time_travel_tick(&mut self) {
        let due = match self.time_travel.as_deref() {
            Some(tt) => {
                let since = match &tt.last {
                    Some((_, at)) => self.events_processed.saturating_sub(*at),
                    None => self.events_processed,
                };
                since >= tt.period && !self.finished
            }
            None => false,
        };
        if due {
            let snap = Box::new(self.snapshot());
            let at = self.events_processed;
            if let Some(tt) = self.time_travel.as_deref_mut() {
                tt.last = Some((snap, at));
            }
        }
    }

    /// Violation read-out: writes the newest periodic snapshot and the
    /// trace suffix replayed from it (checker off, stopping just before
    /// the violating event) to `BC_SNAPSHOT_DIR` or the system temp
    /// dir. Prints the paths to stderr; best-effort — IO errors only
    /// warn.
    pub(crate) fn dump_time_travel(&self) {
        let Some(tt) = self.time_travel.as_deref() else {
            return;
        };
        let Some((snap, at)) = &tt.last else {
            eprintln!(
                "time travel: no snapshot captured yet (period {}, violation at event {})",
                tt.period, self.events_processed
            );
            return;
        };
        let dir = std::env::var_os("BC_SNAPSHOT_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let stem = format!(
            "bc-violation-{}-{}",
            std::process::id(),
            self.events_processed
        );
        let snap_path = dir.join(format!("{stem}.snap"));
        match std::fs::write(&snap_path, snap.to_bytes()) {
            Ok(()) => eprintln!(
                "time travel: snapshot at event {at} (t={}) written to {}",
                snap.now(),
                snap_path.display()
            ),
            Err(e) => eprintln!("time travel: could not write {}: {e}", snap_path.display()),
        }
        // Replay the suffix up to just before the violating event, with
        // the checker off so the replay itself cannot re-panic; shield
        // against the underlying bug blowing up earlier than the check
        // did.
        let target = self.events_processed.saturating_sub(1);
        let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut branch = (**snap).clone();
            branch.cfg.checked = false;
            let mut sim =
                Simulation::from_snapshot_traced(&branch, SimWorkspace::new(), VecSink::new());
            while sim.events_processed < target && sim.step() {}
            sim.sink.records
        }));
        match replay {
            Ok(records) => {
                let trace_path = dir.join(format!("{stem}.trace"));
                let mut text = String::new();
                for r in &records {
                    text.push_str(&r.to_string());
                    text.push('\n');
                }
                match std::fs::write(&trace_path, text) {
                    Ok(()) => eprintln!(
                        "time travel: {} replayed suffix event(s) written to {}",
                        records.len(),
                        trace_path.display()
                    ),
                    Err(e) => {
                        eprintln!("time travel: could not write {}: {e}", trace_path.display())
                    }
                }
            }
            Err(_) => eprintln!("time travel: suffix replay itself panicked before event {target}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary serialization
// ---------------------------------------------------------------------------

/// Why [`SimSnapshot::from_bytes`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input ended mid-field.
    Truncated,
    /// The `BCSS` magic is missing — not a snapshot.
    BadMagic,
    /// A snapshot from a newer (or corrupt) format revision.
    UnsupportedVersion(u8),
    /// A structural consistency check failed.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "missing BCSS magic"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => SnapshotError::Truncated,
            WireError::Corrupt(what) => SnapshotError::Corrupt(what),
        }
    }
}

const MAGIC: &[u8; 4] = b"BCSS";
// v2: open-world arrivals (config plan, `Arrival` event tag, cursor layer).
const VERSION: u8 = 2;

// Each type's layout is declared once below (`bc_simcore::wire`); the
// declarations generate both the encoder and the decoder. Semantic checks
// follow as explicit code: `Checked` codecs, the tree codec, and
// `check_workspace`.

wire_enum! {
    EventW for Event, "event tag out of range" {
        0 => ComputeDone { node: Leb },
        1 => ComputeChain { node: Leb, count: Leb },
        2 => SendDone { node: Leb },
        3 => TransferDone { node: Leb },
        4 => Fault { index: Leb },
        5 => OutageEnd { node: Leb },
        6 => RequestTimeout { node: Leb },
        7 => Reissue { count: Leb },
        8 => Arrival,
    }
}

wire_enum! {
    GrowthGateW for GrowthGate, "growth gate out of range" {
        0 => EveryEvent,
        1 => OncePerArrival,
        2 => AfterPoolFilled,
    }
}

wire_enum! {
    BufferPolicyW for BufferPolicy, "buffer policy tag out of range" {
        0 => Fixed(k: Leb),
        1 => Growable {
            initial: Leb,
            cap: opt(Narrow("cap out of range")),
            gate: GrowthGateW,
            decay_after: opt(Leb),
        },
    }
}

wire_enum! {
    ObserverKindW for ObserverKind, "observer tag out of range" {
        0 => Oracle,
        1 => LastSample { initial: Leb },
        2 => Ema { initial: Leb, num: Leb, den: Leb },
    }
}

const OBSERVER_KIND: Checked<ObserverKindW, ObserverKind> = Checked(ObserverKindW, ema_weight);

fn ema_weight(kind: &ObserverKind) -> Result<(), &'static str> {
    match *kind {
        ObserverKind::Ema { num, den, .. } if num == 0 || den == 0 || num > den => {
            Err("EMA weight out of range")
        }
        _ => Ok(()),
    }
}

wire_enum! {
    ChildSelectorW for ChildSelector, "selector tag out of range" {
        0 => BandwidthCentric,
        1 => ComputeCentric,
        2 => RoundRobin { cursor: Leb },
    }
}

wire_enum! {
    ProtocolW for Protocol, "protocol tag out of range" {
        0 => NonInterruptible,
        1 => Interruptible,
    }
}

wire_enum! {
    SelectorKindW for SelectorKind, "selector tag out of range" {
        0 => BandwidthCentric,
        1 => ComputeCentric,
        2 => RoundRobin,
    }
}

wire_enum! {
    ChangeKindW for ChangeKind, "change tag out of range" {
        0 => CommTime(c: Leb),
        1 => ComputeTime(w: Leb),
        2 => Join { comm: Leb, compute: Leb },
        3 => Leave,
    }
}

// Tag 0 is "no injection" (`ZeroNone`).
wire_enum! {
    FaultInjectionW for FaultInjection, "fault-injection tag out of range" {
        1 => FbOffByOne,
        2 => LeakTask { every: Leb },
        3 => SwallowReissue,
        4 => LeakQueuedTask { every: Leb },
    }
}

wire_enum! {
    FaultKindW for FaultKind, "fault kind out of range" {
        0 => RequestLoss { batches: Leb },
        1 => TransferAbort,
        2 => LinkOutage { duration: Leb },
        3 => Crash,
        4 => DuplicateDelivery { copies: Leb },
    }
}

wire_enum! {
    ArrivalProcessW for ArrivalProcess, "arrival process tag out of range" {
        0 => Poisson { mean_gap: Leb, count: Leb },
        1 => Burst { phase: Leb, period: Leb, size: Leb, bursts: Leb },
        2 => Trace { times: Seq(Leb, Leb) },
    }
}

wire_enum! {
    AdmissionPolicyW for AdmissionPolicy, "admission policy tag out of range" {
        0 => Drop,
        1 => Defer,
    }
}

fn node_index(n: &NodeId) -> u32 {
    n.0
}

const NODE: Via<Leb, NodeId, u32> = Via(Leb, node_index, NodeId);

fn handle_parts(h: &EventHandle) -> (u32, u32) {
    h.raw_parts()
}

fn handle_from((slot, generation): (u32, u32)) -> EventHandle {
    EventHandle::from_raw_parts(slot, generation)
}

const HANDLE: Via<(Leb, Leb), EventHandle, (u32, u32)> = Via((Leb, Leb), handle_parts, handle_from);

fn packed_raw(e: &PackedEvent) -> u128 {
    e.raw()
}

/// Agenda entries: the packed `u128` key, 16 bytes little-endian.
const PACKED: Via<Le, PackedEvent, u128> = Via(Le, packed_raw, PackedEvent::from_raw);

fn parent_code(p: &Option<usize>) -> u64 {
    p.map_or(0, |p| p as u64 + 1)
}

fn parent_from(code: u64) -> Option<usize> {
    code.checked_sub(1).map(|p| p as usize)
}

/// `parent_of` entries: 0 for the root, otherwise parent index + 1.
const PARENT: Via<Leb, Option<usize>, u64> = Via(Leb, parent_code, parent_from);

wire_struct! {
    RecoveryW for RecoveryTuning {
        request_timeout: Leb,
        backoff_cap: Leb,
        max_retries: Leb,
        missed_ack_threshold: Byte,
        reissue_delay: Leb,
    }
}

wire_struct! {
    FaultEventW for FaultEvent { at: Leb, node: NODE, kind: FaultKindW }
}

wire_struct! {
    FaultPlanW for FaultPlan { seed: Leb, faults: Seq(Leb, FaultEventW), recovery: RecoveryW }
}

wire_struct! {
    ChangeW for PlannedChange { after_tasks: Leb, node: NODE, kind: ChangeKindW }
}

wire_struct! {
    TaskClassW for TaskClass { name: Utf8(Leb), work_units: Leb, process: ArrivalProcessW }
}

wire_struct! {
    ArrivalPlanW for ArrivalPlan {
        seed: Leb,
        classes: Seq(Leb, TaskClassW),
        queue_cap: Leb,
        policy: AdmissionPolicyW,
    }
}

wire_struct! {
    ConfigW for SimConfig {
        protocol: ProtocolW,
        buffers: BufferPolicyW,
        selector: SelectorKindW,
        observer: OBSERVER_KIND,
        self_first: Bool,
        total_tasks: Leb,
        checkpoints: Seq(Leb, Leb),
        changes: Seq(Leb, ChangeW),
        max_events: Leb,
        checked: Bool,
        elision: Bool,
        fault: ZeroNone(FaultInjectionW),
        fault_plan: Opt(FaultPlanW, "fault-plan tag out of range"),
        arrivals: Opt(ArrivalPlanW, "arrival-plan tag out of range"),
    }
}

/// The platform tree: node count, the root's compute weight, then
/// `(parent, comm, compute)` per non-root node in id order. Decoding
/// checks that parents precede children and weights are nonzero (what
/// `Tree::add_child` relies on), and rebuilds the child lists, which are
/// in id order by construction.
struct TreeW;

const TREE_ROW: (Leb, Leb, Leb) = (Leb, Leb, Leb);

impl Codec<Tree> for TreeW {
    fn put(&self, out: &mut Vec<u8>, tree: &Tree) {
        Leb.put(out, &tree.len());
        Leb.put(out, &tree.root().compute_time);
        for id in tree.ids().skip(1) {
            let node = tree.node(id);
            let parent = node.parent.expect("non-root has parent").index();
            TREE_ROW.put(out, &(parent, node.comm_time, node.compute_time));
        }
    }

    fn get(&self, r: &mut Reader<'_>) -> Result<Tree, WireError> {
        let n = r.len(&Leb, 1)?;
        if n == 0 {
            return Err(WireError::Corrupt("empty tree"));
        }
        let root_w: u64 = r.get(&Leb)?;
        if root_w == 0 {
            return Err(WireError::Corrupt("zero compute weight"));
        }
        let mut tree = Tree::new(root_w);
        for id in 1..n {
            let (parent, comm, compute): (usize, u64, u64) = r.get(&TREE_ROW)?;
            if parent >= id {
                return Err(WireError::Corrupt("parent does not precede child"));
            }
            if comm == 0 || compute == 0 {
                return Err(WireError::Corrupt("zero edge/compute weight"));
            }
            tree.add_child(NodeId(parent as u32), comm, compute);
        }
        Ok(tree)
    }
}

type Slot = SlotSnapshot<Event>;
type Agenda = AgendaSnapshot<Event>;

wire_struct! {
    SlotW for Slot {
        generation: Leb,
        in_far: Bool,
        payload: Opt(EventW, "slot payload tag out of range"),
    }
}

/// A near-tier bucket: index, drain head, entries (tombstones included).
fn bucket_shape((index, head, entries): &(u32, u32, Vec<PackedEvent>)) -> Result<(), &'static str> {
    if *index >= NEAR_BUCKETS {
        return Err("bucket index out of range");
    }
    if *head as usize > entries.len() {
        return Err("bucket head past entries");
    }
    Ok(())
}

// Both agenda tiers verbatim: tombstones, bucket drain heads, slot
// generations, and free-list order are all part of the state — they
// decide future handle assignment and pop order.
wire_struct! {
    AgendaW for Agenda {
        heap: Seq(Leb, PACKED),
        buckets: Seq(Leb, Checked((Leb, Leb, Seq(Leb, PACKED)), bucket_shape)),
        slots: Seq(Leb, SlotW),
        free: Seq(Leb, Leb),
        now: Leb,
        seq: Leb,
        live: Leb,
        near_live: Leb,
        near_entries: Leb,
        far_dead: Leb,
    }
}

wire_struct! {
    LedgerW for LedgerState {
        policy: BufferPolicyW,
        capacity: Leb,
        held: Leb,
        covered: Leb,
        max_capacity: Leb,
        peak_held: Leb,
        filled_since_growth: Bool,
        grown_since_arrival: Bool,
    }
}

wire_struct! {
    HotW for HotNode {
        ledger: Opt(
            Via(LedgerW, BufferLedger::state, BufferLedger::from_state),
            "ledger tag out of range"
        ),
        computing_since: opt(Leb),
        tasks_computed: Leb,
        busy_compute: Leb,
        busy_link: Leb,
        departed: Bool,
        crashed: Bool,
    }
}

wire_struct! {
    ObserverW for ObserverState {
        kind: OBSERVER_KIND,
        estimates: Seq(Leb, Leb),
        samples[estimates.len()]: Leb,
    }
}

wire_struct! {
    ColdW for ColdNode {
        observer: Via(ObserverW, LatencyObserver::state, LatencyObserver::from_state),
        selector: ChildSelectorW,
        preemptions: Leb,
        last_pressure: Leb,
    }
}

wire_struct! {
    SendingW for Sending { child_pos: Leb, started_at: Leb, handle: HANDLE }
}

wire_struct! {
    ActiveW for ActiveTransfer {
        child_pos: Leb,
        started_at: Leb,
        remaining_at_start: Leb,
        handle: HANDLE,
    }
}

wire_struct! {
    FaultRtW for FaultRt {
        orphaned: Bool,
        lost_requests: Leb,
        pending_nacks: Leb,
        retry: Leb,
        timeout: Opt(HANDLE, "timeout tag out of range"),
        outage_until: Leb,
        drop_batches: Leb,
        dup_deliveries: Leb,
    }
}

wire_struct! {
    SlotTransferW for SlotTransfer { remaining: Leb, total: Leb, started: Bool }
}

// Per-node arrays carry one row per `hot` entry, per-child arrays one
// per `kid_node` entry.
wire_struct! {
    WorkspaceW for WorkspaceSnapshot {
        agenda: AgendaW,
        hot: Seq(Leb, HotW),
        cold[hot.len()]: ColdW,
        sending[hot.len()]: Opt(SendingW, "sending tag out of range"),
        active[hot.len()]: Opt(ActiveW, "active tag out of range"),
        faults[hot.len()]: FaultRtW,
        parent_of[hot.len()]: PARENT,
        child_pos[hot.len()]: Leb,
        kid_start[hot.len() + 1]: Leb,
        kid_node: Seq(Leb, Leb),
        kid_pending[kid_node.len()]: Leb,
        kid_slot[kid_node.len()]: Opt(SlotTransferW, "kid slot tag out of range"),
        kid_comm[kid_node.len()]: Leb,
        kid_compute[kid_node.len()]: Leb,
        kid_missed[kid_node.len()]: Byte,
        pending_sum[hot.len()]: Leb,
        slots_used[hot.len()]: Leb,
        kid_gone[kid_node.len()]: Bool,
        completion_times: Seq(Leb, Leb),
        checkpoint_records: Seq(Leb, (Leb, Leb)),
    }
}

/// Workspace consistency the restore path relies on: free slots and
/// child ids index their arrays, and the CSR row offsets partition the
/// child arrays.
fn check_workspace(ws: &WorkspaceSnapshot) -> Result<(), &'static str> {
    if ws
        .agenda
        .free
        .iter()
        .any(|&f| f as usize >= ws.agenda.slots.len())
    {
        return Err("free slot out of range");
    }
    let kids = ws.kid_node.len();
    if ws.kid_start.first() != Some(&0)
        || ws.kid_start.last().map(|&k| k as usize) != Some(kids)
        || ws.kid_start.windows(2).any(|w| w[0] > w[1])
    {
        return Err("CSR row offsets inconsistent");
    }
    if ws.kid_node.iter().any(|&k| k as usize >= ws.hot.len()) {
        return Err("child node out of range");
    }
    Ok(())
}

wire_struct! {
    FaultStatsW for FaultStats {
        faults_injected: Leb,
        tasks_lost: Leb,
        tasks_reissued: Leb,
        requests_dropped: Leb,
        retries: Leb,
        gave_up: Leb,
        crashes: Leb,
        transfer_aborts: Leb,
        children_declared_dead: Leb,
        children_revived: Leb,
        duplicates_dropped: Leb,
        last_crash_time: opt(Leb),
    }
}

wire_struct! {
    ArrivalCursorW for ArrivalCursor {
        cursor: Leb,
        deferred: Seq(Leb, Leb),
        deferred_units: Leb,
        submitted: Leb,
        admitted: Leb,
        rejected: Leb,
        deferrals: Leb,
        peak_deferred: Leb,
        leak_tick: Leb,
        admit_times: Seq(Leb, Leb),
        dispatch_times: Seq(Leb, Leb),
        // Has admit_times's length by construction; the record keeps its
        // own prefix so it stays self-describing.
        admit_class: Seq(Leb, Leb),
        admitted_per_class: Seq(Leb, Leb),
    }
}

fn admit_lengths(c: &ArrivalCursor) -> Result<(), &'static str> {
    if c.admit_class.len() != c.admit_times.len() {
        return Err("admit class/time length mismatch");
    }
    Ok(())
}

wire_struct! {
    CursorW for CursorSnapshot {
        remaining: Leb,
        completed: Leb,
        next_checkpoint: Leb,
        next_change: Leb,
        events_processed: Leb,
        preemptions: Leb,
        transfers_started: Leb,
        requests_sent: Leb,
        started: Bool,
        finished: Bool,
        check_last_now: Leb,
        events_since_sweep: Leb,
        faulty_deliveries: Leb,
        fault_active: Bool,
        recovery: RecoveryW,
        fault_seed: Leb,
        dead_threshold: Byte,
        lost_pending: Leb,
        fstats: FaultStatsW,
        elided: Leb,
        finish_target: Leb,
        arrivals: Opt(
            Checked(ArrivalCursorW, admit_lengths),
            "arrival-cursor tag out of range"
        ),
    }
}

wire_struct! {
    SimSnapshotW for SimSnapshot { tree: TreeW, cfg: ConfigW, ws: WorkspaceW, cur: CursorW }
}

impl SimSnapshot {
    /// Serializes to the versioned binary snapshot format (see the
    /// module docs). Deterministic: equal snapshots yield equal bytes,
    /// and re-encoding a decoded snapshot reproduces its input.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(256);
        b.extend_from_slice(MAGIC);
        b.push(VERSION);
        SimSnapshotW.put(&mut b, self);
        b
    }

    /// Decodes a snapshot serialized by [`SimSnapshot::to_bytes`].
    /// Structural consistency (magic, version, tags, lengths, canonical
    /// integers, CSR shape) is verified; semantic validity — that the
    /// state is one a real run can reach — is trusted, as with any
    /// checkpoint file.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, SnapshotError> {
        let mut r = Reader::new(bytes);
        if r.bytes(MAGIC.len()) != Ok(MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let snap = SimSnapshotW.get(&mut r)?;
        check_workspace(&snap.ws).map_err(SnapshotError::Corrupt)?;
        if snap.ws.hot.len() != snap.tree.len() {
            return Err(SnapshotError::Corrupt("arena size != tree size"));
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        // Cross-layer consistency: an arrival plan in the config must come
        // with cursor state and vice versa — restore unwraps the pairing.
        if snap.cfg.arrivals.is_some() != snap.cur.arrivals.is_some() {
            return Err(SnapshotError::Corrupt("arrival plan/cursor mismatch"));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::mem::{discriminant, Discriminant};

    fn fixtures() -> Vec<(String, SimSnapshot)> {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/formats");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("format fixture dir") {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !name.starts_with("bcss-") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
            let bytes: Vec<u8> = digits
                .chunks(2)
                .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
                .collect();
            let snap = SimSnapshot::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("fixture {name} does not decode: {e}"));
            out.push((name, snap));
        }
        out
    }

    /// Collects the distinct variants of one enum seen across fixtures.
    struct Seen<T>(HashSet<Discriminant<T>>, &'static str, usize);

    impl<T> Seen<T> {
        fn new(what: &'static str, variants: usize) -> Self {
            Seen(HashSet::new(), what, variants)
        }
        fn add(&mut self, v: &T) {
            self.0.insert(discriminant(v));
        }
        fn check(&self) {
            assert_eq!(
                self.0.len(),
                self.2,
                "the BCSS format fixtures use {} of {} {} tags",
                self.0.len(),
                self.2,
                self.1
            );
        }
    }

    /// The committed `BCSS` fixtures (`tests/golden/formats/bcss-*.hex`,
    /// pinned by the root `format_goldens` test) must between them use
    /// every tag of every enum in the format, so a drifted tag in any
    /// declaration fails a byte comparison.
    #[test]
    fn format_fixtures_cover_every_tag() {
        let snaps = fixtures();
        assert!(!snaps.is_empty(), "no BCSS fixtures found");
        let mut event = Seen::new("Event", 9);
        let mut protocol = Seen::new("Protocol", 2);
        let mut policy = Seen::new("BufferPolicy", 2);
        let mut gate = Seen::new("GrowthGate", 3);
        let mut selector = Seen::new("SelectorKind", 3);
        let mut child = Seen::new("ChildSelector", 3);
        let mut observer = Seen::new("ObserverKind", 3);
        let mut change = Seen::new("ChangeKind", 4);
        let mut injection = Seen::new("FaultInjection", 4);
        let mut uninjected = false;
        let mut fault = Seen::new("FaultKind", 5);
        let mut process = Seen::new("ArrivalProcess", 3);
        let mut admission = Seen::new("AdmissionPolicy", 2);
        for (_, s) in &snaps {
            let cfg = &s.cfg;
            protocol.add(&cfg.protocol);
            policy.add(&cfg.buffers);
            if let BufferPolicy::Growable { gate: g, .. } = &cfg.buffers {
                gate.add(g);
            }
            selector.add(&cfg.selector);
            observer.add(&cfg.observer);
            cfg.changes.iter().for_each(|c| change.add(&c.kind));
            match &cfg.fault {
                Some(f) => injection.add(f),
                None => uninjected = true,
            }
            if let Some(plan) = &cfg.fault_plan {
                plan.faults.iter().for_each(|f| fault.add(&f.kind));
            }
            if let Some(plan) = &cfg.arrivals {
                plan.classes.iter().for_each(|c| process.add(&c.process));
                admission.add(&plan.policy);
            }
            for slot in &s.ws.agenda.slots {
                if let Some(e) = &slot.payload {
                    event.add(e);
                }
            }
            for c in &s.ws.cold {
                child.add(&c.selector);
                observer.add(&c.observer.state().kind);
            }
        }
        event.check();
        protocol.check();
        policy.check();
        gate.check();
        selector.check();
        child.check();
        observer.check();
        change.check();
        injection.check();
        assert!(
            uninjected,
            "no BCSS format fixture runs without fault injection"
        );
        fault.check();
        process.check();
        admission.check();
    }
}
