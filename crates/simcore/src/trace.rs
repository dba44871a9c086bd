//! Structured trace events: the typed event taxonomy of a protocol run.
//!
//! The engine's aggregate results (end time, per-node busy totals) cannot
//! distinguish two runs that differ only in *when* things happened — yet
//! the paper's evidence is all temporal (steady-state onset, buffer
//! fill-up, wind-down). This module defines the event stream a simulation
//! can emit so tests and tools can audit a schedule event by event:
//!
//! * [`TraceEvent`] — the taxonomy: transfer start/preempt/resume/
//!   complete, compute start/finish, buffer acquire/release (with
//!   occupancy), requests sent/denied, node join/leave.
//! * [`TraceSink`] — where events go. The simulator is generic over the
//!   sink and monomorphizes: the default [`NullSink`] has
//!   [`TraceSink::ENABLED`]` = false`, so every instrumentation site
//!   (including its argument computation) is compiled out and the
//!   untraced event loop stays allocation-free (proven by the engine's
//!   counting-allocator test).
//! * [`VecSink`] (record everything), [`RingRecorder`] (bounded,
//!   allocation-free after construction — the in-flight black box the
//!   invariant checker dumps on failure).
//! * Streaming writers: [`JsonlWriter`] (one canonical JSON object per
//!   line, byte-stable across platforms — the golden-trace format) and
//!   [`BinWriter`] (compact tag + varint encoding, ~4–6× smaller).
//!
//! Determinism: a simulation emits events single-threaded in event-loop
//! order, so for a fixed `(tree, config)` the byte stream is identical
//! on every run at any campaign thread count. `tests/golden_traces.rs`
//! freezes that guarantee against committed snapshots.

use crate::agenda::Time;
use crate::wire::{Codec, Leb, Reader, WireError};
use std::fmt;
use std::io::{self, Write};

/// One typed protocol event. Nodes are named by arena index (the
/// repository is node 0); `child` is likewise a node index, not a
/// position in its parent's child list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task transfer toward `child` started transmitting on `node`'s
    /// outbound link (`work` timesteps of communication).
    TransferStart {
        /// Sending node.
        node: u32,
        /// Receiving child node.
        child: u32,
        /// Total transmission work, in timesteps.
        work: u64,
    },
    /// Interruptible only: the active transfer toward `child` was shelved
    /// with `remaining` timesteps of work left (0 = it completed at the
    /// preemption instant; a `TransferComplete` follows immediately).
    TransferPreempt {
        /// Sending node.
        node: u32,
        /// Receiving child node.
        child: u32,
        /// Transmission work left when shelved.
        remaining: u64,
    },
    /// Interruptible only: a shelved partial transfer toward `child`
    /// resumed transmitting where it left off.
    TransferResume {
        /// Sending node.
        node: u32,
        /// Receiving child node.
        child: u32,
        /// Transmission work left at resume.
        remaining: u64,
    },
    /// The transfer toward `child` delivered its task (`work` = the total
    /// transmission work at delegation time).
    TransferComplete {
        /// Sending node.
        node: u32,
        /// Receiving child node.
        child: u32,
        /// Total transmission work of the completed transfer.
        work: u64,
    },
    /// `node`'s processor started computing a task.
    ComputeStart {
        /// Computing node.
        node: u32,
    },
    /// `node`'s processor finished computing a task (a task completion).
    ComputeFinish {
        /// Computing node.
        node: u32,
    },
    /// A delivered task occupied one of `node`'s buffers; `held` is the
    /// occupancy *after* the arrival, `capacity` the pool size.
    BufferAcquire {
        /// Buffering node.
        node: u32,
        /// Tasks held after the arrival.
        held: u32,
        /// Buffer-pool capacity at that instant.
        capacity: u32,
    },
    /// `node` took a task out of a buffer (compute start or delegation);
    /// `held` is the occupancy *after* the removal.
    BufferRelease {
        /// Buffering node.
        node: u32,
        /// Tasks held after the removal.
        held: u32,
        /// Buffer-pool capacity at that instant.
        capacity: u32,
    },
    /// `node` sent `count` fresh task requests to its parent (one per
    /// uncovered empty buffer).
    Request {
        /// Requesting node.
        node: u32,
        /// Requests sent in this batch.
        count: u32,
    },
    /// `count` requests pending at `node` from `child` were discarded
    /// unserved (the child departed before they could be honored).
    RequestDeny {
        /// Parent node that held the requests.
        node: u32,
        /// Departed child whose requests died.
        child: u32,
        /// Requests discarded.
        count: u32,
    },
    /// A new node joined the overlay under `parent`.
    NodeJoin {
        /// The joined node.
        node: u32,
        /// Its parent (the contact node).
        parent: u32,
    },
    /// The subtree rooted at `node` departed; `reclaimed` tasks it held
    /// (buffered, computing, or in flight toward it) returned to the
    /// repository.
    NodeLeave {
        /// Root of the departed subtree.
        node: u32,
        /// Tasks returned to the repository.
        reclaimed: u64,
    },
    /// A request batch from `node` to its parent was lost by the network
    /// (dropped by a fault or swallowed by an outage / crashed parent).
    RequestLoss {
        /// Requesting node whose batch vanished.
        node: u32,
        /// Requests lost.
        count: u32,
    },
    /// `node`'s request timeout fired with unacknowledged requests
    /// outstanding: it withdrew `count` lost requests and re-issues them
    /// (attempt number `retry`, with exponential backoff).
    RequestRetry {
        /// Retrying node.
        node: u32,
        /// Retry attempt number (1-based).
        retry: u32,
        /// Lost requests being re-issued.
        count: u32,
    },
    /// The in-flight transfer from `node` toward `child` was torn down by
    /// a fault (link reset, outage, or the receiver crashed); its task is
    /// lost and will be reissued by the repository.
    TransferAbort {
        /// Sending node that observed the reset.
        node: u32,
        /// Intended receiver.
        child: u32,
    },
    /// The uplink of `node` entered a transient outage lasting until
    /// simulation time `until`.
    LinkDown {
        /// Node whose uplink went dark.
        node: u32,
        /// Sim time the outage ends.
        until: u64,
    },
    /// The uplink of `node` came back after an outage; deferred negative
    /// acknowledgements resolve now.
    LinkUp {
        /// Node whose uplink recovered.
        node: u32,
    },
    /// The subtree rooted at `node` crashed abruptly; `lost` tasks it held
    /// (buffered, computing, or in flight inside it) were destroyed and
    /// enter the repository's reissue ledger.
    NodeCrash {
        /// Root of the crashed subtree.
        node: u32,
        /// Tasks destroyed by the crash.
        lost: u64,
    },
    /// The repository re-injected `count` previously lost tasks into the
    /// remaining pool (master-side orphan reissue).
    TaskReissue {
        /// Tasks re-injected.
        count: u64,
    },
    /// `node` hit the missed-ack threshold for `child` and declared it
    /// dead: pending requests from it are discarded and it stops being a
    /// delegation candidate until it is heard from again.
    ChildDead {
        /// Parent making the call.
        node: u32,
        /// Child presumed dead.
        child: u32,
    },
    /// A request from a child previously declared dead arrived at `node`:
    /// the child is alive after all and rejoins the candidate set.
    ChildRevived {
        /// Parent revising its belief.
        node: u32,
        /// Child welcomed back.
        child: u32,
    },
    /// A duplicated delivery reached `node` and was recognized by task
    /// identity and dropped (at-least-once network, at-most-once buffer).
    DuplicateDrop {
        /// Receiving node that discarded the copy.
        node: u32,
    },
    /// A scheduled join was denied because the contact node is unknown,
    /// departed, or crashed — in a real overlay the join simply fails.
    JoinDenied {
        /// The contact node the join was addressed to.
        parent: u32,
    },
    /// Open-world mode: an arrival of `units` unit tasks of class
    /// `class` was submitted to the repository.
    TaskArrival {
        /// Index into the arrival plan's class list.
        class: u32,
        /// Unit tasks submitted.
        units: u64,
    },
    /// Open-world mode: `units` unit tasks entered the repository's
    /// admission queue; `queued` is the queue depth *after* admission.
    TaskAdmit {
        /// Index into the arrival plan's class list.
        class: u32,
        /// Unit tasks admitted.
        units: u64,
        /// Admitted-but-undispatched units after this admission.
        queued: u64,
    },
    /// Open-world mode, `Drop` policy: an arrival overflowed the
    /// admission bound and was shed.
    TaskReject {
        /// Index into the arrival plan's class list.
        class: u32,
        /// Unit tasks rejected.
        units: u64,
    },
    /// Open-world mode, `Defer` policy: an arrival overflowed the
    /// admission bound and joined the deferred queue; `waiting` is the
    /// deferred backlog *after* this deferral, in unit tasks.
    TaskDefer {
        /// Index into the arrival plan's class list.
        class: u32,
        /// Unit tasks deferred.
        units: u64,
        /// Deferred backlog after this deferral.
        waiting: u64,
    },
}

/// A [`TraceEvent`] stamped with its simulation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time the event occurred at.
    pub time: Time,
    /// The event.
    pub event: TraceEvent,
}

impl TraceEvent {
    /// The stable kebab-case name of this event kind (the `"ev"` field of
    /// the JSONL encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TransferStart { .. } => "transfer-start",
            TraceEvent::TransferPreempt { .. } => "transfer-preempt",
            TraceEvent::TransferResume { .. } => "transfer-resume",
            TraceEvent::TransferComplete { .. } => "transfer-complete",
            TraceEvent::ComputeStart { .. } => "compute-start",
            TraceEvent::ComputeFinish { .. } => "compute-finish",
            TraceEvent::BufferAcquire { .. } => "buffer-acquire",
            TraceEvent::BufferRelease { .. } => "buffer-release",
            TraceEvent::Request { .. } => "request",
            TraceEvent::RequestDeny { .. } => "request-deny",
            TraceEvent::NodeJoin { .. } => "node-join",
            TraceEvent::NodeLeave { .. } => "node-leave",
            TraceEvent::RequestLoss { .. } => "request-loss",
            TraceEvent::RequestRetry { .. } => "request-retry",
            TraceEvent::TransferAbort { .. } => "transfer-abort",
            TraceEvent::LinkDown { .. } => "link-down",
            TraceEvent::LinkUp { .. } => "link-up",
            TraceEvent::NodeCrash { .. } => "node-crash",
            TraceEvent::TaskReissue { .. } => "task-reissue",
            TraceEvent::ChildDead { .. } => "child-dead",
            TraceEvent::ChildRevived { .. } => "child-revived",
            TraceEvent::DuplicateDrop { .. } => "duplicate-drop",
            TraceEvent::JoinDenied { .. } => "join-denied",
            TraceEvent::TaskArrival { .. } => "task-arrival",
            TraceEvent::TaskAdmit { .. } => "task-admit",
            TraceEvent::TaskReject { .. } => "task-reject",
            TraceEvent::TaskDefer { .. } => "task-defer",
        }
    }

    /// The node the event happened at (the sender for transfers, the
    /// parent for denials).
    pub fn node(&self) -> u32 {
        match *self {
            TraceEvent::TransferStart { node, .. }
            | TraceEvent::TransferPreempt { node, .. }
            | TraceEvent::TransferResume { node, .. }
            | TraceEvent::TransferComplete { node, .. }
            | TraceEvent::ComputeStart { node }
            | TraceEvent::ComputeFinish { node }
            | TraceEvent::BufferAcquire { node, .. }
            | TraceEvent::BufferRelease { node, .. }
            | TraceEvent::Request { node, .. }
            | TraceEvent::RequestDeny { node, .. }
            | TraceEvent::NodeJoin { node, .. }
            | TraceEvent::NodeLeave { node, .. }
            | TraceEvent::RequestLoss { node, .. }
            | TraceEvent::RequestRetry { node, .. }
            | TraceEvent::TransferAbort { node, .. }
            | TraceEvent::LinkDown { node, .. }
            | TraceEvent::LinkUp { node }
            | TraceEvent::NodeCrash { node, .. }
            | TraceEvent::ChildDead { node, .. }
            | TraceEvent::ChildRevived { node, .. }
            | TraceEvent::DuplicateDrop { node } => node,
            // Reissues and arrival admission happen at the repository; a
            // denied join names only the contact node it was addressed to.
            TraceEvent::TaskReissue { .. }
            | TraceEvent::TaskArrival { .. }
            | TraceEvent::TaskAdmit { .. }
            | TraceEvent::TaskReject { .. }
            | TraceEvent::TaskDefer { .. } => 0,
            TraceEvent::JoinDenied { parent } => parent,
        }
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Receives the trace stream of one simulation run.
///
/// The simulator is generic over its sink, so each sink monomorphizes its
/// own event loop. [`NullSink`] sets [`TraceSink::ENABLED`] to `false`;
/// instrumentation sites guard on that associated constant, so the
/// untraced loop contains no trace code at all — not even the occupancy
/// reads that would feed event payloads.
pub trait TraceSink {
    /// Statically `false` only for the no-op sink: lets the simulator
    /// compile instrumentation (and its argument computation) out
    /// entirely.
    const ENABLED: bool = true;

    /// Receives one event. Called in strict event-loop order;
    /// `time` never decreases between calls.
    fn record(&mut self, time: Time, event: TraceEvent);

    /// Appends whatever the sink still retains, oldest first (the
    /// invariant checker's failure dump). Unbounded sinks may truncate to
    /// a recent tail; the default retains nothing.
    fn retained(&self, _out: &mut Vec<TraceRecord>) {}
}

/// The default sink: keeps nothing, compiles to nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _time: Time, _event: TraceEvent) {}
}

/// Records every event in order (tests, golden traces, timeline folds).
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// The full trace, in emission order.
    pub records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, time: Time, event: TraceEvent) {
        self.records.push(TraceRecord { time, event });
    }

    fn retained(&self, out: &mut Vec<TraceRecord>) {
        out.extend_from_slice(&self.records);
    }
}

/// A bounded ring buffer keeping the most recent `capacity` records: the
/// black-box flight recorder for long runs. All storage is allocated up
/// front, so recording is allocation-free (asserted by the engine's
/// counting-allocator test).
#[derive(Clone, Debug)]
pub struct RingRecorder {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Index the next record lands at once the ring is full.
    next: usize,
    /// Total records ever seen (≥ `buf.len()`).
    total: u64,
}

impl RingRecorder {
    /// A ring retaining the last `capacity` records (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be >= 1");
        RingRecorder {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            total: 0,
        }
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// The retained tail in chronological order.
    pub fn tail(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        self.retained(&mut out);
        out
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, time: Time, event: TraceEvent) {
        let rec = TraceRecord { time, event };
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next = (self.next + 1) % self.capacity;
        }
        self.total += 1;
    }

    fn retained(&self, out: &mut Vec<TraceRecord>) {
        // `next` is both the overwrite cursor and the oldest retained
        // record once the ring has wrapped.
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
    }
}

/// Forwards every event to two sinks (e.g. a ring for failure dumps plus
/// a streaming writer).
#[derive(Clone, Debug, Default)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn record(&mut self, time: Time, event: TraceEvent) {
        self.0.record(time, event);
        self.1.record(time, event);
    }

    fn retained(&self, out: &mut Vec<TraceRecord>) {
        self.0.retained(out);
    }
}

// ---------------------------------------------------------------------
// Canonical JSONL encoding
// ---------------------------------------------------------------------

impl TraceRecord {
    /// Appends the canonical JSONL form (no trailing newline): one JSON
    /// object, fixed key order (`t`, `ev`, then payload fields in
    /// declaration order), no whitespace. Integers only — the encoding is
    /// byte-stable across platforms, which is what lets golden traces be
    /// diffed with `assert_eq!` on bytes.
    pub fn write_jsonl(&self, out: &mut String) {
        use fmt::Write;
        let w = |out: &mut String, args: fmt::Arguments| {
            out.write_fmt(args).expect("string write");
        };
        w(
            out,
            format_args!("{{\"t\":{},\"ev\":\"{}\"", self.time, self.event.kind()),
        );
        match self.event {
            TraceEvent::TransferStart { node, child, work }
            | TraceEvent::TransferComplete { node, child, work } => {
                w(
                    out,
                    format_args!(",\"node\":{node},\"child\":{child},\"work\":{work}"),
                );
            }
            TraceEvent::TransferPreempt {
                node,
                child,
                remaining,
            }
            | TraceEvent::TransferResume {
                node,
                child,
                remaining,
            } => {
                w(
                    out,
                    format_args!(",\"node\":{node},\"child\":{child},\"remaining\":{remaining}"),
                );
            }
            TraceEvent::ComputeStart { node } | TraceEvent::ComputeFinish { node } => {
                w(out, format_args!(",\"node\":{node}"));
            }
            TraceEvent::BufferAcquire {
                node,
                held,
                capacity,
            }
            | TraceEvent::BufferRelease {
                node,
                held,
                capacity,
            } => {
                w(
                    out,
                    format_args!(",\"node\":{node},\"held\":{held},\"capacity\":{capacity}"),
                );
            }
            TraceEvent::Request { node, count } => {
                w(out, format_args!(",\"node\":{node},\"count\":{count}"));
            }
            TraceEvent::RequestDeny { node, child, count } => {
                w(
                    out,
                    format_args!(",\"node\":{node},\"child\":{child},\"count\":{count}"),
                );
            }
            TraceEvent::NodeJoin { node, parent } => {
                w(out, format_args!(",\"node\":{node},\"parent\":{parent}"));
            }
            TraceEvent::NodeLeave { node, reclaimed } => {
                w(
                    out,
                    format_args!(",\"node\":{node},\"reclaimed\":{reclaimed}"),
                );
            }
            TraceEvent::RequestLoss { node, count } => {
                w(out, format_args!(",\"node\":{node},\"count\":{count}"));
            }
            TraceEvent::RequestRetry { node, retry, count } => {
                w(
                    out,
                    format_args!(",\"node\":{node},\"retry\":{retry},\"count\":{count}"),
                );
            }
            TraceEvent::TransferAbort { node, child } => {
                w(out, format_args!(",\"node\":{node},\"child\":{child}"));
            }
            TraceEvent::LinkDown { node, until } => {
                w(out, format_args!(",\"node\":{node},\"until\":{until}"));
            }
            TraceEvent::LinkUp { node } | TraceEvent::DuplicateDrop { node } => {
                w(out, format_args!(",\"node\":{node}"));
            }
            TraceEvent::NodeCrash { node, lost } => {
                w(out, format_args!(",\"node\":{node},\"lost\":{lost}"));
            }
            TraceEvent::TaskReissue { count } => {
                w(out, format_args!(",\"count\":{count}"));
            }
            TraceEvent::ChildDead { node, child } | TraceEvent::ChildRevived { node, child } => {
                w(out, format_args!(",\"node\":{node},\"child\":{child}"));
            }
            TraceEvent::JoinDenied { parent } => {
                w(out, format_args!(",\"parent\":{parent}"));
            }
            TraceEvent::TaskArrival { class, units } | TraceEvent::TaskReject { class, units } => {
                w(out, format_args!(",\"class\":{class},\"units\":{units}"));
            }
            TraceEvent::TaskAdmit {
                class,
                units,
                queued,
            } => {
                w(
                    out,
                    format_args!(",\"class\":{class},\"units\":{units},\"queued\":{queued}"),
                );
            }
            TraceEvent::TaskDefer {
                class,
                units,
                waiting,
            } => {
                w(
                    out,
                    format_args!(",\"class\":{class},\"units\":{units},\"waiting\":{waiting}"),
                );
            }
        }
        out.push('}');
    }

    /// The canonical JSONL line (without newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_jsonl(&mut s);
        s
    }

    /// Parses one line of [`TraceRecord::write_jsonl`]'s output. Accepts
    /// only the canonical form (this is a snapshot format, not a general
    /// JSON reader).
    pub fn from_jsonl(line: &str) -> Result<TraceRecord, String> {
        let inner = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
        let mut time: Option<Time> = None;
        let mut kind: Option<&str> = None;
        let mut fields: Vec<(&str, u64)> = Vec::with_capacity(4);
        for part in inner.split(',') {
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("malformed field {part:?}"))?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("malformed key in {part:?}"))?;
            if key == "ev" {
                let v = value
                    .trim()
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("malformed event kind {value:?}"))?;
                kind = Some(v);
            } else {
                let v: u64 = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("non-integer value in {part:?}"))?;
                if key == "t" {
                    time = Some(v);
                } else {
                    fields.push((key, v));
                }
            }
        }
        let time = time.ok_or("missing \"t\"")?;
        let kind = kind.ok_or("missing \"ev\"")?;
        let get = |name: &str| -> Result<u64, String> {
            fields
                .iter()
                .find(|(k, _)| *k == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("{kind}: missing field {name:?}"))
        };
        let narrow = |name: &str| -> Result<u32, String> {
            u32::try_from(get(name)?).map_err(|_| format!("{kind}: field {name:?} overflows u32"))
        };
        let event = match kind {
            "transfer-start" => TraceEvent::TransferStart {
                node: narrow("node")?,
                child: narrow("child")?,
                work: get("work")?,
            },
            "transfer-preempt" => TraceEvent::TransferPreempt {
                node: narrow("node")?,
                child: narrow("child")?,
                remaining: get("remaining")?,
            },
            "transfer-resume" => TraceEvent::TransferResume {
                node: narrow("node")?,
                child: narrow("child")?,
                remaining: get("remaining")?,
            },
            "transfer-complete" => TraceEvent::TransferComplete {
                node: narrow("node")?,
                child: narrow("child")?,
                work: get("work")?,
            },
            "compute-start" => TraceEvent::ComputeStart {
                node: narrow("node")?,
            },
            "compute-finish" => TraceEvent::ComputeFinish {
                node: narrow("node")?,
            },
            "buffer-acquire" => TraceEvent::BufferAcquire {
                node: narrow("node")?,
                held: narrow("held")?,
                capacity: narrow("capacity")?,
            },
            "buffer-release" => TraceEvent::BufferRelease {
                node: narrow("node")?,
                held: narrow("held")?,
                capacity: narrow("capacity")?,
            },
            "request" => TraceEvent::Request {
                node: narrow("node")?,
                count: narrow("count")?,
            },
            "request-deny" => TraceEvent::RequestDeny {
                node: narrow("node")?,
                child: narrow("child")?,
                count: narrow("count")?,
            },
            "node-join" => TraceEvent::NodeJoin {
                node: narrow("node")?,
                parent: narrow("parent")?,
            },
            "node-leave" => TraceEvent::NodeLeave {
                node: narrow("node")?,
                reclaimed: get("reclaimed")?,
            },
            "request-loss" => TraceEvent::RequestLoss {
                node: narrow("node")?,
                count: narrow("count")?,
            },
            "request-retry" => TraceEvent::RequestRetry {
                node: narrow("node")?,
                retry: narrow("retry")?,
                count: narrow("count")?,
            },
            "transfer-abort" => TraceEvent::TransferAbort {
                node: narrow("node")?,
                child: narrow("child")?,
            },
            "link-down" => TraceEvent::LinkDown {
                node: narrow("node")?,
                until: get("until")?,
            },
            "link-up" => TraceEvent::LinkUp {
                node: narrow("node")?,
            },
            "node-crash" => TraceEvent::NodeCrash {
                node: narrow("node")?,
                lost: get("lost")?,
            },
            "task-reissue" => TraceEvent::TaskReissue {
                count: get("count")?,
            },
            "child-dead" => TraceEvent::ChildDead {
                node: narrow("node")?,
                child: narrow("child")?,
            },
            "child-revived" => TraceEvent::ChildRevived {
                node: narrow("node")?,
                child: narrow("child")?,
            },
            "duplicate-drop" => TraceEvent::DuplicateDrop {
                node: narrow("node")?,
            },
            "join-denied" => TraceEvent::JoinDenied {
                parent: narrow("parent")?,
            },
            "task-arrival" => TraceEvent::TaskArrival {
                class: narrow("class")?,
                units: get("units")?,
            },
            "task-admit" => TraceEvent::TaskAdmit {
                class: narrow("class")?,
                units: get("units")?,
                queued: get("queued")?,
            },
            "task-reject" => TraceEvent::TaskReject {
                class: narrow("class")?,
                units: get("units")?,
            },
            "task-defer" => TraceEvent::TaskDefer {
                class: narrow("class")?,
                units: get("units")?,
                waiting: get("waiting")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(TraceRecord { time, event })
    }
}

impl fmt::Display for TraceRecord {
    /// Human-oriented rendering (`trace_dump --format pretty`, failure
    /// dumps): `t=14 node 3  transfer-start -> 5 (work 4)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:<8} node {:<4} {:<17}",
            self.time,
            self.event.node(),
            self.event.kind()
        )?;
        match self.event {
            TraceEvent::TransferStart { child, work, .. }
            | TraceEvent::TransferComplete { child, work, .. } => {
                write!(f, " -> {child} (work {work})")
            }
            TraceEvent::TransferPreempt {
                child, remaining, ..
            }
            | TraceEvent::TransferResume {
                child, remaining, ..
            } => {
                write!(f, " -> {child} (remaining {remaining})")
            }
            TraceEvent::ComputeStart { .. } | TraceEvent::ComputeFinish { .. } => Ok(()),
            TraceEvent::BufferAcquire { held, capacity, .. }
            | TraceEvent::BufferRelease { held, capacity, .. } => {
                write!(f, " ({held}/{capacity} held)")
            }
            TraceEvent::Request { count, .. } => write!(f, " ({count} sent)"),
            TraceEvent::RequestDeny { child, count, .. } => {
                write!(f, " from {child} ({count} dropped)")
            }
            TraceEvent::NodeJoin { parent, .. } => write!(f, " under {parent}"),
            TraceEvent::NodeLeave { reclaimed, .. } => write!(f, " ({reclaimed} reclaimed)"),
            TraceEvent::RequestLoss { count, .. } => write!(f, " ({count} lost)"),
            TraceEvent::RequestRetry { retry, count, .. } => {
                write!(f, " (attempt {retry}, {count} re-sent)")
            }
            TraceEvent::TransferAbort { child, .. } => write!(f, " -> {child} (task lost)"),
            TraceEvent::LinkDown { until, .. } => write!(f, " (until t={until})"),
            TraceEvent::LinkUp { .. } | TraceEvent::DuplicateDrop { .. } => Ok(()),
            TraceEvent::NodeCrash { lost, .. } => write!(f, " ({lost} lost)"),
            TraceEvent::TaskReissue { count } => write!(f, " ({count} re-injected)"),
            TraceEvent::ChildDead { child, .. } => write!(f, " presumed dead: {child}"),
            TraceEvent::ChildRevived { child, .. } => write!(f, " heard from: {child}"),
            TraceEvent::JoinDenied { .. } => Ok(()),
            TraceEvent::TaskArrival { class, units } => {
                write!(f, " (class {class}, {units} units)")
            }
            TraceEvent::TaskAdmit {
                class,
                units,
                queued,
            } => write!(f, " (class {class}, {units} units, {queued} queued)"),
            TraceEvent::TaskReject { class, units } => {
                write!(f, " (class {class}, {units} units shed)")
            }
            TraceEvent::TaskDefer {
                class,
                units,
                waiting,
            } => write!(f, " (class {class}, {units} units, {waiting} waiting)"),
        }
    }
}

/// Renders `records` as canonical JSONL, one record per line, trailing
/// newline after every line (the golden-trace file format).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 64);
    for r in records {
        r.write_jsonl(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a whole JSONL document (inverse of [`to_jsonl`]). Empty lines
/// are ignored; the error names the offending line.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(TraceRecord::from_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Streams records to `w` as canonical JSONL, one line per event, without
/// retaining them.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    inner: W,
    line: String,
}

impl<W: Write> JsonlWriter<W> {
    /// A writer streaming to `w`.
    pub fn new(w: W) -> Self {
        JsonlWriter {
            inner: w,
            line: String::with_capacity(96),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: Write> TraceSink for JsonlWriter<W> {
    fn record(&mut self, time: Time, event: TraceEvent) {
        self.line.clear();
        TraceRecord { time, event }.write_jsonl(&mut self.line);
        self.line.push('\n');
        self.inner
            .write_all(self.line.as_bytes())
            .expect("trace stream write failed");
    }
}

// ---------------------------------------------------------------------
// Compact binary encoding
// ---------------------------------------------------------------------

/// Event-kind tags of the binary encoding (stable; new kinds append).
const TAGS: [&str; 27] = [
    "transfer-start",
    "transfer-preempt",
    "transfer-resume",
    "transfer-complete",
    "compute-start",
    "compute-finish",
    "buffer-acquire",
    "buffer-release",
    "request",
    "request-deny",
    "node-join",
    "node-leave",
    "request-loss",
    "request-retry",
    "transfer-abort",
    "link-down",
    "link-up",
    "node-crash",
    "task-reissue",
    "child-dead",
    "child-revived",
    "duplicate-drop",
    "join-denied",
    "task-arrival",
    "task-admit",
    "task-reject",
    "task-defer",
];

/// One LEB128 field of a binary record (the shared [`crate::wire`]
/// reader: overflow and non-minimal encodings are errors).
fn get_varint(r: &mut Reader<'_>) -> Result<u64, String> {
    Leb.get(r).map_err(|e| match e {
        WireError::Truncated => "truncated varint".to_string(),
        WireError::Corrupt(what) => what.to_string(),
    })
}

impl TraceRecord {
    /// Fields of the event, in declaration order (shared by the binary
    /// encoder and decoder so the two cannot drift).
    fn payload(&self) -> (u8, [u64; 3], usize) {
        let tag = TAGS
            .iter()
            .position(|&k| k == self.event.kind())
            .expect("kind in TAGS") as u8;
        match self.event {
            TraceEvent::TransferStart { node, child, work }
            | TraceEvent::TransferComplete { node, child, work } => {
                (tag, [node.into(), child.into(), work], 3)
            }
            TraceEvent::TransferPreempt {
                node,
                child,
                remaining,
            }
            | TraceEvent::TransferResume {
                node,
                child,
                remaining,
            } => (tag, [node.into(), child.into(), remaining], 3),
            TraceEvent::ComputeStart { node } | TraceEvent::ComputeFinish { node } => {
                (tag, [node.into(), 0, 0], 1)
            }
            TraceEvent::BufferAcquire {
                node,
                held,
                capacity,
            }
            | TraceEvent::BufferRelease {
                node,
                held,
                capacity,
            } => (tag, [node.into(), held.into(), capacity.into()], 3),
            TraceEvent::Request { node, count } => (tag, [node.into(), count.into(), 0], 2),
            TraceEvent::RequestDeny { node, child, count } => {
                (tag, [node.into(), child.into(), count.into()], 3)
            }
            TraceEvent::NodeJoin { node, parent } => (tag, [node.into(), parent.into(), 0], 2),
            TraceEvent::NodeLeave { node, reclaimed } => (tag, [node.into(), reclaimed, 0], 2),
            TraceEvent::RequestLoss { node, count } => (tag, [node.into(), count.into(), 0], 2),
            TraceEvent::RequestRetry { node, retry, count } => {
                (tag, [node.into(), retry.into(), count.into()], 3)
            }
            TraceEvent::TransferAbort { node, child }
            | TraceEvent::ChildDead { node, child }
            | TraceEvent::ChildRevived { node, child } => (tag, [node.into(), child.into(), 0], 2),
            TraceEvent::LinkDown { node, until } => (tag, [node.into(), until, 0], 2),
            TraceEvent::LinkUp { node } | TraceEvent::DuplicateDrop { node } => {
                (tag, [node.into(), 0, 0], 1)
            }
            TraceEvent::NodeCrash { node, lost } => (tag, [node.into(), lost, 0], 2),
            TraceEvent::TaskReissue { count } => (tag, [count, 0, 0], 1),
            TraceEvent::JoinDenied { parent } => (tag, [parent.into(), 0, 0], 1),
            TraceEvent::TaskArrival { class, units } | TraceEvent::TaskReject { class, units } => {
                (tag, [class.into(), units, 0], 2)
            }
            TraceEvent::TaskAdmit {
                class,
                units,
                queued,
            } => (tag, [class.into(), units, queued], 3),
            TraceEvent::TaskDefer {
                class,
                units,
                waiting,
            } => (tag, [class.into(), units, waiting], 3),
        }
    }

    /// Appends the compact binary form: `[tag][varint time-delta-able
    /// absolute time][varint fields…]`.
    pub fn write_binary(&self, out: &mut Vec<u8>) {
        let (tag, fields, n) = self.payload();
        out.push(tag);
        Leb.put(out, &self.time);
        for f in &fields[..n] {
            Leb.put(out, f);
        }
    }

    /// Decodes one record at `pos`, advancing it.
    pub fn read_binary(buf: &[u8], pos: &mut usize) -> Result<TraceRecord, String> {
        let mut r = Reader::new(buf.get(*pos..).unwrap_or_default());
        let tag = r.u8().map_err(|_| "truncated record")?;
        let kind = *TAGS
            .get(tag as usize)
            .ok_or_else(|| format!("unknown binary tag {tag}"))?;
        let time = get_varint(&mut r)?;
        let narrow = |v: u64, what: &str| -> Result<u32, String> {
            u32::try_from(v).map_err(|_| format!("{kind}: {what} overflows u32"))
        };
        let mut next = || get_varint(&mut r);
        let event = match kind {
            "transfer-start" | "transfer-complete" => {
                let (node, child, work) = (next()?, next()?, next()?);
                let (node, child) = (narrow(node, "node")?, narrow(child, "child")?);
                if kind == "transfer-start" {
                    TraceEvent::TransferStart { node, child, work }
                } else {
                    TraceEvent::TransferComplete { node, child, work }
                }
            }
            "transfer-preempt" | "transfer-resume" => {
                let (node, child, remaining) = (next()?, next()?, next()?);
                let (node, child) = (narrow(node, "node")?, narrow(child, "child")?);
                if kind == "transfer-preempt" {
                    TraceEvent::TransferPreempt {
                        node,
                        child,
                        remaining,
                    }
                } else {
                    TraceEvent::TransferResume {
                        node,
                        child,
                        remaining,
                    }
                }
            }
            "compute-start" | "compute-finish" => {
                let node = narrow(next()?, "node")?;
                if kind == "compute-start" {
                    TraceEvent::ComputeStart { node }
                } else {
                    TraceEvent::ComputeFinish { node }
                }
            }
            "buffer-acquire" | "buffer-release" => {
                let (node, held, capacity) = (next()?, next()?, next()?);
                let (node, held, capacity) = (
                    narrow(node, "node")?,
                    narrow(held, "held")?,
                    narrow(capacity, "capacity")?,
                );
                if kind == "buffer-acquire" {
                    TraceEvent::BufferAcquire {
                        node,
                        held,
                        capacity,
                    }
                } else {
                    TraceEvent::BufferRelease {
                        node,
                        held,
                        capacity,
                    }
                }
            }
            "request" => TraceEvent::Request {
                node: narrow(next()?, "node")?,
                count: narrow(next()?, "count")?,
            },
            "request-deny" => TraceEvent::RequestDeny {
                node: narrow(next()?, "node")?,
                child: narrow(next()?, "child")?,
                count: narrow(next()?, "count")?,
            },
            "node-join" => TraceEvent::NodeJoin {
                node: narrow(next()?, "node")?,
                parent: narrow(next()?, "parent")?,
            },
            "node-leave" => TraceEvent::NodeLeave {
                node: narrow(next()?, "node")?,
                reclaimed: next()?,
            },
            "request-loss" => TraceEvent::RequestLoss {
                node: narrow(next()?, "node")?,
                count: narrow(next()?, "count")?,
            },
            "request-retry" => TraceEvent::RequestRetry {
                node: narrow(next()?, "node")?,
                retry: narrow(next()?, "retry")?,
                count: narrow(next()?, "count")?,
            },
            "transfer-abort" => TraceEvent::TransferAbort {
                node: narrow(next()?, "node")?,
                child: narrow(next()?, "child")?,
            },
            "link-down" => TraceEvent::LinkDown {
                node: narrow(next()?, "node")?,
                until: next()?,
            },
            "link-up" => TraceEvent::LinkUp {
                node: narrow(next()?, "node")?,
            },
            "node-crash" => TraceEvent::NodeCrash {
                node: narrow(next()?, "node")?,
                lost: next()?,
            },
            "task-reissue" => TraceEvent::TaskReissue { count: next()? },
            "child-dead" => TraceEvent::ChildDead {
                node: narrow(next()?, "node")?,
                child: narrow(next()?, "child")?,
            },
            "child-revived" => TraceEvent::ChildRevived {
                node: narrow(next()?, "node")?,
                child: narrow(next()?, "child")?,
            },
            "duplicate-drop" => TraceEvent::DuplicateDrop {
                node: narrow(next()?, "node")?,
            },
            "join-denied" => TraceEvent::JoinDenied {
                parent: narrow(next()?, "parent")?,
            },
            "task-arrival" | "task-reject" => {
                let (class, units) = (narrow(next()?, "class")?, next()?);
                if kind == "task-arrival" {
                    TraceEvent::TaskArrival { class, units }
                } else {
                    TraceEvent::TaskReject { class, units }
                }
            }
            "task-admit" => TraceEvent::TaskAdmit {
                class: narrow(next()?, "class")?,
                units: next()?,
                queued: next()?,
            },
            "task-defer" => TraceEvent::TaskDefer {
                class: narrow(next()?, "class")?,
                units: next()?,
                waiting: next()?,
            },
            _ => unreachable!("kind comes from TAGS"),
        };
        *pos += r.pos();
        Ok(TraceRecord { time, event })
    }
}

/// Encodes `records` in the compact binary format.
pub fn to_binary(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 8);
    for r in records {
        r.write_binary(&mut out);
    }
    out
}

/// Decodes a whole compact-binary document (inverse of [`to_binary`]).
pub fn from_binary(buf: &[u8]) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        out.push(TraceRecord::read_binary(buf, &mut pos)?);
    }
    Ok(out)
}

/// Streams records to `w` in the compact binary format.
#[derive(Debug)]
pub struct BinWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> BinWriter<W> {
    /// A writer streaming to `w`.
    pub fn new(w: W) -> Self {
        BinWriter {
            inner: w,
            buf: Vec::with_capacity(32),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: Write> TraceSink for BinWriter<W> {
    fn record(&mut self, time: Time, event: TraceEvent) {
        self.buf.clear();
        TraceRecord { time, event }.write_binary(&mut self.buf);
        self.inner
            .write_all(&self.buf)
            .expect("trace stream write failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<TraceRecord> {
        let events = [
            TraceEvent::TransferStart {
                node: 0,
                child: 3,
                work: 7,
            },
            TraceEvent::TransferPreempt {
                node: 0,
                child: 3,
                remaining: 4,
            },
            TraceEvent::TransferResume {
                node: 0,
                child: 3,
                remaining: 4,
            },
            TraceEvent::TransferComplete {
                node: 0,
                child: 3,
                work: 7,
            },
            TraceEvent::ComputeStart { node: 2 },
            TraceEvent::ComputeFinish { node: 2 },
            TraceEvent::BufferAcquire {
                node: 3,
                held: 2,
                capacity: 3,
            },
            TraceEvent::BufferRelease {
                node: 3,
                held: 1,
                capacity: 3,
            },
            TraceEvent::Request { node: 3, count: 2 },
            TraceEvent::RequestDeny {
                node: 0,
                child: 3,
                count: 1,
            },
            TraceEvent::NodeJoin { node: 9, parent: 1 },
            TraceEvent::NodeLeave {
                node: 9,
                reclaimed: 5,
            },
            TraceEvent::RequestLoss { node: 3, count: 2 },
            TraceEvent::RequestRetry {
                node: 3,
                retry: 2,
                count: 2,
            },
            TraceEvent::TransferAbort { node: 0, child: 3 },
            TraceEvent::LinkDown {
                node: 3,
                until: 900,
            },
            TraceEvent::LinkUp { node: 3 },
            TraceEvent::NodeCrash { node: 4, lost: 6 },
            TraceEvent::TaskReissue { count: 6 },
            TraceEvent::ChildDead { node: 0, child: 4 },
            TraceEvent::ChildRevived { node: 0, child: 4 },
            TraceEvent::DuplicateDrop { node: 3 },
            TraceEvent::JoinDenied { parent: 9 },
            TraceEvent::TaskArrival { class: 1, units: 3 },
            TraceEvent::TaskAdmit {
                class: 1,
                units: 3,
                queued: 5,
            },
            TraceEvent::TaskReject { class: 2, units: 4 },
            TraceEvent::TaskDefer {
                class: 0,
                units: 2,
                waiting: 6,
            },
        ];
        assert_eq!(events.len(), super::TAGS.len(), "one sample per kind");
        events
            .iter()
            .enumerate()
            .map(|(i, &event)| TraceRecord {
                time: (i as u64) * 1000 + u64::from(i == 11) * u64::from(u32::MAX),
                event,
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let records = every_kind();
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), records.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn jsonl_is_canonical() {
        let r = TraceRecord {
            time: 14,
            event: TraceEvent::TransferStart {
                node: 1,
                child: 5,
                work: 4,
            },
        };
        assert_eq!(
            r.to_jsonl(),
            "{\"t\":14,\"ev\":\"transfer-start\",\"node\":1,\"child\":5,\"work\":4}"
        );
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        for bad in [
            "",
            "{}",
            "{\"t\":1}",
            "{\"ev\":\"compute-start\",\"node\":1}",
            "{\"t\":1,\"ev\":\"no-such-kind\",\"node\":1}",
            "{\"t\":1,\"ev\":\"compute-start\"}",
            "{\"t\":1,\"ev\":\"request\",\"node\":1,\"count\":99999999999}",
            "not json at all",
        ] {
            assert!(TraceRecord::from_jsonl(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn binary_round_trips_every_kind() {
        let records = every_kind();
        let bin = to_binary(&records);
        assert!(
            bin.len() < to_jsonl(&records).len() / 3,
            "binary should be a small fraction of JSONL ({} vs {})",
            bin.len(),
            to_jsonl(&records).len()
        );
        assert_eq!(from_binary(&bin).unwrap(), records);
    }

    #[test]
    fn binary_rejects_truncation_and_bad_tags() {
        let records = every_kind();
        let bin = to_binary(&records);
        assert!(from_binary(&bin[..bin.len() - 1]).is_err());
        assert!(from_binary(&[200]).is_err());
        // A tenth varint byte above 1 overflows u64: an error, not a
        // silently wrapped time.
        let reissue = TAGS.iter().position(|&k| k == "task-reissue").unwrap() as u8;
        let mut overflow = vec![reissue];
        overflow.extend([0xff; 9]);
        overflow.extend([0x02, 0x01]);
        assert_eq!(from_binary(&overflow), Err("varint overflow".to_string()));
        // Padded (non-minimal) varints have a shorter form; rejected.
        assert_eq!(
            from_binary(&[reissue, 0x85, 0x00, 0x01]),
            Err("non-minimal varint".to_string())
        );
    }

    #[test]
    fn ring_keeps_the_most_recent_tail() {
        let mut ring = RingRecorder::new(4);
        for i in 0..10u64 {
            ring.record(i, TraceEvent::ComputeStart { node: i as u32 });
        }
        assert_eq!(ring.total_recorded(), 10);
        let tail = ring.tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(
            tail.iter().map(|r| r.time).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "ring must retain the newest records in chronological order"
        );
        // Before wrapping, the tail is simply everything recorded.
        let mut small = RingRecorder::new(8);
        for i in 0..3u64 {
            small.record(i, TraceEvent::ComputeFinish { node: 0 });
        }
        assert_eq!(small.tail().len(), 3);
        assert_eq!(small.total_recorded(), 3);
    }

    #[test]
    fn null_sink_is_statically_disabled() {
        const { assert!(!NullSink::ENABLED) };
        const { assert!(VecSink::ENABLED) };
        const { assert!(RingRecorder::ENABLED) };
        let mut out = Vec::new();
        NullSink.retained(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn writers_stream_the_same_bytes_as_the_batch_encoders() {
        let records = every_kind();
        let mut jw = JsonlWriter::new(Vec::new());
        let mut bw = BinWriter::new(Vec::new());
        for r in &records {
            jw.record(r.time, r.event);
            bw.record(r.time, r.event);
        }
        assert_eq!(jw.into_inner().unwrap(), to_jsonl(&records).into_bytes());
        assert_eq!(bw.into_inner().unwrap(), to_binary(&records));
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut tee = TeeSink(VecSink::new(), RingRecorder::new(2));
        for i in 0..5u64 {
            tee.record(i, TraceEvent::ComputeStart { node: 1 });
        }
        assert_eq!(tee.0.records.len(), 5);
        assert_eq!(tee.1.tail().len(), 2);
        let mut out = Vec::new();
        tee.retained(&mut out);
        assert_eq!(out.len(), 5, "tee retains via its first sink");
    }

    #[test]
    fn display_is_stable() {
        let r = TraceRecord {
            time: 14,
            event: TraceEvent::TransferPreempt {
                node: 1,
                child: 5,
                remaining: 3,
            },
        };
        let s = r.to_string();
        assert!(s.contains("transfer-preempt"), "{s}");
        assert!(s.contains("remaining 3"), "{s}");
    }
}
