//! What every workload provides to the runner in `main.rs`.

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Outcome of one repetition.
#[derive(Debug, Default)]
pub struct RepOut {
    /// Wall time of the measured region, in nanoseconds.
    pub wall_ns: u64,
    /// Items completed (trees, or requests).
    pub items: u64,
    /// Items that failed (error or poisoned responses).
    pub failed: u64,
    /// Digest of every checked output of the repetition.
    pub digest: u64,
    /// Per-item latencies in nanoseconds. Left empty by the campaign
    /// workloads, whose per-tree latencies come from
    /// [`crate::trace::probe`].
    pub latencies_ns: Vec<u64>,
    /// Outcome counters summed over repetitions into the results file.
    pub counters: BTreeMap<&'static str, u64>,
}

pub trait Workload {
    /// Worker threads the measured path keeps busy.
    fn workers(&self) -> usize;

    /// Wall time of one public-entry-point repetition on the reference host
    /// (2-CPU Xeon). A run's repetition count is fixed from `--seconds`
    /// by it, so a seed always gets the same work.
    fn nominal_rep_s(&self) -> f64;

    /// Repetition `rep` through the public entry point, untraced.
    fn public(&mut self, rep: u64) -> RepOut;

    /// Repetition `rep` along the decomposed path: the same layer calls
    /// the public entry point makes, each wrapped in a span of `tracer` (which
    /// may be off). Opens the repetition span itself.
    fn decomposed(&mut self, rep: u64, tracer: &mut Tracer) -> RepOut;
}
