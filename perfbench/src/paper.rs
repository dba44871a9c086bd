//! `paper_campaign`: the paper's §4.1 campaign shape. Each repetition is
//! a batch of default-generator trees with 10 000 tasks each, prepared
//! once and run under IC/FB=3 and non-IC/IB=1, the path of
//! `bench_report`'s `campaign_paper_scale`.

use crate::trace::{probe, Tracer, REP};
use crate::workload::{RepOut, Workload};
use bc_engine::durability::fnv1a64;
use bc_engine::{SimConfig, SimWorkspace};
use bc_experiments::campaign::{
    run_campaign_prepared, summarize, CampaignConfig, PreparedTree, TreeRun,
};
use bc_simcore::split_seed;
use bc_steady::SteadyState;
use rayon::prelude::*;
use std::time::Instant;

pub const TASKS: u64 = 10_000;
pub const TREES_PER_REP: usize = 32;

fn ic(tasks: u64) -> SimConfig {
    SimConfig::interruptible(3, tasks)
}

fn nonic(tasks: u64) -> SimConfig {
    SimConfig::non_interruptible(1, tasks)
}

pub struct Paper {
    seed: u64,
    trees: usize,
    tasks: u64,
}

impl Paper {
    pub fn new(seed: u64, trees: usize, tasks: u64) -> Self {
        Paper { seed, trees, tasks }
    }

    /// Repetition `rep` runs its own trees, so a run averages over many.
    fn campaign(&self, rep: u64) -> CampaignConfig {
        CampaignConfig::paper(self.trees, self.tasks, split_seed(self.seed, rep))
    }

    /// Runs a fixed two-tree campaign (independent of the seed) so that
    /// thread start-up and first-touch allocation are paid before timing.
    pub fn warm_up() {
        let c = CampaignConfig::paper(2, 2_000, 0x5EED);
        let prepared = c.prepare_all();
        std::hint::black_box(run_campaign_prepared(&prepared, &c, ic));
        std::hint::black_box(run_campaign_prepared(&prepared, &c, nonic));
    }
}

/// Appends one tree's summary to `b`: everything `summarize` derives.
fn encode_run(b: &mut Vec<u8>, r: &TreeRun) {
    b.extend((r.index as u64).to_le_bytes());
    b.extend(r.optimal_rate.to_string().as_bytes());
    b.push(b'|');
    match r.onset {
        Some(o) => {
            b.push(1);
            b.extend(o.to_le_bytes());
        }
        None => b.push(0),
    }
    b.extend(r.max_buffers.to_le_bytes());
    b.extend((r.used.size as u64).to_le_bytes());
    b.extend((r.used.depth as u64).to_le_bytes());
    b.extend(r.end_time.to_le_bytes());
    b.extend(r.events.to_le_bytes());
}

fn rep_out(wall_ns: u64, ic_runs: &[TreeRun], non_runs: &[TreeRun]) -> RepOut {
    let mut b = Vec::new();
    for r in ic_runs.iter().chain(non_runs) {
        encode_run(&mut b, r);
    }
    let reached = |runs: &[TreeRun]| runs.iter().filter(|r| r.reached()).count() as u64;
    let mut out = RepOut {
        wall_ns,
        items: ic_runs.len() as u64,
        digest: fnv1a64(&b),
        ..RepOut::default()
    };
    out.counters.insert("trees", ic_runs.len() as u64);
    out.counters.insert("reached_ic", reached(ic_runs));
    out.counters.insert("reached_nonic", reached(non_runs));
    out.counters.insert(
        "events",
        ic_runs.iter().chain(non_runs).map(|r| r.events).sum(),
    );
    out
}

/// One protocol over the prepared trees, as `run_campaign_prepared` does
/// it, with a span around each layer call.
fn run_phase(
    tracer: &mut Tracer,
    phase: &'static str,
    prepared: &[PreparedTree],
    c: &CampaignConfig,
    make_config: fn(u64) -> SimConfig,
) -> Vec<TreeRun> {
    let ph = tracer.enter(phase, 0);
    let parent = tracer.current();
    let on = tracer.is_on();
    let runs = prepared
        .par_iter()
        .map_init(
            || (SimWorkspace::new(), Tracer::new(on, parent)),
            |(ws, t), p| {
                let item = p.index as u64;
                let tree_span = t.enter("campaign.tree", item);
                let tree = p.tree.clone();
                let e = t.enter("engine.run", item);
                let result = ws.run(tree, make_config(c.tasks));
                t.exit(e, result.events_processed);
                let s = t.enter("campaign.summarize", item);
                let run = summarize(p.index, &p.tree, &p.analysis, &result, c.onset);
                t.exit(s, 0);
                t.exit(tree_span, 0);
                run
            },
        )
        .collect();
    tracer.exit(ph, 0);
    runs
}

impl Workload for Paper {
    fn workers(&self) -> usize {
        rayon::current_num_threads()
    }

    fn nominal_rep_s(&self) -> f64 {
        1.05
    }

    fn public(&mut self, rep: u64) -> RepOut {
        let c = self.campaign(rep);
        let t0 = Instant::now();
        let prepared = c.prepare_all();
        let ic_runs = run_campaign_prepared(&prepared, &c, |t| {
            probe::stamp();
            ic(t)
        });
        let non_runs = run_campaign_prepared(&prepared, &c, |t| {
            probe::stamp();
            nonic(t)
        });
        let wall = t0.elapsed().as_nanos() as u64;
        rep_out(wall, &ic_runs, &non_runs)
    }

    fn decomposed(&mut self, rep: u64, tracer: &mut Tracer) -> RepOut {
        let c = self.campaign(rep);
        let t0 = Instant::now();
        let rep_span = tracer.enter(REP, rep);
        let ph = tracer.enter("phase.prepare", rep);
        let parent = tracer.current();
        let on = tracer.is_on();
        let prepared: Vec<PreparedTree> = (0..c.trees)
            .into_par_iter()
            .map_init(
                || Tracer::new(on, parent),
                |t, i| {
                    let item = t.enter("campaign.prepare", i as u64);
                    let g = t.enter("platform.generate", i as u64);
                    let tree = c.tree(i);
                    t.exit(g, 0);
                    let a = t.enter("steady.analyze", i as u64);
                    let analysis = SteadyState::analyze(&tree);
                    t.exit(a, 0);
                    t.exit(item, 0);
                    PreparedTree {
                        index: i,
                        tree,
                        analysis,
                    }
                },
            )
            .collect();
        tracer.exit(ph, 0);
        let ic_runs = run_phase(tracer, "phase.run_ic", &prepared, &c, ic);
        let non_runs = run_phase(tracer, "phase.run_nonic", &prepared, &c, nonic);
        tracer.exit(rep_span, 0);
        let wall = t0.elapsed().as_nanos() as u64;
        rep_out(wall, &ic_runs, &non_runs)
    }
}
