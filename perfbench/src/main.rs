//! The repository benchmark. One workload per process:
//!
//! ```text
//! perfbench --workload <paper_campaign|grid_sweep|serve_session>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs through the public entry points and the
//! last stdout line carries the end-to-end metrics. With `--trace 1` it
//! alternates public-entry-point and traced repetitions over the same inputs,
//! and the last line carries the per-layer metrics of the traced ones.
//! Full results (host, seeds, digests, ledger) go to `out/`, and the
//! spans of a traced run to `out/*-spans.jsonl`. See README.md.

mod calib;
mod grid;
mod metrics;
mod paper;
mod serve;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, probe, quantile, Tracer};
use workload::{RepOut, Workload};

/// Seed whose repetition-0 digests are pinned in [`REFERENCE`].
pub const DEFAULT_SEED: u64 = 2003;
/// Campaign worker threads.
pub const WORKERS: usize = 2;
/// Set-up is repeated this many times and its median reported.
const SETUP_REPEATS: usize = 5;
/// A run measures at least this many repetitions (pairs when traced).
const MIN_REPS: u64 = 2;

/// Repetitions that fill `seconds` at the workload's nominal pace.
fn rep_count(w: &dyn Workload, seconds: f64) -> u64 {
    ((seconds / w.nominal_rep_s()).round() as u64).max(MIN_REPS)
}

/// Repetition-0 output digests for [`DEFAULT_SEED`] at full size
/// (`fnv1a64`; see each workload's `rep_out` for what is hashed).
const REFERENCE: [(&str, u64); 3] = [
    ("paper_campaign", 0xc2b3_e852_007c_a0c5),
    ("grid_sweep", 0xee68_e2ac_39e6_90d4),
    ("serve_session", 0x1372_fbf0_325b_7542),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Paper,
    Grid,
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Paper, Kind::Grid, Kind::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper_campaign",
            Kind::Grid => "grid_sweep",
            Kind::Serve => "serve_session",
        }
    }
}

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where results and scratch directories live.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Builds the workload's inputs, its scratch directory and warms it up.
pub fn setup(kind: Kind, seed: u64, scratch: &Path) -> Box<dyn Workload> {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).expect("create scratch directory");
    rayon::ThreadPoolBuilder::new()
        .num_threads(WORKERS)
        .build_global()
        .expect("set worker count");
    match kind {
        Kind::Paper => {
            paper::Paper::warm_up();
            Box::new(paper::Paper::new(seed, paper::TREES_PER_REP, paper::TASKS))
        }
        Kind::Grid => {
            grid::Grid::warm_up();
            Box::new(grid::Grid::new(seed, grid::TREES_PER_CELL, scratch))
        }
        Kind::Serve => {
            serve::Serve::warm_up();
            let s = serve::Serve::new(seed, serve::FULL, scratch);
            std::hint::black_box(s.plan(0));
            Box::new(s)
        }
    }
}

/// Everything a run measured.
#[derive(Default)]
struct Measured {
    reps: Vec<RepOut>,
    /// Traced repetitions (trace mode only), paired with `reps`.
    traced: Vec<RepOut>,
    /// Calibration kernel times, about one per second of measurement.
    calibration_s: Vec<f64>,
    errors: Vec<String>,
}

/// Repetitions through the public entry point for about `seconds`; then
/// repetition 0 again along the untraced decomposed path, whose digest
/// must match.
fn measure_public(w: &mut dyn Workload, seconds: f64) -> Measured {
    let mut m = Measured::default();
    probe::take_gaps();
    let mut last_calibration: Option<Instant> = None;
    for rep in 0..rep_count(w, seconds) {
        if last_calibration.is_none_or(|t| t.elapsed().as_secs_f64() >= 1.0) {
            m.calibration_s.push(calib::calibrate(w.workers()));
            last_calibration = Some(Instant::now());
        }
        let mut out = w.public(rep);
        if out.latencies_ns.is_empty() {
            out.latencies_ns = probe::take_gaps();
        }
        m.reps.push(out);
    }
    let check = w.decomposed(0, &mut Tracer::new(false, 0));
    if check.digest != m.reps[0].digest {
        m.errors.push(format!(
            "decomposed path digest {:016x} != public entry point {:016x} on repetition 0",
            check.digest, m.reps[0].digest
        ));
    }
    m
}

/// Public and traced repetitions over the same inputs for about
/// `seconds`, alternating which runs first, each order equally often
/// (the second run of an input tends to be the faster one).
fn measure_traced(w: &mut dyn Workload, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let mut tracer = Tracer::new(true, 0);
    trace::drain();
    let pairs = rep_count(w, seconds / 2.0).next_multiple_of(2);
    for rep in 0..pairs {
        let (public, traced) = if rep % 2 == 0 {
            let p = w.public(rep);
            (p, w.decomposed(rep, &mut tracer))
        } else {
            let t = w.decomposed(rep, &mut tracer);
            (w.public(rep), t)
        };
        if public.digest != traced.digest {
            m.errors.push(format!(
                "repetition {rep}: traced digest {:016x} != public entry point {:016x}",
                traced.digest, public.digest
            ));
        }
        m.reps.push(public);
        m.traced.push(traced);
    }
    drop(tracer);
    probe::take_gaps();
    m
}

/// Splits the repetitions into at most `MAX_BLOCKS` contiguous blocks of
/// about `BLOCK_SAMPLES` latency samples or more (so a block's p99 has 10
/// beyond it). Reporting the median over blocks keeps
/// a burst of interference in one block from moving the run's figures.
fn blocks(reps: &[RepOut]) -> Vec<&[RepOut]> {
    const BLOCK_SAMPLES: usize = 1_000;
    const MAX_BLOCKS: usize = 10;
    let samples: usize = reps.iter().map(|r| r.latencies_ns.len()).sum();
    let n = (samples / BLOCK_SAMPLES)
        .clamp(1, MAX_BLOCKS)
        .min(reps.len());
    (0..n)
        .map(|i| &reps[i * reps.len() / n..(i + 1) * reps.len() / n])
        .collect()
}

/// Peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model, workers and seeds, as a JSON object.
fn host_record(args: &Args, workers: usize, reps: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":\"{cpu}\",\"workers\":{workers},\"seed\":{},\"repetition_seeds\":\"split_seed(seed, 0..{reps})\"}}",
        args.seed
    )
}

fn sum_counters(reps: &[RepOut]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for r in reps {
        for (k, v) in &r.counters {
            *out.entry(*k).or_default() += v;
        }
    }
    out
}

fn json_map<K: std::fmt::Display>(m: &BTreeMap<K, f64>) -> String {
    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for k in 0..SETUP_REPEATS {
        let t0 = if k == 0 { started } else { Instant::now() };
        let args = match parse_args(&argv) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: perfbench --workload <paper_campaign|grid_sweep|serve_session> \
                     --seed N --seconds S --trace 0|1"
                );
                return ExitCode::from(2);
            }
        };
        let scratch = out_dir().join(format!(
            "scratch-{}-{}",
            args.kind.name(),
            std::process::id()
        ));
        let w = setup(args.kind, args.seed, &scratch);
        setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some((args, w, scratch));
    }
    let (args, mut w, scratch) = prepared.expect("set-up ran");
    let kind = args.kind;
    let workers = w.workers();

    let m = if args.trace {
        measure_traced(w.as_mut(), args.seconds)
    } else {
        measure_public(w.as_mut(), args.seconds)
    };
    let spans = if args.trace {
        trace::drain()
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_dir_all(&scratch);

    // Output checks.
    let mut errors = m.errors;
    let reference = REFERENCE
        .iter()
        .find(|(n, _)| *n == kind.name())
        .map(|r| r.1);
    if args.seed == DEFAULT_SEED {
        let got = m.reps[0].digest;
        if reference != Some(got) {
            errors.push(format!(
                "repetition 0 digest {got:016x} != reference {:016x}",
                reference.unwrap_or(0)
            ));
        }
    }
    let failed: u64 = m.reps.iter().chain(&m.traced).map(|r| r.failed).sum();
    if failed > 0 {
        errors.push(format!("{failed} operations failed"));
    }
    let correct = errors.is_empty();
    let measured = if args.trace { &m.traced } else { &m.reps };
    let attempted: u64 = measured.iter().map(|r| r.items).sum::<u64>().max(1);
    let failed = if correct {
        measured.iter().map(|r| r.failed).sum()
    } else {
        attempted
    };

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut detail = String::new();
    if args.trace {
        let l = trace::ledger(&spans, workers);
        let wall = |reps: &[RepOut]| reps.iter().map(|r| r.wall_ns as f64).sum::<f64>();
        let overhead = wall(&m.traced) / wall(&m.reps) - 1.0;
        let counters = sum_counters(&m.traced);
        values = metrics::per_layer(&spans, &l, overhead, &counters);
        let _ = write!(
            detail,
            ",\"ledger\":{{\"workers\":{},\"traced_wall_s\":{},\"capacity_s\":{},\"self_s\":{},\"idle_s\":{},\"unaccounted_s\":{}}}",
            l.workers,
            l.wall_s,
            l.capacity_s(),
            json_map(&l.self_s),
            l.idle_s,
            l.unaccounted_s
        );
        let path = out_dir().join(format!("{}-seed{}-spans.jsonl", kind.name(), args.seed));
        let body: String = spans.iter().map(|s| trace::span_json(s) + "\n").collect();
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    } else {
        let blocks = blocks(&m.reps);
        let per_block =
            |f: &dyn Fn(&[RepOut]) -> f64| median(&blocks.iter().map(|b| f(b)).collect::<Vec<_>>());
        let latencies = |b: &[RepOut]| -> Vec<u64> {
            b.iter()
                .flat_map(|r| r.latencies_ns.iter().copied())
                .collect()
        };
        let raw = [
            (
                "items_per_s",
                per_block(&|b| {
                    let items: u64 = b.iter().map(|r| r.items).sum();
                    let wall_ns: u64 = b.iter().map(|r| r.wall_ns).sum();
                    items as f64 / (wall_ns as f64 * 1e-9)
                }),
            ),
            (
                "item_p50_ms",
                per_block(&|b| quantile(&latencies(b), 0.50) * 1e-6),
            ),
            (
                "item_p99_ms",
                per_block(&|b| quantile(&latencies(b), 0.99) * 1e-6),
            ),
        ];
        let samples: usize = m.reps.iter().map(|r| r.latencies_ns.len()).sum();
        // Host speed relative to the reference: > 1 when faster.
        let speed = calib::REFERENCE_S / median(&m.calibration_s);
        values.insert("setup_s".into(), median(&setup_s));
        values.insert("items_per_ref_s".into(), raw[0].1 / speed);
        values.insert("item_p50_ref_ms".into(), raw[1].1 * speed);
        values.insert("item_p99_ref_ms".into(), raw[2].1 * speed);
        values.insert("peak_rss_mb".into(), peak_rss_mb());
        let _ = write!(
            detail,
            ",\"raw\":{},\"host_speed\":{speed},\"calibration_s\":{:?},\"blocks\":{},\"latency_samples\":{samples},\"setup_samples_s\":{:?}",
            json_map(&raw.into_iter().collect()),
            m.calibration_s,
            blocks.len(),
            setup_s
        );
    }
    let walls: Vec<f64> = measured.iter().map(|r| r.wall_ns as f64 * 1e-9).collect();
    let digests: Vec<String> = measured
        .iter()
        .map(|r| format!("\"{:016x}\"", r.digest))
        .collect();
    let counters = sum_counters(measured);
    let counters: BTreeMap<&str, f64> = counters.iter().map(|(k, v)| (*k, *v as f64)).collect();
    let results = format!(
        "{{\"workload\":\"{}\",\"trace\":{},\"seconds\":{},\"host\":{},\"correct\":{correct},\"errors\":{:?},\"repetitions\":{},\"wall_s\":{:?},\"digests\":[{}],\"counters\":{},\"metrics\":{}{detail}}}\n",
        kind.name(),
        args.trace as u8,
        args.seconds,
        host_record(&args, workers, measured.len()),
        errors,
        measured.len(),
        walls,
        digests.join(","),
        json_map(&counters),
        json_map(&values),
    );
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        kind.name(),
        args.seed,
        args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, &results) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    eprintln!("host: {}", host_record(&args, workers, measured.len()));

    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values[*name];
            eprintln!("{:>34} {v:>16.6} {unit}", name);
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
