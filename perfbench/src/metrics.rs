//! Metric names and units, as listed in `BENCHMARK.json`, and the
//! per-layer values computed from a traced run's spans.

use crate::trace::{layer_stats, Ledger, Span};
use std::collections::BTreeMap;

/// Printed with `--trace 0`, by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_ref_s", "1/s"),
    ("item_p50_ref_ms", "ms"),
    ("item_p99_ref_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Serve verbs timed around `Server::handle_line`.
pub const VERBS: [&str; 11] = [
    "open",
    "step",
    "run-until",
    "snapshot",
    "restore",
    "pause",
    "resume",
    "metrics",
    "status",
    "run-all",
    "close",
];

/// Printed with `--trace 1`, by every workload (layers a workload does
/// not call read 0).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("platform.generate.calls", "count"),
    ("platform.generate.busy_s", "s"),
    ("steady.analyze.calls", "count"),
    ("steady.analyze.busy_s", "s"),
    ("steady.analyze.p50_us", "us"),
    ("steady.analyze.p99_us", "us"),
    ("engine.run.calls", "count"),
    ("engine.run.busy_s", "s"),
    ("engine.run.events", "count"),
    ("engine.run.events_per_busy_s", "1/s"),
    ("engine.run.p99_ms", "ms"),
    ("campaign.summarize.calls", "count"),
    ("campaign.summarize.busy_s", "s"),
    ("campaign.summarize.p99_us", "us"),
    ("campaign.fold.busy_s", "s"),
    ("campaign.merge.busy_s", "s"),
    ("campaign.worker_idle_s", "s"),
    ("durability.save.calls", "count"),
    ("durability.save.busy_s", "s"),
    ("durability.save.bytes", "bytes"),
    ("durability.save.p99_ms", "ms"),
    ("serve.open.calls", "count"),
    ("serve.open.busy_s", "s"),
    ("serve.open.p99_us", "us"),
    ("serve.step.calls", "count"),
    ("serve.step.busy_s", "s"),
    ("serve.step.p99_us", "us"),
    ("serve.run-until.calls", "count"),
    ("serve.run-until.busy_s", "s"),
    ("serve.run-until.p99_us", "us"),
    ("serve.snapshot.calls", "count"),
    ("serve.snapshot.busy_s", "s"),
    ("serve.snapshot.p99_us", "us"),
    ("serve.restore.calls", "count"),
    ("serve.restore.busy_s", "s"),
    ("serve.restore.p99_us", "us"),
    ("serve.pause.calls", "count"),
    ("serve.pause.busy_s", "s"),
    ("serve.pause.p99_us", "us"),
    ("serve.resume.calls", "count"),
    ("serve.resume.busy_s", "s"),
    ("serve.resume.p99_us", "us"),
    ("serve.metrics.calls", "count"),
    ("serve.metrics.busy_s", "s"),
    ("serve.metrics.p99_us", "us"),
    ("serve.status.calls", "count"),
    ("serve.status.busy_s", "s"),
    ("serve.status.p99_us", "us"),
    ("serve.run-all.calls", "count"),
    ("serve.run-all.busy_s", "s"),
    ("serve.run-all.p99_us", "us"),
    ("serve.close.calls", "count"),
    ("serve.close.busy_s", "s"),
    ("serve.close.p99_us", "us"),
    ("serve.journal_bytes.calls", "count"),
    ("serve.journal_bytes.busy_s", "s"),
    ("serve.journal_bytes.bytes", "bytes"),
    ("serve.recover.busy_s", "s"),
    ("serve.pool.reuse_frac", "frac"),
    ("serve.response_bytes", "bytes/req"),
    ("ledger.unaccounted_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer values of a traced run. `counters` are the traced
/// repetitions' summed outcome counters.
pub fn per_layer(
    spans: &[Span],
    ledger: &Ledger,
    overhead_frac: f64,
    counters: &BTreeMap<&'static str, u64>,
) -> BTreeMap<String, f64> {
    let stats = layer_stats(spans);
    let mut v = BTreeMap::new();
    // Every statistic of every layer; the table picks the ones printed.
    let layers = [
        "platform.generate",
        "steady.analyze",
        "engine.run",
        "campaign.summarize",
        "campaign.fold",
        "campaign.merge",
        "durability.save",
        "serve.journal_bytes",
        "serve.recover",
    ];
    let verbs = VERBS.iter().map(|verb| format!("serve.{verb}"));
    for name in layers.iter().map(|s| s.to_string()).chain(verbs) {
        let s = stats.get(name.as_str()).map(|s| {
            (
                s.calls() as f64,
                s.busy_s(),
                s.quantile_ns(0.5),
                s.quantile_ns(0.99),
                s.value as f64,
            )
        });
        let (calls, busy, p50, p99, value) = s.unwrap_or_default();
        v.insert(format!("{name}.calls"), calls);
        v.insert(format!("{name}.busy_s"), busy);
        v.insert(format!("{name}.p50_us"), p50 * 1e-3);
        v.insert(format!("{name}.p99_us"), p99 * 1e-3);
        v.insert(format!("{name}.p99_ms"), p99 * 1e-6);
        v.insert(format!("{name}.bytes"), value);
        if name == "engine.run" {
            v.insert("engine.run.events".into(), value);
            v.insert("engine.run.events_per_busy_s".into(), ratio(value, busy));
        }
    }
    v.insert("campaign.worker_idle_s".into(), ledger.idle_s);
    let c = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    v.insert(
        "serve.pool.reuse_frac".into(),
        ratio(c("pool_reused"), c("pool_created") + c("pool_reused")),
    );
    v.insert(
        "serve.response_bytes".into(),
        ratio(c("response_bytes"), c("requests")),
    );
    v.insert("ledger.unaccounted_frac".into(), ledger.unaccounted_frac());
    v.insert("trace.overhead_frac".into(), overhead_frac);
    v
}
