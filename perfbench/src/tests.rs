//! The benchmark's own checks: metric tables agree with BENCHMARK.json,
//! every printed name is legal, and each workload runs at a tiny size.

use super::*;
use crate::trace::{drain, ledger, Tracer};
use serde::Value;

fn benchmark_json() -> Value {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

/// The `keys` strings of every entry of the `section` array.
fn listed(json: &Value, section: &str, keys: &[&str]) -> Vec<Vec<String>> {
    let Some(Value::Array(entries)) = json.get(section) else {
        panic!("no {section} array");
    };
    entries
        .iter()
        .map(|e| keys.iter().map(|k| text(e, k)).collect())
        .collect()
}

fn legal_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn legal_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = benchmark_json();
    for (section, table) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let ours: Vec<Vec<String>> = table
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect();
        assert_eq!(listed(&json, section, &["name", "unit"]), ours, "{section}");
        for (name, unit) in table {
            assert!(legal_name(name), "illegal metric name {name:?}");
            assert!(legal_unit(unit), "illegal unit {unit:?}");
        }
    }
    let ours: Vec<Vec<String>> = Kind::ALL.iter().map(|k| vec![k.name().into()]).collect();
    assert_eq!(listed(&json, "workloads", &["name"]), ours);

    // Bounds are at most 0.25 and set-up time has the largest.
    let Some(Value::Array(e2e)) = json.get("end_to_end") else {
        panic!("no end_to_end array");
    };
    let bound = |e: &Value| match e.get("bound") {
        Some(Value::Float(b)) => *b,
        other => panic!("bound: {other:?}"),
    };
    let setup = e2e
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s");
    for e in e2e {
        assert!(bound(e) > 0.0 && bound(e) <= 0.25, "{e:?}");
        assert!(bound(e) <= bound(setup), "{e:?}");
    }
}

#[test]
fn per_layer_values_cover_the_table_and_are_finite() {
    let spans = Vec::new();
    let l = ledger(&spans, 1);
    let v = metrics::per_layer(&spans, &l, 0.0, &BTreeMap::new());
    for (name, _) in metrics::PER_LAYER {
        let x = v
            .get(*name)
            .unwrap_or_else(|| panic!("{name} not computed"));
        assert!(x.is_finite(), "{name} = {x}");
    }
}

/// Runs repetition 0 of `w` through the public entry point and traced, and
/// checks the digests agree and the ledger adds up.
fn smoke(mut w: Box<dyn Workload>) -> Vec<trace::Span> {
    drain();
    let public = w.public(0);
    let mut tracer = Tracer::new(true, 0);
    let traced = w.decomposed(0, &mut tracer);
    drop(tracer);
    assert!(public.items > 0);
    assert_eq!(public.failed, 0);
    assert_eq!(public.digest, traced.digest, "traced path diverged");
    let spans = drain();
    let l = ledger(&spans, w.workers());
    let busy: f64 = l.self_s.values().sum();
    let total = busy + l.idle_s + l.unaccounted_s;
    assert!(
        (total - l.capacity_s()).abs() < 1e-6 * l.capacity_s().max(1.0),
        "{l:?}"
    );
    assert!((0.0..1.0).contains(&l.unaccounted_frac()), "{l:?}");
    spans
}

fn scratch(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn names(spans: &[trace::Span]) -> std::collections::BTreeSet<&'static str> {
    spans.iter().map(|s| s.name).collect()
}

/// One test, so no other test drains the global span sink meanwhile.
#[test]
fn each_workload_runs_at_tiny_size() {
    let spans = smoke(Box::new(paper::Paper::new(7, 3, 300)));
    let seen = names(&spans);
    for layer in [
        "platform.generate",
        "steady.analyze",
        "engine.run",
        "campaign.summarize",
    ] {
        assert!(seen.contains(layer), "paper_campaign: no {layer} span");
    }

    let dir = scratch("grid");
    let spans = smoke(Box::new(grid::Grid::new(7, 1, &dir)));
    let seen = names(&spans);
    for layer in ["campaign.fold", "campaign.merge", "durability.save"] {
        assert!(seen.contains(layer), "grid_sweep: no {layer} span");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("serve");
    let tiny = serve::Size {
        per_kind: 1,
        tasks: 2_000,
        max_nodes: 20,
        rounds: 5,
        step_events: 200,
    };
    let spans = smoke(Box::new(serve::Serve::new(7, tiny, &dir)));
    let seen = names(&spans);
    for verb in metrics::VERBS {
        let name = format!("serve.{verb}");
        assert!(
            seen.contains(name.as_str()),
            "serve_session: no {name} span"
        );
    }
    assert!(seen.contains("serve.recover"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blocks_hold_enough_samples() {
    let reps = |n: usize, samples: usize| -> Vec<RepOut> {
        (0..n)
            .map(|_| RepOut {
                latencies_ns: vec![1; samples],
                ..RepOut::default()
            })
            .collect()
    };
    let few = reps(29, 60);
    assert_eq!(blocks(&few).len(), 1);
    let many = reps(94, 700);
    let b = blocks(&many);
    assert_eq!(b.len(), 10);
    assert_eq!(b.iter().map(|b| b.len()).sum::<usize>(), 94);
    assert!(b.iter().all(|b| b.len() * 700 >= 1_000));
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&args(
        "--workload grid_sweep --seed 9 --seconds 2 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (a.kind, a.seed, a.seconds, a.trace),
        (Kind::Grid, 9, 2.0, true)
    );
    for bad in [
        "",
        "--workload nope",
        "--workload grid_sweep --trace 2",
        "--workload grid_sweep --seconds 0",
        "--workload grid_sweep --bogus 1",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
    }
}
