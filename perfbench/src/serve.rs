//! `serve_session`: one closed-loop client driving `bc_serve::Server`
//! in-process, line after line, as the `bc-serve` stdin loop does. Every
//! `JOURNAL_EVERY` lines the client saves `server.journal_bytes()` to a
//! checkpoint store, and that save is charged to the next request's
//! latency, as a pipe client would see it. Each repetition is a fresh
//! server running its own seed-generated script and ends by recovering
//! the last journal into a second server.

use crate::trace::{Tracer, REP};
use crate::workload::{RepOut, Workload};
use bc_engine::durability::fnv1a64;
use bc_engine::{CheckpointKind, CheckpointStore};
use bc_serve::Server;
use bc_simcore::split_seed;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `bc-serve --journal-every` default.
pub const JOURNAL_EVERY: u64 = 64;
/// `bc-serve`'s journal generations kept.
const JOURNAL_KEEP: usize = 4;

/// Script size knobs (the smoke test shrinks them).
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Sessions of each batch kind (IC, non-IC); arrivals, faulty and
    /// parked sessions scale with it.
    pub per_kind: usize,
    /// Tasks of a closed-batch session.
    pub tasks: u64,
    /// Largest random tree, in nodes (the smallest drawn is 3/4 of it).
    pub max_nodes: u64,
    /// Step / run-until / metrics rounds.
    pub rounds: usize,
    /// Events per `step` request.
    pub step_events: u64,
}

pub const FULL: Size = Size {
    per_kind: 4,
    tasks: 8_000,
    max_nodes: 120,
    rounds: 8,
    step_events: 2_000,
};

/// Tiny deterministic generator for script choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        split_seed(self.0, 0)
    }
    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Batch,
    Arrivals,
    Faulty,
    /// Stepped, then paused for good: it survives into the journal.
    Parked,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Live,
    Paused,
    Done,
}

struct Session {
    name: String,
    role: Role,
    state: State,
    /// Clock from the last progress line.
    t: u64,
}

/// The generated part of a repetition: session open lines and the
/// client's choices. The rest of the script follows from responses.
pub struct Plan {
    opens: Vec<(String, Role, String)>,
    rounds: usize,
    step_events: u64,
    rng: Rng,
}

fn random_tree(rng: &mut Rng, size: Size) -> String {
    format!(
        "{{\"random\":{{\"seed\":{},\"min_nodes\":10,\"max_nodes\":{},\"comm_min\":1,\"comm_max\":{},\"compute_scale\":{}}}}}",
        rng.next() >> 1,
        rng.range(size.max_nodes * 3 / 4, size.max_nodes),
        rng.range(5, 40),
        rng.range(50, 1_000),
    )
}

impl Plan {
    pub fn new(seed: u64, size: Size) -> Self {
        let mut rng = Rng(seed);
        let mut opens = Vec::new();
        let mut add = |name: String, role: Role, line: String| opens.push((name, role, line));
        let tasks = |rng: &mut Rng| rng.range(size.tasks * 3 / 4, size.tasks);
        for i in 0..size.per_kind {
            let tree = random_tree(&mut rng, size);
            let line = format!(
                "{{\"cmd\":\"open\",\"sim\":\"ic{i}\",\"tree\":{tree},\"protocol\":\"ic\",\"buffers\":{},\"tasks\":{}}}",
                rng.range(2, 3),
                tasks(&mut rng)
            );
            add(format!("ic{i}"), Role::Batch, line);
            let tree = random_tree(&mut rng, size);
            let line = format!(
                "{{\"cmd\":\"open\",\"sim\":\"nonic{i}\",\"tree\":{tree},\"protocol\":\"nonic\",\"buffers\":{},\"tasks\":{}}}",
                rng.range(1, 2),
                tasks(&mut rng)
            );
            add(format!("nonic{i}"), Role::Batch, line);
        }
        for i in 0..size.per_kind.div_ceil(2) {
            let tree = random_tree(&mut rng, size);
            let count = rng.range(size.tasks / 4, size.tasks / 2);
            let line = format!(
                "{{\"cmd\":\"open\",\"sim\":\"arr{i}\",\"tree\":{tree},\"protocol\":\"ic\",\"buffers\":2,\
                 \"arrivals\":{{\"seed\":{},\"queue_cap\":{},\"policy\":\"defer\",\"classes\":[\
                 {{\"name\":\"steady\",\"poisson\":{{\"mean_gap\":{},\"count\":{count}}}}},\
                 {{\"name\":\"burst\",\"units\":2,\"burst\":{{\"phase\":{},\"period\":{},\"size\":{},\"bursts\":{}}}}}]}}}}",
                rng.next() >> 1,
                rng.range(8, 32),
                rng.range(2, 8),
                rng.range(0, 100),
                rng.range(200, 800),
                rng.range(4, 16),
                rng.range(4, 12),
            );
            add(format!("arr{i}"), Role::Arrivals, line);
        }
        {
            let tree = random_tree(&mut rng, size);
            // Nodes 1..=9 exist in every tree (min_nodes is 10).
            let line = format!(
                "{{\"cmd\":\"open\",\"sim\":\"faulty\",\"tree\":{tree},\"protocol\":\"ic\",\"buffers\":2,\"tasks\":{},\
                 \"faults\":[{{\"kind\":\"outage\",\"at\":{},\"node\":{},\"duration\":{}}},\
                 {{\"kind\":\"crash\",\"at\":{},\"node\":{}}}],\"fault_seed\":{}}}",
                tasks(&mut rng),
                rng.range(100, 2_000),
                rng.range(1, 9),
                rng.range(50, 500),
                rng.range(2_000, 6_000),
                rng.range(1, 9),
                rng.next() >> 1,
            );
            add("faulty".into(), Role::Faulty, line);
        }
        for i in 0..size.per_kind.div_ceil(2) {
            let tree = random_tree(&mut rng, size);
            let line = format!(
                "{{\"cmd\":\"open\",\"sim\":\"park{i}\",\"tree\":{tree},\"protocol\":\"ic\",\"buffers\":3,\"tasks\":{}}}",
                2 * size.tasks
            );
            add(format!("park{i}"), Role::Parked, line);
        }
        Plan {
            opens,
            rounds: size.rounds,
            step_events: size.step_events,
            rng,
        }
    }
}

/// Raw text of `"key":value` in a response line (first occurrence): a
/// string without its quotes, or a bare number / literal.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn verb_span(verb: &str) -> &'static str {
    match verb {
        "open" => "serve.open",
        "step" => "serve.step",
        "run-until" => "serve.run-until",
        "snapshot" => "serve.snapshot",
        "restore" => "serve.restore",
        "pause" => "serve.pause",
        "resume" => "serve.resume",
        "metrics" => "serve.metrics",
        "status" => "serve.status",
        "run-all" => "serve.run-all",
        "close" => "serve.close",
        other => panic!("script sends no {other:?}"),
    }
}

/// The client: sends lines, times them, journals on the binary's cadence.
struct Client<'a> {
    server: Server,
    store: CheckpointStore,
    tracer: &'a mut Tracer,
    handled: u64,
    /// Journal time charged to the next request.
    charge_ns: u64,
    latencies_ns: Vec<u64>,
    line_digests: Vec<u8>,
    failed: u64,
    response_bytes: u64,
    journal_bytes: u64,
    last_journal: Vec<u8>,
}

impl Client<'_> {
    fn send(&mut self, verb: &str, line: &str) -> Vec<String> {
        let span = self.tracer.enter(verb_span(verb), self.handled);
        let t0 = Instant::now();
        let resp = self.server.handle_line(line);
        let took = t0.elapsed().as_nanos() as u64;
        let bytes: usize = resp.iter().map(|r| r.len() + 1).sum();
        self.tracer.exit(span, bytes as u64);
        self.latencies_ns
            .push(took + std::mem::take(&mut self.charge_ns));
        self.handled += 1;
        self.response_bytes += bytes as u64;
        let mut error = false;
        for r in &resp {
            self.line_digests
                .extend(fnv1a64(r.as_bytes()).to_le_bytes());
            error |= r.starts_with("{\"ev\":\"error\"");
        }
        self.failed += error as u64;
        if self.handled.is_multiple_of(JOURNAL_EVERY) {
            let t0 = Instant::now();
            self.journal();
            self.charge_ns = t0.elapsed().as_nanos() as u64;
        }
        resp
    }

    fn journal(&mut self) {
        let j = self.tracer.enter("serve.journal_bytes", self.handled);
        let bytes = self.server.journal_bytes();
        self.tracer.exit(j, bytes.len() as u64);
        let s = self.tracer.enter("durability.save", self.handled);
        self.store.save(&bytes).expect("journal save");
        self.tracer.exit(s, bytes.len() as u64);
        self.journal_bytes += bytes.len() as u64;
        self.last_journal = bytes;
    }

    /// Folds a progress/done response into the session's state.
    fn observe(sessions: &mut [Session], resp: &[String]) {
        for r in resp {
            let (Some(ev), Some(sim)) = (field(r, "ev"), field(r, "sim")) else {
                continue;
            };
            let Some(s) = sessions.iter_mut().find(|s| s.name == sim) else {
                continue;
            };
            match ev {
                "done" => s.state = State::Done,
                "stepped" | "ran" | "restored" | "resumed" | "opened" => {
                    if let Some(t) = field(r, "t").and_then(|t| t.parse().ok()) {
                        s.t = t;
                    }
                }
                _ => {}
            }
        }
    }
}

pub struct Serve {
    seed: u64,
    size: Size,
    scratch: PathBuf,
}

impl Serve {
    pub fn new(seed: u64, size: Size, scratch: &Path) -> Self {
        Serve {
            seed,
            size,
            scratch: scratch.to_path_buf(),
        }
    }

    pub fn plan(&self, rep: u64) -> Plan {
        Plan::new(split_seed(self.seed, rep), self.size)
    }

    /// A fixed small script (independent of the seed) through a
    /// throwaway server, so first-touch costs are paid before timing. It
    /// writes no file: set-up time should not hang on the disk.
    pub fn warm_up() {
        let mut server = Server::new();
        let open = r#"{"cmd":"open","sim":"w","tree":{"random":{"seed":7,"min_nodes":40,"max_nodes":60,"comm_min":1,"comm_max":9,"compute_scale":90}},"tasks":100000}"#;
        std::hint::black_box(server.handle_line(open));
        std::hint::black_box(server.handle_line(r#"{"cmd":"step","sim":"w","events":2000}"#));
        let snap = server.handle_line(r#"{"cmd":"snapshot","sim":"w"}"#);
        let hex = snap
            .iter()
            .find_map(|r| field(r, "bytes"))
            .expect("warm-up snapshot");
        let restore = format!(r#"{{"cmd":"restore","sim":"v","bytes":"{hex}"}}"#);
        std::hint::black_box(server.handle_line(&restore));
        for line in [
            r#"{"cmd":"pause","sim":"w"}"#,
            r#"{"cmd":"resume","sim":"w"}"#,
            r#"{"cmd":"run-all"}"#,
            r#"{"cmd":"status"}"#,
        ] {
            std::hint::black_box(server.handle_line(line));
        }
        std::hint::black_box(server.journal_bytes());
    }

    fn run(&mut self, rep: u64, tracer: &mut Tracer) -> RepOut {
        let mut plan = self.plan(rep);
        let dir = self.scratch.join(format!("journal-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let rep_span = tracer.enter(REP, rep);
        let store =
            CheckpointStore::open(&dir, "serve", CheckpointKind::ServeJournal, JOURNAL_KEEP)
                .expect("open journal store");
        let mut c = Client {
            server: Server::new(),
            store,
            tracer,
            handled: 0,
            charge_ns: 0,
            latencies_ns: Vec::new(),
            line_digests: Vec::new(),
            failed: 0,
            response_bytes: 0,
            journal_bytes: 0,
            last_journal: Vec::new(),
        };
        let mut sessions: Vec<Session> = Vec::new();
        for (name, role, line) in &plan.opens {
            sessions.push(Session {
                name: name.clone(),
                role: *role,
                state: State::Live,
                t: 0,
            });
            let resp = c.send("open", line);
            Client::observe(&mut sessions, &resp);
        }
        let mut copies = 0;
        for round in 0..plan.rounds {
            let events = plan.step_events;
            for k in 0..sessions.len() {
                if sessions[k].state != State::Live {
                    continue;
                }
                let name = sessions[k].name.clone();
                let resp = c.send(
                    "step",
                    &format!("{{\"cmd\":\"step\",\"sim\":\"{name}\",\"events\":{events}}}"),
                );
                Client::observe(&mut sessions, &resp);
                if round % 2 == 1 && sessions[k].state == State::Live {
                    let time = sessions[k].t + sessions[k].t / 8 + plan.rng.range(50, 500);
                    let resp = c.send(
                        "run-until",
                        &format!("{{\"cmd\":\"run-until\",\"sim\":\"{name}\",\"time\":{time}}}"),
                    );
                    Client::observe(&mut sessions, &resp);
                }
                let resp = c.send(
                    "metrics",
                    &format!("{{\"cmd\":\"metrics\",\"sim\":\"{name}\"}}"),
                );
                Client::observe(&mut sessions, &resp);
            }
            let live: Vec<usize> = (0..sessions.len())
                .filter(|&k| sessions[k].state == State::Live && sessions[k].role != Role::Parked)
                .collect();
            if round == 0 || round == 2 {
                // Snapshot a live session and restore it under a new name,
                // early while snapshots are small: parsing a request's JSON
                // string costs time quadratic in its length, so late
                // restores would swamp every other verb.
                for _ in 0..2 {
                    if live.is_empty() {
                        break;
                    }
                    let k = live[plan.rng.next() as usize % live.len()];
                    let name = sessions[k].name.clone();
                    let resp = c.send(
                        "snapshot",
                        &format!("{{\"cmd\":\"snapshot\",\"sim\":\"{name}\"}}"),
                    );
                    let hex = resp
                        .iter()
                        .find_map(|r| field(r, "bytes"))
                        .expect("snapshot response carries bytes")
                        .to_string();
                    let copy = format!("copy{copies}");
                    copies += 1;
                    sessions.push(Session {
                        name: copy.clone(),
                        role: Role::Batch,
                        state: State::Live,
                        t: 0,
                    });
                    let resp = c.send(
                        "restore",
                        &format!("{{\"cmd\":\"restore\",\"sim\":\"{copy}\",\"bytes\":\"{hex}\"}}"),
                    );
                    Client::observe(&mut sessions, &resp);
                }
            }
            if round % 2 == 1 {
                // Pause two live sessions and resume them at once.
                for _ in 0..2 {
                    if live.is_empty() {
                        break;
                    }
                    let k = live[plan.rng.next() as usize % live.len()];
                    if sessions[k].state != State::Live {
                        continue;
                    }
                    let name = sessions[k].name.clone();
                    c.send(
                        "pause",
                        &format!("{{\"cmd\":\"pause\",\"sim\":\"{name}\"}}"),
                    );
                    let resp = c.send(
                        "resume",
                        &format!("{{\"cmd\":\"resume\",\"sim\":\"{name}\"}}"),
                    );
                    Client::observe(&mut sessions, &resp);
                }
            }
            if round + 2 == plan.rounds {
                // Park: these stay paused into the journal.
                for s in sessions.iter_mut() {
                    if s.role == Role::Parked && s.state == State::Live {
                        let name = s.name.clone();
                        c.send(
                            "pause",
                            &format!("{{\"cmd\":\"pause\",\"sim\":\"{name}\"}}"),
                        );
                        s.state = State::Paused;
                    }
                }
            }
            c.send("status", "{\"cmd\":\"status\"}");
        }
        let resp = c.send("run-all", "{\"cmd\":\"run-all\"}");
        Client::observe(&mut sessions, &resp);
        let status = c.send("status", "{\"cmd\":\"status\"}");
        let pool = |key| {
            status
                .first()
                .and_then(|r| r.find("\"pool\":").map(|at| &r[at..]))
                .and_then(|p| field(p, key))
                .and_then(|v| v.parse::<u64>().ok())
                .expect("status reports the pool")
        };
        let (created, reused) = (pool("created"), pool("reused"));
        let names: Vec<String> = sessions.iter().map(|s| s.name.clone()).collect();
        for name in &names {
            c.send(
                "metrics",
                &format!("{{\"cmd\":\"metrics\",\"sim\":\"{name}\"}}"),
            );
        }
        let mut parked = Vec::new();
        for s in &sessions {
            if s.state == State::Paused {
                parked.push(s.name.clone());
            } else {
                let name = &s.name;
                c.send(
                    "close",
                    &format!("{{\"cmd\":\"close\",\"sim\":\"{name}\"}}"),
                );
            }
        }
        // Like the binary at end of input: one last journal generation,
        // then recovery of it into a fresh server.
        c.journal();
        let r = c.tracer.enter("serve.recover", rep);
        let mut recovered = Server::new();
        let report = recovered
            .recover_from_bytes(&c.last_journal)
            .expect("journal recovers");
        c.tracer.exit(r, c.last_journal.len() as u64);
        c.tracer.exit(rep_span, 0);
        let wall = t0.elapsed().as_nanos() as u64;

        parked.sort();
        let mut recovered_names = report.recovered.clone();
        recovered_names.sort();
        assert!(
            report.skipped.is_empty() && recovered_names == parked,
            "recovered {recovered_names:?} (skipped {:?}), expected {parked:?}",
            report.skipped
        );
        let inventory = recovered.handle_line("{\"cmd\":\"status\"}");
        let mut digest_bytes = c.line_digests;
        for r in &inventory {
            digest_bytes.extend(fnv1a64(r.as_bytes()).to_le_bytes());
        }
        let requests = c.handled;
        let mut out = RepOut {
            wall_ns: wall,
            items: requests,
            failed: c.failed,
            digest: fnv1a64(&digest_bytes),
            latencies_ns: c.latencies_ns,
            ..RepOut::default()
        };
        out.counters.insert("requests", requests);
        out.counters.insert("sessions", sessions.len() as u64);
        out.counters.insert("pool_created", created);
        out.counters.insert("pool_reused", reused);
        out.counters.insert("response_bytes", c.response_bytes);
        out.counters.insert("journal_bytes", c.journal_bytes);
        out.counters
            .insert("recovered", report.recovered.len() as u64);
        drop(c.store);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }
}

impl Workload for Serve {
    fn workers(&self) -> usize {
        1
    }

    fn nominal_rep_s(&self) -> f64 {
        0.16
    }

    fn public(&mut self, rep: u64) -> RepOut {
        self.run(rep, &mut Tracer::new(false, 0))
    }

    fn decomposed(&mut self, rep: u64, tracer: &mut Tracer) -> RepOut {
        self.run(rep, tracer)
    }
}
