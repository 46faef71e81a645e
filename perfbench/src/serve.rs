//! `serve-mixed`: an in-process `slip_serve::Server` on loopback,
//! driven in a closed loop by one client per CPU. Each client submits a
//! seeded sequence of small sweeps that mixes fresh runs (cells execute
//! and journals grow), runs sharing cells with the client's earlier
//! runs (cell dedup), and exact repeats of earlier runs (restored from
//! archived journals).

use crate::check::{against_pinned, digest};
use crate::layers::{self, Counts, ProbeInput};
use crate::metrics::Report;
use crate::span::span;
use crate::util::{median, nproc, ratio, secs, Rng};
use crate::window::{self, Ctx, Outcome, SetupTimes, Window, SETUP_BATCHES};
use sim_engine::experiments::suite::run_suite_cell;
use sim_engine::TraceMode;
use slip_serve::{client, Server, ServerConfig, SweepSpec};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use sweep_runner::json::Value;

/// The policies every submission sweeps: the baseline, SLIP+ABP and
/// both NUCA baselines, so this workload runs every layer a cell can
/// reach.
const POLICIES: [&str; 4] = ["baseline", "SLIP+ABP", "NuRAPID", "LRU-PEA"];

/// Submissions generated per client; far more than a window uses.
const PLAN_LEN: usize = 3_000;

/// Leading submissions of the first client whose results the pinned
/// digest covers (the first client's plan does not depend on how many
/// clients run).
const DIGEST_RUNS: usize = 6;

/// Executed cells, drawn from every client, re-run offline and
/// compared byte for byte.
const CHECK_CELLS: u64 = 8;

/// Streamed cell frames the traced run's probe parses.
const CAPTURED_FRAMES: usize = 64;

/// Completed runs after which the daemon's `VmHWM` is `peak_rss_mb`.
/// With the default trace cache budget the server keeps every fresh
/// run's streams, so its memory grows with the runs it has served; read
/// at the end of the window, it would grow with throughput, and a
/// faster server would look like a larger one.
const RSS_AT_RUNS: u64 = 400;

/// How a submission relates to the client's earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// Cells nobody has run.
    Fresh,
    /// Some cells of an earlier run plus new ones, at its length.
    Shared,
    /// An earlier run, verbatim.
    Repeat,
}

#[derive(Debug, Clone)]
struct Submission {
    kind: Kind,
    spec: SweepSpec,
}

/// Shape of a serve session.
#[derive(Debug, Clone, Copy)]
struct Shape {
    clients: usize,
    /// Accesses per cell are drawn from `accesses.0..accesses.1`.
    accesses: (u64, u64),
}

/// The serve-mixed session: one client per CPU, 40–60k accesses.
fn mixed_shape() -> Shape {
    Shape {
        clients: nproc(),
        accesses: (40_000, 60_000),
    }
}

/// Each client's submission sequence at `seed`. A client's plan
/// depends only on the seed and its index, and its streams sit in their
/// own residue class of trace lengths, so no two clients share a
/// `(benchmark, accesses)` stream, and no two non-repeat submissions of
/// one client do except where a shared run reuses cells on purpose.
fn plan(seed: u64, shape: Shape, len: usize) -> Vec<Vec<Submission>> {
    (0..shape.clients)
        .map(|c| client_plan(seed, c as u64, shape.accesses, len))
        .collect()
}

fn client_plan(seed: u64, client: u64, accesses: (u64, u64), len: usize) -> Vec<Submission> {
    // Kinds come in shuffled blocks of ten (five fresh, two shared,
    // three repeats), so every stretch of a plan mixes all three.
    const BLOCK: [Kind; 10] = [
        Kind::Fresh,
        Kind::Fresh,
        Kind::Fresh,
        Kind::Fresh,
        Kind::Fresh,
        Kind::Shared,
        Kind::Shared,
        Kind::Repeat,
        Kind::Repeat,
        Kind::Repeat,
    ];
    const STRIDE: u64 = 16;
    let mut rng = Rng::new(seed, 0x5e7e + client);
    let names = workloads::BENCHMARK_NAMES;
    let pick = |rng: &mut Rng| names[rng.below(names.len() as u64) as usize];
    let steps = (accesses.1 - accesses.0) / STRIDE;
    let spec = |benches: Vec<&str>, accesses| SweepSpec {
        benchmarks: benches.into_iter().map(str::to_owned).collect(),
        policies: POLICIES.iter().map(|p| (*p).to_owned()).collect(),
        accesses,
        warmup: 0,
        topology: None,
    };
    let mut used: HashSet<(&str, u64)> = HashSet::new();
    let mut plan: Vec<Submission> = Vec::with_capacity(len);
    let mut kinds = Vec::new();
    for i in 0..len {
        if i % BLOCK.len() == 0 {
            kinds = BLOCK.to_vec();
            rng.shuffle(&mut kinds);
            if i == 0 {
                // A client's first run has nothing to share or repeat.
                let f = kinds
                    .iter()
                    .position(|k| *k == Kind::Fresh)
                    .expect("block has fresh runs");
                kinds.swap(0, f);
            }
        }
        let earlier: Vec<&Submission> = plan.iter().filter(|s| s.kind != Kind::Repeat).collect();
        let sub = match kinds[i % BLOCK.len()] {
            Kind::Shared => {
                let source = earlier[rng.below(earlier.len() as u64) as usize];
                let accesses = source.spec.accesses;
                let benches = &source.spec.benchmarks;
                let old = benches[rng.below(benches.len() as u64) as usize].clone();
                (0..64)
                    .map(|_| pick(&mut rng))
                    .find(|b| !used.contains(&(*b, accesses)))
                    .map(|b| {
                        used.insert((b, accesses));
                        Submission {
                            kind: Kind::Shared,
                            spec: spec(vec![old.as_str(), b], accesses),
                        }
                    })
            }
            Kind::Repeat => Some(Submission {
                kind: Kind::Repeat,
                spec: earlier[rng.below(earlier.len() as u64) as usize]
                    .spec
                    .clone(),
            }),
            Kind::Fresh => None,
        };
        let sub = sub.unwrap_or_else(|| loop {
            let accesses = accesses.0 + STRIDE * rng.below(steps) + client % STRIDE;
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            let benches = if rng.below(2) == 0 || a == b {
                vec![a]
            } else {
                vec![a, b]
            };
            if benches.iter().all(|b| !used.contains(&(*b, accesses))) {
                used.extend(benches.iter().map(|b| (*b, accesses)));
                break Submission {
                    kind: Kind::Fresh,
                    spec: spec(benches, accesses),
                };
            }
        });
        plan.push(sub);
    }
    plan
}

/// One completed submission as a client saw it.
#[derive(Debug)]
struct Done {
    client: usize,
    index: usize,
    kind: Kind,
    spec: SweepSpec,
    latency_ms: f64,
    connect_ms: f64,
    first_cell_ms: Option<f64>,
    executed: u64,
    /// `(key, payload JSON)` in cell order.
    cells: Vec<(String, String)>,
}

/// Runs completed by every client of a session, and the daemon's
/// `VmHWM` when they reached [`RSS_AT_RUNS`].
#[derive(Debug, Default)]
struct Progress {
    runs: AtomicU64,
    rss_mb: OnceLock<f64>,
}

/// Drives one client's plan until `deadline`.
fn client_loop(
    addr: SocketAddr,
    c: usize,
    plan: &[Submission],
    deadline: Instant,
    progress: &Progress,
) -> (Vec<Done>, Vec<String>) {
    let mut done = Vec::new();
    let mut errors = Vec::new();
    for (index, sub) in plan.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let outcome = (|| -> std::io::Result<Done> {
            let mut stream = span("slip-serve.submit", index as u64, || {
                client::submit(addr, &sub.spec)
            })?;
            let connect_ms = secs(t) * 1e3;
            let mut cells = Vec::new();
            let mut first_cell_ms = None;
            span(
                "slip-serve.stream",
                index as u64,
                || -> std::io::Result<()> {
                    while let Some((_, key, payload)) = stream.next_cell()? {
                        first_cell_ms.get_or_insert_with(|| secs(t) * 1e3);
                        let json = span("sweep-runner.to_json", index as u64, || payload.to_json());
                        cells.push((key, json));
                    }
                    Ok(())
                },
            )?;
            let executed = stream.done().map_or(0, |d| d.executed);
            if cells.len() as u64 != stream.cells {
                return Err(std::io::Error::other(format!(
                    "run announced {} cells, streamed {}",
                    stream.cells,
                    cells.len()
                )));
            }
            Ok(Done {
                client: c,
                index,
                kind: sub.kind,
                spec: sub.spec.clone(),
                latency_ms: secs(t) * 1e3,
                connect_ms,
                first_cell_ms,
                executed,
                cells,
            })
        })();
        match outcome {
            Ok(d) => {
                done.push(d);
                if progress.runs.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_RUNS {
                    let _ = progress.rss_mb.set(crate::util::peak_rss_mb());
                }
            }
            Err(e) => errors.push(format!("client {c} submission {index}: {e}")),
        }
    }
    (done, errors)
}

/// A bound server, running on its own thread.
struct Running {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// The daemon `slip serve --jobs N` runs, one worker per CPU, with
/// every other setting at its default.
pub fn server_config(journal_dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(journal_dir);
    config.jobs = nproc();
    config.quiet = true;
    config
}

fn start(journal_dir: &Path) -> std::io::Result<Running> {
    let config = server_config(journal_dir);
    let server = span("slip-serve.bind", 0, || Server::bind(config))?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    // Ready once a request round-trips.
    span("slip-serve.stats", 0, || client::stats(addr))?;
    Ok(Running { addr, thread })
}

fn stop(running: Running) -> std::io::Result<Value> {
    let stats = span("slip-serve.stats", 0, || client::stats(running.addr));
    client::shutdown(running.addr)?;
    running
        .thread
        .join()
        .map_err(|_| std::io::Error::other("server thread panicked"))??;
    stats
}

/// What one session measured.
#[derive(Debug, Default)]
struct Session {
    window: Window,
    done: Vec<Done>,
    errors: Vec<String>,
    stats: Option<Value>,
    journal_bytes: u64,
    /// Per unique cell key: wall ms and exec mode, from the journals.
    journaled: BTreeMap<String, (f64, Option<String>)>,
}

/// Runs one session on a fresh server and journal directory.
fn session(dir: &Path, seed: u64, shape: Shape, seconds: f64) -> Session {
    let journal_dir = dir.join("journals");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let mut s = Session::default();
    let running = match start(&journal_dir) {
        Ok(r) => r,
        Err(e) => {
            s.errors.push(format!("server start: {e}"));
            return s;
        }
    };
    let plans = plan(seed, shape, PLAN_LEN);
    let cpu0 = crate::util::cpu_secs();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let addr = running.addr;
    let progress = &Progress::default();
    let per_client: Vec<(Vec<Done>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| scope.spawn(move || client_loop(addr, c, plan, deadline, progress)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    s.window.wall_s = secs(t0);
    s.window.cpu_s = crate::util::cpu_secs() - cpu0;
    // A session too short to reach the mark reads its end.
    s.window.peak_rss_mb = progress
        .rss_mb
        .get()
        .copied()
        .unwrap_or_else(crate::util::peak_rss_mb);
    for (done, errors) in per_client {
        s.done.extend(done);
        s.errors.extend(errors);
    }
    s.done.sort_by_key(|d| (d.client, d.index));
    s.window.runs = s.done.len() as u64;
    s.window.accesses = s.done.iter().map(|d| d.executed * d.spec.accesses).sum();
    s.window.run_ms = s
        .done
        .iter()
        .filter(|d| d.executed > 0)
        .map(|d| d.latency_ms)
        .collect();
    match stop(running) {
        Ok(stats) => s.stats = Some(stats),
        Err(e) => s.errors.push(format!("server stop: {e}")),
    }
    read_journals(&journal_dir, &mut s);
    let _ = std::fs::remove_dir_all(&journal_dir);
    s
}

/// Sizes the journals and reads each unique cell's wall time and
/// execution path from them.
fn read_journals(dir: &Path, s: &mut Session) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        s.journal_bytes += text.len() as u64;
        for line in text.lines() {
            let Ok(v) = Value::parse(line) else { continue };
            let (Some(key), Some(wall)) = (
                v.get("key").and_then(Value::as_str),
                v.get("wall_ms").and_then(Value::as_f64),
            ) else {
                continue;
            };
            let mode = v
                .get("metrics")
                .and_then(|m| m.get("exec_mode"))
                .and_then(Value::as_str)
                .map(str::to_owned);
            if mode.is_some() {
                s.journaled.entry(key.to_owned()).or_insert((wall, mode));
            }
        }
    }
}

impl Session {
    fn stat(&self, key: &str) -> f64 {
        self.stats
            .as_ref()
            .and_then(|v| v.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0) as f64
    }

    fn cache_stat(&self, key: &str) -> f64 {
        self.stats
            .as_ref()
            .and_then(|v| v.get("trace_cache"))
            .and_then(|c| c.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0) as f64
    }

    fn latencies(&self, pick: impl Fn(&Done) -> Option<f64>) -> Vec<f64> {
        self.done.iter().filter_map(pick).collect()
    }

    /// The `slip-serve` and journal metrics of this session; each reads
    /// 0 when the session has nothing it could come from.
    fn emit_serve(&self, report: &mut Report) {
        let median = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
        let executed = self.stat("cells_executed");
        let reused = self.stat("cells_deduped") + self.stat("cells_restored");
        report.set("slip-serve.reuse_ratio", ratio(reused, executed + reused));
        report.set("slip-serve.cells_executed", executed);
        report.set("slip-serve.runs_joined", self.stat("runs_joined"));
        report.set(
            "slip-serve.connect_ms",
            median(self.latencies(|d| Some(d.connect_ms))),
        );
        report.set(
            "slip-serve.first_cell_p50_ms",
            median(
                self.latencies(|d| (d.kind == Kind::Fresh).then_some(d.first_cell_ms).flatten()),
            ),
        );
        report.set(
            "slip-serve.dedup_run_p50_ms",
            median(self.latencies(|d| (d.kind == Kind::Repeat).then_some(d.latency_ms))),
        );
        report.set(
            "sweep-runner.journal_kb_per_run",
            ratio(
                self.journal_bytes as f64 / 1024.0,
                self.stat("runs_started"),
            ),
        );
    }

    /// Checks every streamed cell: a key always carries the same bytes
    /// (so dedup and journal restores return what execution produced),
    /// the pinned digest of the first client's first runs where the
    /// seed has one, and a seeded sample of executed cells from every
    /// client re-run offline.
    fn check(&self, workload: &str, seed: u64, report: &mut Report) {
        for e in &self.errors {
            report.check(false, || e.clone());
        }
        let mut by_key: HashMap<&str, &str> = HashMap::new();
        for d in &self.done {
            let mut ok = true;
            for (k, p) in &d.cells {
                ok &= *by_key.entry(k.as_str()).or_insert(p.as_str()) == p.as_str();
            }
            report.check(ok, || {
                format!(
                    "client {} run {}: a cell differs from an earlier copy",
                    d.client, d.index
                )
            });
        }
        let leading: Vec<&Done> = self
            .done
            .iter()
            .filter(|d| d.client == 0 && d.index < DIGEST_RUNS)
            .collect();
        if leading.len() < DIGEST_RUNS {
            report.check(false, || {
                format!(
                    "only {} of the {DIGEST_RUNS} digested runs completed",
                    leading.len()
                )
            });
        }
        let run_digest = digest(
            leading
                .iter()
                .flat_map(|d| d.cells.iter().map(|(k, p)| (k.as_str(), p.as_str()))),
        );
        eprintln!("[perfbench] {workload} seed {seed} digest {run_digest:#018x}");
        if let Some(pinned) = against_pinned(workload, seed, run_digest) {
            report.check(pinned.is_ok(), || pinned.unwrap_err());
        }
        let executed: Vec<&Done> = self.done.iter().filter(|d| d.executed > 0).collect();
        let mut rng = Rng::new(seed, 0xc4ec);
        for _ in 0..CHECK_CELLS.min(executed.len() as u64) {
            let d = executed[rng.below(executed.len() as u64) as usize];
            let i = rng.below(d.cells.len() as u64) as usize;
            let options = d.spec.suite_options().expect("planned specs resolve");
            let per_bench = options.policies.len();
            let (bench, policy) = (
                options.benchmarks[i / per_bench],
                options.policies[i % per_bench],
            );
            let (r, _) = span("sim-engine.run_suite_cell", 0, || {
                run_suite_cell(&options, bench, policy, TraceMode::Inline, None, 1)
            });
            let offline = crate::check::payload_json(&r, 0);
            report.check(offline == d.cells[i].1, || {
                format!(
                    "{}: streamed cell differs from its offline run",
                    d.cells[i].0
                )
            });
        }
    }
}

/// Sets the `slip-serve` and journal metrics of a workload that runs
/// no server: each reads 0.
pub fn emit_absent(report: &mut Report) {
    Session::default().emit_serve(report);
}

/// Times one batch of server set-ups, each from bind to the first
/// answered request. Shutdown is not set-up, so each server stops
/// untimed. Returns what went wrong.
fn setup_batch(times: &mut SetupTimes, scratch: &Path) -> Vec<String> {
    let mut errors = Vec::new();
    let mut stopped = |started: std::io::Result<Running>| {
        if let Err(e) = started.and_then(stop) {
            errors.push(format!("server set-up: {e}"));
        }
    };
    let last = times.batch(
        || {
            let _ = std::fs::remove_dir_all(scratch);
            start(scratch)
        },
        &mut stopped,
    );
    stopped(last);
    let _ = std::fs::remove_dir_all(scratch);
    errors
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Outcome {
    let shape = mixed_shape();
    let scratch: PathBuf = ctx.out_dir.join("setup");
    // The session is one long call, so set-up batches come around it.
    let mut setup_times = SetupTimes::default();
    let mut setup_errors = Vec::new();
    let before = SETUP_BATCHES.div_ceil(2);
    for _ in 0..before {
        setup_errors.extend(setup_batch(&mut setup_times, &scratch));
    }
    let mut last = None;
    let (w, overhead) = window::run(ctx, |seconds| {
        let s = session(&ctx.out_dir, ctx.seed, shape, seconds);
        let w = s.window.clone();
        last = Some(s);
        w
    });
    for _ in before..SETUP_BATCHES {
        setup_errors.extend(setup_batch(&mut setup_times, &scratch));
    }
    report.check(setup_errors.is_empty(), || setup_errors.join("; "));
    let s = last.expect("one session ran");
    s.check(ctx.workload, ctx.seed, report);
    eprintln!(
        "[perfbench] serve-mixed: {} runs ({} executed cells, {} fresh, {} shared, {} repeats), {} errors",
        s.done.len(),
        s.stat("cells_executed"),
        s.done.iter().filter(|d| d.kind == Kind::Fresh).count(),
        s.done.iter().filter(|d| d.kind == Kind::Shared).count(),
        s.done.iter().filter(|d| d.kind == Kind::Repeat).count(),
        s.errors.len()
    );

    s.emit_serve(report);
    let mut counts = Counts::default();
    let mut seen = HashSet::new();
    // Executed cells with the wall time their journal line records:
    // streamed payloads carry none.
    let mut costed = Vec::new();
    for d in &s.done {
        for (k, p) in &d.cells {
            if seen.insert(k.as_str()) {
                let r = Value::parse(p)
                    .ok()
                    .and_then(|v| sim_engine::codec::decode_result(&v));
                report.check(r.is_some(), || format!("{k}: payload does not decode"));
                if let Some(mut r) = r {
                    counts.add(&r);
                    if let Some((ms, _)) = s.journaled.get(k) {
                        r.wall_time_secs = ms / 1e3;
                        costed.push(r);
                    }
                }
            }
        }
    }
    counts.emit(report);
    report.set(
        "workloads.trace_mb",
        s.cache_stat("resident_bytes") / (1 << 20) as f64,
    );
    report.set(
        "sim-engine.trace_cache_hit_ratio",
        ratio(
            s.cache_stat("hits"),
            s.cache_stat("hits") + s.cache_stat("misses"),
        ),
    );
    layers::emit_exec_modes(report, s.journaled.values().map(|(_, m)| m.as_deref()));
    layers::emit_cell_costs(report, &costed);
    let cell_s: f64 = s.journaled.values().map(|(ms, _)| ms / 1e3).sum();
    report.set(
        "sweep-runner.parallel_efficiency",
        cell_s / (nproc() as f64 * s.window.wall_s),
    );
    // The probe replays the first client's first run's first stream.
    let first = &plan(ctx.seed, shape, 1)[0][0].spec;
    let bench = workloads::BENCHMARK_NAMES
        .into_iter()
        .find(|b| *b == first.benchmarks[0])
        .expect("plans name known benchmarks");
    Outcome {
        setup_s: setup_times.median(),
        window: w,
        overhead,
        probe: ProbeInput {
            bench,
            seed: sim_engine::SystemConfig::paper_45nm(sim_engine::PolicyKind::Baseline).seed,
            len: first.accesses,
            nuca: true,
            frames: s
                .done
                .iter()
                .flat_map(|d| d.cells.iter())
                .take(CAPTURED_FRAMES)
                .enumerate()
                .filter_map(|(i, (k, p))| {
                    Some(layers::cell_frame(i as u64, k, Value::parse(p).ok()?))
                })
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::Fnv;

    /// Digest helper for the generator test: the plan's shape, not timing.
    fn plan_fingerprint(plans: &[Vec<Submission>]) -> u64 {
        plans
            .iter()
            .flatten()
            .fold(Fnv::new(), |h, s| h.field(&s.spec.to_value().to_json()))
            .finish()
    }

    #[test]
    fn shrunken_sessions_repeat_exactly() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("serve-test-{}", std::process::id()));
        let shape = Shape {
            clients: 1,
            accesses: (5_000, 8_000),
        };
        let leading = |s: &Session| -> Vec<(String, String)> {
            assert!(s.errors.is_empty(), "{:?}", s.errors);
            s.done
                .iter()
                .filter(|d| d.index < 4)
                .flat_map(|d| d.cells.clone())
                .collect()
        };
        let first = session(&dir, 9, shape, 0.3);
        let second = session(&dir, 9, shape, 0.3);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(first.done.iter().filter(|d| d.index < 4).count(), 4);
        assert_eq!(leading(&first), leading(&second));
        let mut counts = [Counts::default(), Counts::default()];
        for (c, s) in counts.iter_mut().zip([&first, &second]) {
            for (_, p) in leading(s) {
                let v = Value::parse(&p).expect("payload JSON");
                c.add(&sim_engine::codec::decode_result(&v).expect("payload decodes"));
            }
        }
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn every_seed_mixes_fresh_shared_and_repeat_runs() {
        for seed in [0, 1, 2, 3, 17, 12345, u64::MAX] {
            for clients in [1, 2, 4] {
                let shape = Shape {
                    clients,
                    accesses: (40_000, 60_000),
                };
                let plans = plan(seed, shape, 40);
                for p in &plans {
                    assert_eq!(p[0].kind, Kind::Fresh, "a client starts with a fresh run");
                    for kind in [Kind::Fresh, Kind::Shared, Kind::Repeat] {
                        assert!(
                            p[..10].iter().any(|s| s.kind == kind),
                            "seed {seed}: no {kind:?} run among a client's first ten"
                        );
                    }
                    for (i, s) in p.iter().enumerate() {
                        let earlier = &p[..i];
                        match s.kind {
                            Kind::Repeat => assert!(earlier.iter().any(|e| e.spec == s.spec)),
                            Kind::Shared => assert!(earlier.iter().any(|e| {
                                e.spec.accesses == s.spec.accesses
                                    && e.spec.benchmarks.contains(&s.spec.benchmarks[0])
                            })),
                            Kind::Fresh => assert!(!earlier.iter().any(|e| e.spec == s.spec)),
                        }
                        assert!((40_000..60_000).contains(&s.spec.accesses));
                    }
                }
                assert_eq!(
                    plan_fingerprint(&plans),
                    plan_fingerprint(&plan(seed, shape, 40))
                );
                let alone = Shape {
                    clients: 1,
                    ..shape
                };
                assert_eq!(
                    plan_fingerprint(&plans[..1]),
                    plan_fingerprint(&plan(seed, alone, 40))
                );
                let streams: HashSet<(String, u64)> = plans
                    .iter()
                    .flatten()
                    .filter(|s| s.kind == Kind::Fresh)
                    .flat_map(|s| {
                        s.spec
                            .benchmarks
                            .iter()
                            .map(|b| (b.clone(), s.spec.accesses))
                    })
                    .collect();
                let fresh_cells: usize = plans
                    .iter()
                    .flatten()
                    .filter(|s| s.kind == Kind::Fresh)
                    .map(|s| s.spec.benchmarks.len())
                    .sum();
                assert_eq!(
                    streams.len(),
                    fresh_cells,
                    "fresh runs never share a stream"
                );
            }
        }
    }
}
