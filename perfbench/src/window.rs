//! The measured window shared by every workload: iterations run back
//! to back until the window's time is used up, and the end-to-end
//! metrics derive from their latencies, CPU time and access counts.

use crate::metrics::Report;
use crate::util::{cpu_secs, median, peak_rss_mb, quantile, secs};
use std::time::Instant;

/// What a workload measures and how it is seeded.
#[derive(Debug)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Directory for this run's scratch files and span dump.
    pub out_dir: std::path::PathBuf,
}

/// Every window runs at least this many iterations.
const MIN_ITERS: u64 = 2;

/// Set-up batches per run: one before the window and the rest at even
/// points through it (a serve session, one long call, has them around
/// it). Spread so, set-up samples the host's speed over the whole run,
/// as the window's totals do.
pub const SETUP_BATCHES: usize = 5;

/// How long one set-up batch repeats the set-up.
const BATCH_SECS: f64 = 0.4;

/// The end-to-end view of one window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Simulated accesses executed in the window.
    pub accesses: u64,
    /// Completed requests of any kind.
    pub runs: u64,
    /// Latency of each run that executed simulation, in ms.
    pub run_ms: Vec<f64>,
    /// `VmHWM` in MiB once the first run completed: what one fresh
    /// `slip run` or `slip sweep` process peaks at. Serve sessions set
    /// it at the end of the window instead.
    pub peak_rss_mb: f64,
}

/// What a workload hands back for the shared reporting steps.
#[derive(Debug)]
pub struct Outcome {
    pub setup_s: f64,
    /// The window the end-to-end metrics come from (in a traced run,
    /// the traced half).
    pub window: Window,
    /// Traced ÷ untraced median run latency, in a traced run.
    pub overhead: Option<f64>,
    /// The stream the traced run's probe pass replays.
    pub probe: crate::layers::ProbeInput,
}

/// One iteration's contribution to a window.
#[derive(Debug)]
pub struct Iter {
    pub accesses: u64,
    pub run_ms: f64,
}

/// Runs `iteration(k)` for `k = 0, 1, ...` until `seconds` have passed
/// (and at least [`MIN_ITERS`] ran). Between iterations, once each time
/// another share of the window has passed, it calls `pause` (which
/// times a set-up batch) off the clock: neither its wall nor its CPU
/// time counts in the window.
pub fn measure(
    seconds: f64,
    mut iteration: impl FnMut(u64) -> Iter,
    mut pause: impl FnMut(),
) -> Window {
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let (mut paused_s, mut paused_cpu, mut pauses) = (0.0, 0.0, 0);
    let mut w = Window::default();
    let mut k = 0;
    while k < MIN_ITERS || secs(t0) - paused_s < seconds {
        let it = iteration(k);
        w.accesses += it.accesses;
        w.runs += 1;
        w.run_ms.push(it.run_ms);
        if k == 0 {
            w.peak_rss_mb = peak_rss_mb();
        }
        k += 1;
        let share = (pauses + 1) as f64 / SETUP_BATCHES as f64;
        if pauses + 1 < SETUP_BATCHES && secs(t0) - paused_s >= seconds * share {
            let (t, cpu) = (Instant::now(), cpu_secs());
            pause();
            paused_s += secs(t);
            paused_cpu += cpu_secs() - cpu;
            pauses += 1;
        }
    }
    w.wall_s = secs(t0) - paused_s;
    w.cpu_s = cpu_secs() - cpu0 - paused_cpu;
    w
}

/// The wall time of every set-up a run timed.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Repeats `setup` for [`BATCH_SECS`] (at least once), records the
    /// wall time of each repetition, and returns the last output. Each
    /// earlier output goes to `teardown`, untimed, before the next
    /// repetition starts, so memory peaks at one set-up's working set.
    pub fn batch<T>(&mut self, mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> T {
        let t0 = Instant::now();
        let mut last = None;
        while last.is_none() || secs(t0) < BATCH_SECS {
            if let Some(previous) = last.take() {
                teardown(previous);
            }
            let t = Instant::now();
            last = Some(setup());
            self.0.push(secs(t));
        }
        last.expect("at least one repetition")
    }

    /// `setup_s`: the median over every set-up of every batch. A
    /// millisecond-scale set-up (the server's) has a long tail of
    /// thread wake-up delays on a shared host, which a mean would
    /// follow and a median does not.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Sets every end-to-end metric from the set-up time and the window.
pub fn end_to_end(report: &mut Report, setup_s: f64, w: &Window) {
    report.set("setup_s", setup_s);
    report.set("sim_macc_per_s", w.accesses as f64 / w.wall_s / 1e6);
    report.set(
        "cpu_ns_per_access",
        w.cpu_s * 1e9 / w.accesses.max(1) as f64,
    );
    report.set("peak_rss_mb", w.peak_rss_mb);
    report.set("run_p50_ms", median(&w.run_ms));
    report.set("run_p90_ms", quantile(&w.run_ms, 0.9));
    report.set("runs_per_s", w.runs as f64 / w.wall_s);
}

/// Measures the workload's window. In a traced run (spans already on
/// for set-up) it measures half the window with spans off, then half
/// with spans on, and also returns the tracing overhead: the ratio of
/// the two median run latencies. The traced half is the one returned.
pub fn run(ctx: &Ctx, mut window: impl FnMut(f64) -> Window) -> (Window, Option<f64>) {
    if !ctx.traced {
        return (window(ctx.seconds), None);
    }
    crate::span::set_enabled(false);
    let plain = window(ctx.seconds / 2.0);
    crate::span::set_enabled(true);
    let traced = window(ctx.seconds / 2.0);
    eprintln!(
        "[perfbench] tracing overhead: run p50 {:.3} ms traced vs {:.3} ms untraced ({} vs {} runs)",
        median(&traced.run_ms),
        median(&plain.run_ms),
        traced.run_ms.len(),
        plain.run_ms.len()
    );
    let overhead = median(&traced.run_ms) / median(&plain.run_ms);
    (traced, Some(overhead))
}
