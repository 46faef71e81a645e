//! In-memory spans around the harness's calls into each layer.
//!
//! A span is named `<crate>.<call>`; its layer is the crate prefix.
//! Spans nest per thread (the innermost open span is the parent), carry
//! the workload iteration that caused them, and are written out once,
//! when the run ends. With tracing off, [`span`] only runs its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static WORK: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub iter: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer: everything before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(l, _)| l)
    }

    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` for workload iteration `iter`.
pub fn span<T>(name: &'static str, iter: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied();
        o.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    OPEN.with(|o| o.borrow_mut().pop());
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        name,
        iter,
        start_ns,
        end_ns,
    });
    out
}

/// Runs `f` inside a span that did `units` units of work (accesses,
/// calls, parses), so [`per_unit`] can turn span time into a cost per
/// unit.
pub fn span_work<T>(name: &'static str, iter: u64, units: u64, f: impl FnOnce() -> T) -> T {
    if enabled() {
        *WORK
            .lock()
            .expect("work store poisoned")
            .entry(name)
            .or_default() += units;
    }
    span(name, iter, f)
}

/// Seconds per unit of work over every span named `name`, or `None`
/// when no such span did any work.
pub fn per_unit(spans: &[Span], name: &str) -> Option<f64> {
    let units = WORK
        .lock()
        .expect("work store poisoned")
        .get(name)
        .copied()?;
    (units > 0).then(|| total_secs(spans, name) / units as f64)
}

/// Every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Total seconds spent in spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Self time per layer: each span's duration minus the time its
/// direct children cover (children of one span never overlap, since
/// they run one after another on the span's thread).
pub fn self_secs(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_secs: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_secs.entry(p).or_default() += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.layer()).or_default() += own.max(0.0);
    }
    out
}

/// Writes spans as tab-separated `id parent iter name start_ns end_ns`.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\titer\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.map_or(0, |p| p),
            s.iter,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            iter: 0,
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk(2, Some(1), "cache-sim.access", 100, 400),
            mk(3, Some(1), "cache-sim.access", 500, 600),
            mk(1, None, "sim-engine.run", 0, 1_000),
        ];
        let selfs = self_secs(&spans);
        assert!((selfs["sim-engine"] - 600e-9).abs() < 1e-15);
        assert!((selfs["cache-sim"] - 400e-9).abs() < 1e-15);
    }
}
