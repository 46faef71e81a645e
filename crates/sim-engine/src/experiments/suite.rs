//! Shared experiment driver: runs a set of benchmarks under a set of
//! policies once and exposes the results to the per-figure formatters.
//!
//! Cells execute on the [`sweep_runner`] engine: one job per
//! `(benchmark, policy)` cell, drained by a worker pool
//! ([`SweepConfig::jobs`]), optionally journaled for checkpoint/resume
//! ([`SweepConfig::journal`]). Each cell builds its own seeded
//! [`SystemConfig`], so results are independent of execution order and
//! a parallel sweep is bit-identical to a serial one.

use crate::codec;
use crate::config::{PolicyKind, SystemConfig};
use crate::env;
use crate::result::SimResult;
use crate::system::run_workload_with_warmup;
use crate::trace_cache::{TraceCacheStats, TraceKey, TraceLru, TraceOutcome};
use energy_model::{HierarchySpec, TechnologyParams};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use sweep_runner::json::Value;
use sweep_runner::SweepOptions;
use workloads::{TraceBuffer, WorkloadSpec};

/// Default trace length per benchmark (overridable with the
/// `SLIP_ACCESSES` environment variable).
pub const DEFAULT_ACCESSES: u64 = env::DEFAULT_ACCESSES;

/// Reads the trace length from `SLIP_ACCESSES` or returns the default.
pub fn accesses_from_env() -> u64 {
    env::accesses()
}

/// Options for a suite run.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Accesses per benchmark.
    pub accesses: u64,
    /// Unmeasured warmup accesses before measurement begins
    /// (overridable with `SLIP_WARMUP`; default 0).
    pub warmup: u64,
    /// Benchmarks to run (paper order).
    pub benchmarks: Vec<&'static str>,
    /// Policies to run.
    pub policies: Vec<PolicyKind>,
    /// Technology node.
    pub tech: TechnologyParams,
    /// Reuse-distance bin counter width.
    pub rd_bin_bits: u32,
    /// Hierarchy spec overriding the compiled-in topology (`None` runs
    /// the hard-coded 45 nm configuration). Set via [`with_topology`];
    /// carries geometry *and* energy, so it also replaces
    /// [`SuiteOptions::tech`].
    ///
    /// [`with_topology`]: SuiteOptions::with_topology
    pub topology: Option<HierarchySpec>,
}

impl SuiteOptions {
    /// The paper's full single-core sweep: 14 benchmarks, all policies,
    /// 45 nm.
    pub fn paper_full() -> Self {
        SuiteOptions {
            accesses: env::accesses(),
            warmup: env::warmup(),
            benchmarks: workloads::BENCHMARK_NAMES.to_vec(),
            policies: PolicyKind::ALL.to_vec(),
            tech: energy_model::TECH_45NM.clone(),
            rd_bin_bits: 4,
            topology: None,
        }
    }

    /// A reduced sweep for the given policies.
    pub fn with_policies(mut self, policies: &[PolicyKind]) -> Self {
        self.policies = policies.to_vec();
        if !self.policies.contains(&PolicyKind::Baseline) {
            // Savings are always relative to the baseline.
            self.policies.insert(0, PolicyKind::Baseline);
        }
        self
    }

    /// Restricts the benchmark set.
    pub fn with_benchmarks(mut self, benchmarks: &[&'static str]) -> Self {
        self.benchmarks = benchmarks.to_vec();
        self
    }

    /// Overrides the trace length.
    pub fn with_accesses(mut self, accesses: u64) -> Self {
        self.accesses = accesses;
        self
    }

    /// Sets the unmeasured warmup length.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Switches the technology node.
    pub fn with_tech(mut self, tech: TechnologyParams) -> Self {
        self.tech = tech;
        self
    }

    /// Overrides the distribution counter width.
    pub fn with_bin_bits(mut self, bits: u32) -> Self {
        self.rd_bin_bits = bits;
        self
    }

    /// Runs the sweep on a hierarchy spec instead of the compiled-in
    /// topology. The spec carries the full energy model, so this also
    /// replaces [`SuiteOptions::tech`] with the spec's technology.
    ///
    /// # Panics
    ///
    /// Panics on a semantically invalid spec; `HierarchySpec::load`
    /// already validated anything that came from a file or built-in
    /// name, so this only trips on hand-built specs.
    pub fn with_topology(mut self, spec: HierarchySpec) -> Self {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid topology spec: {e}"));
        self.tech = spec.technology();
        self.topology = Some(spec);
        self
    }

    /// Builds the system configuration for one cell of this sweep.
    pub fn cell_config(&self, policy: PolicyKind) -> SystemConfig {
        let mut config = match &self.topology {
            Some(spec) => SystemConfig::from_topology(spec, policy)
                .unwrap_or_else(|e| panic!("invalid topology spec: {e}")),
            None => SystemConfig::paper_45nm(policy),
        };
        config.tech = self.tech.clone();
        config.rd_bin_bits = self.rd_bin_bits;
        config
    }

    /// The journal key of one `(benchmark, policy)` cell. Encodes every
    /// input the result depends on, so stale journal entries can never
    /// be mistaken for current ones. Runs under an explicit topology
    /// append a `topo=name#fingerprint` clause — the fingerprint hashes
    /// the canonical spec text, so editing a spec file in place
    /// invalidates old journal entries — while default runs keep the
    /// historical key shape, so existing journals stay restorable.
    pub fn cell_key(&self, bench: &str, policy: PolicyKind) -> String {
        let config = self.cell_config(policy);
        let topo = match &self.topology {
            Some(spec) => format!(",topo={}#{:016x}", spec.name, spec.fingerprint()),
            None => String::new(),
        };
        format!(
            "{bench}/{}@acc={},warm={},tech={},bits={},seed={:#x}{topo}",
            policy.label(),
            self.accesses,
            self.warmup,
            self.tech.name,
            self.rd_bin_bits,
            config.seed,
        )
    }
}

/// How a sweep obtains each cell's access stream. All modes are
/// bit-identical; they differ only in throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Synthesize each cell's stream inline with simulation.
    Inline,
    /// Materialize once per (workload, seed, length) stream in the
    /// trace cache and replay the buffer per cell, falling back to
    /// inline regeneration when the cache refuses the stream.
    Shared,
    /// Like [`Shared`](TraceMode::Shared), but all policy cells of a
    /// benchmark step in lockstep through one decode of the buffer
    /// ([`crate::fused`]): a fused group occupies one sweep worker and
    /// retires every cell of the benchmark at once.
    Fused,
}

impl TraceMode {
    /// Parses a CLI/env spelling; `None` for unknown ones. `pipelined`
    /// and `pipeline` name a retired mode and are accepted as
    /// spellings of `inline`, so old journals and scripts keep working.
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "inline" | "pipelined" | "pipeline" => Some(TraceMode::Inline),
            "shared" => Some(TraceMode::Shared),
            "fused" => Some(TraceMode::Fused),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Inline => "inline",
            TraceMode::Shared => "shared",
            TraceMode::Fused => "fused",
        }
    }
}

/// How the suite executes (worker count, journaling) — orthogonal to
/// *what* it runs ([`SuiteOptions`]) and, by construction, to what it
/// produces.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker count; 1 is fully serial.
    pub jobs: usize,
    /// JSONL run-journal path; completed cells found there are restored
    /// instead of re-run.
    pub journal: Option<PathBuf>,
    /// Suppress stderr progress lines.
    pub quiet: bool,
    /// How cells obtain their access streams. All modes are
    /// bit-identical; they differ only in throughput. In
    /// [`TraceMode::Fused`] all policy cells of one benchmark run as a
    /// single lockstep group that occupies one worker and retires every
    /// cell at once.
    pub trace_mode: TraceMode,
    /// Set-shard workers per cell (1 = serial). Sharded execution is
    /// bit-identical to serial; configurations with global policy
    /// state (SLIP, DRRIP, SHiP) fall back to serial transparently.
    /// When above 1, the sweep divides its worker count by the shard
    /// count so `jobs × shards` never oversubscribes the pool.
    /// Ignored in [`TraceMode::Fused`] (a fused group is one worker by
    /// construction); the CLI rejects the combination outright.
    pub shards: usize,
    /// Shared-trace cache budget in MiB. A stream whose materialized
    /// trace would exceed the whole budget falls back to inline
    /// regeneration; 0 disables sharing entirely. Ignored when
    /// [`SweepConfig::trace_cache`] supplies an external cache.
    pub trace_cache_mb: u64,
    /// Externally owned trace cache shared across sweeps (the
    /// `slip serve` daemon passes its server-wide LRU here); `None`
    /// builds a sweep-local cache from [`SweepConfig::trace_cache_mb`].
    pub trace_cache: Option<Arc<TraceLru>>,
    /// Cooperative cancellation flag (e.g. the process SIGINT flag from
    /// `sweep_runner::interrupt::install()`); when it trips, the sweep
    /// stops dispatching cells, seals the journal, and errors with
    /// [`std::io::ErrorKind::Interrupted`].
    pub cancel: Option<&'static std::sync::atomic::AtomicBool>,
}

impl SweepConfig {
    /// Reads `SLIP_JOBS` / `SLIP_JOURNAL` / `SLIP_TRACE_MODE` /
    /// `SLIP_TRACE_CACHE_MB` / `SLIP_SHARDS`; progress lines on.
    ///
    /// # Panics
    ///
    /// Panics when `SLIP_SHARDS` is set to something that is not a
    /// positive power of two — a silently rounded shard count would
    /// mislabel what ran. The CLI surfaces the same error politely.
    pub fn from_env() -> Self {
        SweepConfig {
            jobs: env::jobs(),
            journal: env::journal(),
            quiet: false,
            trace_mode: env::trace_mode(),
            shards: env::shards().unwrap_or_else(|e| panic!("{e}")),
            trace_cache_mb: env::trace_cache_mb(),
            trace_cache: None,
            cancel: None,
        }
    }

    /// Serial, journal-less, quiet.
    pub fn serial() -> Self {
        SweepConfig {
            jobs: 1,
            journal: None,
            quiet: true,
            trace_mode: TraceMode::Shared,
            shards: 1,
            trace_cache_mb: env::DEFAULT_TRACE_CACHE_MB,
            trace_cache: None,
            cancel: None,
        }
    }

    /// `jobs` workers, journal-less, quiet.
    pub fn with_jobs(jobs: usize) -> Self {
        SweepConfig {
            jobs,
            journal: None,
            quiet: true,
            trace_mode: TraceMode::Shared,
            shards: 1,
            trace_cache_mb: env::DEFAULT_TRACE_CACHE_MB,
            trace_cache: None,
            cancel: None,
        }
    }

    /// Overrides the per-cell shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Worker count after shard arbitration: cells each occupy
    /// `shards` threads, so the dispatcher gets `jobs / shards`
    /// workers (at least one) and the pool stays at or under `jobs`
    /// threads total. Fused sweeps ignore shards — a fused group is a
    /// single worker retiring N cells, so the full `jobs` budget goes
    /// to groups.
    pub fn effective_jobs(&self) -> usize {
        if self.shards > 1 && self.trace_mode != TraceMode::Fused {
            (self.jobs / self.shards).max(1)
        } else {
            self.jobs
        }
    }

    /// Overrides the trace execution mode.
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Runs the sweep against an externally owned (e.g. server-wide)
    /// trace cache instead of a sweep-local one.
    pub fn with_trace_cache(mut self, cache: Arc<TraceLru>) -> Self {
        self.trace_cache = Some(cache);
        self
    }
}

/// Runs one `(benchmark, policy)` cell exactly as
/// [`SuiteResults::run_with`] would, returning the result and the
/// `trace_source` metric label. Shared between the offline sweep and
/// the `slip serve` daemon so both execution paths are bit-identical
/// by construction: the trace mode and cache only change *how* the
/// access stream is produced, never its contents.
///
/// A [`TraceMode::Shared`] or [`TraceMode::Fused`] cell is a buffered
/// group of one ([`run_fused_group`]); the two modes differ only in
/// how a sweep schedules its cells. Set-sharding (`shards > 1`, not
/// in fused mode) splits an inline or shared cell across threads.
///
/// The returned result's [`SimResult::exec_mode`] names the path that
/// actually ran — which differs from `trace_mode` whenever a mode falls
/// back (a sharded cell runs `sharded`; a cache-bypassed shared or
/// fused stream regenerates `inline`) — so downstream A/B comparisons
/// can't mislabel what executed.
pub fn run_suite_cell(
    options: &SuiteOptions,
    bench: &str,
    policy: PolicyKind,
    trace_mode: TraceMode,
    cache: Option<&TraceLru>,
    shards: usize,
) -> (SimResult, Option<&'static str>) {
    let spec = workloads::workload(bench).expect("known benchmark");
    let config = options.cell_config(policy);
    let shards = crate::shard::effective_shards(shards, &config);
    if trace_mode == TraceMode::Fused || (trace_mode == TraceMode::Shared && shards == 1) {
        return run_group(options, bench, &[policy], cache, trace_mode.label())
            .pop()
            .expect("one cell in, one result out");
    }
    let (mut result, trace_source, exec_mode) = if shards == 1 {
        (
            run_workload_with_warmup(config, &spec, options.accesses, options.warmup),
            None,
            "inline",
        )
    } else {
        let buffer = if trace_mode == TraceMode::Shared {
            fetch_stream(&spec, config.seed, options, cache)
        } else {
            None
        };
        let result = match buffer {
            Some((buf, _)) => {
                crate::shard::run_buffer_sharded(config, spec.name(), &buf, options.warmup, shards)
            }
            None => crate::shard::run_workload_sharded(
                config,
                &spec,
                options.accesses,
                options.warmup,
                shards,
            ),
        };
        (result, Some("sharded"), "sharded")
    };
    result.exec_mode = Some(exec_mode);
    (result, trace_source)
}

/// The cell stream's buffer from the trace cache, materialized on a
/// miss; `None` when there is no cache or it refuses the stream.
fn fetch_stream(
    spec: &WorkloadSpec,
    seed: u64,
    options: &SuiteOptions,
    cache: Option<&TraceLru>,
) -> Option<(Arc<TraceBuffer>, TraceOutcome)> {
    let total = options.warmup + options.accesses;
    let key = TraceKey::new(spec.name(), seed, total);
    cache?.get_or_materialize(&key, || TraceBuffer::materialize(spec.trace(total, seed)))
}

/// Runs every policy cell of one benchmark as a single fused group:
/// the trace buffer is materialized (or fetched from the shared cache)
/// once, decoded once, and all cells step through it in lockstep
/// ([`crate::fused::run_group_from_buffer`]). Returns one
/// `(result, trace_source)` per policy, in order, bit-identical to the
/// per-cell replay.
///
/// A stream the cache refuses to hold (over budget, or sharing
/// disabled with a 0 MiB budget) cannot be fused — there is no buffer
/// to share — so each member regenerates its trace inline and labels
/// itself accordingly via [`SimResult::exec_mode`].
///
/// Trace-source attribution: the group performs exactly *one* stream
/// fetch (or one regeneration per member on fallback), so only the
/// first member carries the cache-outcome label; the rest return
/// `None`. Attributing the single fetch to every member used to
/// multiply the sweep footer's trace tally by the group size.
pub fn run_fused_group(
    options: &SuiteOptions,
    bench: &str,
    policies: &[PolicyKind],
    cache: Option<&TraceLru>,
) -> Vec<(SimResult, Option<&'static str>)> {
    run_group(options, bench, policies, cache, TraceMode::Fused.label())
}

/// [`run_fused_group`], labeling buffered results `exec_mode`.
fn run_group(
    options: &SuiteOptions,
    bench: &str,
    policies: &[PolicyKind],
    cache: Option<&TraceLru>,
    exec_mode: &'static str,
) -> Vec<(SimResult, Option<&'static str>)> {
    let spec = workloads::workload(bench).expect("known benchmark");
    let configs: Vec<SystemConfig> = policies.iter().map(|&p| options.cell_config(p)).collect();
    let seed = configs[0].seed;
    let (buffer, trace_source) = match fetch_stream(&spec, seed, options, cache) {
        Some((buf, outcome)) => (buf, outcome.label()),
        None if cache.is_some() => {
            // The cache bypassed the stream: honor its memory budget
            // and regenerate per cell. Every member regenerates its own
            // trace, so each one carries a "regenerated" label.
            return configs
                .into_iter()
                .map(|config| {
                    let mut r =
                        run_workload_with_warmup(config, &spec, options.accesses, options.warmup);
                    r.exec_mode = Some("inline");
                    (r, Some("regenerated"))
                })
                .collect();
        }
        None => {
            // No cache supplied at all: materialize group-locally.
            let total = options.warmup + options.accesses;
            (
                Arc::new(TraceBuffer::materialize(spec.trace(total, seed))),
                "materialized",
            )
        }
    };
    crate::fused::run_group_from_buffer(configs, spec.name(), &buffer, options.warmup)
        .into_iter()
        .enumerate()
        .map(|(i, mut r)| {
            r.exec_mode = Some(exec_mode);
            (r, (i == 0).then_some(trace_source))
        })
        .collect()
}

/// Results of a suite run, keyed by `(benchmark, policy)`.
#[derive(Debug)]
pub struct SuiteResults {
    /// The options the suite ran with.
    pub options: SuiteOptions,
    /// Trace-cache activity scoped to this sweep (`None` unless the
    /// sweep ran in [`TraceMode::Shared`]); counters are deltas even
    /// when the cache is a long-lived server-wide one. Serialize with
    /// [`TraceCacheStats::to_value`].
    pub trace_cache_stats: Option<TraceCacheStats>,
    results: HashMap<(String, PolicyKind), SimResult>,
}

impl SuiteResults {
    /// Runs the suite with execution parameters from the environment
    /// (`SLIP_JOBS`, `SLIP_JOURNAL`).
    ///
    /// # Panics
    ///
    /// Panics if the journal cannot be read or written.
    pub fn run(options: SuiteOptions) -> Self {
        Self::run_with(options, &SweepConfig::from_env()).expect("run journal I/O failed")
    }

    /// Runs the suite on the given execution configuration.
    ///
    /// # Errors
    ///
    /// Fails only on journal I/O errors; simulation itself is
    /// infallible.
    pub fn run_with(options: SuiteOptions, sweep: &SweepConfig) -> std::io::Result<Self> {
        let cells: Vec<(&'static str, PolicyKind)> = options
            .benchmarks
            .iter()
            .flat_map(|&b| options.policies.iter().map(move |&p| (b, p)))
            .collect();
        let keys: Vec<String> = cells.iter().map(|&(b, p)| options.cell_key(b, p)).collect();
        let sweep_options = SweepOptions {
            jobs: sweep.effective_jobs(),
            journal: sweep.journal.clone(),
            quiet: sweep.quiet,
            label: "suite".to_owned(),
            cancel: sweep.cancel,
        };
        // Cells that share a (workload, seed, warmup+len) stream — all
        // policy cells of one benchmark — share one cache entry; the
        // first to execute materializes it. Cells restored from the
        // journal never touch the cache.
        let local_cache;
        let cache: Option<&TraceLru> = match &sweep.trace_cache {
            Some(shared) => Some(shared.as_ref()),
            None => {
                local_cache = TraceLru::new(sweep.trace_cache_mb);
                Some(&local_cache)
            }
        };
        let stats_before = cache.map(TraceLru::stats);
        let encode = |(r, trace_source): &(SimResult, Option<&'static str>),
                      wall: std::time::Duration| {
            let mut metrics = codec::result_metrics(r, wall);
            if let Some(source) = *trace_source {
                metrics = metrics.with("trace_source", Value::str(source));
            }
            if let Some(mode) = r.exec_mode {
                metrics = metrics.with("exec_mode", Value::str(mode));
            }
            (metrics, codec::encode_result(r))
        };
        let decode = |p: &Value| codec::decode_result(p).map(|r| (r, None));
        let ran = if sweep.trace_mode == TraceMode::Fused {
            // All policy cells of one benchmark become one fused group:
            // one worker, one decode, N cells retired at once. Groups
            // re-form from whatever cells the journal did *not*
            // restore, so a resumed sweep fuses only the survivors.
            sweep_runner::run_sweep_grouped(
                &keys,
                &sweep_options,
                |pending| {
                    let mut groups: Vec<Vec<usize>> = Vec::new();
                    let mut by_bench: HashMap<&'static str, usize> = HashMap::new();
                    for &i in pending {
                        match by_bench.get(cells[i].0) {
                            Some(&g) => groups[g].push(i),
                            None => {
                                by_bench.insert(cells[i].0, groups.len());
                                groups.push(vec![i]);
                            }
                        }
                    }
                    groups
                },
                |members| {
                    let bench = cells[members[0]].0;
                    let policies: Vec<PolicyKind> = members.iter().map(|&i| cells[i].1).collect();
                    run_fused_group(&options, bench, &policies, cache)
                },
                encode,
                decode,
            )?
        } else {
            sweep_runner::run_sweep(
                &keys,
                &sweep_options,
                |i| {
                    let (bench, policy) = cells[i];
                    run_suite_cell(
                        &options,
                        bench,
                        policy,
                        sweep.trace_mode,
                        cache,
                        sweep.shards,
                    )
                },
                encode,
                decode,
            )?
        };
        let trace_cache_stats = matches!(sweep.trace_mode, TraceMode::Shared | TraceMode::Fused)
            .then(|| Some(cache?.stats().delta_since(stats_before.as_ref()?)))
            .flatten();
        if let (false, Some(s)) = (sweep.quiet, &trace_cache_stats) {
            eprintln!(
                "[suite] trace cache: {} hits, {} misses, {} evictions, {} bypasses \
                 ({} resident, {:.1} MiB)",
                s.hits,
                s.misses,
                s.evictions,
                s.bypasses,
                s.resident_entries,
                s.resident_bytes as f64 / (1 << 20) as f64,
            );
        }
        let results = cells
            .into_iter()
            .zip(ran)
            .map(|((b, p), (r, _))| ((b.to_owned(), p), r))
            .collect();
        Ok(SuiteResults {
            options,
            trace_cache_stats,
            results,
        })
    }

    /// The result of one (benchmark, policy) cell, if it was part of
    /// the sweep.
    pub fn try_get(&self, bench: &str, policy: PolicyKind) -> Option<&SimResult> {
        self.results.get(&(bench.to_owned(), policy))
    }

    /// The result of one (benchmark, policy) cell.
    ///
    /// # Panics
    ///
    /// Panics if that cell was not part of the sweep; use [`try_get`]
    /// to probe.
    ///
    /// [`try_get`]: SuiteResults::try_get
    pub fn get(&self, bench: &str, policy: PolicyKind) -> &SimResult {
        self.try_get(bench, policy)
            .unwrap_or_else(|| panic!("no result for ({bench}, {policy})"))
    }

    /// The baseline result for a benchmark.
    pub fn baseline(&self, bench: &str) -> &SimResult {
        self.get(bench, PolicyKind::Baseline)
    }

    /// Benchmarks in sweep order.
    pub fn benchmarks(&self) -> &[&'static str] {
        &self.options.benchmarks
    }

    /// L2 energy saving of `policy` on `bench` versus baseline.
    pub fn l2_saving(&self, bench: &str, policy: PolicyKind) -> f64 {
        1.0 - self.get(bench, policy).l2_total_energy() / self.baseline(bench).l2_total_energy()
    }

    /// L3 energy saving of `policy` on `bench` versus baseline.
    pub fn l3_saving(&self, bench: &str, policy: PolicyKind) -> f64 {
        1.0 - self.get(bench, policy).l3_total_energy() / self.baseline(bench).l3_total_energy()
    }

    /// Mean L2 saving over all benchmarks.
    pub fn mean_l2_saving(&self, policy: PolicyKind) -> f64 {
        crate::report::mean(
            &self
                .benchmarks()
                .iter()
                .map(|b| self.l2_saving(b, policy))
                .collect::<Vec<_>>(),
        )
    }

    /// Mean L3 saving over all benchmarks.
    pub fn mean_l3_saving(&self, policy: PolicyKind) -> f64 {
        crate::report::mean(
            &self
                .benchmarks()
                .iter()
                .map(|b| self.l3_saving(b, policy))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_mode_parses_canonical_and_alias_spellings() {
        assert_eq!(TraceMode::parse("inline"), Some(TraceMode::Inline));
        assert_eq!(TraceMode::parse(" Pipelined "), Some(TraceMode::Inline));
        assert_eq!(TraceMode::parse("pipeline"), Some(TraceMode::Inline));
        assert_eq!(TraceMode::parse("shared"), Some(TraceMode::Shared));
        assert_eq!(TraceMode::parse("Fused"), Some(TraceMode::Fused));
        assert_eq!(TraceMode::parse("magic"), None);
        for mode in [TraceMode::Inline, TraceMode::Shared, TraceMode::Fused] {
            assert_eq!(TraceMode::parse(mode.label()), Some(mode));
        }
    }

    #[test]
    fn small_suite_produces_all_cells() {
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_policies(&[PolicyKind::SlipAbp])
            .with_accesses(30_000)
            .with_warmup(10_000);
        let suite = SuiteResults::run_with(opts, &SweepConfig::serial()).unwrap();
        assert_eq!(suite.benchmarks(), ["gcc"]);
        let base = suite.baseline("gcc");
        assert_eq!(base.accesses, 30_000);
        let slip = suite.get("gcc", PolicyKind::SlipAbp);
        assert_eq!(slip.accesses, 30_000);
        // Savings are well-defined numbers.
        assert!(suite.l2_saving("gcc", PolicyKind::SlipAbp).is_finite());
        assert!(suite.l3_saving("gcc", PolicyKind::SlipAbp).is_finite());
        // Shared mode reports cache activity: one stream materialized,
        // the other cell of the group hits.
        let stats = suite.trace_cache_stats.as_ref().unwrap();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn sharded_cells_match_serial_cells_bit_exactly() {
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_policies(&[PolicyKind::NuRapid, PolicyKind::SlipAbp])
            .with_accesses(20_000);
        let serial = SuiteResults::run_with(opts.clone(), &SweepConfig::serial()).unwrap();
        let sharded = SuiteResults::run_with(opts, &SweepConfig::serial().with_shards(4)).unwrap();
        for policy in [
            PolicyKind::Baseline,
            PolicyKind::NuRapid,
            PolicyKind::SlipAbp,
        ] {
            let a = codec::encode_result(serial.get("gcc", policy)).to_json();
            let b = codec::encode_result(sharded.get("gcc", policy)).to_json();
            assert_eq!(a, b, "{policy:?}");
        }
    }

    #[test]
    fn effective_jobs_divides_the_pool_between_cells_and_shards() {
        let sweep = SweepConfig::with_jobs(8);
        assert_eq!(sweep.effective_jobs(), 8);
        assert_eq!(sweep.clone().with_shards(2).effective_jobs(), 4);
        assert_eq!(sweep.clone().with_shards(4).effective_jobs(), 2);
        // More shards than workers: one cell at a time.
        assert_eq!(sweep.clone().with_shards(16).effective_jobs(), 1);
        assert_eq!(SweepConfig::serial().with_shards(4).effective_jobs(), 1);
        // with_shards(0) normalizes to serial.
        assert_eq!(sweep.with_shards(0).effective_jobs(), 8);
    }

    #[test]
    fn fused_sweep_is_bit_exact_across_trace_modes_and_jobs() {
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc", "soplex"])
            .with_policies(&[
                PolicyKind::Slip,
                PolicyKind::SlipAbp,
                PolicyKind::NuRapid,
                PolicyKind::LruPea,
            ])
            .with_accesses(10_000)
            .with_warmup(2_000);
        let fingerprint = |suite: &SuiteResults| -> Vec<String> {
            let mut cells = Vec::new();
            for &b in suite.benchmarks() {
                for &p in &suite.options.policies {
                    cells.push(codec::encode_result(suite.get(b, p)).to_json());
                }
            }
            cells
        };
        let reference =
            fingerprint(&SuiteResults::run_with(opts.clone(), &SweepConfig::serial()).unwrap());
        for mode in [TraceMode::Inline, TraceMode::Shared, TraceMode::Fused] {
            for jobs in [1, 4] {
                let sweep = SweepConfig::with_jobs(jobs).with_trace_mode(mode);
                let suite = SuiteResults::run_with(opts.clone(), &sweep).unwrap();
                assert_eq!(fingerprint(&suite), reference, "{mode:?} jobs={jobs}");
                if mode == TraceMode::Fused {
                    // No silent fallback: every cell reports the fused
                    // executor actually ran it.
                    for &b in suite.benchmarks() {
                        for &p in &suite.options.policies {
                            assert_eq!(suite.get(b, p).exec_mode, Some("fused"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_resume_reforms_groups_from_unjournaled_cells() {
        let mut path = std::env::temp_dir();
        path.push(format!("slip-suite-fused-resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_policies(&[PolicyKind::Slip, PolicyKind::SlipAbp, PolicyKind::NuRapid])
            .with_accesses(8_000);
        let mut fused = SweepConfig::serial().with_trace_mode(TraceMode::Fused);

        // Reference: the full fused grid, uninterrupted.
        let reference = SuiteResults::run_with(opts.clone(), &fused).unwrap();

        // Journal only part of the benchmark's cells — a narrower grid
        // into the same journal stands in for a fused sweep that died
        // mid-group (cell keys are grid-independent, so its records are
        // restorable by the wider sweep).
        fused.journal = Some(path.clone());
        let narrow = opts.clone().with_policies(&[PolicyKind::Slip]);
        SuiteResults::run_with(narrow, &fused).unwrap();

        // Resume the full grid: baseline+slip restore from the journal,
        // and the two survivors re-form one smaller fused group.
        let resumed = SuiteResults::run_with(opts.clone(), &fused).unwrap();
        for &p in &opts.policies {
            assert_eq!(
                codec::encode_result(resumed.get("gcc", p)).to_json(),
                codec::encode_result(reference.get("gcc", p)).to_json(),
                "{p:?}"
            );
        }
        // One cache miss and zero hits: the survivors shared a single
        // group materialization instead of running per cell.
        let stats = resumed.trace_cache_stats.as_ref().unwrap();
        assert_eq!((stats.misses, stats.hits), (1, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn with_policies_always_includes_baseline() {
        let opts = SuiteOptions::paper_full().with_policies(&[PolicyKind::NuRapid]);
        assert!(opts.policies.contains(&PolicyKind::Baseline));
        assert!(opts.policies.contains(&PolicyKind::NuRapid));
    }

    #[test]
    fn try_get_probes_without_panicking() {
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_policies(&[PolicyKind::Baseline])
            .with_accesses(5_000);
        let suite = SuiteResults::run_with(opts, &SweepConfig::serial()).unwrap();
        assert!(suite.try_get("gcc", PolicyKind::Baseline).is_some());
        assert!(suite.try_get("gcc", PolicyKind::SlipAbp).is_none());
        assert!(suite.try_get("soplex", PolicyKind::Baseline).is_none());
    }

    #[test]
    fn fused_group_attributes_one_stream_fetch_to_first_member_only() {
        // The group fetches its stream exactly once; attributing that
        // fetch to every member multiplied the sweep footer's trace
        // tally by the group size (e.g. "[traces: 10 materialized]"
        // next to a cache reporting 2 misses).
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_accesses(5_000);
        let policies = [PolicyKind::Baseline, PolicyKind::Slip, PolicyKind::SlipAbp];
        let cache = TraceLru::new(64);
        let group = run_fused_group(&opts, "gcc", &policies, Some(&cache));
        let labels: Vec<Option<&'static str>> = group.iter().map(|(_, s)| *s).collect();
        assert_eq!(labels, [Some("materialized"), None, None]);
        for (r, _) in &group {
            assert_eq!(r.exec_mode, Some("fused"));
        }
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn fused_cache_bypass_labels_each_member_regenerated() {
        // A 0 MiB cache bypasses every stream: the group cannot fuse
        // and each member regenerates its own trace inline. Each
        // member carries its own "regenerated" label (one regeneration
        // per member really happened).
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc"])
            .with_accesses(5_000);
        let policies = [PolicyKind::Baseline, PolicyKind::SlipAbp];
        let cache = TraceLru::new(0);
        let group = run_fused_group(&opts, "gcc", &policies, Some(&cache));
        for (r, source) in &group {
            assert_eq!(*source, Some("regenerated"));
            assert_eq!(r.exec_mode, Some("inline"));
        }
        assert_eq!(cache.stats().bypasses, 1);

        // The shared-mode bypass fallback reports the same way.
        let (r, source) = run_suite_cell(
            &opts,
            "gcc",
            PolicyKind::Baseline,
            TraceMode::Shared,
            Some(&cache),
            1,
        );
        assert_eq!(source, Some("regenerated"));
        assert_eq!(r.exec_mode, Some("inline"));
    }

    #[test]
    fn topology_45nm_suite_matches_hardcoded_across_modes_and_jobs() {
        // Golden pin: `--topology 45nm` routes through the spec parser
        // and `SystemConfig::from_topology`, yet must be bit-exact with
        // the compiled-in configuration in every trace mode, serial and
        // parallel.
        let opts = SuiteOptions::paper_full()
            .with_benchmarks(&["gcc", "soplex"])
            .with_policies(&[PolicyKind::Slip, PolicyKind::SlipAbp])
            .with_accesses(8_000)
            .with_warmup(2_000);
        let topo = opts
            .clone()
            .with_topology(HierarchySpec::builtin("45nm").unwrap());
        let fingerprint = |suite: &SuiteResults| -> Vec<String> {
            let mut cells = Vec::new();
            for &b in suite.benchmarks() {
                for &p in &suite.options.policies {
                    cells.push(codec::encode_result(suite.get(b, p)).to_json());
                }
            }
            cells
        };
        let reference = fingerprint(&SuiteResults::run_with(opts, &SweepConfig::serial()).unwrap());
        for mode in [TraceMode::Inline, TraceMode::Shared, TraceMode::Fused] {
            for jobs in [1, 4] {
                let sweep = SweepConfig::with_jobs(jobs).with_trace_mode(mode);
                let suite = SuiteResults::run_with(topo.clone(), &sweep).unwrap();
                assert_eq!(fingerprint(&suite), reference, "{mode:?} jobs={jobs}");
            }
        }
    }

    #[test]
    fn topology_cell_keys_carry_name_and_fingerprint() {
        let plain = SuiteOptions::paper_full().with_accesses(1000);
        let topo = plain
            .clone()
            .with_topology(HierarchySpec::builtin("stt-llc").unwrap());
        let plain_key = plain.cell_key("gcc", PolicyKind::Slip);
        let topo_key = topo.cell_key("gcc", PolicyKind::Slip);
        // Default keys keep their historical shape (journal back-compat).
        assert!(!plain_key.contains("topo="));
        // Explicit-topology keys pin both the node name and the
        // canonical-text fingerprint.
        assert!(topo_key.contains(",topo=stt-llc#"), "{topo_key}");
        assert_ne!(plain_key, topo_key);
        // Different nodes never share a key.
        let other = plain
            .clone()
            .with_topology(HierarchySpec::builtin("22nm").unwrap());
        assert_ne!(topo_key, other.cell_key("gcc", PolicyKind::Slip));
    }

    #[test]
    fn cell_keys_fingerprint_all_inputs() {
        let a = SuiteOptions::paper_full().with_accesses(1000);
        let b = SuiteOptions::paper_full().with_accesses(2000);
        let c = SuiteOptions::paper_full()
            .with_accesses(1000)
            .with_bin_bits(6);
        let k = |o: &SuiteOptions| o.cell_key("gcc", PolicyKind::Slip);
        assert_ne!(k(&a), k(&b));
        assert_ne!(k(&a), k(&c));
        assert_ne!(
            a.cell_key("gcc", PolicyKind::Slip),
            a.cell_key("gcc", PolicyKind::SlipAbp)
        );
        assert_ne!(
            a.cell_key("gcc", PolicyKind::Slip),
            a.cell_key("mcf", PolicyKind::Slip)
        );
    }
}
