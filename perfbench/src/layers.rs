//! Per-layer metrics: counts read from simulated results, and the
//! probe pass a traced run makes on the workload's own address stream,
//! timing each layer's public functions on standalone objects.

use crate::check::payload_json;
use crate::metrics::{policy_suffix, Report, LAYERS, POLICY_SUFFIXES};
use crate::span::{per_unit, self_secs, span_work, Span};
use cache_sim::{AccessClass, AccessResult, BaselinePolicy, CacheLevel, FillRequest, Lru};
use mem_substrate::SlipMmu;
use nuca_baselines::NuRapid;
use sim_engine::{PolicyKind, SimResult, SingleCoreSystem, SystemConfig};
use slip_core::{bin_for_distance, EnergyOptimizerUnit, LevelModelParams, RdDistribution};
use slip_serve::Frame;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use sweep_runner::json::Value;
use workloads::{unpack_access, TraceBuffer, WorkloadSpec};

/// Simulated-statistics counts summed over a workload's cells.
#[derive(Debug, Default, PartialEq)]
pub struct Counts {
    accesses: u64,
    l1: [u64; 2],
    l2: [u64; 2],
    l3: [u64; 2],
    l2_probes: u64,
    l3_probes: u64,
    fills: u64,
    l2_fill: [u64; 2],
    l3_fill: [u64; 2],
    movements: u64,
    tlb: [u64; 2],
    metadata_fetches: u64,
    dram_lines: u64,
    recomputes: u64,
    nuca_accesses: u64,
    nuca_movements: u64,
    nuca_promotions: u64,
}

impl Counts {
    pub fn add(&mut self, r: &SimResult) {
        let (l1, l2, l3) = (&r.l1_stats, &r.l2_stats, &r.l3_stats);
        self.accesses += r.accesses;
        self.l1[0] += l1.demand_hits;
        self.l1[1] += l1.demand_accesses;
        self.l2[0] += l2.demand_hits;
        self.l2[1] += l2.demand_accesses;
        self.l3[0] += l3.demand_hits;
        self.l3[1] += l3.demand_accesses;
        self.l2_probes += l2.total_accesses();
        self.l3_probes += l3.total_accesses();
        self.fills += [l1, l2, l3]
            .iter()
            .map(|s| s.insertions + s.bypasses)
            .sum::<u64>();
        self.l2_fill[0] += l2.bypasses;
        self.l2_fill[1] += l2.insertions + l2.bypasses;
        self.l3_fill[0] += l3.bypasses;
        self.l3_fill[1] += l3.insertions + l3.bypasses;
        self.movements += l2.movements + l3.movements;
        if let Some(m) = &r.mmu_stats {
            self.tlb[0] += m.tlb_misses;
            self.tlb[1] += m.tlb_hits + m.tlb_misses;
            self.metadata_fetches += m.metadata_fetches;
            self.recomputes += m.slip_recomputes;
        }
        self.dram_lines += r.dram_total_traffic();
        if matches!(r.policy, PolicyKind::NuRapid | PolicyKind::LruPea) {
            self.nuca_accesses += r.accesses;
            self.nuca_movements += l2.movements + l3.movements;
            self.nuca_promotions += l2.promotions + l3.promotions;
        }
    }

    /// Sets the count metrics of `cache-sim`, `mem-substrate`,
    /// `slip-core` and `nuca-baselines` from these counts.
    pub fn emit(&self, report: &mut Report) {
        let acc = self.accesses as f64;
        let r = |p: [u64; 2]| crate::util::ratio(p[0] as f64, p[1] as f64);
        let per_k = |n: u64| crate::util::ratio(n as f64 * 1e3, acc);
        report.set("cache-sim.l1_hit_ratio", r(self.l1));
        report.set("cache-sim.l2_hit_ratio", r(self.l2));
        report.set("cache-sim.l3_hit_ratio", r(self.l3));
        report.set(
            "cache-sim.l2_probes_per_access",
            per_k(self.l2_probes) / 1e3,
        );
        report.set(
            "cache-sim.l3_probes_per_access",
            per_k(self.l3_probes) / 1e3,
        );
        report.set("cache-sim.fills_per_access", per_k(self.fills) / 1e3);
        report.set("cache-sim.l2_bypass_ratio", r(self.l2_fill));
        report.set("cache-sim.l3_bypass_ratio", r(self.l3_fill));
        report.set("cache-sim.movements_per_kacc", per_k(self.movements));
        report.set("mem-substrate.tlb_miss_ratio", r(self.tlb));
        report.set(
            "mem-substrate.metadata_fetches_per_kacc",
            per_k(self.metadata_fetches),
        );
        report.set("mem-substrate.dram_lines_per_kacc", per_k(self.dram_lines));
        report.set("slip-core.recomputes_per_kacc", per_k(self.recomputes));
        // Per access of the NuRAPID and LRU-PEA cells; 0 without any.
        let per_k = |n: u64| crate::util::ratio(n as f64 * 1e3, self.nuca_accesses as f64);
        report.set(
            "nuca-baselines.movements_per_kacc",
            per_k(self.nuca_movements),
        );
        report.set(
            "nuca-baselines.promotions_per_kacc",
            per_k(self.nuca_promotions),
        );
    }
}

/// Materializes `len` accesses of `spec` at `seed` (the trace
/// generator's whole cost: generation plus packing).
pub fn generate(spec: &WorkloadSpec, len: u64, seed: u64, iter: u64) -> TraceBuffer {
    span_work("workloads.generate", iter, len, || {
        TraceBuffer::materialize(spec.trace(len, seed))
    })
}

/// Builds the configuration of one cell.
pub fn config(policy: PolicyKind, seed: u64, iter: u64) -> SystemConfig {
    span_work("energy-model.config_build", iter, 1, || {
        let mut c = SystemConfig::paper_45nm(policy);
        c.seed = seed;
        c
    })
}

/// Runs one cell over a materialized trace, the way `slip run` does
/// after generating its input: construct, run the chunks, finish.
pub fn run_cell(config: SystemConfig, bench: &str, trace: &TraceBuffer, iter: u64) -> SimResult {
    let mut system = span_work("sim-engine.construct", iter, 1, || {
        SingleCoreSystem::new(config)
    });
    let t = std::time::Instant::now();
    span_work("sim-engine.run", iter, trace.len(), || {
        system.run_chunks(trace.chunks())
    });
    let wall = crate::util::secs(t);
    let mut result = span_work("sim-engine.finish", iter, 1, || system.finish(bench));
    result.wall_time_secs = wall;
    result
}

/// The stream the probe pass replays: the first benchmark a workload
/// runs, at the workload's seed, over at most `PROBE_ACCESSES`.
#[derive(Debug)]
pub struct ProbeInput {
    pub bench: &'static str,
    pub seed: u64,
    pub len: u64,
    /// Whether the workload runs NuRAPID cells, so the probe times
    /// `NuRapid` placement too.
    pub nuca: bool,
    /// Cell frame lines as a server sent them, which the probe parses;
    /// empty on workloads without a server.
    pub frames: Vec<String>,
}

/// Accesses the probe pass replays per layer.
const PROBE_ACCESSES: u64 = 200_000;

/// The probe pass: the public functions of each layer the workload
/// exercises, timed on standalone objects fed with the workload's own
/// address stream.
pub fn probe(input: &ProbeInput) {
    const ITER: u64 = u64::MAX; // marks probe spans in the dump
    let spec = workloads::workload(input.bench).expect("known benchmark");
    let len = input.len.min(PROBE_ACCESSES);
    let trace = generate(&spec, len, input.seed, ITER);
    let lines: Vec<cache_sim::Access> = span_work("workloads.decode", ITER, len, || {
        let mut out = Vec::with_capacity(len as usize);
        for chunk in trace.chunks() {
            for &w in chunk {
                out.push(unpack_access(black_box(w)));
            }
        }
        out
    });

    let base = SystemConfig::paper_45nm(PolicyKind::Baseline);
    let levels = [
        ("cache-sim.l1_access", base.build_l1()),
        ("cache-sim.l2_access", base.build_l2()),
        ("cache-sim.l3_access", base.build_l3()),
    ];
    let mut distributions: HashMap<u64, RdDistribution> = HashMap::new();
    let l2_cum = base.l2_geometry().cumulative_sublevel_lines();
    for (name, mut level) in levels {
        let is_l2 = name == "cache-sim.l2_access";
        span_work(name, ITER, len, || {
            replay(
                &mut level,
                &lines,
                &mut BaselinePolicy::new(),
                |line, hit| {
                    if is_l2 {
                        let bin = bin_for_distance(hit.reuse_distance, &l2_cum);
                        distributions
                            .entry(line >> 6)
                            .or_insert_with(RdDistribution::paper_default)
                            .observe(bin);
                    }
                },
            )
        });
    }

    if input.nuca {
        let nuca_config = SystemConfig::paper_45nm(PolicyKind::NuRapid);
        let mut nuca_l2 = nuca_config.build_l2();
        let mut nurapid = NuRapid::new(&nuca_config.l2_geometry());
        span_work("nuca-baselines.l2_access", ITER, len, || {
            replay(&mut nuca_l2, &lines, &mut nurapid, |_, _| {})
        });
    }

    let tech = &base.tech;
    let l2_params = LevelModelParams::from_level(&tech.l2, tech.l3.mean_access());
    let l3_params = LevelModelParams::from_level(&tech.l3, tech.dram_line_energy());
    let mut mmu = SlipMmu::new(input.seed, l2_params.clone(), l3_params);
    span_work("mem-substrate.translate", ITER, len, || {
        for a in &lines {
            black_box(mmu.translate_line(a.line()));
        }
    });

    let mut eou = EnergyOptimizerUnit::new(&l2_params);
    let mut dists: Vec<(u64, RdDistribution)> = distributions.into_iter().collect();
    dists.sort_by_key(|d| d.0);
    let rounds = (50_000 / dists.len().max(1)).max(1);
    span_work(
        "slip-core.eou_optimize",
        ITER,
        (rounds * dists.len()) as u64,
        || {
            for _ in 0..rounds {
                for (_, d) in &dists {
                    black_box(eou.optimize(black_box(d)));
                }
            }
        },
    );

    let frames = &input.frames;
    if !frames.is_empty() {
        let parses = (2_000 / frames.len()).max(1);
        span_work(
            "slip-serve.frame_parse",
            ITER,
            (parses * frames.len()) as u64,
            || {
                for _ in 0..parses {
                    for f in frames {
                        black_box(Frame::parse(black_box(f)).is_ok());
                    }
                }
            },
        );
    }
}

/// The wire line a server sends for one cell.
pub fn cell_frame(index: u64, key: &str, payload: Value) -> String {
    Frame::Cell {
        index,
        key: key.to_owned(),
        payload,
    }
    .to_value()
    .to_json()
}

/// Replays `lines` into one standalone level: an access, and a fill on
/// every miss. `on_hit(line, info)` sees each hit.
fn replay<P: cache_sim::PlacementPolicy>(
    level: &mut CacheLevel,
    accesses: &[cache_sim::Access],
    policy: &mut P,
    mut on_hit: impl FnMut(u64, &cache_sim::HitInfo),
) {
    let mut repl = Lru::new();
    for (now, a) in accesses.iter().enumerate() {
        let line = a.line();
        match level.access(
            line,
            a.kind,
            AccessClass::Demand,
            now as u64,
            policy,
            &mut repl,
        ) {
            AccessResult::Hit(h) => on_hit(line.0, &h),
            AccessResult::Miss { .. } => {
                black_box(level.fill(FillRequest::new(line), now as u64, policy, &mut repl));
            }
        }
    }
}

/// Per-cell host cost by policy, over cells with a measured wall time;
/// 0 for a policy without cells.
pub fn emit_cell_costs<'a>(report: &mut Report, cells: impl IntoIterator<Item = &'a SimResult>) {
    let mut by: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for r in cells {
        let e = by.entry(policy_suffix(r.policy)).or_default();
        e.0 += r.wall_time_secs;
        e.1 += r.accesses;
    }
    for p in POLICY_SUFFIXES {
        let (wall, acc) = by.get(p).copied().unwrap_or_default();
        report.set(
            format!("sim-engine.cell_ns_per_access.{p}"),
            crate::util::ratio(wall * 1e9, acc as f64),
        );
    }
}

/// Sets every span-derived per-layer metric; a metric whose spans the
/// workload never recorded reads 0.
pub fn emit_spans(report: &mut Report, spans: &[Span]) {
    const NS: f64 = 1e9;
    const MS: f64 = 1e3;
    for (metric, span_name, scale) in [
        ("workloads.generate_ns_per_access", "workloads.generate", NS),
        ("workloads.decode_ns_per_access", "workloads.decode", NS),
        (
            "energy-model.config_build_ms",
            "energy-model.config_build",
            MS,
        ),
        ("sim-engine.construct_ms", "sim-engine.construct", MS),
        ("sim-engine.run_ns_per_access", "sim-engine.run", NS),
        ("sim-engine.finish_ms", "sim-engine.finish", MS),
        ("cache-sim.l1_access_ns", "cache-sim.l1_access", NS),
        ("cache-sim.l2_access_ns", "cache-sim.l2_access", NS),
        ("cache-sim.l3_access_ns", "cache-sim.l3_access", NS),
        (
            "nuca-baselines.l2_access_ns",
            "nuca-baselines.l2_access",
            NS,
        ),
        ("mem-substrate.translate_ns", "mem-substrate.translate", NS),
        ("slip-core.eou_optimize_ns", "slip-core.eou_optimize", NS),
        ("slip-serve.frame_parse_us", "slip-serve.frame_parse", 1e6),
    ] {
        report.set(
            metric,
            per_unit(spans, span_name).map_or(0.0, |s| s * scale),
        );
    }
    let selfs = self_secs(spans);
    for layer in LAYERS {
        report.set(
            format!("{layer}.self_s"),
            selfs.get(layer).copied().unwrap_or(0.0),
        );
    }
}

/// Sets the `sim-engine.exec_mode.*` counts from the labels of the
/// cells a workload ran (absent labels count nowhere).
pub fn emit_exec_modes<'a>(report: &mut Report, modes: impl IntoIterator<Item = Option<&'a str>>) {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for m in modes.into_iter().flatten() {
        *counts.entry(m).or_default() += 1;
    }
    for m in crate::metrics::EXEC_MODES {
        report.set(
            format!("sim-engine.exec_mode.{m}"),
            counts.get(m).copied().unwrap_or(0) as f64,
        );
    }
}

/// Digest of a list of results, keyed by `bench/policy`.
pub fn results_digest(results: &[SimResult], iter: u64) -> (u64, Vec<String>) {
    let payloads: Vec<String> = results.iter().map(|r| payload_json(r, iter)).collect();
    let keys: Vec<String> = results
        .iter()
        .map(|r| format!("{}/{}", r.workload, r.policy.label()))
        .collect();
    let digest = crate::check::digest(
        keys.iter()
            .map(String::as_str)
            .zip(payloads.iter().map(String::as_str)),
    );
    (digest, payloads)
}
