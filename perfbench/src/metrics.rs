//! The metric tables `BENCHMARK.json` declares, and the result line.
//!
//! Every workload reports every end-to-end metric in an untraced run
//! and every per-layer metric in a traced run; [`Report::finish`]
//! refuses to print a result that misses one.

use std::collections::BTreeMap;

/// `(name, unit, higher_is_better)` of each end-to-end metric.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", false),
    ("sim_macc_per_s", "Macc/s", true),
    ("cpu_ns_per_access", "ns", false),
    ("peak_rss_mb", "MiB", false),
    ("run_p50_ms", "ms", false),
    ("run_p90_ms", "ms", false),
    ("runs_per_s", "1/s", true),
];

/// The five policies, by the suffix their per-policy metrics use.
pub const POLICY_SUFFIXES: [&str; 5] = ["baseline", "nurapid", "lru-pea", "slip", "slip-abp"];

/// Execution paths `SimResult::exec_mode` can name.
pub const EXEC_MODES: [&str; 5] = ["inline", "pipelined", "shared", "sharded", "fused"];

/// Every layer of the per-layer table: this repository's crates.
pub const LAYERS: [&str; 9] = [
    "workloads",
    "energy-model",
    "sim-engine",
    "cache-sim",
    "mem-substrate",
    "slip-core",
    "nuca-baselines",
    "sweep-runner",
    "slip-serve",
];

/// `(name, unit, higher_is_better)` of each per-layer metric,
/// `<crate>.<metric>`. Simulated counts and ratios must not move under
/// a change that only speeds the simulator up; their direction says
/// which way is cheaper or more useful work.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let mut out: Vec<(String, &'static str, bool)> = [
        ("workloads.generate_ns_per_access", "ns", false),
        ("workloads.decode_ns_per_access", "ns", false),
        ("workloads.trace_mb", "MiB", false),
        ("energy-model.config_build_ms", "ms", false),
        ("sim-engine.construct_ms", "ms", false),
        ("sim-engine.run_ns_per_access", "ns", false),
        ("sim-engine.finish_ms", "ms", false),
        ("sim-engine.trace_cache_hit_ratio", "ratio", true),
        ("cache-sim.l1_hit_ratio", "ratio", true),
        ("cache-sim.l2_hit_ratio", "ratio", true),
        ("cache-sim.l3_hit_ratio", "ratio", true),
        ("cache-sim.l2_probes_per_access", "ratio", false),
        ("cache-sim.l3_probes_per_access", "ratio", false),
        ("cache-sim.fills_per_access", "ratio", false),
        ("cache-sim.l2_bypass_ratio", "ratio", true),
        ("cache-sim.l3_bypass_ratio", "ratio", true),
        ("cache-sim.movements_per_kacc", "count", false),
        ("cache-sim.l1_access_ns", "ns", false),
        ("cache-sim.l2_access_ns", "ns", false),
        ("cache-sim.l3_access_ns", "ns", false),
        ("mem-substrate.tlb_miss_ratio", "ratio", false),
        ("mem-substrate.metadata_fetches_per_kacc", "count", false),
        ("mem-substrate.dram_lines_per_kacc", "count", false),
        ("mem-substrate.translate_ns", "ns", false),
        ("slip-core.recomputes_per_kacc", "count", false),
        ("slip-core.eou_optimize_ns", "ns", false),
        ("nuca-baselines.movements_per_kacc", "count", false),
        ("nuca-baselines.promotions_per_kacc", "count", false),
        ("nuca-baselines.l2_access_ns", "ns", false),
        ("sweep-runner.parallel_efficiency", "ratio", true),
        ("sweep-runner.journal_kb_per_run", "KiB", false),
        ("slip-serve.reuse_ratio", "ratio", true),
        ("slip-serve.cells_executed", "count", true),
        ("slip-serve.runs_joined", "count", true),
        ("slip-serve.connect_ms", "ms", false),
        ("slip-serve.frame_parse_us", "us", false),
        ("slip-serve.first_cell_p50_ms", "ms", false),
        ("slip-serve.dedup_run_p50_ms", "ms", false),
        ("perfbench.trace_overhead_ratio", "ratio", false),
    ]
    .iter()
    .map(|&(n, u, h)| (n.to_owned(), u, h))
    .collect();
    for p in POLICY_SUFFIXES {
        out.push((format!("sim-engine.cell_ns_per_access.{p}"), "ns", false));
    }
    for m in EXEC_MODES {
        out.push((format!("sim-engine.exec_mode.{m}"), "count", true));
    }
    for l in LAYERS {
        out.push((format!("{l}.self_s"), "s", false));
    }
    out
}

/// The metric suffix of a policy.
pub fn policy_suffix(p: sim_engine::PolicyKind) -> &'static str {
    use sim_engine::PolicyKind::*;
    match p {
        Baseline => "baseline",
        NuRapid => "nurapid",
        LruPea => "lru-pea",
        Slip => "slip",
        SlipAbp => "slip-abp",
    }
}

/// Outcome counters and metric values of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for each failure, printed to stderr.
    pub failures: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// The result line: the declared metrics of this run's kind, each
    /// with its unit. Errors if one is missing or not finite.
    pub fn finish(&self, traced: bool) -> Result<String, String> {
        let declared: Vec<(String, &str)> = if traced {
            per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_owned(), u))
                .collect()
        };
        let mut metrics = Vec::new();
        for (name, unit) in &declared {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_runner::json::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
                let second = match key {
                    "workloads" => s("why"),
                    _ => format!("{} {}", s("unit"), s("better")),
                };
                (s("name"), second)
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_within_limits() {
        let layer = per_layer();
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        assert!(!layer.is_empty() && layer.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.0.to_owned())
            .chain(layer.into_iter().map(|m| m.0))
        {
            assert!(valid_name(&name), "bad metric name {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_harness() {
        let v = benchmark_json();
        let better = |higher: bool| if higher { "higher" } else { "lower" };
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, h)| (n.to_owned(), format!("{u} {}", better(h))))
            .collect();
        assert_eq!(names(&v, "end_to_end"), want);
        let mut largest = ("", 0.0);
        for m in v.get("end_to_end").and_then(Value::as_array).unwrap() {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            if bound > largest.1 {
                largest = (name, bound);
            }
        }
        assert_eq!(largest.0, "setup_s", "set-up time has the largest bound");
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, h)| (n, format!("{u} {}", better(h))))
            .collect();
        assert_eq!(names(&v, "per_layer"), layer);
        let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for (_, why) in names(&v, "workloads") {
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        for (_, unit, _) in per_layer() {
            assert!(unit.len() <= 16, "unit {unit}");
        }
    }

    #[test]
    fn finish_refuses_missing_metrics() {
        let mut r = Report::default();
        r.check(true, String::new);
        assert!(r.finish(false).is_err());
        for (n, _, _) in END_TO_END {
            r.set(*n, 1.5);
        }
        let line = r.finish(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(Value::parse(&line).is_ok());
    }
}
