//! Golden equivalence of the trace modes: inline, shared-
//! `Arc<TraceBuffer>`, and fused execution must produce bit-identical
//! `SimResult`s for the benchmark × policy grid — at one and four
//! workers, unsharded and set-sharded — and a journal resume across a
//! shared-trace group must stay deterministic. The anchor is
//! the seed golden: each cell re-run through the verbatim reference hot
//! path (`reference_hot_path = true`), compared by its exact journal
//! payload text, the same fingerprint the determinism tier-1 test uses.

use sim_engine::codec;
use sim_engine::config::PolicyKind;
use sim_engine::experiments::{SuiteOptions, SuiteResults};
use sim_engine::system::run_workload_with_warmup;
use sim_engine::{SweepConfig, TraceMode};
use sweep_runner::json::Value;

fn grid_options() -> SuiteOptions {
    SuiteOptions::paper_full()
        .with_benchmarks(&["gcc", "soplex", "lbm"])
        .with_policies(&[PolicyKind::NuRapid, PolicyKind::Slip, PolicyKind::SlipAbp])
        .with_accesses(30_000)
        .with_warmup(5_000)
}

fn fingerprint(suite: &SuiteResults, bench: &str, policy: PolicyKind) -> String {
    codec::encode_result(suite.get(bench, policy)).to_json()
}

/// Every cell fingerprint of a suite, in grid order.
fn fingerprints(suite: &SuiteResults) -> Vec<String> {
    suite
        .benchmarks()
        .iter()
        .flat_map(|&b| {
            suite
                .options
                .policies
                .iter()
                .map(move |&p| fingerprint(suite, b, p))
        })
        .collect()
}

fn run(mode: TraceMode, jobs: usize, shards: usize) -> Vec<String> {
    let sweep = SweepConfig::with_jobs(jobs)
        .with_trace_mode(mode)
        .with_shards(shards);
    fingerprints(&SuiteResults::run_with(grid_options(), &sweep).unwrap())
}

/// The seed golden: every cell of the grid re-run through the verbatim
/// reference hot path, in the same grid order `fingerprints` uses.
fn reference_goldens(suite: &SuiteResults) -> Vec<String> {
    suite
        .benchmarks()
        .iter()
        .flat_map(|&bench| {
            let opts = &suite.options;
            opts.policies.iter().map(move |&policy| {
                let mut config = opts.cell_config(policy);
                config.reference_hot_path = true;
                let spec = workloads::workload(bench).expect("known benchmark");
                let result = run_workload_with_warmup(config, &spec, opts.accesses, opts.warmup);
                codec::encode_result(&result).to_json()
            })
        })
        .collect()
}

#[test]
fn all_modes_agree_with_the_seed_golden_across_jobs_and_shards() {
    // Anchor: the reference path, cell by cell. Everything else — every
    // trace mode, worker count, and shard count, all of which run the
    // optimized hot path by default — must reproduce it bit for bit.
    let inline = SuiteResults::run_with(
        grid_options(),
        &SweepConfig::with_jobs(1).with_trace_mode(TraceMode::Inline),
    )
    .unwrap();
    let reference = reference_goldens(&inline);
    assert_eq!(
        fingerprints(&inline),
        reference,
        "inline serial diverges from the reference-path seed golden"
    );
    for mode in [TraceMode::Inline, TraceMode::Shared, TraceMode::Fused] {
        for jobs in [1, 4] {
            // Fused groups own their worker and ignore shards; running
            // the shards=2 leg anyway asserts exactly that.
            for shards in [1, 2] {
                assert_eq!(
                    run(mode, jobs, shards),
                    reference,
                    "{} at jobs={jobs} shards={shards} diverges from the seed golden",
                    mode.label()
                );
            }
        }
    }
}

/// A scratch directory unique to this process and test thread.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slip-trace-pipeline-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn zero_cache_budget_falls_back_without_changing_results() {
    // A 0 MiB cache refuses every stream, so shared and fused sweeps
    // alike regenerate each cell inline — through the same fallback —
    // and say so in the journal.
    let suite = SuiteResults::run_with(
        grid_options(),
        &SweepConfig::with_jobs(1).with_trace_mode(TraceMode::Inline),
    )
    .unwrap();
    let reference = reference_goldens(&suite);
    let dir = scratch_dir("zero-cache");
    for mode in [TraceMode::Shared, TraceMode::Fused] {
        let journal = dir.join(format!("{}.jsonl", mode.label()));
        let starved = SweepConfig {
            trace_cache_mb: 0,
            journal: Some(journal.clone()),
            ..SweepConfig::with_jobs(2).with_trace_mode(mode)
        };
        let suite = SuiteResults::run_with(grid_options(), &starved).unwrap();
        assert_eq!(fingerprints(&suite), reference, "{}", mode.label());
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), reference.len(), "{}", mode.label());
        for line in lines {
            let record = Value::parse(line).unwrap();
            let metrics = record.get("metrics").unwrap();
            let label = |k: &str| metrics.get(k).and_then(|v| v.as_str()).map(str::to_owned);
            assert_eq!(label("exec_mode").as_deref(), Some("inline"), "{line}");
            assert_eq!(
                label("trace_source").as_deref(),
                Some("regenerated"),
                "{line}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_resume_across_a_shared_trace_group_is_deterministic() {
    let dir = scratch_dir("resume");
    let journal = dir.join("suite.jsonl");

    // First pass: run only part of the gcc group (baseline + SLIP), so
    // the journal holds a prefix of the group's cells.
    let partial = SuiteOptions::paper_full()
        .with_benchmarks(&["gcc"])
        .with_policies(&[PolicyKind::Slip])
        .with_accesses(30_000)
        .with_warmup(5_000);
    let sweep = SweepConfig {
        journal: Some(journal.clone()),
        ..SweepConfig::with_jobs(2).with_trace_mode(TraceMode::Shared)
    };
    SuiteResults::run_with(partial, &sweep).unwrap();
    let lines_first = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines_first, 2); // baseline + slip

    // Second pass widens the group: restored cells skip the cache
    // entirely while the new cells materialize and share the trace.
    // The combined suite must equal an unjournaled inline run.
    let full = grid_options();
    // 3 benchmarks x 4 policies (baseline is always added), minus the
    // 2 gcc cells already journaled.
    let resumed = SuiteResults::run_with(full, &sweep).unwrap();
    let lines_second = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines_second, 12, "exactly the 10 new cells were appended");
    let fresh = SuiteResults::run_with(
        grid_options(),
        &SweepConfig::with_jobs(1).with_trace_mode(TraceMode::Inline),
    )
    .unwrap();
    assert_eq!(fingerprints(&resumed), fingerprints(&fresh));

    std::fs::remove_dir_all(&dir).ok();
}
