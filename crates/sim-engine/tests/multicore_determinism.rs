//! Tier-1 determinism guarantees of the two-core shared-L3 driver and
//! the `TraceMode::Shared` suite path: results are bit-identical across
//! worker counts and trace execution modes.

use sim_engine::codec;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::experiments::{SuiteOptions, SuiteResults};
use sim_engine::multicore::{run_mix, MulticoreResult};
use sim_engine::{SweepConfig, TraceMode};

const LEN: u64 = 25_000;

/// The first three paper mixes x the two headline policies.
fn cells() -> Vec<((&'static str, &'static str), PolicyKind)> {
    workloads::MULTICORE_MIXES[..3]
        .iter()
        .flat_map(|&mix| [PolicyKind::Baseline, PolicyKind::SlipAbp].map(move |p| (mix, p)))
        .collect()
}

/// `MulticoreResult` has no `PartialEq`; its derived `Debug` prints
/// every counter and every float exactly, which is fingerprint enough
/// for bit-exactness checks (and it carries no wall-clock field).
fn fingerprint(r: &MulticoreResult) -> String {
    format!("{r:?}")
}

fn run_cell(cell: ((&str, &str), PolicyKind)) -> MulticoreResult {
    let ((a, b), policy) = cell;
    let spec_a = workloads::workload(a).expect("known benchmark");
    let spec_b = workloads::workload(b).expect("known benchmark");
    run_mix(SystemConfig::paper_45nm(policy), &spec_a, &spec_b, LEN)
}

#[test]
fn mixes_are_bit_identical_across_worker_counts() {
    let cells = cells();
    let serial = sweep_runner::run_indexed(cells.len(), 1, |i| fingerprint(&run_cell(cells[i])));
    let parallel = sweep_runner::run_indexed(cells.len(), 4, |i| fingerprint(&run_cell(cells[i])));
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s, p,
            "mix cell {:?} differs between jobs=1 and jobs=4",
            cells[i]
        );
    }
}

#[test]
fn repeated_mixes_are_bit_identical() {
    let cell = (workloads::MULTICORE_MIXES[0], PolicyKind::SlipAbp);
    assert_eq!(fingerprint(&run_cell(cell)), fingerprint(&run_cell(cell)));
}

/// The shared-trace suite path (the default `TraceMode`) must agree
/// bit-for-bit with inline generation and stay deterministic across
/// worker counts; the modes differ only in throughput.
#[test]
fn shared_trace_mode_is_deterministic_and_matches_inline() {
    let options = || {
        SuiteOptions::paper_full()
            .with_benchmarks(&["gcc", "lbm"])
            .with_policies(&[PolicyKind::Slip, PolicyKind::SlipAbp])
            .with_accesses(30_000)
            .with_warmup(4_000)
    };
    let suite_fp = |s: &SuiteResults, bench: &str, policy: PolicyKind| {
        codec::encode_result(s.get(bench, policy)).to_json()
    };
    let shared_mode = |jobs| SweepConfig::with_jobs(jobs).with_trace_mode(TraceMode::Shared);

    let shared_1 = SuiteResults::run_with(options(), &shared_mode(1)).unwrap();
    let shared_4 = SuiteResults::run_with(options(), &shared_mode(4)).unwrap();
    let inline = SuiteResults::run_with(
        options(),
        &SweepConfig::with_jobs(4).with_trace_mode(TraceMode::Inline),
    )
    .unwrap();
    for &bench in shared_1.benchmarks() {
        for &policy in &shared_1.options.policies {
            let reference = suite_fp(&shared_1, bench, policy);
            assert_eq!(
                reference,
                suite_fp(&shared_4, bench, policy),
                "shared-mode cell ({bench}, {policy}) differs between jobs=1 and jobs=4"
            );
            assert_eq!(
                reference,
                suite_fp(&inline, bench, policy),
                "cell ({bench}, {policy}) differs between shared and inline trace modes"
            );
        }
    }
}
