//! `run-slip`: serial single runs of `soplex` and `mcf` under SLIP+ABP
//! over pre-materialized traces, each cell constructed, run through
//! `SingleCoreSystem::run_chunks` and finished, as `slip run` does.

use crate::check::{against_pinned, payload_json};
use crate::layers::{self, Counts, ProbeInput};
use crate::metrics::Report;
use crate::span::{span, span_work};
use crate::util::{secs, Rng};
use crate::window::{self, Ctx, Iter, Outcome, SetupTimes};
use sim_engine::{PolicyKind, SimResult, SystemConfig};
use std::time::Instant;
use workloads::TraceBuffer;

/// The benchmarks of the run workload, in run order.
const BENCHES: [&str; 2] = ["soplex", "mcf"];

/// Accesses per cell, `slip run`'s default length.
const ACCESSES: u64 = 2_000_000;

/// One cell's inputs.
struct Cell {
    bench: &'static str,
    config: SystemConfig,
    trace: TraceBuffer,
}

/// The simulation seed of a run workload at a benchmark seed.
fn sim_seed(seed: u64) -> u64 {
    Rng::new(seed, 0x5eed).next_u64() | 1
}

/// Builds both cells' configurations and traces, and one system per
/// cell (each iteration constructs its own again, as `slip run` does).
fn setup(policy: PolicyKind, seed: u64, len: u64) -> Vec<Cell> {
    let sim_seed = sim_seed(seed);
    BENCHES
        .iter()
        .map(|&bench| {
            let spec = workloads::workload(bench).expect("known benchmark");
            let config = layers::config(policy, sim_seed, 0);
            std::hint::black_box(span_work("sim-engine.construct", 0, 1, || {
                sim_engine::SingleCoreSystem::new(config.clone())
            }));
            Cell {
                bench,
                config,
                trace: layers::generate(&spec, len, sim_seed, 0),
            }
        })
        .collect()
}

/// One iteration: every cell at once, each a serial single run on its
/// own thread, as separate `slip run` processes would be. A lone serial
/// thread samples whichever CPU the scheduler gave it, and on a host
/// whose CPUs differ in speed its timings jump between them; keeping
/// every CPU busy holds that mix constant.
fn iteration(cells: &[Cell], iter: u64) -> Vec<SimResult> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .iter()
            .map(|c| {
                scope.spawn(move || layers::run_cell(c.config.clone(), c.bench, &c.trace, iter))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cell thread panicked"))
            .collect()
    })
}

pub fn run(ctx: &Ctx, policy: PolicyKind, report: &mut Report) -> Outcome {
    let mut setup_times = SetupTimes::default();
    let cells = setup_times.batch(|| setup(policy, ctx.seed, ACCESSES), drop);
    let mut reference: Option<(u64, Vec<String>)> = None;
    let mut last: Vec<SimResult> = Vec::new();
    let (w, overhead) = window::run(ctx, |seconds| {
        let iter = |k| {
            let t = Instant::now();
            let results = iteration(&cells, k);
            let ms = secs(t) * 1e3;
            let (digest, payloads) = layers::results_digest(&results, k);
            let first = reference.get_or_insert((digest, payloads)).0;
            report.check(first == digest, || {
                format!("iteration {k}: digest {digest:#018x} differs from the first {first:#018x}")
            });
            let accesses = results.iter().map(|r| r.accesses).sum();
            last = results;
            Iter {
                accesses,
                run_ms: ms,
            }
        };
        window::measure(seconds, iter, || {
            setup_times.batch(|| setup(policy, ctx.seed, ACCESSES), drop);
        })
    });
    let (digest, payloads) = reference.expect("at least one iteration ran");
    check_outputs(ctx, policy, &cells, digest, &payloads, report);

    let mut counts = Counts::default();
    last.iter().for_each(|r| counts.add(r));
    counts.emit(report);
    report.set(
        "workloads.trace_mb",
        cells.iter().map(|c| c.trace.approx_bytes()).sum::<u64>() as f64 / (1 << 20) as f64,
    );
    report.set("sim-engine.trace_cache_hit_ratio", 0.0);
    layers::emit_exec_modes(report, [None]);
    layers::emit_cell_costs(report, &last);
    // No sweep pool and no server here.
    report.set("sweep-runner.parallel_efficiency", 0.0);
    crate::serve::emit_absent(report);
    Outcome {
        setup_s: setup_times.median(),
        window: w,
        overhead,
        probe: ProbeInput {
            bench: BENCHES[0],
            seed: sim_seed(ctx.seed),
            len: ACCESSES,
            nuca: false,
            frames: Vec::new(),
        },
    }
}

/// Pins the cells' digest on seeds that have one, and on every seed
/// checks one seeded cell against the reference hot path, an
/// independent implementation of the same model fed by the trace
/// iterator.
fn check_outputs(
    ctx: &Ctx,
    policy: PolicyKind,
    cells: &[Cell],
    digest: u64,
    payloads: &[String],
    report: &mut Report,
) {
    eprintln!(
        "[perfbench] {} seed {} digest {digest:#018x}",
        ctx.workload, ctx.seed
    );
    if let Some(pinned) = against_pinned(ctx.workload, ctx.seed, digest) {
        report.check(pinned.is_ok(), || pinned.unwrap_err());
    }
    let i = Rng::new(ctx.seed, 0xc4ec).below(cells.len() as u64) as usize;
    let cell = &cells[i];
    let mut config = cell.config.clone();
    config.reference_hot_path = true;
    let spec = workloads::workload(cell.bench).expect("known benchmark");
    let r = span("sim-engine.reference_run", 0, || {
        sim_engine::run_workload(config, &spec, cell.trace.len())
    });
    report.check(payload_json(&r, 0) == payloads[i], || {
        format!(
            "{} {}: fast path differs from the reference path",
            cell.bench,
            policy.label()
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrunken_runs_repeat_exactly() {
        for policy in [PolicyKind::SlipAbp, PolicyKind::Baseline] {
            let cells = setup(policy, 3, 30_000);
            let once = iteration(&cells, 0);
            let twice = iteration(&cells, 1);
            assert_eq!(
                layers::results_digest(&once, 0).0,
                layers::results_digest(&twice, 1).0
            );
            let counts = |rs: &[SimResult]| {
                let mut c = Counts::default();
                rs.iter().for_each(|r| c.add(r));
                c
            };
            assert_eq!(counts(&once), counts(&twice));
            assert!(once.iter().all(|r| r.accesses == 30_000));
        }
    }

    #[test]
    fn the_seed_changes_the_inputs() {
        let a = iteration(&setup(PolicyKind::Baseline, 1, 20_000), 0);
        let b = iteration(&setup(PolicyKind::Baseline, 2, 20_000), 0);
        assert_ne!(
            layers::results_digest(&a, 0).0,
            layers::results_digest(&b, 0).0
        );
    }
}
