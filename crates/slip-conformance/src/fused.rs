//! Fused-determinism check: a fused multi-policy group replay must be
//! bit-identical to each cell's standalone replay of the same buffer.
//!
//! This is the conformance-side guarantee backing `--trace-mode fused`:
//! fusing the decode (and sharing the policy-invariant L1) is purely an
//! execution strategy, never a modeling change. The check replays
//! adversarial trace families through [`run_group_from_buffer`] with
//! *all five* policies in one group and through the per-cell
//! [`run_workload_from_buffer`] path, comparing the encoded results
//! byte for byte — warmup included, so the group-wide measurement reset
//! at the warmup boundary is exercised too. An inclusive-LLC group is
//! covered as well: it must take the plain-lockstep fallback (no shared
//! L1) and still match.
//!
//! On a mismatch the check does not stop at "results differ": it
//! re-runs the diverging cell as a singleton fused group under
//! [`run_group_observed`], stepping a reference system in lockstep and
//! comparing the cheap [`SingleCoreSystem::probe`] counters after every
//! access — the violation then names the first diverging access, the
//! shortest prefix a debugging session needs to replay.

use crate::adversarial::{self, Pattern};
use crate::invariants::Violation;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::run_workload_from_buffer;
use sim_engine::{codec, run_group_from_buffer, run_group_observed, SingleCoreSystem};
use workloads::TraceBuffer;

/// First access at which a singleton fused replay of `config` diverges
/// from the plain per-access reference replay of the same buffer
/// (`None` when the probes agree at every step — the divergence lies in
/// finalization, not the access stream).
fn first_diverging_access(
    config: SystemConfig,
    scenario: &str,
    buffer: &TraceBuffer,
    warmup: u64,
) -> Option<u64> {
    let mut reference = SingleCoreSystem::new(config.clone());
    let mut stream = buffer.iter();
    let mut first = None;
    run_group_observed(vec![config], scenario, buffer, warmup, |i, group| {
        // Mirror the observed runner exactly: measurements reset
        // before the first post-warmup access steps.
        if i == warmup {
            reference.reset_measurements();
        }
        if let Some(access) = stream.next() {
            reference.step(access);
        }
        if reference.probe() != group[0].probe() {
            first = Some(i);
            return false;
        }
        true
    });
    first
}

/// Replays one adversarial trace per pattern through a fused group of
/// every policy and through each cell's standalone buffer replay,
/// requiring bit-identical encoded results. A slice of the trace is
/// treated as warmup so the fused group-wide measurement reset is
/// exercised as well.
pub fn check_fused_determinism(seed: u64, trace_len: u64, quiet: bool) -> Result<(), Violation> {
    // Shared-L1 groups across several trace families, plus one
    // inclusive-LLC group that must take the plain-lockstep fallback.
    let group_of = |inclusive: bool| -> Vec<SystemConfig> {
        PolicyKind::ALL
            .iter()
            .map(|&p| {
                let mut c = SystemConfig::paper_45nm(p);
                c.inclusive_llc = inclusive;
                c
            })
            .collect()
    };
    let cases: [(Pattern, bool); 4] = [
        (Pattern::ConflictStorm, false),
        (Pattern::TlbThrash, false),
        (Pattern::RandomMix, false),
        (Pattern::PhaseChange, true),
    ];
    for (i, (pattern, inclusive)) in cases.into_iter().enumerate() {
        let scenario = format!(
            "{pattern}/{}",
            if inclusive { "inclusive" } else { "shared-l1" }
        );
        if !quiet {
            eprintln!("  fused-determinism: {scenario}");
        }
        let trace = adversarial::generate(pattern, seed ^ ((i as u64) << 12), trace_len);
        let buffer = TraceBuffer::materialize(trace.iter().copied());
        let warmup = trace_len / 8;
        let configs = group_of(inclusive);
        let fused = run_group_from_buffer(configs.clone(), &scenario, &buffer, warmup);
        for (config, fused) in configs.into_iter().zip(fused) {
            let policy = config.policy;
            let solo = run_workload_from_buffer(config.clone(), &scenario, &buffer, warmup);
            let want = codec::encode_result(&solo).to_json();
            let got = codec::encode_result(&fused).to_json();
            if got != want {
                let at = first_diverging_access(config, &scenario, &buffer, warmup);
                return Err(Violation {
                    invariant: "fused-determinism",
                    scenario: format!("{scenario} policy={policy:?}"),
                    step: at,
                    detail: format!(
                        "fused group cell is not bit-identical to its standalone replay \
                         (seed {seed:#x}, {trace_len} accesses, warmup {warmup}); first \
                         diverging access: {}",
                        at.map_or("none (finalization)".to_owned(), |a| a.to_string())
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_groups_match_per_cell_over_adversarial_families() {
        if let Err(v) = check_fused_determinism(0x511b, 4_000, true) {
            panic!("{v}");
        }
    }

    #[test]
    fn divergence_localizer_agrees_on_clean_runs() {
        // On a clean configuration the probes never differ, so the
        // localizer reports no diverging access.
        let trace = adversarial::generate(Pattern::ConflictStorm, 0x511b, 1_500);
        let buffer = TraceBuffer::materialize(trace.iter().copied());
        let config = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        assert_eq!(first_diverging_access(config, "clean", &buffer, 200), None);
    }
}
