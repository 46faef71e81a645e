//! Fast-path determinism check: the optimized hot path (SoA L1 with
//! packed LRU stacks, exact tag filter, q16 EOU kernel) must be
//! bit-identical to the verbatim reference path.
//!
//! This is the conformance-side guarantee backing the default
//! execution path: `reference_hot_path = false` is purely an execution
//! strategy, never a modeling change. The check replays adversarial
//! trace families — repeat-heavy loops and conflict storms that drive
//! the packed LRU stacks hardest, plus tag aliases, address edges, and
//! TLB thrash — through the reference path (`reference_hot_path =
//! true`) and the optimized buffer replay (`run_chunks`), and compares
//! the encoded results byte for byte.

use crate::adversarial::{self, Pattern};
use crate::invariants::Violation;
use sim_engine::config::{PolicyKind, SystemConfig};
use sim_engine::{codec, run_workload_from_buffer};
use workloads::TraceBuffer;

/// Where two JSON payloads first differ, with a little context — enough
/// to name the diverging field without dumping two full results.
fn first_difference(a: &str, b: &str) -> String {
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    let start = at.saturating_sub(40);
    let excerpt = |s: &str| -> String {
        s.get(start..(at + 40).min(s.len()))
            .unwrap_or("<non-utf8 boundary>")
            .to_owned()
    };
    format!(
        "first divergence at byte {at}:\n    reference: …{}…\n    fast path: …{}…",
        excerpt(a),
        excerpt(b)
    )
}

/// Replays one adversarial trace per (pattern, policy) case through the
/// reference path and the optimized buffer replay, requiring
/// bit-identical encoded results. A slice of the trace is treated as
/// warmup so the measurement reset is exercised as well.
pub fn check_fastpath_determinism(seed: u64, trace_len: u64, quiet: bool) -> Result<(), Violation> {
    let cases: [(Pattern, PolicyKind, Option<sim_engine::ReplacementKind>); 7] = [
        (Pattern::SingleLineLoop, PolicyKind::Baseline, None),
        (Pattern::ConflictStorm, PolicyKind::Baseline, None),
        (Pattern::TagAlias, PolicyKind::NuRapid, None),
        (Pattern::PhaseChange, PolicyKind::LruPea, None),
        (Pattern::MaxAddressEdge, PolicyKind::Baseline, None),
        (
            Pattern::RandomMix,
            PolicyKind::Baseline,
            Some(sim_engine::ReplacementKind::Drrip),
        ),
        (Pattern::TlbThrash, PolicyKind::SlipAbp, None),
    ];
    for (i, (pattern, policy, replacement)) in cases.into_iter().enumerate() {
        let scenario = format!("{pattern}/{policy:?}");
        if !quiet {
            eprintln!("  fastpath-determinism: {scenario}");
        }
        let trace = adversarial::generate(pattern, seed ^ ((i as u64) << 8), trace_len);
        let buffer = TraceBuffer::materialize(trace.iter().copied());
        let mut config = SystemConfig::paper_45nm(policy);
        if let Some(r) = replacement {
            config.replacement = r;
        }
        let warmup = trace_len / 8;

        let mut reference = config.clone();
        reference.reference_hot_path = true;
        let want = codec::encode_result(&run_workload_from_buffer(
            reference, &scenario, &buffer, warmup,
        ))
        .to_json();

        debug_assert!(!config.reference_hot_path);
        let got = codec::encode_result(&run_workload_from_buffer(
            config, &scenario, &buffer, warmup,
        ))
        .to_json();
        if got != want {
            return Err(Violation {
                invariant: "fastpath-determinism",
                scenario,
                step: None,
                detail: format!(
                    "optimized buffer replay is not bit-identical to the reference path \
                     (seed {seed:#x}, {trace_len} accesses, warmup {warmup});\n  {}",
                    first_difference(&want, &got)
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_matches_reference_over_adversarial_families() {
        if let Err(v) = check_fastpath_determinism(0x511b, 4_000, true) {
            panic!("{v}");
        }
    }
}
