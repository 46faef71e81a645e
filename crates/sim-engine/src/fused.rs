//! Buffered replay: decode a materialized trace once, step every cell.
//!
//! A sweep's policy cells of one benchmark replay the identical packed
//! trace. [`run_group_from_buffer`] unpacks each [`TraceBuffer`] chunk
//! once and steps *all* the group's [`SingleCoreSystem`]s through it in
//! lockstep, with per-cell state kept fully independent so every result
//! is **bit-identical** to the cell's standalone replay (held by the
//! `fused-determinism` conformance check and the golden tests). A
//! single cell's replay, [`run_workload_from_buffer`], is the group of
//! one.
//!
//! On top of the shared decode, groups of two or more that qualify get
//! a shared L1: in the default non-inclusive hierarchy the L1 is
//! **policy-invariant** — it always runs the hardcoded baseline-LRU
//! pair, every L1 miss fills it regardless of what the lower levels
//! decided, SLIP metadata traffic never touches it, and nothing below
//! the L1 ever reaches back into it (back-invalidation is
//! inclusive-only). Every cell of a same-trace group therefore drives
//! its L1 through the *same* access and fill sequence, and since the
//! cache substrate is a pure function of set-local history (no
//! dependence on the cycle clock), one shared L1 instance reproduces
//! each cell's L1 evolution exactly. The group probes it once per
//! access and hands each cell an [`L1Verdict`] for
//! [`SingleCoreSystem::step_with`].
//!
//! Groups without a shared L1 (a single cell, an inclusive LLC,
//! heterogeneous L1 geometry) step each system through its own L1
//! ([`SingleCoreSystem::run_chunks`]).
//!
//! [`run_group_observed`] is the same lockstep loop with a per-access
//! hook between cells — the conformance fuzzer's cross-policy
//! divergence probe for prefix minimization.

use crate::config::SystemConfig;
use crate::result::SimResult;
use crate::system::{L1Verdict, SingleCoreSystem};
use cache_sim::{
    Access, AccessClass, AccessResult, BaselinePolicy, CacheLevel, CacheStats, FillRequest, Lru,
};
use energy_model::EnergyAccount;
use std::time::Instant;
use workloads::buffer::DEFAULT_CHUNK_ACCESSES;
use workloads::{unpack_access, TraceBuffer};

/// Whether a group of configurations can share one L1 instance: all
/// non-inclusive (nothing below the L1 reaches back into it) with
/// identical L1 construction parameters. The L1's tie-break RNG streams
/// are seeded from its geometry alone, so the master seed need not
/// match.
pub fn shared_l1_eligible(configs: &[SystemConfig]) -> bool {
    let Some(first) = configs.first() else {
        return false;
    };
    configs.iter().all(|c| {
        !c.inclusive_llc
            && c.l1_sets == first.l1_sets
            && c.l1_ways == first.l1_ways
            && c.l1_latency == first.l1_latency
            && c.l1_energy == first.l1_energy
            && c.reference_hot_path == first.reference_hot_path
    })
}

/// The group-shared L1: the policy-invariant baseline-LRU level every
/// cell would have built for itself, plus the per-chunk decode and
/// verdicts it hands the cells.
struct SharedL1 {
    level: CacheLevel,
    policy: BaselinePolicy,
    repl: Lru,
    /// The current segment, decoded once.
    accesses: Vec<Access>,
    /// One verdict per decoded access.
    verdicts: Vec<L1Verdict>,
}

impl SharedL1 {
    fn new(config: &SystemConfig) -> SharedL1 {
        SharedL1 {
            level: config.build_l1(),
            policy: BaselinePolicy::new(),
            repl: Lru::new(),
            accesses: Vec::with_capacity(DEFAULT_CHUNK_ACCESSES),
            verdicts: Vec::with_capacity(DEFAULT_CHUNK_ACCESSES),
        }
    }

    /// Probes one demand access and, on a miss, fills immediately —
    /// equivalent to the serial probe-then-fill-later sequence because
    /// nothing touches the L1 in between on a non-inclusive hierarchy.
    fn step(&mut self, access: Access) -> L1Verdict {
        let r = self.level.access(
            access.line(),
            access.kind,
            AccessClass::Demand,
            0,
            &mut self.policy,
            &mut self.repl,
        );
        match r {
            AccessResult::Hit(h) => L1Verdict {
                hit: true,
                latency: h.latency,
                writeback: None,
            },
            AccessResult::Miss { latency } => {
                let mut req = FillRequest::new(access.line());
                req.dirty = access.kind.is_write();
                let out = self.level.fill(req, 0, &mut self.policy, &mut self.repl);
                L1Verdict {
                    hit: false,
                    latency,
                    writeback: out.writeback(),
                }
            }
        }
    }

    /// Decodes `segment` and runs every access through the L1,
    /// recording one verdict per access.
    fn verdict_pass(&mut self, segment: &[u64]) {
        self.accesses.clear();
        self.verdicts.clear();
        for &word in segment {
            let access = unpack_access(word);
            let verdict = self.step(access);
            self.accesses.push(access);
            self.verdicts.push(verdict);
        }
    }

    fn reset_measurements(&mut self) {
        self.level.reset_measurements();
    }

    fn finish(mut self) -> (CacheStats, EnergyAccount) {
        self.level.finalize();
        (self.level.stats.clone(), self.level.energy())
    }
}

/// Steps every system of the group through one segment.
fn run_segment(systems: &mut [SingleCoreSystem], shared: &mut Option<SharedL1>, segment: &[u64]) {
    match shared {
        Some(l1) => {
            l1.verdict_pass(segment);
            for sys in systems.iter_mut() {
                for (&a, v) in l1.accesses.iter().zip(&l1.verdicts) {
                    sys.step_with(a, Some(v));
                }
            }
        }
        None => {
            for sys in systems.iter_mut() {
                sys.run_chunks([segment]);
            }
        }
    }
}

/// Builds the group's systems (and shared L1 when the group qualifies).
fn build_group(configs: Vec<SystemConfig>) -> (Vec<SingleCoreSystem>, Option<SharedL1>) {
    assert!(
        !configs.is_empty(),
        "fused group must have at least one cell"
    );
    let shared =
        (configs.len() > 1 && shared_l1_eligible(&configs)).then(|| SharedL1::new(&configs[0]));
    let systems = configs.into_iter().map(SingleCoreSystem::new).collect();
    (systems, shared)
}

/// Finalizes the group: per-cell results, with the shared L1's stats
/// and energy (identical to what each cell's own L1 would have
/// accumulated) written into every result.
fn finish_group(
    systems: Vec<SingleCoreSystem>,
    shared: Option<SharedL1>,
    name: &str,
    wall: f64,
) -> Vec<SimResult> {
    let shared_final = shared.map(SharedL1::finish);
    let per_cell_wall = wall / systems.len() as f64;
    systems
        .into_iter()
        .map(|sys| {
            let mut r = sys.finish(name.to_owned());
            if let Some((stats, energy)) = &shared_final {
                r.l1_stats = stats.clone();
                r.l1_energy = energy.clone();
            }
            r.wall_time_secs = per_cell_wall;
            r
        })
        .collect()
}

/// Runs all `configs` over one materialized trace in lockstep,
/// returning one result per config (in order). The buffer must hold the
/// full `warmup + len` stream; measurements reset at the warmup
/// boundary exactly as in the per-cell runners, and the group's
/// measured wall time is split evenly across the cells
/// (`wall_time_secs` is outside the bit-exact payload).
pub fn run_group_from_buffer(
    configs: Vec<SystemConfig>,
    name: &str,
    buffer: &TraceBuffer,
    warmup: u64,
) -> Vec<SimResult> {
    let (mut systems, mut shared) = build_group(configs);
    let mut remaining = usize::try_from(warmup).expect("warmup fits usize");
    let mut chunks = buffer.chunks();
    let mut tail: &[u64] = &[];
    for chunk in chunks.by_ref() {
        if remaining >= chunk.len() {
            run_segment(&mut systems, &mut shared, chunk);
            remaining -= chunk.len();
        } else {
            let (head, rest) = chunk.split_at(remaining);
            run_segment(&mut systems, &mut shared, head);
            remaining = 0;
            tail = rest;
            break;
        }
    }
    assert_eq!(remaining, 0, "trace long enough for warmup");
    for sys in &mut systems {
        sys.reset_measurements();
    }
    if let Some(l1) = &mut shared {
        l1.reset_measurements();
    }
    let started = Instant::now();
    run_segment(&mut systems, &mut shared, tail);
    for chunk in chunks {
        run_segment(&mut systems, &mut shared, chunk);
    }
    let wall = started.elapsed().as_secs_f64();
    finish_group(systems, shared, name, wall)
}

/// Runs `warmup` unmeasured then the rest measured over a materialized
/// trace, replaying `buffer` without any regeneration: the group of
/// one. The buffer must hold the full `warmup + len` stream of the
/// cell.
pub fn run_workload_from_buffer(
    config: SystemConfig,
    name: &str,
    buffer: &TraceBuffer,
    warmup: u64,
) -> SimResult {
    run_group_from_buffer(vec![config], name, buffer, warmup)
        .pop()
        .expect("one config in, one result out")
}

/// The lockstep loop with a per-access observation hook: after every
/// access steps through all cells, `observe(index, &systems)` sees the
/// group's state (`index` counts from 0 over the whole stream, warmup
/// included). Returning `false` aborts the replay and yields `None` —
/// the conformance fuzzer uses this to find the shortest prefix on
/// which two policies diverge. A completed run returns results
/// bit-identical to [`run_group_from_buffer`] (untimed).
pub fn run_group_observed(
    configs: Vec<SystemConfig>,
    name: &str,
    buffer: &TraceBuffer,
    warmup: u64,
    mut observe: impl FnMut(u64, &[SingleCoreSystem]) -> bool,
) -> Option<Vec<SimResult>> {
    let (mut systems, mut shared) = build_group(configs);
    let mut index = 0u64;
    for chunk in buffer.chunks() {
        for &word in chunk {
            if index == warmup {
                for sys in &mut systems {
                    sys.reset_measurements();
                }
                if let Some(l1) = &mut shared {
                    l1.reset_measurements();
                }
            }
            let access = unpack_access(word);
            let verdict = shared.as_mut().map(|l1| l1.step(access));
            for sys in &mut systems {
                sys.step_with(access, verdict.as_ref());
            }
            if !observe(index, &systems) {
                return None;
            }
            index += 1;
        }
    }
    assert!(index >= warmup, "trace long enough for warmup");
    if index == warmup {
        for sys in &mut systems {
            sys.reset_measurements();
        }
        if let Some(l1) = &mut shared {
            l1.reset_measurements();
        }
    }
    Some(finish_group(systems, shared, name, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::config::PolicyKind;
    use crate::system::run_workload_with_warmup;

    fn fingerprint(r: &SimResult) -> String {
        codec::encode_result(r).to_json()
    }

    fn group_configs() -> Vec<SystemConfig> {
        PolicyKind::ALL
            .iter()
            .map(|&p| SystemConfig::paper_45nm(p))
            .collect()
    }

    #[test]
    fn eligibility_gates_inclusive_and_heterogeneous_groups() {
        let mut configs = group_configs();
        assert!(shared_l1_eligible(&configs));
        configs[2].inclusive_llc = true;
        assert!(!shared_l1_eligible(&configs));
        let mut configs = group_configs();
        configs[1].l1_sets = 32;
        assert!(!shared_l1_eligible(&configs));
        assert!(!shared_l1_eligible(&[]));
    }

    #[test]
    fn shared_buffer_matches_inline_bit_exactly() {
        let spec = workloads::workload("soplex").unwrap();
        let config = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        let inline = run_workload_with_warmup(config.clone(), &spec, 15_000, 2_000);
        let buffer = TraceBuffer::materialize(spec.trace(17_000, config.seed));
        let shared = run_workload_from_buffer(config, spec.name(), &buffer, 2_000);
        assert_eq!(fingerprint(&inline), fingerprint(&shared));
    }

    #[test]
    fn chunk_boundary_lengths_are_handled() {
        // Exactly one chunk and one-over, with the warmup boundary on
        // and off a chunk edge: segment splitting must not drop or
        // repeat accesses, alone or in a group.
        let spec = workloads::workload("gcc").unwrap();
        let chunk = DEFAULT_CHUNK_ACCESSES as u64;
        for (len, warmup) in [(chunk, 0), (chunk + 1, 0), (chunk + 1, chunk), (chunk, 7)] {
            let configs = group_configs();
            let buffer = TraceBuffer::materialize(spec.trace(len, configs[0].seed));
            let group = run_group_from_buffer(configs.clone(), spec.name(), &buffer, warmup);
            for (config, fused) in configs.into_iter().zip(&group) {
                let inline = run_workload_with_warmup(config, &spec, len - warmup, warmup);
                assert_eq!(fingerprint(&inline), fingerprint(fused), "len {len}");
            }
        }
    }

    #[test]
    fn fused_group_matches_per_cell_replay_bit_exactly() {
        let spec = workloads::workload("gcc").unwrap();
        let configs = group_configs();
        let seed = configs[0].seed;
        let buffer = TraceBuffer::materialize(spec.trace(23_000, seed));
        let fused = run_group_from_buffer(configs.clone(), spec.name(), &buffer, 3_000);
        assert_eq!(fused.len(), configs.len());
        for (config, fused) in configs.into_iter().zip(&fused) {
            let solo = run_workload_from_buffer(config, spec.name(), &buffer, 3_000);
            assert_eq!(fingerprint(&solo), fingerprint(fused), "{:?}", fused.policy);
        }
    }

    #[test]
    fn ineligible_group_falls_back_to_plain_lockstep_bit_exactly() {
        let spec = workloads::workload("soplex").unwrap();
        let mut configs: Vec<SystemConfig> = [PolicyKind::Baseline, PolicyKind::SlipAbp]
            .iter()
            .map(|&p| SystemConfig::paper_45nm(p))
            .collect();
        for c in &mut configs {
            c.inclusive_llc = true;
        }
        assert!(!shared_l1_eligible(&configs));
        let buffer = TraceBuffer::materialize(spec.trace(12_000, configs[0].seed));
        let fused = run_group_from_buffer(configs.clone(), spec.name(), &buffer, 2_000);
        for (config, fused) in configs.into_iter().zip(&fused) {
            let solo = run_workload_from_buffer(config, spec.name(), &buffer, 2_000);
            assert_eq!(fingerprint(&solo), fingerprint(fused));
        }
    }

    #[test]
    fn observed_run_matches_production_and_aborts_cleanly() {
        let spec = workloads::workload("gcc").unwrap();
        let configs = group_configs();
        let buffer = TraceBuffer::materialize(spec.trace(9_000, configs[0].seed));
        let fused = run_group_from_buffer(configs.clone(), spec.name(), &buffer, 1_000);
        let mut seen = 0u64;
        let observed =
            run_group_observed(configs.clone(), spec.name(), &buffer, 1_000, |i, sys| {
                assert_eq!(sys.len(), PolicyKind::ALL.len());
                seen = i + 1;
                true
            })
            .expect("uninterrupted run completes");
        assert_eq!(seen, 9_000);
        for (a, b) in fused.iter().zip(&observed) {
            assert_eq!(fingerprint(a), fingerprint(b), "{:?}", a.policy);
        }
        // Aborting mid-stream yields None.
        let aborted = run_group_observed(configs, spec.name(), &buffer, 1_000, |i, _| i < 100);
        assert!(aborted.is_none());
    }

    #[test]
    fn zero_measured_length_is_handled() {
        let spec = workloads::workload("gcc").unwrap();
        let configs = group_configs();
        let buffer = TraceBuffer::materialize(spec.trace(5_000, configs[0].seed));
        for r in run_group_from_buffer(configs, spec.name(), &buffer, 5_000) {
            assert_eq!(r.accesses, 0);
            assert_eq!(r.cycles, 0);
        }
    }
}
