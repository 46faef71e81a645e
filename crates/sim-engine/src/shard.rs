//! Set-sharded single-run parallelism.
//!
//! One simulation is split across worker threads by cache-set
//! ownership: every level's set index is the low bits of the line
//! address (all set counts are powers of two), so the low
//! `log2(shards)` line bits pick a stable owner for an access at
//! *every* level at once. Each shard steps its own
//! [`SingleCoreSystem`] over exactly the accesses it owns — in global
//! trace order — and the per-shard measurements merge at the end
//! ([`SingleCoreSystem::absorb`]) in a pinned reduction order, so a
//! sharded run is **bit-identical** to the serial one (the
//! `shard-determinism` conformance check and the tests below hold this
//! line).
//!
//! Why this is exact and not approximate: after the per-set
//! decomposition of the cache substrate (per-set reuse stamps, per-set
//! port backlog, per-set slot/placement RNGs, counter-based energy
//! ledgers), every architectural decision is a pure function of
//! set-local history, and everything else — stats, ledgers, cycles,
//! DRAM counters — is a plain sum over accesses. Restricting a system
//! to the sets of one shard therefore reproduces the serial system's
//! behavior on those sets exactly, and the sums recombine losslessly.
//!
//! Not every configuration decomposes: the SLIP policies route every
//! access through a *global* MMU/TLB whose state couples sets, and the
//! DRRIP/SHiP replacement policies keep global set-dueling/SHCT state.
//! [`shardable`] gates those; non-shardable configurations fall back
//! to the serial path transparently (same function, same result, one
//! thread).

use crate::config::{PolicyKind, ReplacementKind, SystemConfig};
use crate::fused::run_workload_from_buffer;
use crate::result::SimResult;
use crate::system::{run_workload_with_warmup, SingleCoreSystem};
use std::time::Instant;
use workloads::{unpack_access, TraceBuffer, WorkloadSpec};

/// Whether a configuration's single-core simulation decomposes by
/// cache set (see the module docs for why each case does or does not).
pub fn shardable(config: &SystemConfig) -> bool {
    match config.policy {
        // The SLIP MMU (TLB, page table, samplers, EOU) is global.
        PolicyKind::Slip | PolicyKind::SlipAbp => false,
        // LRU-PEA forces the PeaLru replacement (per-set state) and its
        // placement RNG streams are per-set.
        PolicyKind::LruPea => true,
        // Baseline/NuRAPID decompose unless the replacement policy
        // carries global state (DRRIP set dueling, SHiP's SHCT).
        PolicyKind::Baseline | PolicyKind::NuRapid => config.replacement == ReplacementKind::Lru,
    }
}

/// Validates a user-requested shard count at the CLI/env boundary:
/// the owner of a line is a fixed bit field of its address, so only
/// powers of two are meaningful. Returns the count unchanged when
/// valid; callers surface the error instead of silently rounding
/// (which `--shards 3` used to do).
pub fn validate_shards(requested: usize) -> Result<usize, String> {
    if requested >= 1 && requested.is_power_of_two() {
        Ok(requested)
    } else {
        Err(format!(
            "shard count {requested} is not a power of two; the shard owner is a \
             fixed bit field of the line address (use 1, 2, 4, 8, ...)"
        ))
    }
}

/// Normalizes a requested shard count: rounded down to a power of two
/// (the owner of a line must be a fixed bit field of its address) and
/// clamped to the smallest set count in the hierarchy so every shard
/// owns at least one set per level. Returns 1 when the configuration
/// is not [`shardable`].
pub fn effective_shards(requested: usize, config: &SystemConfig) -> usize {
    if requested <= 1 || !shardable(config) {
        return 1;
    }
    let min_sets = config
        .l1_sets
        .min(config.l2_geometry().sets)
        .min(config.l3_geometry().sets);
    let mut shards = requested.min(min_sets);
    while !shards.is_power_of_two() {
        shards &= shards - 1;
    }
    shards
}

/// Steps `system` over the accesses of shard `k` (of `mask + 1`),
/// mirroring the serial warmup-then-measure structure: the reset
/// happens at the *global* warmup boundary, whether or not the
/// boundary access belongs to this shard.
fn run_shard_spec(
    config: SystemConfig,
    spec: &WorkloadSpec,
    len: u64,
    warmup: u64,
    mask: u64,
    k: u64,
) -> SingleCoreSystem {
    let seed = config.seed;
    let mut system = SingleCoreSystem::new(config);
    let mut trace = spec.trace(warmup + len, seed);
    for _ in 0..warmup {
        let access = trace.next().expect("trace long enough for warmup");
        if access.line().0 & mask == k {
            system.step(access);
        }
    }
    system.reset_measurements();
    for access in trace {
        if access.line().0 & mask == k {
            system.step(access);
        }
    }
    system
}

/// Shard-`k` replay of a materialized buffer; packed words carry the
/// line address in their high bits, so ownership is decided without
/// unpacking.
fn run_shard_buffer(
    config: SystemConfig,
    buffer: &TraceBuffer,
    warmup: u64,
    mask: u64,
    k: u64,
) -> SingleCoreSystem {
    let mut system = SingleCoreSystem::new(config);
    let mut index = 0u64;
    for chunk in buffer.chunks() {
        for &word in chunk {
            if index == warmup {
                system.reset_measurements();
            }
            index += 1;
            if (word >> 1) & mask == k {
                system.step(unpack_access(word));
            }
        }
    }
    assert!(index >= warmup, "trace long enough for warmup");
    if index == warmup {
        // Zero measured accesses: the in-loop reset never fired.
        system.reset_measurements();
    }
    system
}

/// Joins the per-shard systems in pinned order (shard 0 absorbs 1, 2,
/// …) and finishes; the fixed reduction order keeps the floating-point
/// finalization identical from run to run.
fn reduce(mut systems: Vec<SingleCoreSystem>, name: &str, started: Instant) -> SimResult {
    let mut main = systems.remove(0);
    for shard in &mut systems {
        main.absorb(shard);
    }
    let wall = started.elapsed().as_secs_f64();
    let mut result = main.finish(name.to_owned());
    result.wall_time_secs = wall;
    result
}

/// Set-sharded [`run_workload_with_warmup`]: each shard regenerates
/// the trace and steps only the accesses it owns. Falls back to the
/// serial runner (identical result) when `shards` resolves to 1.
pub fn run_workload_sharded(
    config: SystemConfig,
    spec: &WorkloadSpec,
    len: u64,
    warmup: u64,
    shards: usize,
) -> SimResult {
    let shards = effective_shards(shards, &config);
    if shards == 1 {
        return run_workload_with_warmup(config, spec, len, warmup);
    }
    let mask = shards as u64 - 1;
    let started = Instant::now();
    let systems: Vec<SingleCoreSystem> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards as u64)
            .map(|k| {
                let config = config.clone();
                scope.spawn(move || run_shard_spec(config, spec, len, warmup, mask, k))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    reduce(systems, spec.name(), started)
}

/// Set-sharded [`run_workload_from_buffer`]: the shards replay one
/// shared materialized trace. Falls back to the serial buffer runner
/// (identical result) when `shards` resolves to 1.
pub fn run_buffer_sharded(
    config: SystemConfig,
    name: &str,
    buffer: &TraceBuffer,
    warmup: u64,
    shards: usize,
) -> SimResult {
    let shards = effective_shards(shards, &config);
    if shards == 1 {
        return run_workload_from_buffer(config, name, buffer, warmup);
    }
    let mask = shards as u64 - 1;
    let started = Instant::now();
    let systems: Vec<SingleCoreSystem> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards as u64)
            .map(|k| {
                let config = config.clone();
                scope.spawn(move || run_shard_buffer(config, buffer, warmup, mask, k))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    reduce(systems, name, started)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;

    fn fingerprint(r: &SimResult) -> String {
        codec::encode_result(r).to_json()
    }

    #[test]
    fn shardable_gates_global_state() {
        let mut c = SystemConfig::paper_45nm(PolicyKind::Baseline);
        assert!(shardable(&c));
        c.replacement = ReplacementKind::Drrip;
        assert!(!shardable(&c));
        c.replacement = ReplacementKind::Ship;
        assert!(!shardable(&c));
        assert!(shardable(&SystemConfig::paper_45nm(PolicyKind::LruPea)));
        assert!(shardable(&SystemConfig::paper_45nm(PolicyKind::NuRapid)));
        assert!(!shardable(&SystemConfig::paper_45nm(PolicyKind::Slip)));
        assert!(!shardable(&SystemConfig::paper_45nm(PolicyKind::SlipAbp)));
    }

    #[test]
    fn validate_shards_rejects_non_powers_of_two() {
        assert_eq!(validate_shards(1), Ok(1));
        assert_eq!(validate_shards(2), Ok(2));
        assert_eq!(validate_shards(64), Ok(64));
        for bad in [0usize, 3, 5, 6, 7, 12, 100] {
            let err = validate_shards(bad).unwrap_err();
            assert!(err.contains("power of two"), "{bad}: {err}");
        }
    }

    #[test]
    fn effective_shards_normalizes_to_power_of_two() {
        let c = SystemConfig::paper_45nm(PolicyKind::Baseline);
        assert_eq!(effective_shards(0, &c), 1);
        assert_eq!(effective_shards(1, &c), 1);
        assert_eq!(effective_shards(2, &c), 2);
        assert_eq!(effective_shards(3, &c), 2);
        assert_eq!(effective_shards(4, &c), 4);
        assert_eq!(effective_shards(7, &c), 4);
        // Clamped to the smallest set count (the 64-set L1).
        assert_eq!(effective_shards(1 << 20, &c), 64);
        // SLIP never shards.
        let slip = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        assert_eq!(effective_shards(8, &slip), 1);
    }

    #[test]
    fn sharded_matches_serial_bit_exactly() {
        let spec = workloads::workload("gcc").unwrap();
        for policy in [
            PolicyKind::Baseline,
            PolicyKind::NuRapid,
            PolicyKind::LruPea,
        ] {
            let serial =
                run_workload_with_warmup(SystemConfig::paper_45nm(policy), &spec, 20_000, 3_000);
            for shards in [2usize, 4] {
                let sharded = run_workload_sharded(
                    SystemConfig::paper_45nm(policy),
                    &spec,
                    20_000,
                    3_000,
                    shards,
                );
                assert_eq!(
                    fingerprint(&serial),
                    fingerprint(&sharded),
                    "{policy:?} x{shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_buffer_matches_serial_bit_exactly() {
        let spec = workloads::workload("soplex").unwrap();
        let config = SystemConfig::paper_45nm(PolicyKind::Baseline);
        let buffer = TraceBuffer::materialize(spec.trace(17_000, config.seed));
        let serial = run_workload_from_buffer(config.clone(), spec.name(), &buffer, 2_000);
        for shards in [2usize, 4] {
            let sharded = run_buffer_sharded(config.clone(), spec.name(), &buffer, 2_000, shards);
            assert_eq!(fingerprint(&serial), fingerprint(&sharded), "x{shards}");
        }
    }

    #[test]
    fn slip_falls_back_to_serial_transparently() {
        let spec = workloads::workload("gcc").unwrap();
        let config = SystemConfig::paper_45nm(PolicyKind::SlipAbp);
        let serial = run_workload_with_warmup(config.clone(), &spec, 10_000, 1_000);
        let sharded = run_workload_sharded(config, &spec, 10_000, 1_000, 4);
        assert_eq!(fingerprint(&serial), fingerprint(&sharded));
    }

    #[test]
    fn zero_measured_length_is_handled() {
        let spec = workloads::workload("gcc").unwrap();
        let config = SystemConfig::paper_45nm(PolicyKind::Baseline);
        let buffer = TraceBuffer::materialize(spec.trace(5_000, config.seed));
        let r = run_buffer_sharded(config, spec.name(), &buffer, 5_000, 2);
        assert_eq!(r.accesses, 0);
        assert_eq!(r.cycles, 0);
    }
}
