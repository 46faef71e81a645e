//! Typed parsing of the `SLIP_*` environment variables.
//!
//! Every knob the suite, benches, and CLI read from the environment
//! goes through here, so defaults and parse behavior (trimmed input,
//! garbage falls back to the default) are defined exactly once:
//!
//! | variable              | meaning                              | default |
//! |-----------------------|--------------------------------------|---------|
//! | `SLIP_ACCESSES`       | measured accesses per benchmark      | 2,000,000 |
//! | `SLIP_WARMUP`         | unmeasured warmup accesses           | 0 |
//! | `SLIP_JOBS`           | sweep worker count                   | available parallelism |
//! | `SLIP_JOURNAL`        | run-journal path (enables resume)    | unset (off) |
//! | `SLIP_TRACE_MODE`     | trace execution: `inline` \| `shared` \| `fused` (`pipelined` = `inline`) | `shared` |
//! | `SLIP_TRACE_CACHE_MB` | shared-trace cache budget in MiB (0 disables sharing) | 1024 |
//! | `SLIP_FUZZ_ITERS`     | `slip check` differential-fuzz iteration budget | unset (mode default) |
//! | `SLIP_SHARDS`         | set-shard workers per single run (power of two; 1 = serial) | 1 |
//! | `SLIP_TOPOLOGY`       | hierarchy spec: built-in node name or file path | unset (built-in 45 nm) |
//!
//! One exception to the garbage-falls-back rule: a *set* `SLIP_SHARDS`
//! that is not a power of two (or not a number) is an error, not a
//! silent round-down — see [`shards`].

use crate::experiments::suite::TraceMode;
use std::path::PathBuf;
use std::str::FromStr;

/// Default trace length per benchmark.
pub const DEFAULT_ACCESSES: u64 = 2_000_000;

/// Reads and parses one environment variable; unset, empty, or
/// unparseable values yield `None`.
pub fn parse_var<T: FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|s| s.trim().parse().ok())
}

/// Measured accesses per benchmark (`SLIP_ACCESSES`).
pub fn accesses() -> u64 {
    parse_var("SLIP_ACCESSES").unwrap_or(DEFAULT_ACCESSES)
}

/// Unmeasured warmup accesses (`SLIP_WARMUP`).
pub fn warmup() -> u64 {
    parse_var("SLIP_WARMUP").unwrap_or(0)
}

/// Sweep worker count (`SLIP_JOBS`), defaulting to the host's
/// available parallelism.
pub fn jobs() -> usize {
    parse_var("SLIP_JOBS").unwrap_or_else(sweep_runner::available_jobs)
}

/// Run-journal path (`SLIP_JOURNAL`); unset means journaling off.
pub fn journal() -> Option<PathBuf> {
    std::env::var_os("SLIP_JOURNAL")
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// Default shared-trace cache budget in MiB (128 M accesses' worth).
pub const DEFAULT_TRACE_CACHE_MB: u64 = 1024;

/// Shared-trace cache budget in MiB (`SLIP_TRACE_CACHE_MB`). Groups
/// whose materialized trace would exceed the remaining budget fall back
/// to inline regeneration; 0 disables sharing entirely.
pub fn trace_cache_mb() -> u64 {
    parse_var("SLIP_TRACE_CACHE_MB").unwrap_or(DEFAULT_TRACE_CACHE_MB)
}

/// Differential-fuzz iteration budget for `slip check`
/// (`SLIP_FUZZ_ITERS`); unset means the mode's default (quick 48,
/// full 512).
pub fn fuzz_iters() -> Option<u64> {
    parse_var("SLIP_FUZZ_ITERS")
}

/// Set-shard workers per single run (`SLIP_SHARDS`); 1 means serial.
/// Unset or empty means 1. A *set* value that is not a positive power
/// of two is rejected with a clear error instead of being silently
/// rounded down — the shard owner is a fixed bit field of the line
/// address, so `SLIP_SHARDS=3` cannot mean what it says.
/// Non-shardable configurations still fall back to serial per cell
/// (see [`crate::shard::effective_shards`]), which the runners report.
pub fn shards() -> Result<usize, String> {
    let raw = match std::env::var("SLIP_SHARDS") {
        Ok(s) if !s.trim().is_empty() => s,
        _ => return Ok(1),
    };
    let parsed: usize = raw
        .trim()
        .parse()
        .map_err(|_| format!("SLIP_SHARDS={:?}: not a number", raw.trim()))?;
    crate::shard::validate_shards(parsed).map_err(|e| format!("SLIP_SHARDS: {e}"))
}

/// Hierarchy spec argument (`SLIP_TOPOLOGY`): a built-in node name
/// (`45nm`, `22nm`, `stt-llc`) or a spec file path; unset or empty
/// means the compiled-in 45 nm configuration. Resolution (and
/// rejection of malformed specs with line/column diagnostics) happens
/// in `energy_model::HierarchySpec::load`, which the CLI calls — the
/// variable is only *read* here so all `SLIP_*` knobs live in one
/// table.
pub fn topology() -> Option<String> {
    std::env::var("SLIP_TOPOLOGY")
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// Trace execution mode (`SLIP_TRACE_MODE`); unknown or unset values
/// mean the default, [`TraceMode::Shared`].
pub fn trace_mode() -> TraceMode {
    std::env::var("SLIP_TRACE_MODE")
        .ok()
        .and_then(|s| TraceMode::parse(&s))
        .unwrap_or(TraceMode::Shared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_without_env() {
        // These read live env vars, so only check invariants that hold
        // for any value.
        assert!(accesses() >= 1);
        assert!(jobs() >= 1);
    }

    #[test]
    fn shards_rejects_non_powers_of_two_when_set() {
        // The only test in this binary touching SLIP_SHARDS; restores
        // the unset state before returning.
        std::env::set_var("SLIP_SHARDS", "4");
        assert_eq!(shards(), Ok(4));
        std::env::set_var("SLIP_SHARDS", " 2 ");
        assert_eq!(shards(), Ok(2));
        std::env::set_var("SLIP_SHARDS", "3");
        assert!(shards().unwrap_err().contains("power of two"));
        std::env::set_var("SLIP_SHARDS", "0");
        assert!(shards().unwrap_err().contains("power of two"));
        std::env::set_var("SLIP_SHARDS", "lots");
        assert!(shards().unwrap_err().contains("not a number"));
        std::env::set_var("SLIP_SHARDS", "");
        assert_eq!(shards(), Ok(1));
        std::env::remove_var("SLIP_SHARDS");
        assert_eq!(shards(), Ok(1));
    }

    #[test]
    fn parse_var_trims_and_rejects_garbage() {
        std::env::set_var("SLIP_TEST_PARSE_VAR", " 42 ");
        assert_eq!(parse_var::<u64>("SLIP_TEST_PARSE_VAR"), Some(42));
        std::env::set_var("SLIP_TEST_PARSE_VAR", "not-a-number");
        assert_eq!(parse_var::<u64>("SLIP_TEST_PARSE_VAR"), None);
        std::env::remove_var("SLIP_TEST_PARSE_VAR");
        assert_eq!(parse_var::<u64>("SLIP_TEST_PARSE_VAR"), None);
    }
}
