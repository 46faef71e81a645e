//! Server-determinism check: a cell executed by the `slip serve`
//! daemon must be bit-identical to the same cell executed by a plain
//! offline `slip sweep`.
//!
//! The serve path differs from the offline path in every way that
//! could plausibly leak into results — a shared worker pool, the
//! server-wide trace LRU, journal persistence, JSON round trips over
//! TCP — so this check boots a real loopback server, streams a small
//! sweep through it, and compares the payloads byte for byte against
//! [`SuiteResults::run_with`]. The sweep runs twice, once with the
//! server in its default per-cell mode and once with
//! [`TraceMode::Fused`], so the fused group scheduler (one worker
//! retiring every policy cell of a benchmark at once) is held to the
//! same bar. The fused pass also requires the server to *archive* the
//! completed run — release its in-memory cell results once the journal
//! holds them — which the stats endpoint reports.

use crate::invariants::Violation;
use sim_engine::codec;
use sim_engine::experiments::suite::SweepConfig;
use sim_engine::experiments::SuiteResults;
use sim_engine::TraceMode;
use slip_serve::{client, Server, ServerConfig, SweepSpec};
use std::path::Path;

/// One serve-vs-offline pass: boots a loopback server in `mode`,
/// streams `benchmarks × policies` through it, and compares every cell
/// byte for byte against the offline sweep. When `expect_archived`,
/// additionally requires the server's stats to report the run archived
/// (results dropped from memory, journal authoritative) after delivery.
fn check_mode(
    accesses: u64,
    journal_dir: &Path,
    mode: TraceMode,
    policies: &[&str],
    expect_archived: bool,
) -> Result<(), Violation> {
    let violation = |detail: String| Violation {
        invariant: "serve-determinism",
        scenario: format!(
            "gcc x {policies:?} @ {accesses} accesses via loopback serve ({})",
            mode.label()
        ),
        step: None,
        detail,
    };

    let spec = SweepSpec {
        benchmarks: vec!["gcc".into()],
        policies: policies.iter().map(|&p| p.to_owned()).collect(),
        accesses,
        warmup: 0,
        topology: None,
    };
    let options = spec
        .suite_options()
        .map_err(|e| violation(format!("spec does not resolve: {e}")))?;

    // Offline ground truth, through the exact path `slip sweep` uses.
    // Always per-cell shared mode: the fused server must match the
    // *unfused* reference, not merely itself.
    let mut sweep = SweepConfig::with_jobs(2);
    sweep.quiet = true;
    let offline = SuiteResults::run_with(spec.suite_options().unwrap(), &sweep)
        .map_err(|e| violation(format!("offline sweep failed: {e}")))?;

    // The server side: fresh journal dir, two workers, one submission.
    let dir = journal_dir.join(format!(
        "serve-determinism-{}-{}",
        mode.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::new(&dir);
    config.jobs = 2;
    config.quiet = true;
    config.trace_mode = mode;
    let server = Server::bind(config).map_err(|e| violation(format!("bind: {e}")))?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let streamed = (|| -> Result<Vec<(String, String)>, String> {
        let mut stream = client::submit(addr, &spec).map_err(|e| e.to_string())?;
        let cells = stream.collect_cells().map_err(|e| e.to_string())?;
        Ok(cells
            .into_iter()
            .map(|(_, key, payload)| (key, payload.to_json()))
            .collect())
    })();
    // Archival runs on the worker thread right after the final cell is
    // published, so give it a few polls before calling it missing.
    let archived = expect_archived.then(|| {
        for _ in 0..50 {
            if let Ok(stats) = client::stats(addr) {
                if stats
                    .get("runs_archived_index")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0)
                    >= 1
                {
                    return true;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        false
    });
    let _ = client::shutdown(addr);
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&dir);
    let streamed = streamed.map_err(|e| violation(format!("serve round trip failed: {e}")))?;

    let mut expected = Vec::new();
    for &bench in &options.benchmarks {
        for &policy in &options.policies {
            expected.push((
                options.cell_key(bench, policy),
                codec::encode_result(offline.get(bench, policy)).to_json(),
            ));
        }
    }
    if streamed.len() != expected.len() {
        return Err(violation(format!(
            "server streamed {} cells, offline sweep has {}",
            streamed.len(),
            expected.len()
        )));
    }
    for ((got_key, got), (want_key, want)) in streamed.iter().zip(&expected) {
        if got_key != want_key {
            return Err(violation(format!(
                "cell order differs: server sent {got_key:?}, offline has {want_key:?}"
            )));
        }
        if got != want {
            return Err(violation(format!(
                "cell {want_key} differs:\n    serve:   {got}\n    offline: {want}"
            )));
        }
    }
    if archived == Some(false) {
        return Err(violation(
            "completed run was never archived: cell results stay resident after the \
             journal sealed"
                .to_owned(),
        ));
    }
    Ok(())
}

/// Runs a small sweep through an in-process loopback server twice —
/// per-cell shared mode, then fused-group mode over the full policy
/// grid — and through the offline sweep path, requiring bit-identical
/// encoded results each time. `journal_dir` holds the throwaway server
/// journals.
pub fn check_serve_determinism(accesses: u64, journal_dir: &Path) -> Result<(), Violation> {
    check_mode(
        accesses,
        journal_dir,
        TraceMode::Shared,
        &["baseline", "slip-abp"],
        false,
    )?;
    check_mode(
        accesses,
        journal_dir,
        TraceMode::Fused,
        &["baseline", "slip", "slip-abp", "nurapid", "lru-pea"],
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_matches_offline_at_small_budget() {
        check_serve_determinism(1_500, &std::env::temp_dir()).unwrap();
    }
}
