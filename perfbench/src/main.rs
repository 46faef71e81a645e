//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload run-slip --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Run from the repository root. Prints a manifest line, then as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end ones with `--trace 0`, per-layer ones with
//! `--trace 1`). A traced run also writes its spans to
//! `.perfbench/spans-<workload>-<seed>.tsv`. See `perfbench/README.md`.

mod check;
mod layers;
mod metrics;
mod runs;
mod serve;
mod span;
mod util;
mod window;

use metrics::Report;
use sim_engine::PolicyKind;
use std::path::PathBuf;
use sweep_runner::json::Value;
use window::Ctx;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["run-slip", "serve-mixed"];

/// Wall-clock limit of one benchmark run, build excluded.
const WATCHDOG_SECS: u64 = 170;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WORKLOADS.into_iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

/// The commit of the checkout, from `.git/HEAD`; `unknown` outside a
/// git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_owned())
}

/// One JSON line recording what ran where, so results compare without
/// hand annotation.
fn manifest(args: &Args) -> String {
    let (jobs, shards, mode) = match args.workload {
        "run-slip" => (1, 1, "buffer (run_chunks), cells side by side".to_owned()),
        _ => {
            let server = serve::server_config(std::path::Path::new("."));
            (
                server.jobs,
                server.shards,
                server.trace_mode.label().to_owned(),
            )
        }
    };
    let topology = energy_model::HierarchySpec::builtin("45nm").map_or_else(
        || "unknown".into(),
        |s| format!("{}#{:016x}", s.name, s.fingerprint()),
    );
    Value::object()
        .with("commit", Value::str(commit()))
        .with("nproc", Value::u64(util::nproc() as u64))
        .with("cpu", Value::str(cpu_model()))
        .with(
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        )
        .with("workload", Value::str(args.workload))
        .with("seed", Value::u64(args.seed))
        .with("seed_role", Value::str(check::seed_role(args.seed)))
        .with("seconds", Value::f64(args.seconds))
        .with("traced", Value::Bool(args.traced))
        .with("jobs", Value::u64(jobs as u64))
        .with("shards", Value::u64(shards as u64))
        .with("trace_mode", Value::str(mode))
        .with("topology", Value::str(topology))
        .with("warmup", Value::u64(0))
        .to_json()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A wedged layer must not hold the run past its time limit: give up,
    // without a result line, well before it.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECS));
        eprintln!("perfbench: no result after {WATCHDOG_SECS} s, giving up");
        std::process::exit(3);
    });
    // The program's own defaults apply: no `SLIP_*` override leaks in
    // from the caller's environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SLIP_") {
            std::env::remove_var(key);
        }
    }
    let out_dir = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        out_dir: out_dir.clone(),
    };
    println!("{{\"manifest\": {}}}", manifest(&args));
    span::set_enabled(args.traced);
    let mut report = Report::default();
    let outcome = match args.workload {
        "run-slip" => runs::run(&ctx, PolicyKind::SlipAbp, &mut report),
        "serve-mixed" => serve::run(&ctx, &mut report),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    if args.traced {
        layers::probe(&outcome.probe);
        span::set_enabled(false);
        let spans = span::take();
        layers::emit_spans(&mut report, &spans);
        report.set(
            "perfbench.trace_overhead_ratio",
            outcome
                .overhead
                .expect("a traced run measures its overhead"),
        );
        let path =
            PathBuf::from(".perfbench").join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = span::write_tsv(&spans, &path) {
            report.check(false, || format!("writing {}: {e}", path.display()));
        }
        eprintln!(
            "[perfbench] {} spans written to {}",
            spans.len(),
            path.display()
        );
    } else {
        window::end_to_end(&mut report, outcome.setup_s, &outcome.window);
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    eprintln!(
        "[perfbench] failed_frac {} ({} of {} checked operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for f in &report.failures {
        eprintln!("[perfbench] FAILED: {f}");
    }
    match report.finish(args.traced) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
