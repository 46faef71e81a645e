//! Output checks: result payloads, their digests, and the digests
//! pinned per `(workload, seed)` in `digests.txt`.

use crate::span::span;
use crate::util::Fnv;
use sim_engine::SimResult;

/// The development seed: tune on this one.
pub const DEV_SEED: u64 = 1;
/// The held-out seed: a claim must also hold here.
pub const HELD_OUT_SEED: u64 = 2;

const PINNED: &str = include_str!("../digests.txt");

/// What `seed` is for: `dev`, `held-out`, or `other`.
pub fn seed_role(seed: u64) -> &'static str {
    match seed {
        DEV_SEED => "dev",
        HELD_OUT_SEED => "held-out",
        _ => "other",
    }
}

/// The pinned digest of `workload` at `seed`, if one is recorded.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    PINNED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
                .flatten()
        })
}

/// The bit-exact codec payload of a result, as the journal and the
/// wire carry it.
pub fn payload_json(r: &SimResult, iter: u64) -> String {
    let value = span("sim-engine.encode_result", iter, || {
        sim_engine::codec::encode_result(r)
    });
    span("sweep-runner.to_json", iter, || value.to_json())
}

/// Digest of a sequence of `(cell key, payload)` pairs, in order.
pub fn digest<'a>(cells: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
    cells
        .into_iter()
        .fold(Fnv::new(), |h, (k, p)| h.field(k).field(p))
        .finish()
}

/// Compares a run's digest with the pinned one, when this seed has one.
/// Returns `None` for seeds with no pinned digest.
pub fn against_pinned(workload: &str, seed: u64, got: u64) -> Option<Result<(), String>> {
    let want = pinned(workload, seed)?;
    Some(if want == got {
        Ok(())
    } else {
        Err(format!(
            "{workload} seed {seed}: digest {got:#018x} != pinned {want:#018x}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_pins_both_seeds() {
        for w in crate::WORKLOADS {
            assert!(pinned(w, DEV_SEED).is_some(), "{w} has no dev digest");
            assert!(
                pinned(w, HELD_OUT_SEED).is_some(),
                "{w} has no held-out digest"
            );
        }
        assert!(pinned("run-slip", 999_999).is_none());
    }
}
