//! Deterministic adversarial trace generation for the differential
//! fuzzer.
//!
//! Each [`Pattern`] is a family of access streams built to stress one
//! corner of the simulator that the synthetic SPEC-like workloads rarely
//! reach: set-conflict storms beyond the associativity, abrupt phase
//! changes, TLB thrash across thousands of pages, degenerate single-line
//! loops, addresses at the edges of the packed-word address space, and —
//! crucial for the partial-tag probe — pairs of lines engineered to share
//! both their set index and their XOR-folded 16-bit tag, so a probe that
//! skipped the full-address verification would report false hits.
//!
//! Generation is a pure function of `(pattern, seed, len)`: the same
//! triple always yields the same `Vec<Access>`, which is what makes a
//! reported divergence reproducible from its one-line summary.

use cache_sim::addr::LINE_BYTES;
use cache_sim::rng::SplitMix64;
use cache_sim::Access;

/// Lines just below the sim-engine metadata region (`1 << 50`): the
/// largest line addresses a demand stream can use without aliasing the
/// distribution-metadata lines.
const MAX_DEMAND_LINE: u64 = (1 << 50) - 1;

/// One adversarial trace family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Hammers a handful of sets with far more distinct lines than the
    /// 16-way associativity, forcing constant eviction/demotion cascades.
    ConflictStorm,
    /// Alternates abruptly between a cache-friendly loop phase and a
    /// random-scan phase with a different address base, so per-page
    /// distributions and SLIP decisions flip mid-run.
    PhaseChange,
    /// Touches thousands of distinct pages round-robin so nearly every
    /// access misses the TLB and drags metadata traffic along.
    TlbThrash,
    /// A degenerate loop over one (sometimes two) lines with occasional
    /// writes: maximal hit-path and dirty-bit pressure, no variety.
    SingleLineLoop,
    /// Addresses at the edges of the packed-word space: line 0, lines
    /// just below the metadata region, and maximal page offsets.
    MaxAddressEdge,
    /// Pairs of lines that share set index *and* XOR-folded 16-bit tag;
    /// a tag probe without full-address verification reports false hits.
    TagAlias,
    /// Uniform random lines over a seed-chosen working-set size with
    /// random writes — the unstructured control group.
    RandomMix,
}

impl Pattern {
    /// Every family, in fuzz rotation order.
    pub const ALL: [Pattern; 7] = [
        Pattern::ConflictStorm,
        Pattern::PhaseChange,
        Pattern::TlbThrash,
        Pattern::SingleLineLoop,
        Pattern::MaxAddressEdge,
        Pattern::TagAlias,
        Pattern::RandomMix,
    ];

    /// CLI/report spelling.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::ConflictStorm => "conflict-storm",
            Pattern::PhaseChange => "phase-change",
            Pattern::TlbThrash => "tlb-thrash",
            Pattern::SingleLineLoop => "single-line-loop",
            Pattern::MaxAddressEdge => "max-address-edge",
            Pattern::TagAlias => "tag-alias",
            Pattern::RandomMix => "random-mix",
        }
    }

    /// Parses a [`label`](Self::label) spelling; `None` for unknown.
    pub fn parse(s: &str) -> Option<Pattern> {
        Pattern::ALL
            .into_iter()
            .find(|p| p.label() == s.trim().to_ascii_lowercase())
    }
}

impl core::fmt::Display for Pattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

fn access(line: u64, write: bool) -> Access {
    let addr = line * LINE_BYTES;
    if write {
        Access::write(addr)
    } else {
        Access::read(addr)
    }
}

/// Generates the `(pattern, seed, len)` trace. Every produced address
/// is line-aligned and below the metadata region.
pub fn generate(pattern: Pattern, seed: u64, len: u64) -> Vec<Access> {
    let mut rng = SplitMix64::new(seed ^ 0xADF0_0D5E_ED00_0000);
    let mut out = Vec::with_capacity(len as usize);
    match pattern {
        Pattern::ConflictStorm => {
            // L2 has 256 sets, L3 has 2048; stride by the L3 set count
            // so the stream conflicts in *both* levels, over ~3x the
            // 16-way associativity.
            let sets = 2048u64;
            let hot_sets: Vec<u64> = (0..4).map(|_| rng.next_below(sets)).collect();
            let depth = 16 * 3;
            for _ in 0..len {
                let set = hot_sets[rng.next_below(hot_sets.len() as u64) as usize];
                let k = rng.next_below(depth);
                out.push(access(set + k * sets, rng.one_in(5)));
            }
        }
        Pattern::PhaseChange => {
            let phase_len = (len / 8).max(1);
            let loop_lines = 64 + rng.next_below(192);
            let loop_base = rng.next_below(1 << 30);
            let scan_base = rng.next_below(1 << 30) + (1 << 32);
            let mut i = 0u64;
            while (out.len() as u64) < len {
                let phase = i / phase_len;
                let line = if phase.is_multiple_of(2) {
                    loop_base + i % loop_lines
                } else {
                    scan_base + rng.next_below(1 << 20)
                };
                out.push(access(line, rng.one_in(8)));
                i += 1;
            }
        }
        Pattern::TlbThrash => {
            // Each 4 KiB page holds 64 lines; touching a fresh page per
            // access over far more pages than the TLB holds keeps the
            // miss path and metadata machinery permanently busy.
            let pages = 4096 + rng.next_below(4096);
            let base_page = rng.next_below(1 << 20);
            for i in 0..len {
                let page = base_page + i % pages;
                let line = page * 64 + rng.next_below(64);
                out.push(access(line, rng.one_in(6)));
            }
        }
        Pattern::SingleLineLoop => {
            let a = rng.next_below(1 << 30);
            let b = if rng.one_in(2) { a } else { a ^ 1 };
            for i in 0..len {
                let line = if i % 2 == 0 { a } else { b };
                out.push(access(line, rng.one_in(16)));
            }
        }
        Pattern::MaxAddressEdge => {
            for _ in 0..len {
                let line = match rng.next_below(4) {
                    0 => rng.next_below(64), // the very bottom
                    1 => MAX_DEMAND_LINE - rng.next_below(64),
                    2 => MAX_DEMAND_LINE - 2048 * rng.next_below(48),
                    // Maximal offsets within a random page.
                    _ => rng.next_below(1 << 38) * 64 + 63,
                };
                out.push(access(line, rng.one_in(4)));
            }
        }
        Pattern::TagAlias => {
            // `tag_of` XOR-folds the line address in 16-bit words and
            // both cache levels index sets by the low line bits, so
            // `line ^ (x << 16) ^ (x << 32)` shares set AND 16-bit tag
            // with `line` while being a different line. A probe that
            // matches tags without verifying the full address confuses
            // the two.
            let bases: Vec<u64> = (0..8).map(|_| rng.next_below(1 << 15)).collect();
            for _ in 0..len {
                let base = bases[rng.next_below(bases.len() as u64) as usize];
                let x = 1 + rng.next_below((1 << 16) - 1);
                let line = if rng.one_in(2) {
                    base
                } else {
                    base ^ (x << 16) ^ (x << 32)
                };
                out.push(access(line, rng.one_in(7)));
            }
        }
        Pattern::RandomMix => {
            let working_set = 1u64 << (10 + rng.next_below(12));
            let base = rng.next_below(1 << 34);
            for _ in 0..len {
                out.push(access(base + rng.next_below(working_set), rng.one_in(3)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_line_aligned() {
        for pattern in Pattern::ALL {
            let a = generate(pattern, 0x511b, 500);
            let b = generate(pattern, 0x511b, 500);
            assert_eq!(a, b, "{pattern}");
            assert_eq!(a.len(), 500, "{pattern}");
            assert!(
                a.iter().all(|x| x.addr % LINE_BYTES == 0),
                "{pattern} alignment"
            );
            // Stays out of the metadata line region.
            assert!(
                a.iter().all(|x| x.addr / LINE_BYTES < (1 << 50)),
                "{pattern} below metadata region"
            );
            let c = generate(pattern, 0x511c, 500);
            assert_ne!(a, c, "{pattern} must vary with the seed");
        }
    }

    #[test]
    fn labels_round_trip() {
        for pattern in Pattern::ALL {
            assert_eq!(Pattern::parse(pattern.label()), Some(pattern));
        }
        assert_eq!(Pattern::parse("bogus"), None);
    }

    #[test]
    fn tag_alias_pairs_share_fold_and_set() {
        // The aliasing construction preserves the XOR fold.
        let fold = |line: u64| -> u16 {
            (line as u16) ^ ((line >> 16) as u16) ^ ((line >> 32) as u16) ^ ((line >> 48) as u16)
        };
        let base = 0x1234u64;
        let x = 0xBEEFu64;
        let alias = base ^ (x << 16) ^ (x << 32);
        assert_ne!(base, alias);
        assert_eq!(fold(base), fold(alias));
        assert_eq!(base & 2047, alias & 2047, "same L3 set");
    }
}
