//! `SlipPlacement` looks its insertion and demotion chunks up in tables
//! built once per level. These tests hold the tables to the chunk
//! structure they are built from (`Slip::chunks`/`chunk_of_sublevel`)
//! for every sublevel count, code and sublevel, and hold the
//! randomized-sublevel picks to a verbatim copy of the table-less
//! implementation, which derived the chunks on every call.

use cache_sim::policy::{FillRequest, InsertionClass, PlacementPolicy};
use cache_sim::rng::SplitMix64;
use cache_sim::{CacheGeometry, LineAddr, LineState, WayMask};
use core::ops::RangeInclusive;
use energy_model::Energy;
use slip_core::{Slip, SlipLevel, SlipPlacement};

/// `s` sublevels of uneven sizes (1, 2, 3, 1, 2, ... ways), so a
/// sublevel's weight and its position in the way order both matter.
fn geometry(s: usize) -> CacheGeometry {
    let sublevels: Vec<(usize, Energy, u32)> = (0..s)
        .map(|i| (i % 3 + 1, Energy::from_pj(10.0 + i as f64), 4 + i as u32))
        .collect();
    CacheGeometry::from_sublevels(4, &sublevels)
}

fn union(geom: &CacheGeometry, chunk: &RangeInclusive<usize>) -> WayMask {
    chunk
        .clone()
        .fold(WayMask::EMPTY, |m, s| m.union(geom.sublevel_ways(s)))
}

fn request(codes: [u8; 2]) -> FillRequest {
    let mut req = FillRequest::new(LineAddr(0));
    req.slip_codes = codes;
    req
}

fn line(codes: [u8; 2]) -> LineState {
    let mut l = LineState::new(LineAddr(0));
    l.slip_codes = codes;
    l
}

#[test]
fn tables_match_the_chunk_structure_for_every_code_and_sublevel() {
    for s in 1..=8 {
        let geom = geometry(s);
        for level in [SlipLevel::L2, SlipLevel::L3] {
            let mut placement = SlipPlacement::new(level, &geom);
            // Every byte value: bits above the level's S are ignored.
            for raw in 0..=u8::MAX {
                let slip = Slip::from_code(s, (usize::from(raw) & ((1 << s) - 1)) as u8).unwrap();
                let chunks = slip.chunks();
                let mut codes = [0u8; 2];
                codes[level.index()] = raw;
                // The other level's code must not leak in.
                codes[1 - level.index()] = !raw;

                let expect = chunks.first().map(|c| union(&geom, c));
                assert_eq!(
                    placement.insertion_mask(&geom, &request(codes)),
                    expect,
                    "S={s} {level:?} code {raw:#x} insertion"
                );
                let class = if slip.is_all_bypass() {
                    InsertionClass::AllBypass
                } else if slip.bypasses_sublevels() {
                    InsertionClass::PartialBypass
                } else if slip.is_default() {
                    InsertionClass::Default
                } else {
                    InsertionClass::Other
                };
                assert_eq!(placement.classify_insertion(&geom, &request(codes)), class);
                for way in 0..geom.ways {
                    let expect = slip
                        .chunk_of_sublevel(geom.sublevel(way))
                        .and_then(|c| chunks.get(c + 1))
                        .map(|c| union(&geom, c));
                    assert_eq!(
                        placement.demotion_mask(&geom, &line(codes), way),
                        expect,
                        "S={s} {level:?} code {raw:#x} demotion from way {way}"
                    );
                }
            }
        }
    }
}

/// The SLIP placement as it was before its chunk tables: the chunks of
/// the line's SLIP are rebuilt on every call.
struct Reference {
    level: SlipLevel,
    sublevels: usize,
    sublevel_masks: Vec<WayMask>,
    sublevel_weights: Vec<u64>,
    rng: SplitMix64,
}

impl Reference {
    fn new(level: SlipLevel, geom: &CacheGeometry, seed: u64) -> Self {
        let s = geom.sublevels();
        let sublevel_masks: Vec<WayMask> = (0..s).map(|i| geom.sublevel_ways(i)).collect();
        let sublevel_weights = sublevel_masks.iter().map(|m| m.count() as u64).collect();
        Reference {
            level,
            sublevels: s,
            sublevel_masks,
            sublevel_weights,
            rng: SplitMix64::new(seed),
        }
    }

    fn slip_of_code(&self, code: u8) -> Slip {
        let mask = (1usize << self.sublevels) - 1;
        Slip::from_code(self.sublevels, (code as usize & mask) as u8).unwrap()
    }

    fn chunk_mask(&mut self, chunk: RangeInclusive<usize>) -> WayMask {
        if chunk.clone().count() > 1 {
            let lo = *chunk.start();
            let weights: Vec<u64> = self.sublevel_weights[chunk.clone()].to_vec();
            let pick = lo + self.rng.pick_weighted(&weights);
            return self.sublevel_masks[pick];
        }
        let mut m = WayMask::EMPTY;
        for s in chunk {
            m = m.union(self.sublevel_masks[s]);
        }
        m
    }

    fn insertion_mask(&mut self, req: &FillRequest) -> Option<WayMask> {
        let slip = self.slip_of_code(req.slip_codes[self.level.index()]);
        let chunks = slip.chunks();
        let first = chunks.first()?.clone();
        Some(self.chunk_mask(first))
    }

    fn demotion_mask(
        &mut self,
        geom: &CacheGeometry,
        line: &LineState,
        from_way: usize,
    ) -> Option<WayMask> {
        let slip = self.slip_of_code(line.slip_codes[self.level.index()]);
        let chunk = slip.chunk_of_sublevel(geom.sublevel(from_way))?;
        let chunks = slip.chunks();
        let next = chunks.get(chunk + 1)?.clone();
        Some(self.chunk_mask(next))
    }
}

#[test]
fn randomized_picks_match_the_table_less_implementation() {
    for (s, seed) in [(3usize, 0x5eed_u64), (5, 7), (8, 0xD0_0D)] {
        let geom = geometry(s);
        for level in [SlipLevel::L2, SlipLevel::L3] {
            let mut tables = SlipPlacement::new(level, &geom).with_randomized_victim_sublevel(seed);
            let mut reference = Reference::new(level, &geom, seed);
            let mut drive = SplitMix64::new(seed ^ 0xA5A5);
            for step in 0..10_000 {
                let codes = [drive.next_u64() as u8, drive.next_u64() as u8];
                if drive.next_below(2) == 0 {
                    let req = request(codes);
                    assert_eq!(
                        tables.insertion_mask(&geom, &req),
                        reference.insertion_mask(&req),
                        "S={s} {level:?} step {step} insertion"
                    );
                } else {
                    let way = drive.next_below(geom.ways as u64) as usize;
                    let l = line(codes);
                    assert_eq!(
                        tables.demotion_mask(&geom, &l, way),
                        reference.demotion_mask(&geom, &l, way),
                        "S={s} {level:?} step {step} demotion from way {way}"
                    );
                }
            }
        }
    }
}
