//! The per-access loop does not touch the heap.
//!
//! A counting global allocator tallies the allocations made on the
//! current thread. After a warmup (which grows the page table, the TLB
//! and the caches to their working size) the measured accesses of every
//! policy must average well under one allocation per hundred accesses:
//! only the occasional growth of the page table's storage remains.

use cache_sim::policy::{FillRequest, PlacementPolicy};
use cache_sim::{Access, CacheGeometry, LineAddr, LineState};
use energy_model::Energy;
use sim_engine::{PolicyKind, ReplacementKind, SingleCoreSystem, SystemConfig};
use slip_core::{Slip, SlipLevel, SlipPlacement};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every call to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const WARMUP: usize = 50_000;
const MEASURED: usize = 50_000;

#[test]
fn measured_accesses_do_not_allocate() {
    let configs = [
        (PolicyKind::Baseline, ReplacementKind::Lru),
        (PolicyKind::Slip, ReplacementKind::Lru),
        (PolicyKind::SlipAbp, ReplacementKind::Lru),
        (PolicyKind::NuRapid, ReplacementKind::Lru),
        (PolicyKind::LruPea, ReplacementKind::Lru),
        // DRRIP and SHiP enable SLIP's randomized victim sublevel.
        (PolicyKind::SlipAbp, ReplacementKind::Drrip),
        (PolicyKind::SlipAbp, ReplacementKind::Ship),
    ];
    for name in ["soplex", "mcf"] {
        let spec = workloads::workload(name).unwrap();
        for (policy, replacement) in configs {
            let mut config = SystemConfig::paper_45nm(policy);
            config.replacement = replacement;
            let trace: Vec<Access> = spec
                .trace((WARMUP + MEASURED) as u64, config.seed)
                .collect();
            let mut system = SingleCoreSystem::new(config);
            for &access in &trace[..WARMUP] {
                system.step(access);
            }
            system.reset_measurements();
            let n = allocations_in(|| {
                for &access in &trace[WARMUP..] {
                    system.step(access);
                }
            });
            let per_access = n as f64 / MEASURED as f64;
            assert!(
                per_access < 0.01,
                "{name} {policy:?}/{replacement:?}: {n} allocations over {MEASURED} accesses"
            );
        }
    }
}

#[test]
fn slip_placement_decisions_never_allocate() {
    for s in 1..=8 {
        let sublevels: Vec<(usize, Energy, u32)> = (0..s)
            .map(|i| (i % 3 + 1, Energy::from_pj(10.0 + i as f64), 4))
            .collect();
        let geom = CacheGeometry::from_sublevels(4, &sublevels);
        for randomized in [false, true] {
            let mut placement = SlipPlacement::new(SlipLevel::L2, &geom);
            if randomized {
                placement = placement.with_randomized_victim_sublevel(s as u64);
            }
            let codes: Vec<u8> = Slip::enumerate(s).iter().map(|slip| slip.code()).collect();
            let n = allocations_in(|| {
                for &code in &codes {
                    let mut req = FillRequest::new(LineAddr(0));
                    req.slip_codes = [code, code];
                    let mut line = LineState::new(LineAddr(0));
                    line.slip_codes = [code, code];
                    std::hint::black_box(placement.classify_insertion(&geom, &req));
                    std::hint::black_box(placement.insertion_mask(&geom, &req));
                    for way in 0..geom.ways {
                        std::hint::black_box(placement.demotion_mask(&geom, &line, way));
                    }
                }
            });
            assert_eq!(n, 0, "S={s} randomized={randomized}");
        }
    }
}
