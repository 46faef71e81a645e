//! A fully-associative, LRU translation lookaside buffer.
//!
//! Table 1 does not specify the TLB; we use a 64-entry fully-associative
//! LRU TLB, typical of the paper's era (documented in DESIGN.md). The
//! TLB matters to SLIP because all policy work — state transitions,
//! distribution fetches, SLIP recomputation — happens on TLB misses
//! (paper Figure 7).
//!
//! Recency is an intrusive doubly-linked list threaded through the
//! entry slots, so lookup, refresh, and capacity eviction are all O(1)
//! — the TLB sits on the per-access hot path, and high-miss-rate
//! workloads evict on a third of their accesses.
//!
//! Each slot also carries its page's page-table index, as a hardware
//! TLB entry carries the PTE bits: a hit reaches the page's entry
//! without walking the page table, and an eviction reports the
//! victim's index so its state is read without a lookup.

use cache_sim::hash::FxHashMap;
use cache_sim::PageId;

/// Default TLB capacity in entries.
pub const DEFAULT_TLB_ENTRIES: usize = 64;

/// Sentinel "no slot" link.
const NONE: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    page: PageId,
    /// The page's page-table index.
    entry: u32,
    prev: usize,
    next: usize,
}

/// A fully-associative LRU TLB.
///
/// # Example
///
/// ```
/// use cache_sim::PageId;
/// use mem_substrate::Tlb;
///
/// let mut tlb = Tlb::new(2);
/// assert_eq!(tlb.lookup(PageId(1)), None); // cold miss
/// tlb.insert(PageId(1), 10); // page 1's page-table index is 10
/// assert_eq!(tlb.lookup(PageId(1)), Some(10));
/// tlb.insert(PageId(2), 11);
/// let evicted = tlb.insert(PageId(3), 12); // capacity eviction
/// assert_eq!(evicted, Some((PageId(1), 10)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    capacity: usize,
    /// page -> slot index. Consulted every access, so it uses the fast
    /// deterministic hasher rather than std's seeded SipHash.
    map: FxHashMap<PageId, usize>,
    slots: Vec<Slot>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot (the eviction victim).
    tail: usize,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            capacity,
            map: FxHashMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            slots: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
            hits: 0,
            misses: 0,
        }
    }

    /// Creates the default 64-entry TLB.
    pub fn paper_default() -> Self {
        Tlb::new(DEFAULT_TLB_ENTRIES)
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.map.len()
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        match prev {
            NONE => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NONE => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Attaches slot `i` at the MRU end of the recency list.
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NONE;
        self.slots[i].next = self.head;
        match self.head {
            NONE => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Looks up `page`, updating recency and hit/miss counters.
    /// Returns the page-table index stored with the page on a hit (see
    /// [`Self::insert`]). One hash lookup.
    #[inline]
    pub fn lookup(&mut self, page: PageId) -> Option<u32> {
        let Some(&i) = self.map.get(&page) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.touch(i);
        Some(self.slots[i].entry)
    }

    /// Moves slot `i` to the MRU end of the recency list.
    #[inline]
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Inserts `page` (after a miss) with `entry`, its page-table
    /// index. Returns the evicted page and its index if the TLB was
    /// full. Inserting a resident page just refreshes it.
    pub fn insert(&mut self, page: PageId, entry: u32) -> Option<(PageId, u32)> {
        // Claim the slot the page would take. A page that turns out to
        // be resident (never the case after a lookup miss) gets its old
        // slot back and is refreshed instead.
        let full = self.slots.len() == self.capacity;
        let i = if full { self.tail } else { self.slots.len() };
        if let Some(resident) = self.map.insert(page, i) {
            self.map.insert(page, resident);
            self.slots[resident].entry = entry;
            self.touch(resident);
            return None;
        }
        if !full {
            self.slots.push(Slot {
                page,
                entry,
                prev: NONE,
                next: NONE,
            });
            self.push_front(i);
            return None;
        }
        // Full: reuse the LRU slot for the incoming page.
        let victim = (self.slots[i].page, self.slots[i].entry);
        self.map.remove(&victim.0);
        self.unlink(i);
        self.slots[i].page = page;
        self.slots[i].entry = entry;
        self.push_front(i);
        Some(victim)
    }

    /// `true` if `page` is resident (no recency update).
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// TLB miss rate in [0, 1]; 0 before any lookups.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(4);
        assert_eq!(t.lookup(PageId(1)), None);
        t.insert(PageId(1), 1);
        assert!(t.lookup(PageId(1)).is_some());
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
        assert!((t.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_lru_entry() {
        let mut t = Tlb::new(2);
        t.insert(PageId(1), 1);
        t.insert(PageId(2), 2);
        // Touch 1 so 2 becomes LRU.
        assert!(t.lookup(PageId(1)).is_some());
        let e = t.insert(PageId(3), 3);
        assert_eq!(e, Some((PageId(2), 2)));
        assert!(t.contains(PageId(1)));
        assert!(t.contains(PageId(3)));
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn reinserting_resident_page_evicts_nothing() {
        let mut t = Tlb::new(2);
        t.insert(PageId(1), 1);
        t.insert(PageId(2), 2);
        assert_eq!(t.insert(PageId(1), 1), None);
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn reinsertion_refreshes_recency() {
        let mut t = Tlb::new(2);
        t.insert(PageId(1), 1);
        t.insert(PageId(2), 2);
        // Refresh 1 via insert; 2 becomes the victim.
        assert_eq!(t.insert(PageId(1), 1), None);
        assert_eq!(t.insert(PageId(3), 3), Some((PageId(2), 2)));
    }

    #[test]
    fn eviction_order_matches_a_reference_lru_model() {
        // Drive the TLB with a deterministic access mix and mirror it
        // against a naive stamp-based LRU; every eviction must agree.
        let mut t = Tlb::new(8);
        let mut stamps: Vec<(u64, u64)> = Vec::new(); // (page, stamp)
        let mut clock = 0u64;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = x % 24;
            clock += 1;
            let hit = t.lookup(PageId(page)).is_some();
            let model_hit = stamps.iter().any(|&(p, _)| p == page);
            assert_eq!(hit, model_hit);
            if let Some(e) = stamps.iter_mut().find(|(p, _)| *p == page) {
                e.1 = clock;
            } else {
                let evicted = t.insert(PageId(page), page as u32);
                stamps.push((page, clock));
                let model_evicted = (stamps.len() > 8).then(|| {
                    let at = stamps
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(_, s))| s)
                        .expect("nonempty")
                        .0;
                    stamps.remove(at).0
                });
                assert_eq!(evicted, model_evicted.map(|p| (PageId(p), p as u32)));
            }
        }
    }

    #[test]
    fn entries_travel_with_their_pages() {
        let mut t = Tlb::new(2);
        assert_eq!(t.insert(PageId(10), 7), None);
        assert_eq!(t.insert(PageId(11), 8), None);
        assert_eq!(t.lookup(PageId(10)), Some(7));
        assert_eq!(t.lookup(PageId(12)), None);
        // Page 11 is LRU: its index comes back with it.
        assert_eq!(t.insert(PageId(12), 9), Some((PageId(11), 8)));
        // Re-inserting a resident page keeps its slot.
        assert_eq!(t.insert(PageId(10), 7), None);
        assert_eq!(t.occupancy(), 2);
        assert_eq!(t.lookup(PageId(12)), Some(9));
        assert_eq!((t.hits, t.misses), (2, 1));
    }

    #[test]
    fn paper_default_is_64_entries() {
        assert_eq!(Tlb::paper_default().capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        Tlb::new(0);
    }
}
