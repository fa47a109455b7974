//! A single set-associative, write-back cache with LRU replacement.

use kindle_types::{AccessKind, PhysAddr, CACHE_LINE_SHIFT};

/// Geometry and timing of one cache level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name ("L1D", "L2", "LLC").
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Latency of a hit at this level, in cycles.
    pub hit_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two number of sets.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / 64;
        let sets = lines / self.assoc;
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        sets
    }
}

/// A line evicted to make room: its base address and whether it was dirty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// Base physical address of the evicted line.
    pub line: PhysAddr,
    /// True if the line held modified data that must be written back.
    pub dirty: bool,
}

/// Hit/miss counters for one level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines evicted.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; 0 when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

/// Way flag bits, packed below the tag in [`Way::meta`].
const VALID: u64 = 1;
const DIRTY: u64 = 2;

/// One way: `meta` is the tag shifted left by two with the valid and
/// dirty bits below it, so a way is 16 bytes and a tag match is one
/// masked compare against the key `Cache::index` builds.
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    meta: u64,
    stamp: u64,
}

impl Way {
    #[inline]
    fn valid(&self) -> bool {
        self.meta & VALID != 0
    }

    #[inline]
    fn dirty(&self) -> bool {
        self.meta & DIRTY != 0
    }

    /// True if the way is valid and holds the line whose key is `key`.
    #[inline]
    fn holds(&self, key: u64) -> bool {
        self.meta & !DIRTY == key
    }
}

/// One cache level. Addresses are tracked at line granularity only (tags, no
/// data — the memory controller owns the byte image).
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every way of every set in one contiguous, set-major allocation: set
    /// `s` owns `ways[s * assoc .. (s + 1) * assoc]`. A flat array keeps
    /// construction, full-cache sweeps (flush/invalidate) and — above all —
    /// clones (machine snapshots fork thousands of machines per crash
    /// sweep) at memcpy speed instead of one heap allocation per set.
    ways: Vec<Way>,
    assoc: usize,
    set_mask: u64,
    /// `set_mask.count_ones()`, cached: every index splits a line number
    /// into set and tag with it.
    set_bits: u32,
    tick: u64,
    /// Running count of valid ways, maintained on every fill/evict so
    /// [`occupancy`](Self::occupancy) is O(1) instead of a full-array
    /// recount (telemetry reads it per report, and the LLC has 98k ways).
    occupied: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            ways: vec![Way::default(); sets * cfg.assoc],
            assoc: cfg.assoc,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            cfg,
            tick: 0,
            occupied: 0,
            stats: CacheStats::default(),
        }
    }

    /// Level configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set of `pa` and the key a valid way holding it carries: its
    /// tag with the valid bit set (the dirty bit is masked off on compare).
    #[inline]
    fn index(&self, pa: PhysAddr) -> (usize, u64) {
        let line = pa.as_u64() >> CACHE_LINE_SHIFT;
        ((line & self.set_mask) as usize, ((line >> self.set_bits) << 2) | VALID)
    }

    /// The way holding the line with `key` in `set`, if any.
    #[inline]
    fn find_mut(&mut self, set: usize, key: u64) -> Option<&mut Way> {
        let base = set * self.assoc;
        self.ways[base..base + self.assoc].iter_mut().find(|w| w.holds(key))
    }

    /// Base address of the line a valid way in `set` holds.
    #[inline]
    fn line_of(&self, set: usize, way: &Way) -> PhysAddr {
        PhysAddr::new((((way.meta >> 2) << self.set_bits) | set as u64) << CACHE_LINE_SHIFT)
    }

    /// Looks up `pa`; on hit updates LRU (and dirtiness for writes) and
    /// returns `true`. Counts the access in the stats.
    pub fn lookup(&mut self, pa: PhysAddr, kind: AccessKind) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, key) = self.index(pa);
        if let Some(way) = self.find_mut(set, key) {
            way.stamp = tick;
            if kind.is_write() {
                way.meta |= DIRTY;
            }
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// A dirty line arriving from the level above: if the line is present
    /// it becomes dirty and most recently used, counting one hit, and this
    /// returns `true`. A miss changes nothing (not even the miss count);
    /// the caller then [`insert`](Self::insert)s the line dirty. One scan
    /// does what `probe` followed by a write `lookup` would.
    pub fn write_hit(&mut self, pa: PhysAddr) -> bool {
        let (set, key) = self.index(pa);
        let tick = self.tick + 1;
        let Some(way) = self.find_mut(set, key) else {
            return false;
        };
        way.stamp = tick;
        way.meta |= DIRTY;
        self.tick = tick;
        self.stats.hits += 1;
        true
    }

    /// Inserts the line containing `pa` (after a miss), evicting the LRU way
    /// if the set is full. `dirty` marks the inserted line as modified.
    pub fn insert(&mut self, pa: PhysAddr, dirty: bool) -> Option<Eviction> {
        let (set, key) = self.index(pa);
        let victim = self.victim(set);
        self.fill(set, victim, key | if dirty { DIRTY } else { 0 })
    }

    /// [`lookup`](Self::lookup) and, on a miss, a clean
    /// [`insert`](Self::insert), in one scan of the set: the stats, LRU
    /// stamps and victim are exactly those of the two calls. `Ok(())` is
    /// a hit; `Err` carries the miss's eviction, if any.
    pub fn lookup_or_insert(
        &mut self,
        pa: PhysAddr,
        kind: AccessKind,
    ) -> Result<(), Option<Eviction>> {
        self.tick += 1;
        let (set, key) = self.index(pa);
        let base = set * self.assoc;
        let (mut invalid, mut lru, mut oldest) = (None, base, u64::MAX);
        for i in base..base + self.assoc {
            let way = &mut self.ways[i];
            if way.holds(key) {
                way.stamp = self.tick;
                if kind.is_write() {
                    way.meta |= DIRTY;
                }
                self.stats.hits += 1;
                return Ok(());
            }
            if !way.valid() {
                invalid = invalid.or(Some(i));
            } else if way.stamp < oldest {
                oldest = way.stamp;
                lru = i;
            }
        }
        self.stats.misses += 1;
        Err(self.fill(set, invalid.unwrap_or(lru), key))
    }

    /// The way an insert into `set` takes: the first invalid way, else the
    /// least recently used (first of equals, as `min_by_key` picks).
    fn victim(&self, set: usize) -> usize {
        let base = set * self.assoc;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for i in base..base + self.assoc {
            let way = &self.ways[i];
            if !way.valid() {
                return i;
            }
            if way.stamp < oldest {
                oldest = way.stamp;
                victim = i;
            }
        }
        victim
    }

    /// Installs `meta` at way index `victim` of `set` as the most recently
    /// used line, returning what it displaced.
    fn fill(&mut self, set: usize, victim: usize, meta: u64) -> Option<Eviction> {
        self.tick += 1;
        let old = std::mem::replace(&mut self.ways[victim], Way { meta, stamp: self.tick });
        if !old.valid() {
            self.occupied += 1;
            return None;
        }
        let ev = Eviction { line: self.line_of(set, &old), dirty: old.dirty() };
        if ev.dirty {
            self.stats.dirty_evictions += 1;
        }
        Some(ev)
    }

    /// True if the line is present (does not update LRU or stats).
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set, key) = self.index(pa);
        let base = set * self.assoc;
        self.ways[base..base + self.assoc].iter().any(|w| w.holds(key))
    }

    /// Clears the dirty bit of the line if present; returns whether it was
    /// dirty (i.e. a write-back is needed). The line stays valid (`clwb`).
    pub fn writeback_line(&mut self, pa: PhysAddr) -> bool {
        let (set, key) = self.index(pa);
        self.find_mut(set, key).is_some_and(|way| {
            let was = way.dirty();
            way.meta &= !DIRTY;
            was
        })
    }

    /// Invalidates the line if present; returns whether it was dirty.
    pub fn invalidate_line(&mut self, pa: PhysAddr) -> bool {
        let (set, key) = self.index(pa);
        let Some(way) = self.find_mut(set, key) else {
            return false;
        };
        let was = way.dirty();
        way.meta = 0;
        self.occupied -= 1;
        was
    }

    /// Clears all dirty bits, returning the base addresses of lines that
    /// were dirty (a full write-back flush).
    pub fn writeback_all(&mut self) -> Vec<PhysAddr> {
        let mut out = Vec::new();
        for i in 0..self.ways.len() {
            let way = self.ways[i];
            if way.valid() && way.dirty() {
                self.ways[i].meta &= !DIRTY;
                out.push(self.line_of(i / self.assoc, &way));
            }
        }
        out
    }

    /// Drops every line (power loss). Dirty data is *lost*, which is exactly
    /// the hazard NVM consistency mechanisms guard against.
    pub fn invalidate_all(&mut self) {
        for way in &mut self.ways {
            way.meta = 0;
        }
        self.occupied = 0;
    }

    /// Number of valid lines currently held (a maintained counter, not a
    /// recount; [`recount_occupancy`](Self::recount_occupancy) is the
    /// oracle the tests hold it against).
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Recounts valid ways from scratch. Test oracle for the maintained
    /// [`occupancy`](Self::occupancy) counter.
    #[doc(hidden)]
    pub fn recount_occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            name: "T".into(),
            size_bytes: 4 * 64, // 4 lines
            assoc: 2,           // 2 sets x 2 ways
            hit_cycles: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let pa = PhysAddr::new(0x1000);
        assert!(!c.lookup(pa, AccessKind::Read));
        c.insert(pa, false);
        assert!(c.lookup(pa, AccessKind::Read));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = 2 lines = 128B).
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(128);
        let d = PhysAddr::new(256);
        c.insert(a, false);
        c.insert(b, false);
        c.lookup(a, AccessKind::Read); // a is now MRU
        let ev = c.insert(d, false).expect("set full");
        assert_eq!(ev.line, b, "LRU way (b) must be evicted");
        assert!(c.probe(a));
        assert!(!c.probe(b));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        let a = PhysAddr::new(0);
        c.insert(a, false);
        c.lookup(a, AccessKind::Write); // dirty it
        c.insert(PhysAddr::new(128), false);
        let ev = c.insert(PhysAddr::new(256), false).unwrap();
        assert_eq!(ev.line, a);
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn writeback_line_clears_dirty_keeps_valid() {
        let mut c = tiny();
        let a = PhysAddr::new(64);
        c.insert(a, true);
        assert!(c.writeback_line(a));
        assert!(!c.writeback_line(a), "second writeback is a no-op");
        assert!(c.probe(a), "clwb keeps the line cached");
    }

    #[test]
    fn invalidate_line_reports_dirty() {
        let mut c = tiny();
        let a = PhysAddr::new(64);
        c.insert(a, true);
        assert!(c.invalidate_line(a));
        assert!(!c.probe(a));
        assert!(!c.invalidate_line(a));
    }

    #[test]
    fn writeback_all_returns_exactly_dirty_lines() {
        let mut c = tiny();
        c.insert(PhysAddr::new(0), true);
        c.insert(PhysAddr::new(64), false);
        c.insert(PhysAddr::new(128), true);
        let mut dirty = c.writeback_all();
        dirty.sort();
        assert_eq!(dirty, vec![PhysAddr::new(0), PhysAddr::new(128)]);
        assert!(c.writeback_all().is_empty());
        assert_eq!(c.occupancy(), 3);
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = Cache::new(CacheConfig {
            name: "T2".into(),
            size_bytes: 64 * 64,
            assoc: 1,
            hit_cycles: 1,
        });
        let pa = PhysAddr::new(0xabcd * 64);
        c.insert(pa, true);
        // Same set, different tag: set count = 64 lines, stride 64*64 bytes.
        let conflicting = PhysAddr::new(pa.as_u64() + 64 * 64 * 64);
        let ev = c.insert(conflicting, false).unwrap();
        assert_eq!(ev.line, pa);
    }

    #[test]
    fn occupancy_counter_matches_recount_through_mixed_workload() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        // Deterministic mixed fill/evict/invalidate traffic: addresses
        // collide across both sets, so inserts exercise both the
        // invalid-way-reuse branch (+1) and the replace branch (+0).
        let mut state = 0x9e37_79b9_u64;
        for step in 0..200u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pa = PhysAddr::new((state >> 33) % 8 * 64);
            match step % 5 {
                0 | 1 => {
                    if !c.lookup(pa, AccessKind::Read) {
                        c.insert(pa, step % 2 == 0);
                    }
                }
                2 => {
                    c.insert(pa, false);
                }
                3 => {
                    c.invalidate_line(pa);
                }
                _ => {
                    c.writeback_line(pa);
                }
            }
            assert_eq!(
                c.occupancy(),
                c.recount_occupancy(),
                "counter drifted from recount at step {step}"
            );
        }
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.occupancy(), c.recount_occupancy());
        c.insert(PhysAddr::new(0), true);
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.occupancy(), c.recount_occupancy());
    }

    #[test]
    fn invalidate_all_drops_everything() {
        let mut c = tiny();
        c.insert(PhysAddr::new(0), true);
        c.insert(PhysAddr::new(64), true);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert!(c.writeback_all().is_empty(), "dirty data lost on power failure");
    }
}
