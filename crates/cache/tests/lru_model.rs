//! `Cache` against a reference LRU model on seeded operation streams.
//!
//! The model keeps each set as a recency-ordered list of `(line, dirty)`
//! with no notion of way slots, stamps or packed tags, so it pins the
//! replacement and dirtiness semantics the packed implementation must
//! keep: hits, misses, dirty evictions, the evicted addresses, every
//! returned flag, and the occupancy (both the maintained counter and the
//! full recount).

use std::collections::VecDeque;

use kindle_cache::{Cache, CacheConfig, CacheStats};
use kindle_types::{AccessKind, PhysAddr, Rng64};

/// Reference set-associative LRU cache: each set's lines in recency
/// order, least recently used first.
struct Model {
    sets: Vec<VecDeque<(u64, bool)>>,
    assoc: usize,
    stats: CacheStats,
}

impl Model {
    fn new(sets: usize, assoc: usize) -> Self {
        Model { sets: vec![VecDeque::new(); sets], assoc, stats: CacheStats::default() }
    }

    fn set(&mut self, line: u64) -> &mut VecDeque<(u64, bool)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    /// Moves `line` to the MRU end (optionally dirtying it); false if absent.
    fn touch(&mut self, line: u64, dirty: bool) -> bool {
        let set = self.set(line);
        let Some(pos) = set.iter().position(|&(l, _)| l == line) else {
            return false;
        };
        let (l, d) = set.remove(pos).expect("position is in range");
        set.push_back((l, d || dirty));
        true
    }

    fn lookup(&mut self, line: u64, write: bool) -> bool {
        let hit = self.touch(line, write);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    fn write_hit(&mut self, line: u64) -> bool {
        let hit = self.touch(line, true);
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    fn insert(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let assoc = self.assoc;
        let set = self.set(line);
        let evicted = if set.len() == assoc { set.pop_front() } else { None };
        set.push_back((line, dirty));
        if evicted.is_some_and(|(_, d)| d) {
            self.stats.dirty_evictions += 1;
        }
        evicted
    }

    fn writeback_line(&mut self, line: u64) -> bool {
        let set = self.set(line);
        set.iter_mut().find(|(l, _)| *l == line).is_some_and(|(_, d)| std::mem::take(d))
    }

    fn invalidate_line(&mut self, line: u64) -> bool {
        let set = self.set(line);
        match set.iter().position(|&(l, _)| l == line) {
            Some(pos) => set.remove(pos).expect("position is in range").1,
            None => false,
        }
    }

    fn writeback_all(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for (l, d) in set.iter_mut() {
                if std::mem::take(d) {
                    out.push(*l);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(VecDeque::len).sum()
    }
}

/// Runs `steps` seeded operations on a `sets x assoc` cache over
/// `lines` distinct line addresses, checking every result against the
/// model.
fn run(seed: u64, sets: usize, assoc: usize, lines: u64, steps: usize) {
    let mut cache = Cache::new(CacheConfig {
        name: "T".into(),
        size_bytes: sets * assoc * 64,
        assoc,
        hit_cycles: 1,
    });
    let mut model = Model::new(sets, assoc);
    let mut rng = Rng64::new(seed);
    for step in 0..steps {
        // Spread lines over a wide address range so tags use high bits.
        let line = rng.gen_below(lines) * 0x1_0000_0001 % (1 << 40);
        let pa = PhysAddr::new(line << 6);
        let ctx = format!("seed {seed} step {step} line {line:#x}");
        match rng.gen_below(16) {
            // Lookup, filling on a miss, as the hierarchy does.
            0..=5 => {
                let write = rng.gen_below(2) == 0;
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let hit = cache.lookup(pa, kind);
                assert_eq!(hit, model.lookup(line, write), "{ctx}: lookup");
                if !hit {
                    let ev = cache.insert(pa, write).map(|e| (e.line.as_u64() >> 6, e.dirty));
                    assert_eq!(ev, model.insert(line, write), "{ctx}: fill eviction");
                }
            }
            // The LLC's fused lookup-then-clean-fill.
            6 | 7 => {
                let write = rng.gen_below(2) == 0;
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let got = cache
                    .lookup_or_insert(pa, kind)
                    .map_err(|ev| ev.map(|e| (e.line.as_u64() >> 6, e.dirty)));
                let want =
                    if model.lookup(line, write) { Ok(()) } else { Err(model.insert(line, false)) };
                assert_eq!(got, want, "{ctx}: lookup_or_insert");
            }
            // A dirty spill from the level above.
            8..=10 => {
                let hit = cache.write_hit(pa);
                assert_eq!(hit, model.write_hit(line), "{ctx}: write_hit");
                if !hit {
                    let ev = cache.insert(pa, true).map(|e| (e.line.as_u64() >> 6, e.dirty));
                    assert_eq!(ev, model.insert(line, true), "{ctx}: spill eviction");
                }
            }
            11 | 12 => {
                assert_eq!(cache.writeback_line(pa), model.writeback_line(line), "{ctx}: clwb");
            }
            13 | 14 => {
                assert_eq!(
                    cache.invalidate_line(pa),
                    model.invalidate_line(line),
                    "{ctx}: invalidate"
                );
            }
            _ => {
                if rng.gen_below(8) == 0 {
                    cache.invalidate_all();
                    model.sets.iter_mut().for_each(VecDeque::clear);
                } else {
                    let mut got: Vec<u64> =
                        cache.writeback_all().iter().map(|p| p.as_u64() >> 6).collect();
                    got.sort_unstable();
                    assert_eq!(got, model.writeback_all(), "{ctx}: writeback_all");
                }
            }
        }
        assert_eq!(cache.stats(), &model.stats, "{ctx}: stats");
        assert_eq!(cache.occupancy(), model.occupancy(), "{ctx}: occupancy");
        assert_eq!(cache.recount_occupancy(), model.occupancy(), "{ctx}: recount");
        assert_eq!(cache.probe(pa), model.sets.iter().flatten().any(|&(l, _)| l == line));
    }
}

#[test]
fn cache_matches_reference_lru_model() {
    for seed in 0..8 {
        run(seed, 4, 4, 48, 4000);
    }
}

#[test]
fn direct_mapped_and_single_set_geometries_match_the_model() {
    run(100, 16, 1, 64, 3000);
    run(101, 1, 8, 24, 3000);
}
