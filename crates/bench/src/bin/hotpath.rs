//! Hot-path throughput: flat direct-indexed controller stores vs the
//! legacy ordered maps, and page-granular demand-fault zeroing vs the
//! line-by-line oracle.
//!
//! Drives the identical workload through `Machine::access` on two
//! machines that differ only in `MemConfig::legacy_maps`: the flat side
//! uses the pfn-indexed page arena, the `LineTable`-backed checksum
//! store and the epoch-tagged undo table; the legacy side uses the
//! original `BTreeMap` stores. Two alternating phases cover both halves
//! of the controller's hot path:
//!
//! * a *translation* phase — a random read/write mix over a working set
//!   sized well past the TLB, so most accesses walk the NVM-resident
//!   page tables (Persistent mode) through the controller's byte loads;
//! * a *churn* phase — mmap/fault-in/munmap rounds whose zero-fill
//!   stores hit the undo table and (with the media-fault model armed)
//!   the checksum table on every line.
//!
//! A third comparison times `zero_page` alone on NVM frames, at the
//! `Hw` level: `Hw`'s page-granular override against `LineByLine`, the
//! same hardware running the `PhysMem` trait's line-by-line default.
//!
//! Timing methodology: both sides of each comparison run the identical
//! stream, split into chunks that are timed *alternately* (legacy, flat,
//! legacy, flat, …) after an untimed warm-up chunk, so frequency scaling
//! and cache warm-up bias neither side.
//!
//! Reported rows:
//!
//! * `access_ns` — flat-side host ns per translation-phase access;
//! * `fault_ns` — flat-side host ns per faulted page of the churn phase
//!   (its mmap and munmap included);
//! * `hotpath_speedup` — legacy wall time / flat wall time over both
//!   phases (golden-gated at >= 1.3x by `bench_diff`);
//! * `fault_speedup` — line-by-line `zero_page` wall time / page-granular
//!   wall time (golden-gated at >= 1.2x);
//! * `lines_accessed` — per-side timed access plus faulted-page count
//!   (workload-shape pin).
//!
//! Every pair must be *observation-equivalent*: the binary asserts the
//! machines' `SimReport`s and clocks, and the `zero_page` sides' clocks,
//! cache and controller stats, are byte-identical before printing any
//! number, so a speedup can never come from simulating less.

use kindle_bench::*;
use kindle_core::prelude::PtMode;
use kindle_core::types::{PhysMem, PAGE_SIZE};

/// Deterministic splitmix64 step: the workload's address/kind stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One side of the comparison: a machine plus its private copy of the
/// workload stream and its accumulated timed work.
struct Side {
    m: Machine,
    pid: u32,
    va: VirtAddr,
    pages: u64,
    rng: u64,
    accesses: u64,
    access_secs: f64,
    faults: u64,
    fault_secs: f64,
}

impl Side {
    /// Builds one side; `legacy` picks the store layout.
    fn build(legacy: bool, pages: u64) -> Result<Side> {
        let mut faults = mem::MediaFaultConfig::with_seed(5);
        faults.correction_entries = STUCK_CORRECTION_ENTRIES;
        let mut cfg = MachineConfig::small().with_pt_mode(PtMode::Persistent);
        cfg.mem.faults = Some(faults);
        cfg.mem.legacy_maps = legacy;
        // Keep the fixed-cost part of the per-access simulation (way
        // scans) small and the translation traffic high: a lean TLB means
        // nearly every access walks the NVM-resident page tables, which
        // is exactly the controller-store traffic this bench compares.
        cfg.tlb.l1 = tlb::TlbConfig { entries: 16, assoc: 4, hit_cycles: 1 };
        cfg.tlb.l2 = tlb::TlbConfig { entries: 128, assoc: 8, hit_cycles: 7 };
        cfg.caches.l1.assoc = 2;
        cfg.caches.l2.assoc = 2;
        cfg.caches.llc.assoc = 4;
        let mut m = Machine::new(cfg)?;

        let pid = m.spawn_process()?;
        let va = m.mmap(pid, pages * 4096, Prot::RW, MapFlags::NVM)?;
        // Fault every page in up front so the timed region is
        // steady-state translation + data traffic, not fault handling.
        for p in 0..pages {
            m.access(pid, va + p * 4096, AccessKind::Write)?;
        }
        Ok(Side {
            m,
            pid,
            va,
            pages,
            rng: 0x0dd0_11ce_5eed,
            accesses: 0,
            access_secs: 0.0,
            faults: 0,
            fault_secs: 0.0,
        })
    }

    /// Runs `n` accesses of the deterministic stream; `timed` adds the
    /// wall time and access count to the side's totals.
    fn chunk(&mut self, n: u64, timed: bool) -> Result<()> {
        let started = std::time::Instant::now();
        for _ in 0..n {
            let r = mix(&mut self.rng);
            let page = (r >> 32) % self.pages;
            let line = (r >> 16) & 63;
            let kind = if r & 3 == 0 { AccessKind::Read } else { AccessKind::Write };
            self.m.access(self.pid, self.va + page * 4096 + line * 64, kind)?;
        }
        if timed {
            self.access_secs += started.elapsed().as_secs_f64();
            self.accesses += n;
        }
        Ok(())
    }

    /// One mmap/fault-in/munmap churn round over a scratch region: every
    /// faulted frame is zero-filled through the controller's line store,
    /// so this is the store-side (undo + checksum) hot path.
    fn churn(&mut self, scratch_pages: u64, timed: bool) -> Result<()> {
        let started = std::time::Instant::now();
        let va = self.m.mmap(self.pid, scratch_pages * 4096, Prot::RW, MapFlags::NVM)?;
        for p in 0..scratch_pages {
            self.m.access(self.pid, va + p * 4096, AccessKind::Write)?;
        }
        self.m.munmap(self.pid, va, scratch_pages * 4096)?;
        if timed {
            self.fault_secs += started.elapsed().as_secs_f64();
            self.faults += scratch_pages;
        }
        Ok(())
    }

    fn secs(&self) -> f64 {
        self.access_secs + self.fault_secs
    }

    fn lines(&self) -> u64 {
        self.accesses + self.faults
    }
}

/// Times `zero_page` on NVM frames through `Hw`'s page-granular
/// override and through the [`sim::LineByLine`] oracle, alternating
/// timed chunks of `chunk` pages. The frames cycle through a region
/// eight times the LLC, so zeroing runs against a cache full of earlier
/// zeroing's dirty lines, as demand faults do. Returns oracle seconds
/// over override seconds, after asserting both sides simulated the same.
fn fault_speedup(chunk: u64, chunks: u64) -> f64 {
    let cfg = MachineConfig::small();
    let frames = (8 * cfg.caches.llc.size_bytes / PAGE_SIZE) as u64;
    let base = cfg.mem.layout.range(MemKind::Nvm).base;
    let mut fast = sim::Hw::new(&cfg);
    let mut oracle = sim::LineByLine(sim::Hw::new(&cfg));
    let (mut fast_secs, mut oracle_secs) = (0.0, 0.0);
    let zero = |mem: &mut dyn PhysMem, round: u64| {
        let started = std::time::Instant::now();
        for p in round * chunk..(round + 1) * chunk {
            mem.zero_page(base + (p % frames) * PAGE_SIZE as u64);
        }
        started.elapsed().as_secs_f64()
    };
    zero(&mut fast, 0);
    zero(&mut oracle, 0);
    for round in 1..=chunks {
        oracle_secs += zero(&mut oracle, round);
        fast_secs += zero(&mut fast, round);
    }
    let state = |hw: &sim::Hw| {
        format!(
            "{:?} {:?} {:?} {}",
            hw.now(),
            hw.caches.stats(),
            hw.mc.stats(),
            hw.mc.volatile_nvm_lines()
        )
    };
    assert_eq!(state(&fast), state(&oracle.0), "page-granular and line-by-line zeroing diverged");
    oracle_secs / fast_secs
}

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let (pages, chunks) = if harness.quick() { (4096, 6) } else { (8192, 16) };
    let chunk = pages;

    let mut flat = Side::build(false, pages)?;
    let mut legacy = Side::build(true, pages)?;

    // Untimed warm-up, then alternate timed chunks so host-side noise
    // (frequency scaling, cache warm-up) biases neither side.
    flat.chunk(chunk, false)?;
    legacy.chunk(chunk, false)?;
    for _ in 0..chunks {
        legacy.chunk(chunk, true)?;
        flat.chunk(chunk, true)?;
        legacy.churn(512, true)?;
        flat.churn(512, true)?;
    }

    // Observation equivalence first: a throughput win that changes any
    // counter is a simulation bug, not an optimisation.
    assert_eq!(flat.m.now(), legacy.m.now(), "flat and legacy clocks diverged");
    let (fr, lr) = (format!("{:?}", flat.m.report()), format!("{:?}", legacy.m.report()));
    assert_eq!(fr, lr, "flat and legacy reports diverged");
    assert_eq!(flat.lines(), legacy.lines());
    let fault_speedup = fault_speedup(chunk / 4, chunks);

    let access_ns = flat.access_secs / flat.accesses as f64 * 1e9;
    let fault_ns = flat.fault_secs / flat.faults as f64 * 1e9;
    let hotpath_speedup = legacy.secs() / flat.secs();

    println!("HOTPATH: steady-state controller-store and fault-zeroing host time");
    rule(56);
    println!("{:<36} {:>12}", "Metric", "Value");
    rule(56);
    println!("{:<36} {:>12}", "pages", pages);
    println!("{:<36} {:>12}", "lines accessed", flat.lines());
    println!("{:<36} {:>12.0}", "flat ns/access", access_ns);
    println!("{:<36} {:>12.0}", "flat ns/faulted page", fault_ns);
    println!("{:<36} {:>12.2}", "speedup (legacy/flat)", hotpath_speedup);
    println!("{:<36} {:>12.2}", "zero_page speedup (line/page)", fault_speedup);
    println!("reports: byte-identical");

    harness.maybe_json(json::obj([
        ("access_ns", format!("{access_ns:.0}")),
        ("fault_ns", format!("{fault_ns:.0}")),
        ("hotpath_speedup", format!("{hotpath_speedup:.3}")),
        ("fault_speedup", format!("{fault_speedup:.3}")),
        ("lines_accessed", flat.lines().to_string()),
    ]))?;
    harness.finish()
}
