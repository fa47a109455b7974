//! Per-layer rows that do not come from spans: host ns per call of the
//! substrates, driven on private instances through their public functions,
//! and the exact simulated counts of a repetition.

use std::hint::black_box;
use std::time::Instant;

use kindle_core::cache::{Hierarchy, HierarchyConfig};
use kindle_core::mem::{MediaFaultConfig, MemConfig, MemoryController};
use kindle_core::tlb::{TlbEntry, TwoLevelTlb, TwoLevelTlbConfig};
use kindle_core::types::{Pfn, PhysAddr, Vpn};
use kindle_core::{AccessKind, Cycles, MemKind, SimReport};
use kindle_faults::{SweepOutcome, SweepTelemetry};

use crate::trace::ratio;

/// Calls per timed batch of a substrate row.
const BATCH: u64 = 20_000;
/// Batches per substrate row; the row reports the median batch.
const BATCHES: usize = 15;

/// Median host ns per call of `f` over [`BATCHES`] batches, after one
/// untimed warm-up batch. `f` gets the call index.
fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..BATCH {
            f(i);
            i += 1;
        }
        t.elapsed().as_nanos() as f64 / BATCH as f64
    };
    batch();
    let mut v: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    v.sort_by(f64::total_cmp);
    v[BATCHES / 2]
}

/// Substrate rows, in [`substrate_rows`] order.
pub const SUBSTRATE: [&str; 6] = [
    "cache.hot_access_ns",
    "cache.cold_access_ns",
    "tlb.lookup_ns",
    "mem.nvm_access_ns",
    "mem.store_ns",
    "mem.store_checksum_ns",
];

/// Host ns per call of each substrate, in [`SUBSTRATE`] order.
pub fn substrate_rows() -> [f64; 6] {
    let cfg = HierarchyConfig::default();
    let lines = |c: &kindle_core::cache::CacheConfig| c.size_bytes as u64 / 64;
    // Eight lines in each L1 set: resident after the warm-up batch.
    let hot_lines = lines(&cfg.l1) / 2;
    // Four times the LLC, visited in a scattered order so no level hits.
    let cold_lines = (lines(&cfg.llc) * 4).next_power_of_two();
    let mut hot = Hierarchy::new(&cfg);
    let mut cold = Hierarchy::new(&cfg);
    let scatter = |i: u64, n: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15 | 1) & (n - 1);

    let mut tlb = TwoLevelTlb::new(&TwoLevelTlbConfig::default());
    for v in 0..1024u64 {
        tlb.install(TlbEntry::new(Vpn::new(v), Pfn::new(v), true, MemKind::Dram));
    }

    let plain = MemConfig::default();
    let nvm = plain.layout.range(MemKind::Nvm).base;
    let mut mc = MemoryController::new(&plain);
    let mut store = MemoryController::new(&plain);
    let mut checked = MemoryController::new(&MemConfig {
        faults: Some(MediaFaultConfig::with_seed(1)),
        ..MemConfig::default()
    });
    let line = [0x5au8; 64];
    // Stores cycle over 16 MiB of NVM lines, so most of them dirty a line
    // for the first time (undo snapshot, page materialisation), as the
    // zeroing stores of a demand fault do.
    let store_pa = |i: u64| nvm + (i % (1 << 18)) * 64;

    [
        ns_per_call(|i| {
            black_box(hot.access(PhysAddr::new((i % hot_lines) * 64), AccessKind::Read));
        }),
        ns_per_call(|i| {
            let pa = PhysAddr::new(scatter(i, cold_lines) * 64);
            black_box(cold.access(pa, AccessKind::Read));
        }),
        ns_per_call(|i| {
            let (lat, hit, _) = tlb.lookup(Vpn::new(i % 2048));
            black_box((lat, hit.is_some()));
        }),
        ns_per_call(|i| {
            black_box(mc.access(nvm + (i % 4096) * 64, AccessKind::Write, Cycles::new(i * 100)));
        }),
        ns_per_call(|i| store.store_bytes(store_pa(i), black_box(&line))),
        ns_per_call(|i| checked.store_bytes(store_pa(i), black_box(&line))),
    ]
}

/// The simulated per-layer counts of one repetition as (name, unit,
/// better, value). Every ratio comes with its base count. `ops` is the
/// repetition's operation count. Counts a workload does not produce are 0.
pub fn sim_rows(
    report: Option<&SimReport>,
    sweeps: &[(SweepOutcome, SweepTelemetry)],
    ops: u64,
) -> Vec<(&'static str, &'static str, &'static str, f64)> {
    let empty;
    let d = match report {
        Some(r) => r,
        None => {
            empty = empty_report();
            &empty
        }
    };
    let llc = d.caches.llc.hits + d.caches.llc.misses;
    let l1_tlb = d.tlb.0.hits + d.tlb.0.misses;
    let dram = d.mem.dram.row_hits + d.mem.dram.row_misses;
    let ckpt = d.checkpoint.clone().unwrap_or_default();
    let ssp = d.ssp.clone().unwrap_or_default();
    let hscc = d.hscc.clone().unwrap_or_default();
    let migration_cycles = (hscc.selection_cycles + hscc.copy_cycles).as_u64() as f64;
    let total = d.total_cycles.as_u64() as f64;
    let offered: u64 = sweeps.iter().map(|(_, t)| t.snapshots_offered).sum();
    let retained: u64 = sweeps.iter().map(|(_, t)| t.snapshots_retained).sum();
    vec![
        ("sim.ops", "count", "higher", ops as f64),
        ("sim.sim_ms", "ms", "lower", d.total_cycles.as_millis_f64()),
        ("cpu.overhead_share", "frac", "lower", ratio(d.overhead_cycles().as_u64() as f64, total)),
        ("cache.llc_accesses", "count", "lower", llc as f64),
        ("cache.llc_miss_ratio", "frac", "lower", ratio(d.caches.llc.misses as f64, llc as f64)),
        ("cache.memory_writebacks", "count", "lower", d.caches.memory_writebacks as f64),
        ("tlb.l1_lookups", "count", "lower", l1_tlb as f64),
        ("tlb.l1_hit_ratio", "frac", "higher", ratio(d.tlb.0.hits as f64, l1_tlb as f64)),
        ("tlb.walks", "count", "lower", d.walks as f64),
        ("mem.nvm_reads", "count", "lower", d.mem.nvm.reads as f64),
        ("mem.nvm_writes", "count", "lower", d.mem.nvm.writes as f64),
        ("mem.nvm_write_stalls", "count", "lower", d.mem.nvm.write_stalls as f64),
        ("mem.dram_accesses", "count", "lower", dram as f64),
        (
            "mem.dram_row_hit_ratio",
            "frac",
            "higher",
            ratio(d.mem.dram.row_hits as f64, dram as f64),
        ),
        ("os.page_faults", "count", "lower", d.kernel.page_faults as f64),
        ("os.faults_per_op", "frac", "lower", ratio(d.kernel.page_faults as f64, ops as f64)),
        ("persist.checkpoints", "count", "lower", ckpt.checkpoints as f64),
        ("persist.list_checked", "count", "lower", ckpt.list_checked as f64),
        (
            "persist.list_written_ratio",
            "frac",
            "higher",
            ratio(ckpt.list_written as f64, ckpt.list_checked as f64),
        ),
        ("ssp.lines_flushed", "count", "lower", ssp.data_lines_flushed as f64),
        ("ssp.pages_consolidated", "count", "lower", ssp.pages_consolidated as f64),
        ("hscc.pages_migrated", "count", "lower", hscc.pages_migrated as f64),
        ("hscc.copybacks", "count", "lower", hscc.copybacks as f64),
        ("hscc.migration_cycles", "count", "lower", migration_cycles),
        (
            "hscc.copy_share",
            "frac",
            "lower",
            ratio(hscc.copy_cycles.as_u64() as f64, migration_cycles),
        ),
        (
            "faults.points",
            "count",
            "higher",
            sweeps.iter().map(|(o, _)| o.boundaries).sum::<u64>() as f64,
        ),
        (
            "faults.recovered",
            "count",
            "higher",
            sweeps.iter().map(|(o, _)| o.recovered).sum::<u64>() as f64,
        ),
        ("faults.snapshots_offered", "count", "lower", offered as f64),
        ("faults.snapshot_retained_ratio", "frac", "lower", ratio(retained as f64, offered as f64)),
        (
            "faults.pool_high_water",
            "count",
            "lower",
            sweeps.iter().map(|(_, t)| t.pool_high_water).max().unwrap_or(0) as f64,
        ),
    ]
}

/// The report of a machine that simulated nothing.
fn empty_report() -> SimReport {
    SimReport {
        total_cycles: Cycles::ZERO,
        breakdown: Default::default(),
        cpu: Default::default(),
        caches: Default::default(),
        tlb: Default::default(),
        walks: 0,
        walk_faults: 0,
        mem: Default::default(),
        kernel: Default::default(),
        checkpoint: None,
        ssp: None,
        hscc: None,
        scrub: None,
        patrol: None,
        tlb_shootdowns: 0,
        kthread_switches: 0,
    }
}
