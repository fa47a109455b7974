//! `Hw`'s page-granular `zero_page`/`copy_page` against the `PhysMem`
//! trait's line-by-line defaults, which stay the oracle.
//!
//! [`LineByLine`] wraps an `Hw` and delegates every method `Hw` implements
//! except the page operations, so its `zero_page` and `copy_page` are the
//! trait defaults running over the same hardware. Both sides replay one
//! seeded operation stream — byte writes, page zeroing and copies, `clwb`,
//! durability barriers, free-mode toggles and torn crashes under an armed
//! power switch — over DRAM and NVM pages, with and without the media
//! fault model (stuck cells and ECP), under both store layouts and with
//! the MRU page cache on and off. A tiny cache hierarchy makes dirty
//! evictions, including stale lines of the page being zeroed, common.
//!
//! Everything observable must match: the clock, cache and controller
//! stats, the count of volatile NVM lines, the bytes of every page in the
//! pool before and after each crash, the patrol's verdict on every NVM
//! pool frame (the only window onto the recorded line checksums), every
//! read, and the full sanitizer event sequence.

use std::cell::RefCell;
use std::rc::Rc;

use kindle_cache::CacheConfig;
use kindle_mem::{MediaFaultConfig, MemConfig, PatrolOutcome, PowerSwitch};
use kindle_sim::{Hw, LineByLine, MachineConfig};
use kindle_types::sanitize::{self, Event, Sanitizer, ThreadId};
use kindle_types::{Cycles, MemKind, PhysAddr, PhysMem, Rng64, PAGE_SIZE};

/// Pages in each of the DRAM and NVM pools the stream touches.
const POOL_PAGES: u64 = 12;

/// Both sides expose the hardware underneath for the non-`PhysMem` ops.
trait Side: PhysMem {
    fn hw(&mut self) -> &mut Hw;
}

impl Side for Hw {
    fn hw(&mut self) -> &mut Hw {
        self
    }
}

impl Side for LineByLine {
    fn hw(&mut self) -> &mut Hw {
        &mut self.0
    }
}

/// Records every sanitizer event with its thread.
struct Recorder(Rc<RefCell<Vec<(ThreadId, Event)>>>);

impl Sanitizer for Recorder {
    fn on_event(&mut self, tid: ThreadId, ev: &Event) {
        self.0.borrow_mut().push((tid, *ev));
    }
}

/// One operation of the stream. Addresses are pool-relative byte offsets;
/// `nvm` picks the pool.
#[derive(Clone, Debug)]
enum Op {
    Write { nvm: bool, off: u64, data: Vec<u8> },
    Read { nvm: bool, off: u64, len: usize },
    Zero { nvm: bool, page: u64 },
    Copy { src_nvm: bool, src: u64, dst_nvm: bool, dst: u64 },
    Clwb { nvm: bool, off: u64 },
    Barrier,
    ToggleFree,
    Cut,
    Crash,
}

fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng64::new(seed);
    let pool = POOL_PAGES * PAGE_SIZE as u64;
    (0..n)
        .map(|_| {
            let nvm = rng.gen_below(3) != 0;
            match rng.gen_below(100) {
                0..=29 => {
                    let off = rng.gen_below(pool);
                    let len = (rng.gen_range(1, 300)).min(pool - off) as usize;
                    let zeros = rng.gen_below(4) == 0;
                    let data =
                        (0..len).map(|_| if zeros { 0 } else { rng.next_u64() as u8 }).collect();
                    Op::Write { nvm, off, data }
                }
                30..=37 => {
                    let off = rng.gen_below(pool);
                    Op::Read { nvm, off, len: (rng.gen_range(1, 200)).min(pool - off) as usize }
                }
                38..=59 => Op::Zero { nvm, page: rng.gen_below(POOL_PAGES) },
                60..=74 => Op::Copy {
                    src_nvm: nvm,
                    src: rng.gen_below(POOL_PAGES),
                    dst_nvm: rng.gen_below(3) != 0,
                    dst: rng.gen_below(POOL_PAGES),
                },
                75..=86 => Op::Clwb { nvm, off: rng.gen_below(pool) },
                87..=91 => Op::Barrier,
                92..=94 => Op::ToggleFree,
                95..=96 => Op::Cut,
                _ => Op::Crash,
            }
        })
        .collect()
}

/// The machine variant one comparison runs on.
#[derive(Clone, Copy, Debug)]
struct Variant {
    legacy_maps: bool,
    mru: bool,
    media: bool,
}

fn build(v: Variant) -> Hw {
    let mut cfg = MachineConfig::small();
    let mut mem = MemConfig::with_capacities(1 << 20, 1 << 20);
    mem.legacy_maps = v.legacy_maps;
    mem.mru_page_cache = v.mru;
    if v.media {
        mem.faults = Some(MediaFaultConfig {
            stuck_cells: 2048,
            wear_limit: 64,
            correction_entries: 1,
            ..MediaFaultConfig::with_seed(11)
        });
    }
    cfg.mem = mem;
    let level = |name: &str, size_bytes: usize, assoc: usize, hit_cycles: u64| CacheConfig {
        name: name.into(),
        size_bytes,
        assoc,
        hit_cycles,
    };
    cfg.caches.l1 = level("L1D", 1 << 10, 2, 4);
    cfg.caches.l2 = level("L2", 4 << 10, 4, 12);
    cfg.caches.llc = level("LLC", 8 << 10, 4, 40);
    Hw::new(&cfg)
}

/// Everything one side exposes, rendered for comparison.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    now: Cycles,
    caches: String,
    mem: String,
    volatile: usize,
    image: Vec<u8>,
    /// Patrol verdict per NVM pool frame, taken on a clone: the recorded
    /// line checksums are only visible through the patrol.
    patrol: Vec<PatrolOutcome>,
}

fn observe(hw: &Hw, bases: [PhysAddr; 2]) -> Observed {
    let mut image = vec![0u8; 2 * POOL_PAGES as usize * PAGE_SIZE];
    let (dram, nvm) = image.split_at_mut(POOL_PAGES as usize * PAGE_SIZE);
    hw.mc.load_bytes(bases[0], dram);
    hw.mc.load_bytes(bases[1], nvm);
    let mut probe = hw.clone();
    let patrol = (0..POOL_PAGES)
        .map(|p| probe.mc.patrol_frame((bases[1] + p * PAGE_SIZE as u64).as_u64()))
        .collect();
    Observed {
        now: hw.now(),
        caches: format!("{:?}", hw.caches.stats()),
        mem: format!("{:?}", hw.mc.stats()),
        volatile: hw.mc.volatile_nvm_lines(),
        image,
        patrol,
    }
}

/// What one side's run produced: the observations at every crash (before
/// and after) and at the end, every read, and the event stream.
struct Trace {
    observed: Vec<Observed>,
    reads: Vec<Vec<u8>>,
    events: Vec<(ThreadId, Event)>,
}

fn run<S: Side>(side: &mut S, ops: &[Op], seed: u64) -> Trace {
    let events = Rc::new(RefCell::new(Vec::new()));
    let guard = sanitize::install(Box::new(Recorder(events.clone())));
    let layout = side.hw().mc.layout().clone();
    let dram_base = layout.range(MemKind::Dram).base + 64 * PAGE_SIZE as u64;
    let nvm_base = layout.range(MemKind::Nvm).base + 64 * PAGE_SIZE as u64;
    let bases = [dram_base, nvm_base];
    let at = |nvm: bool, off: u64| bases[nvm as usize] + off;
    let switch = PowerSwitch::new();
    side.hw().mc.arm_power_cut(switch.clone());
    let mut crash_rng = Rng64::new(seed ^ 0x5eed);
    let mut trace = Trace { observed: Vec::new(), reads: Vec::new(), events: Vec::new() };
    for op in ops {
        match op {
            Op::Write { nvm, off, data } => side.write_bytes(at(*nvm, *off), data),
            Op::Read { nvm, off, len } => {
                let mut buf = vec![0u8; *len];
                side.read_bytes(at(*nvm, *off), &mut buf);
                trace.reads.push(buf);
            }
            Op::Zero { nvm, page } => side.zero_page(at(*nvm, page * PAGE_SIZE as u64)),
            Op::Copy { src_nvm, src, dst_nvm, dst } => side.copy_page(
                at(*src_nvm, src * PAGE_SIZE as u64),
                at(*dst_nvm, dst * PAGE_SIZE as u64),
            ),
            Op::Clwb { nvm, off } => side.clwb(at(*nvm, *off)),
            Op::Barrier => side.persist_barrier(),
            Op::ToggleFree => {
                let free = side.hw().free_mode();
                side.hw().set_free_mode(!free);
            }
            Op::Cut => switch.cut(),
            Op::Crash => {
                trace.observed.push(observe(side.hw(), bases));
                side.hw().crash_torn(&mut crash_rng);
                trace.observed.push(observe(side.hw(), bases));
            }
        }
    }
    trace.observed.push(observe(side.hw(), bases));
    drop(guard);
    trace.events = events.take();
    trace
}

fn check(v: Variant, seed: u64, n: usize) {
    let ops = gen_ops(seed, n);
    let fast = run(&mut build(v), &ops, seed);
    let oracle = run(&mut LineByLine(build(v)), &ops, seed);
    assert!(fast.events.len() > n, "{v:?} seed {seed}: the stream must emit events");
    assert!(fast.observed.len() > 2, "{v:?} seed {seed}: the stream must crash");
    for (i, (f, o)) in fast.observed.iter().zip(&oracle.observed).enumerate() {
        assert_eq!(f.now, o.now, "{v:?} seed {seed}: clock at observation {i}");
        assert_eq!(f.caches, o.caches, "{v:?} seed {seed}: cache stats at observation {i}");
        assert_eq!(f.mem, o.mem, "{v:?} seed {seed}: controller stats at observation {i}");
        assert_eq!(f.volatile, o.volatile, "{v:?} seed {seed}: volatile lines at {i}");
        assert!(f.image == o.image, "{v:?} seed {seed}: page bytes at observation {i}");
        assert_eq!(f.patrol, o.patrol, "{v:?} seed {seed}: patrol verdicts at observation {i}");
    }
    assert_eq!(fast.observed.len(), oracle.observed.len());
    assert!(fast.reads == oracle.reads, "{v:?} seed {seed}: read results");
    if let Some(i) = (0..fast.events.len().min(oracle.events.len()))
        .find(|&i| fast.events[i] != oracle.events[i])
    {
        panic!(
            "{v:?} seed {seed}: event {i} differs: {:?} vs oracle {:?}",
            fast.events[i], oracle.events[i]
        );
    }
    assert_eq!(fast.events.len(), oracle.events.len(), "{v:?} seed {seed}: event count");
}

fn variants(media: bool) -> impl Iterator<Item = Variant> {
    [(false, true), (false, false), (true, true), (true, false)]
        .into_iter()
        .map(move |(legacy_maps, mru)| Variant { legacy_maps, mru, media })
}

#[test]
fn page_ops_match_line_by_line_oracle() {
    for v in variants(false) {
        for seed in 1..=3 {
            check(v, seed, 1500);
        }
    }
}

#[test]
fn page_ops_match_oracle_under_media_faults() {
    for v in variants(true) {
        for seed in 10..=12 {
            check(v, seed, 1500);
        }
    }
}
