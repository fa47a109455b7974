//! The four workloads: inputs generated from the seed, set-up, and one
//! repetition driven through the simulator's public calls.
//!
//! Every repetition starts from a fresh machine and runs a fixed amount of
//! work, so its simulated output (and hence its digest) depends on the
//! seed and the size only, never on how long the run lasts.

use std::time::Instant;

use kindle_core::hscc::HsccConfig;
use kindle_core::os::PtMode;
use kindle_core::ssp::SspConfig;
use kindle_core::trace::{ReplayProgram, WorkloadKind};
use kindle_core::types::{Rng64, PAGE_SIZE};
use kindle_core::{
    AccessKind, Cycles, Machine, MachineConfig, MapFlags, Prot, Result, SimReport, VirtAddr,
};
use kindle_faults::{
    run_nvm_write_sweep_instrumented, SweepOutcome, SweepStrategy, SweepTelemetry,
};

use crate::trace::{Call, Class, Tracer};

/// Seed the digest pins are taken at.
pub const DEFAULT_SEED: u64 = 42;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5's costliest cell: YCSB replay under SSP.
    SspYcsb,
    /// Fig. 6's costliest cell: the same replay under HSCC migration.
    HsccYcsb,
    /// Rebuild-scheme checkpointing under random line traffic and churn.
    CkptChurn,
    /// The stride-1 NVM-write crash sweep under both page-table schemes.
    CrashSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::SspYcsb, Workload::HsccYcsb, Workload::CkptChurn, Workload::CrashSweep];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SspYcsb => "ssp_ycsb",
            Workload::HsccYcsb => "hscc_ycsb",
            Workload::CkptChurn => "ckpt_churn",
            Workload::CrashSweep => "crash_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` is the benchmark, `Tiny` the self-test scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few-millisecond version of every workload.
    Tiny,
}

/// Trace records per replay repetition (Fig. 5's quick scale).
fn replay_ops(size: Size) -> u64 {
    match size {
        Size::Full => 120_000,
        Size::Tiny => 3_000,
    }
}

/// Pinned digests of one repetition at [`DEFAULT_SEED`]: `(full, tiny)`.
pub fn pinned_digest(w: Workload, size: Size) -> u64 {
    let (full, tiny) = match w {
        Workload::SspYcsb => (0xecee_ddfe_9153_5e6f, 0xfd28_9aa7_2085_f987),
        Workload::HsccYcsb => (0x4896_daeb_c2b3_4a9e, 0x30a5_c6ea_f5f9_806d),
        Workload::CkptChurn => (0x5207_b1d3_659a_2ebc, 0x5854_70ed_1a08_1655),
        Workload::CrashSweep => (0xad69_77a6_c1b0_e0cc, 0xa137_5d43_dfa3_9f04),
    };
    match size {
        Size::Full => full,
        Size::Tiny => tiny,
    }
}

/// One `ckpt_churn` step: a Machine call, or a churn round of several.
#[derive(Clone, Copy, Debug)]
pub enum ChurnOp {
    /// A read or write of one line of the resident region (byte offset).
    Access(u64, AccessKind),
    /// mmap a scratch region, fault in each page, munmap it.
    Churn,
}

/// `ckpt_churn` shape per size: (resident pages, Machine calls, accesses
/// per churn round, pages per churn round).
fn churn_shape(size: Size) -> (u64, u64, u64, u64) {
    match size {
        // 64 MiB resident, ~1 M Machine calls.
        Size::Full => (16_384, 1_000_000, 4096, 64),
        Size::Tiny => (512, 20_000, 512, 16),
    }
}

/// The `ckpt_churn` steps, drawn from the seed as they are run so the
/// stream takes no memory of its own.
struct ChurnPlan {
    rng: Rng64,
    lines: u64,
    calls: u64,
    limit: u64,
    churn_every: u64,
    churn_pages: u64,
    since_churn: u64,
    /// A churn round was just yielded; an access always follows it.
    after_churn: bool,
}

impl ChurnPlan {
    /// The steps of `input`, which must be a `ckpt_churn` input.
    fn new(input: &Input) -> Self {
        let Input::Churn { resident_pages, churn_pages, churn_every, calls, seed, .. } = *input
        else {
            panic!("a churn plan needs a ckpt_churn input");
        };
        ChurnPlan {
            rng: Rng64::new(seed),
            lines: resident_pages * 64,
            calls: 0,
            limit: calls,
            churn_every,
            churn_pages,
            since_churn: 0,
            after_churn: false,
        }
    }
}

impl Iterator for ChurnPlan {
    type Item = ChurnOp;

    fn next(&mut self) -> Option<ChurnOp> {
        if !self.after_churn {
            if self.calls >= self.limit {
                return None;
            }
            if self.since_churn == self.churn_every {
                self.since_churn = 0;
                self.calls += self.churn_pages + 2;
                self.after_churn = true;
                return Some(ChurnOp::Churn);
            }
        }
        self.after_churn = false;
        self.since_churn += 1;
        self.calls += 1;
        let line = self.rng.next_u64() % self.lines;
        // Three reads to one write.
        let kind = if self.rng.next_u64().is_multiple_of(4) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Some(ChurnOp::Access(line * 64, kind))
    }
}

/// Everything one repetition needs, generated from the seed.
pub enum Input {
    /// A trace replay on `cfg`, with or without an open FASE.
    Replay {
        /// The streamed trace.
        program: ReplayProgram,
        /// Machine configuration.
        cfg: MachineConfig,
        /// Open a failure-atomic section around the replay.
        fase: bool,
    },
    /// Checkpointing under random line traffic and churn rounds.
    Churn {
        /// Machine configuration.
        cfg: MachineConfig,
        /// Pages made resident during set-up.
        resident_pages: u64,
        /// Pages mapped by each churn round.
        churn_pages: u64,
        /// Accesses between churn rounds.
        churn_every: u64,
        /// Machine calls of the timed phase (the last churn round may
        /// overshoot it).
        calls: u64,
        /// Seed of the access stream.
        seed: u64,
    },
    /// The write-granular crash sweep.
    Sweep {
        /// Torn-crash seed.
        seed: u64,
        /// Crash every `stride`-th NVM write.
        stride: u64,
    },
}

impl Input {
    /// Generates the inputs of `w` from `seed`.
    pub fn new(w: Workload, seed: u64, size: Size) -> Self {
        match w {
            Workload::SspYcsb => Input::Replay {
                program: ReplayProgram::synthetic(WorkloadKind::YcsbMem, replay_ops(size), seed),
                cfg: MachineConfig::table_i().with_ssp(SspConfig {
                    consistency_interval: Cycles::from_millis(1),
                    consolidation_interval: Cycles::from_millis(1),
                }),
                fase: true,
            },
            Workload::HsccYcsb => Input::Replay {
                program: ReplayProgram::synthetic(WorkloadKind::YcsbMem, replay_ops(size), seed),
                // The fault model's seed is fixed: where its stuck cells land
                // sets how much of the line tables `Machine::new` allocates,
                // which would make set-up time vary with the trace seed.
                cfg: MachineConfig::table_i()
                    .with_hscc(
                        HsccConfig { fetch_threshold: 5, pool_pages: 128, ..Default::default() },
                        true,
                    )
                    .with_media_faults(DEFAULT_SEED),
                fase: false,
            },
            Workload::CkptChurn => {
                let (resident_pages, calls, churn_every, churn_pages) = churn_shape(size);
                let mut cfg = MachineConfig::table_i()
                    .with_pt_mode(PtMode::Rebuild)
                    .with_checkpointing(Cycles::from_millis(1));
                // As in the persistence experiments (Tables III/IV):
                // pre-zeroed frames, paper-calibrated list-check cost.
                cfg.costs.zero_new_frames = false;
                cfg.costs.mapping_list_op = 2600;
                Input::Churn { cfg, resident_pages, churn_pages, churn_every, calls, seed }
            }
            Workload::CrashSweep => Input::Sweep {
                seed,
                stride: match size {
                    Size::Full => 1,
                    Size::Tiny => 64,
                },
            },
        }
    }

    /// Builds the machine(s) a repetition starts from, without running it.
    pub fn setup(&self) -> Result<Vec<(Machine, u32, VirtAddr)>> {
        match self {
            Input::Replay { cfg, .. } => {
                let mut m = Machine::new(cfg.clone())?;
                let pid = m.spawn_process()?;
                Ok(vec![(m, pid, VirtAddr::new(0))])
            }
            Input::Churn { cfg, resident_pages, .. } => {
                let mut m = Machine::new(cfg.clone())?;
                let pid = m.spawn_process()?;
                let len = resident_pages * PAGE_SIZE as u64;
                let va = m.mmap(pid, len, Prot::RW, MapFlags::NVM)?;
                for p in 0..*resident_pages {
                    m.access(pid, va + p * PAGE_SIZE as u64, AccessKind::Write)?;
                }
                Ok(vec![(m, pid, va)])
            }
            // The sweep builds its machines itself; its set-up row is the
            // construction of the machine each of its golden runs starts
            // from, under both page-table schemes.
            Input::Sweep { .. } => [PtMode::Rebuild, PtMode::Persistent]
                .into_iter()
                .map(|mode| {
                    let cfg = MachineConfig::small()
                        .with_pt_mode(mode)
                        .with_checkpointing(Cycles::from_millis(1000));
                    let mut m = Machine::new(cfg)?;
                    let pid = m.spawn_process()?;
                    Ok((m, pid, VirtAddr::new(0)))
                })
                .collect(),
        }
    }
}

/// What one repetition simulated.
pub enum Detail {
    /// The machine's final statistics.
    Sim(Box<SimReport>),
    /// Both sweeps' outcomes and telemetry, rebuild first.
    Sweep(Vec<(SweepOutcome, SweepTelemetry)>),
}

impl Detail {
    /// FNV-1a digest of the simulated output: the gem5-style stats text
    /// for machine runs, points/recovered/digest for the sweeps.
    pub fn digest(&self) -> u64 {
        let text = match self {
            Detail::Sim(r) => r.to_stats_text(),
            Detail::Sweep(v) => v
                .iter()
                .map(|(o, _)| format!("{} {} {:#x}\n", o.boundaries, o.recovered, o.digest))
                .collect(),
        };
        text.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }
}

/// One finished repetition.
pub struct Rep {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Operations completed in the timed phase.
    pub ops: u64,
    /// Simulated output.
    pub detail: Detail,
    /// The machine the timed phase ended on (machine workloads only).
    pub machine: Option<Machine>,
}

/// Operations one repetition attempts, where that is known before it
/// runs. A sweep's point count is known only from its golden runs, so a
/// sweep counts one per page-table scheme here.
pub fn planned_ops(input: &Input) -> u64 {
    match input {
        Input::Replay { program, .. } => program.len(),
        Input::Churn { churn_pages, .. } => ChurnPlan::new(input)
            .map(|op| match op {
                ChurnOp::Access(..) => 1,
                ChurnOp::Churn => churn_pages + 2,
            })
            .sum(),
        Input::Sweep { .. } => 2,
    }
}

/// Runs one repetition: set-up, then the timed phase, recording spans
/// into `tracer` when one is given.
pub fn run_rep(input: &Input, mut tracer: Option<&mut Tracer>) -> Result<Rep> {
    let t0 = Instant::now();
    let mut machines = input.setup()?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.begin_window();
    }
    let (ops, detail, machine) = match input {
        Input::Replay { program, fase, .. } => {
            let (mut m, pid, _) = machines.pop().expect("one replay machine");
            let ops = replay(&mut m, pid, program, *fase, &mut tracer)?;
            (ops, Detail::Sim(Box::new(m.report())), Some(m))
        }
        Input::Churn { churn_pages, .. } => {
            let (mut m, pid, va) = machines.pop().expect("one churn machine");
            let n = churn(&mut m, pid, va, ChurnPlan::new(input), *churn_pages, &mut tracer)?;
            (n, Detail::Sim(Box::new(m.report())), Some(m))
        }
        Input::Sweep { seed, stride } => {
            drop(machines);
            let mut out = Vec::new();
            for mode in [PtMode::Rebuild, PtMode::Persistent] {
                let sweep = || {
                    run_nvm_write_sweep_instrumented(
                        mode,
                        *seed,
                        *stride,
                        1,
                        SweepStrategy::SnapshotFork,
                    )
                };
                out.push(match tracer.as_deref_mut() {
                    Some(t) => t.time(Class::FaultsSweep, sweep)?,
                    None => sweep()?,
                });
            }
            (out.iter().map(|(o, _)| o.boundaries).sum(), Detail::Sweep(out), None)
        }
    };
    let timed_s = t1.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.end_window();
    }
    Ok(Rep { setup_s, timed_s, ops, detail, machine })
}

/// Runs `f` on the machine, as a traced call when a tracer is given.
fn call<T>(
    m: &mut Machine,
    tracer: &mut Option<&mut Tracer>,
    kind: Call,
    f: impl FnOnce(&mut Machine) -> Result<T>,
) -> Result<T> {
    match tracer {
        Some(t) => t.call(m, kind, f),
        None => f(m),
    }
}

/// Replays `program` exactly as `Machine::run_replay` does (areas mapped
/// in layout order, FASE opened over the NVM areas, one `access_sized`
/// per record, the final SSP interval closed), through public calls so
/// each one can be traced. Returns the records replayed.
fn replay(
    m: &mut Machine,
    pid: u32,
    program: &ReplayProgram,
    fase: bool,
    tracer: &mut Option<&mut Tracer>,
) -> Result<u64> {
    let mut bases = Vec::with_capacity(program.layout().areas().len());
    let mut nvm_lo = VirtAddr::new(u64::MAX);
    let mut nvm_hi = VirtAddr::new(0);
    for area in program.layout().areas() {
        let flags = if area.nvm { MapFlags::NVM } else { MapFlags::EMPTY };
        let va = call(m, tracer, Call::Mmap, |m| m.mmap(pid, area.size, Prot::RW, flags))?;
        if area.nvm {
            nvm_lo = nvm_lo.min(va);
            nvm_hi = nvm_hi.max(va + area.size);
        }
        bases.push(va);
    }
    if fase && nvm_lo < nvm_hi {
        m.msr.nvm_range = Some((nvm_lo, nvm_hi));
        let now = m.now();
        if let Some(engine) = m.ssp.as_mut() {
            engine.fase_begin(now);
        }
    }
    let mut ops = 0u64;
    for rec in program.records() {
        let va = bases[rec.area.0 as usize] + rec.offset;
        call(m, tracer, Call::Access, |m| m.access_sized(pid, va, rec.size.max(8), rec.op))?;
        ops += 1;
    }
    if fase {
        if let Some(engine) = m.ssp.as_mut() {
            let prev = m.hw.set_activity(kindle_core::cpu::Activity::SspInterval);
            engine.end_interval(&mut m.hw, &mut m.tlb, &m.kernel.costs);
            engine.fase_end();
            m.hw.set_activity(prev);
        }
        m.msr.nvm_range = None;
    }
    Ok(ops)
}

/// Runs the `ckpt_churn` steps on a machine whose resident region starts
/// at `va`. Returns the Machine calls made.
fn churn(
    m: &mut Machine,
    pid: u32,
    va: VirtAddr,
    plan: ChurnPlan,
    churn_pages: u64,
    tracer: &mut Option<&mut Tracer>,
) -> Result<u64> {
    let mut calls = 0u64;
    let len = churn_pages * PAGE_SIZE as u64;
    for op in plan {
        match op {
            ChurnOp::Access(off, kind) => {
                call(m, tracer, Call::Access, |m| m.access(pid, va + off, kind))?;
                calls += 1;
            }
            ChurnOp::Churn => {
                let scratch =
                    call(m, tracer, Call::Mmap, |m| m.mmap(pid, len, Prot::RW, MapFlags::NVM))?;
                for p in 0..churn_pages {
                    let page = scratch + p * PAGE_SIZE as u64;
                    call(m, tracer, Call::Access, |m| m.access(pid, page, AccessKind::Write))?;
                }
                call(m, tracer, Call::Munmap, |m| m.munmap(pid, scratch, len))?;
                calls += churn_pages + 2;
            }
        }
    }
    Ok(calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kindle_core::ReplayOptions;

    /// The traced-call replay must simulate exactly what the library's own
    /// `run_replay` does, or its digests would not describe the program.
    #[test]
    fn mirrored_replay_matches_run_replay() {
        for w in [Workload::SspYcsb, Workload::HsccYcsb] {
            let input = Input::new(w, 7, Size::Tiny);
            let Input::Replay { program, cfg, fase } = &input else { unreachable!() };
            let mut m = Machine::new(cfg.clone()).unwrap();
            let pid = m.spawn_process().unwrap();
            m.run_replay(pid, program, ReplayOptions { fase: *fase, max_ops: None }).unwrap();
            let rep = run_rep(&input, None).unwrap();
            let Detail::Sim(report) = &rep.detail else { unreachable!() };
            assert_eq!(report.to_stats_text(), m.report().to_stats_text(), "{}", w.name());
            assert_eq!(rep.ops, program.len());
        }
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        for w in Workload::ALL {
            let a = run_rep(&Input::new(w, 3, Size::Tiny), None).unwrap().detail.digest();
            let b = run_rep(&Input::new(w, 3, Size::Tiny), None).unwrap().detail.digest();
            assert_eq!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn churn_plan_counts_every_call() {
        let input = Input::new(Workload::CkptChurn, 1, Size::Tiny);
        let rep = run_rep(&input, None).unwrap();
        assert_eq!(rep.ops, planned_ops(&input));
    }
}
