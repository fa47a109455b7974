//! Outside-in tracing: one span per public call into the simulator,
//! classified by the public counters read around it. Spans stay in memory
//! and are written out once, when the traced run ends.

use std::io::Write as _;
use std::time::Instant;

use kindle_core::{Machine, Result};

/// The kind of Machine call a span wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `access` / `access_sized`: classified by counter deltas.
    Access,
    /// `mmap`.
    Mmap,
    /// `munmap`.
    Munmap,
}

/// Span classes. The first three are the daemons an access can run; an
/// access is put in the first class, in declaration order, whose counter
/// moved during the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// The call ran an SSP consistency interval or consolidation.
    SspInterval,
    /// The call ran an HSCC migration interval.
    HsccInterval,
    /// The call ran a checkpoint.
    PersistCheckpoint,
    /// The call took a demand fault.
    OsFault,
    /// The call walked the page table.
    TlbWalk,
    /// None of the above: a TLB hit.
    SimHit,
    /// `Machine::mmap`.
    OsMmap,
    /// `Machine::munmap`.
    OsMunmap,
    /// `Machine::snapshot`.
    SimSnapshot,
    /// `Machine::restore`.
    SimRestore,
    /// `Machine::crash` then `Machine::recover`.
    PersistCrashRecover,
    /// Generating one trace record.
    TraceGen,
    /// One crash sweep under one page-table scheme.
    FaultsSweep,
    /// The tracer's own bookkeeping after each span: reading counters,
    /// classifying, storing the span. Timed per span, held on the span.
    TraceRecord,
    /// A traced timed phase; the parent of the spans inside it.
    Window,
}

impl Class {
    /// Every class a span can be attributed to, in report order.
    pub const REPORTED: [Class; 14] = [
        Class::SspInterval,
        Class::HsccInterval,
        Class::PersistCheckpoint,
        Class::OsFault,
        Class::TlbWalk,
        Class::SimHit,
        Class::OsMmap,
        Class::OsMunmap,
        Class::SimSnapshot,
        Class::SimRestore,
        Class::PersistCrashRecover,
        Class::TraceGen,
        Class::FaultsSweep,
        Class::TraceRecord,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Class::SspInterval => "ssp.interval",
            Class::HsccInterval => "hscc.interval",
            Class::PersistCheckpoint => "persist.checkpoint",
            Class::OsFault => "os.fault",
            Class::TlbWalk => "tlb.walk",
            Class::SimHit => "sim.hit",
            Class::OsMmap => "os.mmap",
            Class::OsMunmap => "os.munmap",
            Class::SimSnapshot => "sim.snapshot",
            Class::SimRestore => "sim.restore",
            Class::PersistCrashRecover => "persist.crash_recover",
            Class::TraceGen => "trace.gen",
            Class::FaultsSweep => "faults.sweep",
            Class::TraceRecord => "trace.record",
            Class::Window => "window",
        }
    }
}

/// The public counters an access is classified by.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Counters {
    ssp: u64,
    hscc: u64,
    checkpoints: u64,
    faults: u64,
    walks: u64,
}

impl Counters {
    fn read(m: &Machine) -> Self {
        Counters {
            ssp: m.ssp.as_ref().map_or(0, |e| e.stats().intervals + e.stats().consolidations),
            hscc: m.hscc.as_ref().map_or(0, |e| e.stats().intervals),
            checkpoints: m.persist.as_ref().map_or(0, |e| e.stats().checkpoints),
            faults: m.kernel.stats().page_faults,
            walks: m.walker.walks,
        }
    }

    fn classify(&self, after: &Counters) -> Class {
        if after.ssp != self.ssp {
            Class::SspInterval
        } else if after.hscc != self.hscc {
            Class::HsccInterval
        } else if after.checkpoints != self.checkpoints {
            Class::PersistCheckpoint
        } else if after.faults != self.faults {
            Class::OsFault
        } else if after.walks != self.walks {
            Class::TlbWalk
        } else {
            Class::SimHit
        }
    }
}

/// No parent.
const NO_PARENT: u32 = u32::MAX;

/// Reads the tracer's clock, in ticks. On x86-64 that is the time-stamp
/// counter, which costs under half of `Instant::now` to read and is read
/// three times per traced call; elsewhere it is ns since `epoch`.
#[inline]
fn ticks(epoch: Instant) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = epoch;
        // SAFETY: `_rdtsc` requires only the RDTSC instruction, which every
        // x86-64 processor has; it reads a counter and touches no memory.
        unsafe { std::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

/// One recorded span. Times are clock ticks since the tracer was made.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// What the span timed.
    class: Class,
    /// Start.
    start: u64,
    /// End.
    end: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    parent: u32,
    /// Operation id, one per Machine call or probe.
    op: u32,
    /// The tracer's bookkeeping after `end` (class `trace.record`).
    record: u32,
}

impl Span {
    /// A blank span (a window not yet opened).
    const BLANK: Span =
        Span { class: Class::Window, start: 0, end: 0, parent: NO_PARENT, op: 0, record: 0 };

    fn ticks(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Host time the span accounts for: its own and the bookkeeping after.
    fn accounted(&self) -> u64 {
        self.ticks() + u64::from(self.record)
    }
}

/// Timing of one class over a traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassStats {
    /// Spans recorded.
    pub n: u64,
    /// Median span, ns.
    pub p50_ns: f64,
    /// Span at `tail_pct`, ns.
    pub tail_ns: f64,
    /// The highest of p50/p90/p99/p99.9/p99.99 with at least ten spans
    /// beyond it; 50 when none has (then `tail_ns` is the median).
    pub tail_pct: f64,
    /// Share of traced host time.
    pub share: f64,
}

/// Records spans.
pub struct Tracer {
    epoch: Instant,
    /// The clock when the tracer was made.
    tick0: u64,
    spans: Vec<Span>,
    window: Option<usize>,
    /// Spans the last window held.
    last_window_spans: usize,
    next_op: u32,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        let epoch = Instant::now();
        Tracer {
            epoch,
            tick0: ticks(epoch),
            spans: Vec::new(),
            window: None,
            last_window_spans: 0,
            next_op: 0,
        }
    }

    /// Ticks since the tracer was made. Differences of two readings
    /// saturate at 0, in case the thread moved to a core whose counter is
    /// slightly behind.
    fn now(&self) -> u64 {
        ticks(self.epoch).saturating_sub(self.tick0)
    }

    /// Host ns per clock tick, measured against `Instant` since the
    /// tracer was made.
    fn ns_per_tick(&self) -> f64 {
        let ns = self.epoch.elapsed().as_nanos() as f64;
        ratio(ns, self.now() as f64)
    }

    /// Stores a span, then times the bookkeeping since `end` onto it.
    fn push(&mut self, class: Class, start: u64, end: u64) {
        let parent = self.window.map_or(NO_PARENT, |w| w as u32);
        let op = self.next_op;
        self.spans.push(Span { class, start, end, parent, op, record: 0 });
        self.next_op += 1;
        let done = self.now();
        let span = self.spans.last_mut().expect("just pushed");
        span.record = u32::try_from(done.saturating_sub(end)).unwrap_or(u32::MAX);
    }

    /// Opens a timed phase. Spans recorded until [`Tracer::end_window`]
    /// are its children. Time inside the window but outside every span
    /// and its bookkeeping (the caller's loop, the counter reads before a
    /// call, unspanned work) is left uncovered.
    pub fn begin_window(&mut self) {
        // Write room for as many spans as the last window held, so the
        // host's page faults on the span buffer fall outside the window.
        let len = self.spans.len();
        self.spans.resize(len + self.last_window_spans + 1, Span::BLANK);
        self.spans.truncate(len);
        let t = self.now();
        self.window = Some(self.spans.len());
        self.spans.push(Span { start: t, end: t, op: self.next_op, ..Span::BLANK });
        self.next_op += 1;
    }

    /// Closes the timed phase opened by [`Tracer::begin_window`].
    pub fn end_window(&mut self) {
        if let Some(w) = self.window.take() {
            self.spans[w].end = self.now();
            self.last_window_spans = self.spans.len() - w;
        }
    }

    /// Runs one Machine call as a span. An access is classified by the
    /// counters read before and after it.
    pub fn call<T>(
        &mut self,
        m: &mut Machine,
        kind: Call,
        f: impl FnOnce(&mut Machine) -> Result<T>,
    ) -> Result<T> {
        let before = Counters::read(m);
        let start = self.now();
        let r = f(m);
        let end = self.now();
        let class = match kind {
            Call::Access => before.classify(&Counters::read(m)),
            Call::Mmap => Class::OsMmap,
            Call::Munmap => Class::OsMunmap,
        };
        self.push(class, start, end);
        r
    }

    /// Times `f` as one span of `class`.
    pub fn time<T>(&mut self, class: Class, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.push(class, start, end);
        r
    }

    /// Records one span per record yielded by `records`: the time to
    /// generate it.
    pub fn time_each<I: Iterator>(&mut self, class: Class, mut records: I) {
        loop {
            let start = self.now();
            let Some(rec) = records.next() else { break };
            std::hint::black_box(rec);
            let end = self.now();
            self.push(class, start, end);
        }
    }

    /// Host time traced, in ticks: every window plus every span outside
    /// one.
    fn traced(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent == NO_PARENT).map(Span::accounted).sum()
    }

    /// Share of traced host time covered by classified spans and the
    /// bookkeeping timed after them.
    pub fn coverage(&self) -> f64 {
        let covered: u64 =
            self.spans.iter().filter(|s| s.class != Class::Window).map(Span::accounted).sum();
        ratio(covered as f64, self.traced() as f64)
    }

    /// Per-class timing.
    pub fn stats(&self, class: Class) -> ClassStats {
        let spans = self.spans.iter().filter(|s| s.class != Class::Window);
        let mut t: Vec<u64> = if class == Class::TraceRecord {
            spans.map(|s| u64::from(s.record)).collect()
        } else {
            spans.filter(|s| s.class == class).map(Span::ticks).collect()
        };
        if t.is_empty() {
            return ClassStats::default();
        }
        t.sort_unstable();
        let n = t.len();
        // Nearest-rank percentiles, in parts per ten thousand.
        let rank = |bp: usize| (n * bp).div_ceil(10_000).max(1);
        let tail_bp = [9999, 9990, 9900, 9000, 5000]
            .into_iter()
            .find(|&bp| n - rank(bp) >= 10)
            .unwrap_or(5000);
        let ns = self.ns_per_tick();
        ClassStats {
            n: n as u64,
            p50_ns: t[rank(5000) - 1] as f64 * ns,
            tail_ns: t[rank(tail_bp) - 1] as f64 * ns,
            tail_pct: tail_bp as f64 / 100.0,
            share: ratio(t.iter().sum::<u64>() as f64, self.traced() as f64),
        }
    }

    /// Writes every span as a tab-separated line: index, class, start and
    /// end (ns since the tracer was made), parent (-1 for none), op id,
    /// bookkeeping ns.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let ns = self.ns_per_tick();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tclass\tstart_ns\tend_ns\tparent\top\trecord_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let [start, end, record] = [s.start, s.end, u64::from(s.record)].map(|t| t as f64 * ns);
            writeln!(
                out,
                "{i}\t{}\t{start:.0}\t{end:.0}\t{parent}\t{}\t{record:.0}",
                s.class.name(),
                s.op,
            )?;
        }
        out.flush()
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let mut t = Tracer::new();
        t.time_each(Class::TraceGen, 0..1000);
        let s = t.stats(Class::TraceGen);
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_pct, 99.0);
        let mut t = Tracer::new();
        t.time_each(Class::TraceGen, 0..15);
        assert_eq!(t.stats(Class::TraceGen).tail_pct, 50.0);
        assert_eq!(t.stats(Class::OsFault), ClassStats::default());
    }

    #[test]
    fn time_between_spans_is_uncovered() {
        let pause = || std::thread::sleep(std::time::Duration::from_millis(5));
        let mut t = Tracer::new();
        t.begin_window();
        t.time(Class::FaultsSweep, pause);
        pause();
        t.time(Class::FaultsSweep, pause);
        t.end_window();
        assert!(t.spans[1..].iter().all(|s| s.parent == 0));
        let ns = t.ns_per_tick();
        assert!((t.spans[2].start - t.spans[1].end) as f64 * ns >= 4_900_000.0);
        let c = t.coverage();
        assert!(c > 0.5 && c < 0.75, "two of three pauses are spanned, coverage {c}");
        assert_eq!(t.stats(Class::TraceRecord).n, 2);
    }
}
