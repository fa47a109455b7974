//! The repository benchmark: end-to-end host throughput of four simulator
//! workloads, and a separate traced run that attributes host time to the
//! simulator's layers.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --all [--seed <n>] [--seconds <s>]   # every workload, one table
//! perfbench --list-metrics                        # the metric catalogue
//! ```
//!
//! Each workload is a closed loop with one caller on one thread: the next
//! Machine call issues when the previous one returns. A run repeats the
//! workload (fresh machine, fixed work) until `--seconds` have passed and
//! checks every repetition's simulated-output digest: repetitions must
//! agree, and at the default seed they must equal the pinned digest. A
//! mismatch or an error counts every operation of the run as failed. The
//! last line of standard output is one JSON object with the results.

mod layers;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use kindle_core::Machine;

use trace::{Class, ClassStats, Tracer};
use workload::{pinned_digest, planned_ops, run_rep, Detail, Input, Rep, Size, Workload};

/// End-to-end metrics: (name, unit, better, bound). The bound is the
/// share of the parent's median by which a change may worsen the metric.
const END_TO_END: [(&str, &str, &str, &str); 3] = [
    ("ops_per_s", "1/s", "higher", "0.25"),
    ("setup_s", "s", "lower", "0.25"),
    ("peak_rss_mb", "MB", "lower", "0.1"),
];

/// Set-up samples a run aims for; set-ups are repeated after the timed
/// repetitions until there are this many or [`SETUP_TOPUP_S`] has passed.
const SETUP_SAMPLES: usize = 1001;
/// Host seconds a run may spend topping up its set-up samples.
const SETUP_TOPUP_S: f64 = 2.0;

/// The per-layer metrics: (name, unit, better).
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v = Vec::new();
    for c in Class::REPORTED {
        for (name, _, unit, better) in class_metrics(c, &ClassStats::default()) {
            v.push((name, unit, better));
        }
    }
    for name in layers::SUBSTRATE {
        v.push((name.to_string(), "ns", "lower"));
    }
    for (name, unit, better, _) in layers::sim_rows(None, &[], 0) {
        v.push((name.to_string(), unit, better));
    }
    v.push(("trace.overhead_frac".into(), "frac", "lower"));
    v.push(("trace.coverage".into(), "frac", "higher"));
    v
}

/// The metrics of one span class: (name, value, unit, better).
fn class_metrics(c: Class, s: &ClassStats) -> [(String, f64, &'static str, &'static str); 5] {
    let n = c.name();
    [
        (format!("{n}.p50_ns"), s.p50_ns, "ns", "lower"),
        (format!("{n}.tail_ns"), s.tail_ns, "ns", "lower"),
        (format!("{n}.tail_pct"), s.tail_pct, "%", "higher"),
        (format!("{n}.n"), s.n as f64, "count", "higher"),
        (format!("{n}.share"), s.share, "frac", "lower"),
    ]
}

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    all: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        all: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            "--size" => {
                a.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size must be full or tiny, not {v:?}")),
                }
            }
            "--all" => a.all = true,
            "--list-metrics" => a.list = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.workload.is_none() && !a.all && !a.list {
        return Err("one of --workload, --all or --list-metrics is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
                 [--size <full|tiny>] | --all | --list-metrics",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.list {
        print_catalogue();
        return ExitCode::SUCCESS;
    }
    if args.all {
        return run_all(&args);
    }
    let w = args.workload.expect("parse_args requires a workload");
    println!("perfbench {} seed={} size={:?} trace={}", w.name(), args.seed, args.size, args.trace);
    let run = Run::new(w, args.seed, args.seconds, args.size);
    let (metrics, tally) = if args.trace { run.traced() } else { run.untraced() };
    print_result(&tally, &metrics);
    ExitCode::SUCCESS
}

/// Attempted and failed operations of a run, and the digest it checked.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    /// Operations of the last repetition that completed.
    last_ops: Option<u64>,
}

impl Tally {
    /// Every operation so far counts as failed.
    fn fail_all(&mut self, why: &str) {
        println!("FAILED: {why}; every operation of the run counts as failed");
        self.failed = self.attempted;
    }
}

/// One workload run: its input and digest checks.
struct Run {
    w: Workload,
    input: Input,
    seconds: f64,
    size: Size,
    /// The digest every repetition must match, when pinned at this seed.
    pin: Option<u64>,
    seed: u64,
}

impl Run {
    fn new(w: Workload, seed: u64, seconds: f64, size: Size) -> Self {
        Run {
            w,
            input: Input::new(w, seed, size),
            seconds,
            size,
            pin: (seed == workload::DEFAULT_SEED).then(|| pinned_digest(w, size)),
            seed,
        }
    }

    /// Runs one repetition, counting it in `tally`. A repetition that
    /// returns an error, panics or disagrees with the first one counts
    /// all its operations as failed.
    fn rep(&self, tally: &mut Tally, tracer: Option<&mut Tracer>) -> Option<Rep> {
        let result = catch_unwind(AssertUnwindSafe(|| run_rep(&self.input, tracer)));
        let rep = match result {
            Ok(Ok(rep)) => rep,
            Ok(Err(e)) => {
                println!("rep error: {e}");
                return self.count_failed(tally);
            }
            Err(_) => {
                println!("rep panicked");
                return self.count_failed(tally);
            }
        };
        tally.attempted += rep.ops;
        tally.last_ops = Some(rep.ops);
        let digest = rep.detail.digest();
        println!(
            "rep: setup {:.6} s, {} ops in {:.4} s ({:.1} ops/s), digest {digest:#018x}",
            rep.setup_s,
            rep.ops,
            rep.timed_s,
            rep.ops as f64 / rep.timed_s
        );
        match tally.digest {
            None => tally.digest = Some(digest),
            Some(first) if first != digest => {
                println!("rep digest {digest:#018x} differs from the first {first:#018x}");
                tally.failed += rep.ops;
            }
            Some(_) => {}
        }
        Some(rep)
    }

    /// Counts a repetition that did not complete as failed: as many ops
    /// as the last one that did, or as planned when none has.
    fn count_failed(&self, tally: &mut Tally) -> Option<Rep> {
        let n = tally.last_ops.unwrap_or_else(|| planned_ops(&self.input));
        tally.attempted += n;
        tally.failed += n;
        None
    }

    /// Checks the run's digest against the pin (default seed) and runs
    /// the tiny default-seed canary against its pin, so every run checks
    /// simulated output against a pinned value whatever its seed.
    fn check(&self, tally: &mut Tally) {
        match (tally.digest, self.pin) {
            (Some(d), Some(pin)) if d != pin => {
                tally.fail_all(&format!("digest {d:#018x} differs from the pinned {pin:#018x}"))
            }
            (Some(d), Some(_)) => println!("digest {d:#018x} matches the pin"),
            (Some(d), None) => println!("digest {d:#018x} (seed {} is not pinned)", self.seed),
            (None, _) => {}
        }
        if self.size == Size::Full {
            let canary = Input::new(self.w, workload::DEFAULT_SEED, Size::Tiny);
            let got = catch_unwind(AssertUnwindSafe(|| run_rep(&canary, None)));
            let want = pinned_digest(self.w, Size::Tiny);
            match got {
                Ok(Ok(rep)) if rep.detail.digest() == want => println!("canary matches the pin"),
                Ok(Ok(rep)) => tally.fail_all(&format!(
                    "canary digest {:#018x} differs from the pinned {want:#018x}",
                    rep.detail.digest()
                )),
                _ => tally.fail_all("canary failed"),
            }
        }
    }

    /// The end-to-end run: repetitions until `--seconds` have passed.
    fn untraced(&self) -> (Vec<(String, f64, &'static str)>, Tally) {
        let mut tally = Tally::default();
        let mut setups = Vec::new();
        let (mut ops, mut secs) = (0u64, 0.0f64);
        let mut sim_ms = None;
        let start = Instant::now();
        while tally.attempted == 0 || start.elapsed().as_secs_f64() < self.seconds {
            if let Some(rep) = self.rep(&mut tally, None) {
                setups.push(rep.setup_s);
                ops += rep.ops;
                secs += rep.timed_s;
                if let Detail::Sim(r) = &rep.detail {
                    sim_ms.get_or_insert(r.total_cycles.as_millis_f64());
                }
            }
        }
        self.more_setups(&mut setups);
        self.check(&mut tally);
        // Total over the run, not a median of repetitions: the host's
        // speed drifts in phases of seconds, which a time average smooths.
        let ops_per_s = trace::ratio(ops as f64, secs);
        let setup_s = median(&mut setups);
        let rss = peak_rss_mb();
        let fail_frac = trace::ratio(tally.failed as f64, tally.attempted as f64);
        let sim = sim_ms.map_or("n/a".to_string(), |v| v.to_string());
        println!("row\t{}\t{ops_per_s}\t{setup_s}\t{rss}\t{sim}\t{fail_frac}", self.w.name());
        let metrics = vec![
            ("ops_per_s".into(), ops_per_s, "1/s"),
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mb".into(), rss, "MB"),
        ];
        (metrics, tally)
    }

    /// Tops the set-up samples up to [`SETUP_SAMPLES`] within
    /// [`SETUP_TOPUP_S`].
    fn more_setups(&self, setups: &mut Vec<f64>) {
        let start = Instant::now();
        while setups.len() < SETUP_SAMPLES && start.elapsed().as_secs_f64() < SETUP_TOPUP_S {
            let t = Instant::now();
            match self.input.setup() {
                Ok(machines) => {
                    setups.push(t.elapsed().as_secs_f64());
                    drop(machines);
                }
                Err(_) => break,
            }
        }
    }

    /// The traced run: an untimed warm-up repetition, then untraced and
    /// traced repetitions alternately until `--seconds` have passed, then
    /// the probes and substrate rows. Spans are written once, at the end.
    fn traced(&self) -> (Vec<(String, f64, &'static str)>, Tally) {
        let mut tally = Tally::default();
        let mut tracer = Tracer::new();
        // (repetitions, ops, seconds) of the untraced and traced sides.
        let mut sides = [(0u32, 0u64, 0.0f64); 2];
        let mut first: Option<Rep> = None;
        drop(self.rep(&mut tally, None));
        let start = Instant::now();
        while sides[1].0 == 0 || start.elapsed().as_secs_f64() < self.seconds {
            let on = sides[0].0 > sides[1].0;
            let Some(rep) = self.rep(&mut tally, on.then_some(&mut tracer)) else {
                break;
            };
            let side = &mut sides[usize::from(on)];
            *side = (side.0 + 1, side.1 + rep.ops, side.2 + rep.timed_s);
            if first.is_none() {
                // Only ckpt_churn's final machine is probed further.
                let keep = matches!(self.input, Input::Churn { .. });
                first = Some(Rep { machine: rep.machine.filter(|_| keep), ..rep });
            }
        }
        if let Input::Replay { program, .. } = &self.input {
            tracer.time_each(Class::TraceGen, program.records());
        }
        if let Some(m) = first.as_mut().and_then(|r| r.machine.take()) {
            probe_snapshots(&mut tracer, m);
        }
        self.check(&mut tally);

        let mut metrics = Vec::new();
        for c in Class::REPORTED {
            let s = tracer.stats(c);
            for (name, v, unit, _) in class_metrics(c, &s) {
                metrics.push((name, v, unit));
            }
            println!(
                "class {:<22} n {:>8}  p50 {:>10.0} ns  p{} {:>10.0} ns  share {:.4}",
                c.name(),
                s.n,
                s.p50_ns,
                s.tail_pct,
                s.tail_ns,
                s.share
            );
        }
        for (name, v) in layers::SUBSTRATE.into_iter().zip(layers::substrate_rows()) {
            metrics.push((name.to_string(), v, "ns"));
        }
        let (report, sweeps, ops) = match first.as_ref().map(|r| (&r.detail, r.ops)) {
            Some((Detail::Sim(r), ops)) => (Some(&**r), &[][..], ops),
            Some((Detail::Sweep(s), ops)) => (None, &s[..], ops),
            None => (None, &[][..], 0),
        };
        for (name, unit, _, v) in layers::sim_rows(report, sweeps, ops) {
            metrics.push((name.to_string(), v, unit));
        }
        let rate = |(_, ops, secs): (u32, u64, f64)| trace::ratio(ops as f64, secs);
        let overhead = 1.0 - trace::ratio(rate(sides[1]), rate(sides[0]));
        metrics.push(("trace.overhead_frac".into(), overhead, "frac"));
        metrics.push(("trace.coverage".into(), tracer.coverage(), "frac"));
        let path = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("spans")))
            .unwrap_or_default()
            .join(format!("{}.tsv", self.w.name()));
        match tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
        (metrics, tally)
    }
}

/// Times `Machine::snapshot`, `Machine::restore` and `crash` + `recover`
/// on copies of `m`, twenty times each.
fn probe_snapshots(tracer: &mut Tracer, m: Machine) {
    for _ in 0..20 {
        let snap = tracer.time(Class::SimSnapshot, || m.snapshot());
        let mut copy = tracer.time(Class::SimRestore, || Machine::restore(&snap));
        drop(snap);
        let recovered =
            tracer.time(Class::PersistCrashRecover, || copy.crash().and_then(|()| copy.recover()));
        if let Err(e) = recovered {
            println!("crash/recover probe failed: {e}");
        }
    }
}

/// Runs every workload in its own process, so no workload's peak memory
/// shows in another's, and prints one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let size = match args.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0", "--size", size])
            .output();
        let row = out.ok().and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .find(|l| l.starts_with("row\t"))
                .map(str::to_owned)
        });
        match row {
            Some(r) => rows.push(r),
            None => {
                eprintln!("perfbench: workload {} produced no result", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{:<12} {:>14} {:>12} {:>14} {:>12} {:>10}",
        "workload", "ops_per_s", "setup_s", "peak_rss_mb", "sim_ms", "fail_frac"
    );
    println!(
        "{:<12} {:>14} {:>12} {:>14} {:>12} {:>10}",
        "", "(1/s)", "(s)", "(MB)", "(ms)", "(frac)"
    );
    for r in rows {
        let f: Vec<&str> = r.split('\t').collect();
        let num = |s: &str, prec: usize| {
            s.parse::<f64>().map_or(s.to_string(), |v| format!("{v:.prec$}"))
        };
        println!(
            "{:<12} {:>14} {:>12} {:>14} {:>12} {:>10}",
            f[1],
            num(f[2], 1),
            num(f[3], 6),
            num(f[4], 1),
            num(f[5], 3),
            num(f[6], 4)
        );
    }
    ExitCode::SUCCESS
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (0 when empty).
fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Prints the result object as the last line of standard output.
fn print_result(tally: &Tally, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// Prints the metric catalogue in `BENCHMARK.json`'s layout.
fn print_catalogue() {
    let entry = |(name, unit, better): (&str, &str, &str), bound: Option<&str>| {
        let bound = bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"{bound}}}"
        )
    };
    let e2e: Vec<String> =
        END_TO_END.iter().map(|&(n, u, b, bound)| entry((n, u, b), Some(bound))).collect();
    let layer: Vec<String> =
        per_layer().iter().map(|(n, u, b)| entry((n.as_str(), u, b), None)).collect();
    println!("  \"end_to_end\": [\n{}\n  ],", e2e.join(",\n"));
    println!("  \"per_layer\": [\n{}\n  ]", layer.join(",\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A digest that differs from the pin fails every operation of the
    /// run; it is never reported as a pass.
    #[test]
    fn wrong_pin_fails_every_operation() {
        for w in Workload::ALL {
            let mut run = Run::new(w, workload::DEFAULT_SEED, 0.01, Size::Tiny);
            run.pin = Some(1);
            let mut tally = Tally::default();
            assert!(run.rep(&mut tally, None).is_some(), "{}", w.name());
            assert_eq!(tally.failed, 0, "{}", w.name());
            run.check(&mut tally);
            assert!(tally.attempted > 0, "{}", w.name());
            assert_eq!(tally.failed, tally.attempted, "{}", w.name());
        }
    }
}
