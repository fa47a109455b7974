//! CI tier-2 sweep benchmark: runs the exhaustive write-granular crash
//! sweep (`FaultPoint::NvmWrite` at stride 1) on the snapshot-fork tier —
//! serially and on the resolved fork-join worker count, proving the two
//! produce bit-identical outcomes — then times the replay-from-zero oracle
//! on the same points and records the measured `snapshot_speedup` in the
//! bench JSON envelope (`BENCH_sweep.json` in CI, diffed against golden
//! ranges so the O(n) fork tier can never silently regress to O(n²)).
//!
//! The replay run doubles as the cross-check: its outcome must be
//! byte-identical to the forked one. `--verify-replay` extends that
//! cross-check to every sweep family — boundary (both page-table modes),
//! threaded, stuck-cell and data-integrity — and `--timing <path>` writes
//! the `SWEEP_timing.json` telemetry artifact (per-family boundary counts,
//! snapshot-pool high-water mark, speedup) the CI sweep job uploads.

use kindle_bench::*;
use kindle_core::os::PtMode;
use kindle_faults::{
    run_data_integrity_sweep, run_nvm_write_sweep_instrumented, run_stuck_sweep, run_sweep,
    SweepOutcome, SweepStrategy, SweepTelemetry,
};

/// Fixed sweep seed (same one the crash-sweep acceptance tests pin).
const SEED: u64 = 0x00c0_ffee_4b1d_0001;

/// Stuck cells seeded for the degraded-media sweep regime.
const STUCK_CELLS: usize = 4096;

/// Times one closure in wall-clock milliseconds.
fn timed<T>(f: impl FnOnce() -> Result<T>) -> Result<(T, f64)> {
    let t0 = std::time::Instant::now();
    let v = f()?;
    Ok((v, t0.elapsed().as_secs_f64() * 1e3))
}

/// Cross-checks the snapshot-forked execution of every sweep family
/// against the replay-from-zero oracle (`--verify-replay`).
fn verify_all_families(jobs: usize, stride: u64) -> Result<()> {
    println!("VERIFY: snapshot-forked digests vs replay-from-zero, all families");
    rule(78);
    // The write-granular family is verified at a coarse stride here; the
    // bench loop below cross-checks the full stride-1 enumeration of both
    // page-table modes anyway, so repeating it inside `--verify-replay`
    // would only double the oracle's O(n²) bill.
    let nvm_stride = stride.max(16);
    let families: [(&str, &dyn Fn(SweepStrategy) -> Result<SweepOutcome>); 5] = [
        ("boundary/rebuild", &|s| run_sweep(PtMode::Rebuild, SEED, false, jobs, s)),
        ("boundary/persistent", &|s| run_sweep(PtMode::Persistent, SEED, false, jobs, s)),
        ("threaded", &|s| run_sweep(PtMode::Rebuild, SEED, true, jobs, s)),
        ("stuck", &|s| run_stuck_sweep(PtMode::Persistent, SEED, STUCK_CELLS, jobs, s)),
        ("nvm-write", &|s| {
            Ok(run_nvm_write_sweep_instrumented(PtMode::Rebuild, SEED, nvm_stride, jobs, s)?.0)
        }),
    ];
    for (family, run) in families {
        let forked = run(SweepStrategy::SnapshotFork)?;
        let replayed = run(SweepStrategy::ReplayFromZero)?;
        assert_eq!(forked, replayed, "{family}: forked sweep diverged from replay-from-zero");
        println!("{family:<22} {} points  digest {:#018x}  ok", forked.boundaries, forked.digest);
    }
    let forked = run_data_integrity_sweep(SEED, 6, jobs, SweepStrategy::SnapshotFork)?;
    let replayed = run_data_integrity_sweep(SEED, 6, jobs, SweepStrategy::ReplayFromZero)?;
    assert_eq!(forked, replayed, "data-integrity: round-tripped sweep diverged from straight run");
    println!(
        "{:<22} {} points  digest {:#018x}  ok",
        "data-integrity", forked.points, forked.digest
    );
    rule(78);
    Ok(())
}

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let stride = if harness.quick() { 64 } else { 1 };
    let jobs = harness.jobs();
    if harness.verify_replay() {
        verify_all_families(jobs, stride)?;
    }
    println!("SWEEP: write-granular crash sweep, stride {stride}, serial vs {jobs} workers");
    rule(78);
    println!(
        "{:<10} | {:>6} | {:>9} | {:>9} | {:>9} | {:>9} | {:>7}",
        "mode", "points", "recovered", "serial ms", "par ms", "replay ms", "snap spd"
    );
    rule(78);
    let mut rows = Vec::new();
    let mut timing = Vec::new();
    for (label, mode) in [("rebuild", PtMode::Rebuild), ("persistent", PtMode::Persistent)] {
        let sweep =
            |jobs, strategy| run_nvm_write_sweep_instrumented(mode, SEED, stride, jobs, strategy);
        let ((serial, telemetry), serial_ms) = timed(|| sweep(1, SweepStrategy::SnapshotFork))?;
        let (parallel, parallel_ms) = timed(|| Ok(sweep(jobs, SweepStrategy::SnapshotFork)?.0))?;
        assert_eq!(serial, parallel, "jobs=1 vs jobs={jobs} must agree bit-for-bit");
        // The replay-from-zero oracle on the same points: its wall clock is
        // what the fork tier is measured against, and its outcome must be
        // byte-identical.
        let (replayed, replay_ms) = timed(|| Ok(sweep(jobs, SweepStrategy::ReplayFromZero)?.0))?;
        assert_eq!(serial, replayed, "forked sweep diverged from replay-from-zero");
        let speedup = serial_ms / parallel_ms.max(1e-9);
        let snapshot_speedup = replay_ms / parallel_ms.max(1e-9);
        println!(
            "{:<10} | {:>6} | {:>9} | {:>9} | {:>9} | {:>9} | {:>6.2}x",
            label,
            serial.boundaries,
            serial.recovered,
            ms(serial_ms),
            ms(parallel_ms),
            ms(replay_ms),
            snapshot_speedup
        );
        rows.push(json::obj([
            ("mode", json::str(label)),
            ("points", serial.boundaries.to_string()),
            ("recovered", serial.recovered.to_string()),
            ("digest", json::str(&format!("{:#018x}", serial.digest))),
            ("serial_ms", format!("{serial_ms:.1}")),
            ("parallel_ms", format!("{parallel_ms:.1}")),
            ("speedup", format!("{speedup:.3}")),
            ("replay_ms", format!("{replay_ms:.1}")),
            ("snapshot_speedup", format!("{snapshot_speedup:.3}")),
        ]));
        timing.push(timing_row(label, &telemetry, snapshot_speedup));
    }
    // The degraded-media regime: the persistent-mode boundary sweep with
    // thousands of stuck cells, the two-entry ECP budget and scrubd armed.
    // Distinct JSON field names keep its (much smaller) point counts out
    // of the write-sweep golden ranges above.
    let stuck = |jobs| {
        run_stuck_sweep(PtMode::Persistent, SEED, STUCK_CELLS, jobs, SweepStrategy::SnapshotFork)
    };
    let (serial, serial_ms) = timed(|| stuck(1))?;
    let (parallel, parallel_ms) = timed(|| stuck(jobs))?;
    assert_eq!(serial, parallel, "stuck sweep: jobs=1 vs jobs={jobs} must agree bit-for-bit");
    println!(
        "{:<10} | {:>6} | {:>9} | {:>9} | {:>9} | {:>9} | {:>7}",
        "stuck",
        serial.boundaries,
        serial.recovered,
        ms(serial_ms),
        ms(parallel_ms),
        "-",
        format!("{STUCK_CELLS} cells")
    );
    rows.push(json::obj([
        ("mode", json::str("stuck-persistent")),
        ("stuck_cells", STUCK_CELLS.to_string()),
        ("stuck_points", serial.boundaries.to_string()),
        ("stuck_recovered", serial.recovered.to_string()),
        ("digest", json::str(&format!("{:#018x}", serial.digest))),
        ("serial_ms", format!("{serial_ms:.1}")),
        ("parallel_ms", format!("{parallel_ms:.1}")),
    ]));
    harness.maybe_json(json::arr(rows))?;
    if let Some(path) = harness.timing_path() {
        let doc = json::obj([
            ("jobs", jobs.to_string()),
            ("stride", stride.to_string()),
            ("verified_replay", harness.verify_replay().to_string()),
            ("rows", json::arr(timing)),
        ]);
        write_artifact(path, &format!("{doc}\n"))?;
    }
    rule(78);
    println!("digest equality verified: forked sweeps are byte-identical to replay.");
    harness.finish()
}

/// One `SWEEP_timing.json` row: the family's golden enumeration sizes, the
/// snapshot pool's retention behaviour and the measured fork-tier speedup.
fn timing_row(family: &str, t: &SweepTelemetry, snapshot_speedup: f64) -> String {
    json::obj([
        ("family", json::str(family)),
        ("boundaries", t.boundaries.to_string()),
        ("nvm_writes", t.nvm_writes.to_string()),
        ("snapshots_offered", t.snapshots_offered.to_string()),
        ("snapshots_retained", t.snapshots_retained.to_string()),
        ("pool_high_water", t.pool_high_water.to_string()),
        ("pool_capacity", t.pool_capacity.to_string()),
        ("pool_stride", t.pool_stride.to_string()),
        ("snapshot_speedup", format!("{snapshot_speedup:.3}")),
    ])
}
