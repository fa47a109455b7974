//! Observation equivalence of the flat controller stores.
//!
//! The memory controller's hot-path state (the page store, the NVM
//! checksum table and the two undo logs) lives in direct-indexed flat
//! tables by default, with the original ordered-map implementations kept
//! behind `MemConfig::legacy_maps` (published here through
//! `kindle_sim::Ambient`). The layouts must be indistinguishable to every
//! observer: these
//! tests run the crash-sweep families and the data-integrity grid under
//! both layouts — serial and parallel — and require the *full* outcome
//! (order-sensitive digest included) to match bit for bit.

use kindle_faults::{
    run_data_integrity_sweep, run_nvm_write_sweep_instrumented, run_sweep, SweepOutcome,
    SweepStrategy,
};
use kindle_os::PtMode;
use kindle_sim::Ambient;

const SEED: u64 = 0x00c0_ffee_4b1d_0001;

/// The stride-199 write-granular sweep's outcome at `jobs`.
fn nvm_write_sweep(jobs: usize) -> SweepOutcome {
    run_nvm_write_sweep_instrumented(
        PtMode::Persistent,
        SEED,
        199,
        jobs,
        SweepStrategy::SnapshotFork,
    )
    .unwrap()
    .0
}

/// Runs `f` with the ambient legacy-store request set to `legacy`,
/// restoring the previous request afterwards (the sweeps republish the
/// ambient flag onto their workers, so one thread-local toggle covers
/// any `jobs` count).
fn with_legacy<R>(legacy: bool, f: impl FnOnce() -> R) -> R {
    let prev = Ambient::current();
    Ambient { legacy_maps: legacy, ..prev }.publish();
    let out = f();
    prev.publish();
    out
}

#[test]
fn checkpoint_sweep_digest_is_layout_invariant() {
    for mode in [PtMode::Rebuild, PtMode::Persistent] {
        let sweep = || run_sweep(mode, SEED, false, 1, SweepStrategy::SnapshotFork).unwrap();
        let flat = with_legacy(false, sweep);
        let legacy = with_legacy(true, sweep);
        assert_eq!(flat, legacy, "{mode:?}: legacy maps changed the checkpoint sweep");
    }
}

#[test]
fn nvm_write_sweep_digest_is_layout_invariant_at_any_jobs() {
    let flat = with_legacy(false, || nvm_write_sweep(1));
    for (legacy, jobs) in [(true, 1), (true, 4), (false, 4)] {
        let other = with_legacy(legacy, || nvm_write_sweep(jobs));
        assert_eq!(flat, other, "legacy={legacy} jobs={jobs} diverged from the flat serial sweep");
    }
}

#[test]
fn data_integrity_sweep_digest_is_layout_invariant_at_any_jobs() {
    let grid = |jobs| run_data_integrity_sweep(0xDA7A, 3, jobs, SweepStrategy::SnapshotFork);
    let flat = with_legacy(false, || grid(1)).unwrap();
    for jobs in [1, 4] {
        let legacy = with_legacy(true, || grid(jobs)).unwrap();
        assert_eq!(flat, legacy, "jobs={jobs}: legacy maps changed the data-integrity grid");
    }
}
