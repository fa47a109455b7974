//! Backend invariance of the crash sweeps.
//!
//! The far-tier backend travels in `kindle_sim::Ambient` with the
//! media-fault model and the legacy store-layout request: published by
//! the bench harness (`--backend`), captured into machine snapshots, and
//! republished on every sweep worker. Two properties must hold:
//!
//! 1. `--backend pcm` is byte-identical to not passing the flag — the
//!    PCM instance is an observation-equivalence refactor — at any
//!    worker count.
//! 2. A backend with *no* media-fault machinery (NUMA-remote DRAM)
//!    still runs the full crash sweep green and jobs-invariantly: the
//!    fault plumbing must degrade gracefully, not assume PCM. The one
//!    family that needs the media model — the data-integrity grid seeds
//!    stuck cells — fails there with a typed error instead of a panic.

use kindle_faults::{
    run_data_integrity_sweep, run_nvm_write_sweep_instrumented, run_sweep, SweepOutcome,
    SweepStrategy,
};
use kindle_mem::Backend;
use kindle_os::PtMode;
use kindle_sim::Ambient;
use kindle_types::KindleError;

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

/// Runs `f` with the ambient backend set to `backend`, restoring the
/// previous choice afterwards (the sweeps republish the ambient choice
/// onto their workers, so one thread-local toggle covers any `jobs`).
fn with_backend<R>(backend: Option<Backend>, f: impl FnOnce() -> R) -> R {
    let prev = Ambient::current();
    Ambient { backend, ..prev }.publish();
    let out = f();
    prev.publish();
    out
}

#[test]
fn nvm_write_sweep_digest_is_backend_pcm_invariant_at_any_jobs() {
    let direct = with_backend(None, || nvm_write_sweep(1));
    for jobs in [1, 8] {
        let pcm = with_backend(Some(Backend::Pcm), || nvm_write_sweep(jobs));
        assert_eq!(direct, pcm, "jobs={jobs}: backend=pcm diverged from the direct sweep");
    }
}

#[test]
fn checkpoint_sweep_digest_is_backend_pcm_invariant() {
    for mode in [PtMode::Rebuild, PtMode::Persistent] {
        let sweep = || run_sweep(mode, SEED, false, 1, SweepStrategy::SnapshotFork).unwrap();
        let direct = with_backend(None, sweep);
        let pcm = with_backend(Some(Backend::Pcm), sweep);
        assert_eq!(direct, pcm, "{mode:?}: backend=pcm changed the checkpoint sweep");
    }
}

#[test]
fn nvm_write_sweep_runs_green_under_numa_backend_at_any_jobs() {
    // No wear, no stuck cells, no ECP — the sweep's crash/recovery
    // machinery must still work, and stay jobs-invariant.
    let serial = with_backend(Some(Backend::Numa), || nvm_write_sweep(1));
    let parallel = with_backend(Some(Backend::Numa), || nvm_write_sweep(8));
    assert_eq!(serial, parallel, "numa sweep must be jobs-invariant");
    assert!(serial.boundaries > 0, "sweep must exercise crash points");
    // As on PCM, points before the first durable checkpoint cannot
    // recover; the graceful-degradation claim is that recovery still
    // works at all, not that the recovery profile matches PCM's.
    assert!(serial.recovered > 0, "no crash point recovered: {serial:?}");
}

#[test]
fn data_integrity_sweep_under_numa_backend_is_a_typed_error() {
    // NUMA-remote DRAM has no media fault model, so there is nowhere to
    // seed the grid's stuck cells: the sweep must say so, not panic.
    let err = with_backend(Some(Backend::Numa), || {
        run_data_integrity_sweep(SEED, 3, 1, SweepStrategy::SnapshotFork)
    })
    .unwrap_err();
    assert!(
        matches!(err, KindleError::InvalidArgument(what) if what.contains("media fault model")),
        "want a typed invalid-argument error naming the fault model, got {err:?}"
    );
}
