//! Backend invariance of the crash sweeps.
//!
//! The far-tier backend travels in `kindle_sim::Ambient` with the
//! media-fault model and the legacy-maps request: published by the bench
//! harness (`--backend`), captured into machine snapshots, and
//! republished on every sweep worker. Two properties must hold:
//!
//! 1. `--backend pcm` is byte-identical to not passing the flag — the
//!    PCM instance is an observation-equivalence refactor — at any
//!    worker count.
//! 2. A backend with *no* media-fault machinery (NUMA-remote DRAM)
//!    still runs the full crash sweep green and jobs-invariantly: the
//!    fault plumbing must degrade gracefully, not assume PCM.

use kindle_faults::{run_nvm_write_sweep_jobs, run_sweep_jobs};
use kindle_mem::Backend;
use kindle_os::PtMode;
use kindle_sim::Ambient;

const SEED: u64 = 0x00c0_ffee_4b1d_0001;

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
    let direct =
        with_backend(None, || run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, 1)).unwrap();
    for jobs in [1, 8] {
        let pcm = with_backend(Some(Backend::Pcm), || {
            run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, jobs)
        })
        .unwrap();
        assert_eq!(direct, pcm, "jobs={jobs}: backend=pcm diverged from the direct sweep");
    }
}

#[test]
fn checkpoint_sweep_digest_is_backend_pcm_invariant() {
    for mode in [PtMode::Rebuild, PtMode::Persistent] {
        let direct = with_backend(None, || run_sweep_jobs(mode, SEED, 1)).unwrap();
        let pcm = with_backend(Some(Backend::Pcm), || run_sweep_jobs(mode, SEED, 1)).unwrap();
        assert_eq!(direct, pcm, "{mode:?}: backend=pcm changed the checkpoint sweep");
    }
}

#[test]
fn nvm_write_sweep_runs_green_under_numa_backend_at_any_jobs() {
    // No wear, no stuck cells, no ECP — the sweep's crash/recovery
    // machinery must still work, and stay jobs-invariant.
    let serial = with_backend(Some(Backend::Numa), || {
        run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, 1)
    })
    .unwrap();
    let parallel = with_backend(Some(Backend::Numa), || {
        run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, 8)
    })
    .unwrap();
    assert_eq!(serial, parallel, "numa sweep must be jobs-invariant");
    assert!(serial.boundaries > 0, "sweep must exercise crash points");
    // As on PCM, points before the first durable checkpoint cannot
    // recover; the graceful-degradation claim is that recovery still
    // works at all, not that the recovery profile matches PCM's.
    assert!(serial.recovered > 0, "no crash point recovered: {serial:?}");
}
