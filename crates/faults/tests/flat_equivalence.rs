//! Observation equivalence of the flat controller stores.
//!
//! The memory controller's hot-path state (the page store, the NVM
//! checksum table and the two undo logs) lives in direct-indexed flat
//! tables by default, with the original ordered-map implementations kept
//! behind `MemConfig::legacy_maps` (the bench harness's `--legacy-maps`
//! flag). The layouts must be indistinguishable to every observer: these
//! tests run the crash-sweep families and the data-integrity grid under
//! both layouts — serial and parallel — and require the *full* outcome
//! (order-sensitive digest included) to match bit for bit.

use kindle_faults::{run_data_integrity_sweep_jobs, run_nvm_write_sweep_jobs, run_sweep_jobs};
use kindle_os::PtMode;
use kindle_sim::Ambient;

const SEED: u64 = 0x00c0_ffee_4b1d_0001;

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
        let flat = with_legacy(false, || run_sweep_jobs(mode, SEED, 1)).unwrap();
        let legacy = with_legacy(true, || run_sweep_jobs(mode, SEED, 1)).unwrap();
        assert_eq!(flat, legacy, "{mode:?}: legacy maps changed the checkpoint sweep");
    }
}

#[test]
fn nvm_write_sweep_digest_is_layout_invariant_at_any_jobs() {
    let flat =
        with_legacy(false, || run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, 1)).unwrap();
    for (legacy, jobs) in [(true, 1), (true, 4), (false, 4)] {
        let other =
            with_legacy(legacy, || run_nvm_write_sweep_jobs(PtMode::Persistent, SEED, 199, jobs))
                .unwrap();
        assert_eq!(flat, other, "legacy={legacy} jobs={jobs} diverged from the flat serial sweep");
    }
}

#[test]
fn data_integrity_sweep_digest_is_layout_invariant_at_any_jobs() {
    let flat = with_legacy(false, || run_data_integrity_sweep_jobs(0xDA7A, 3, 1)).unwrap();
    for jobs in [1, 4] {
        let legacy = with_legacy(true, || run_data_integrity_sweep_jobs(0xDA7A, 3, jobs)).unwrap();
        assert_eq!(flat, legacy, "jobs={jobs}: legacy maps changed the data-integrity grid");
    }
}
