//@path crates/mem/src/faults_compat.rs
pub fn reseed(seed: u64) {
    set_thread_media_fault_seed(seed);
}

pub fn peek() -> u64 {
    thread_media_fault_seed()
}

thread_local! {
    static RETRY_BUDGET: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}
