//@path crates/mem/src/faults_doc.rs
/// The old set_thread_media_fault_seed channel is gone — history only.
/// Per-thread knobs are `Ambient` fields, never a new thread_local! here.
pub fn note() -> &'static str {
    "set_thread_media_fault_seed was replaced by Ambient::publish; thread_local! lives in ambient.rs"
}

pub fn thread_local_count() -> usize {
    let thread_local = 1;
    thread_local
}
