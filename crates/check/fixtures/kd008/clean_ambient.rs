//@path crates/sim/src/ambient.rs
// The designated home of the ambient machine knobs.
use std::cell::Cell;

thread_local! {
    static AMBIENT: Cell<bool> = const { Cell::new(false) };
}
