//! Ambient machine-construction knobs: CLI flags (`--faults`,
//! `--backend`), sweep drivers and equivalence tests (the legacy store
//! layout) change machines whose construction sites they do not control
//! by publishing one [`Ambient`] value on the host thread, which
//! [`crate::Machine::new`] reads.
//!
//! Thread-locals do not cross host threads, so the value has exactly two
//! carriers: `kindle_core::parallel::par_map` publishes the caller's value
//! on its workers, and [`crate::Machine::snapshot`] captures it for
//! [`crate::Machine::restore`] to publish. A new knob is one more field.

use std::cell::Cell;

use kindle_mem::{Backend, MediaFaultConfig};

/// The ambient knobs [`crate::Machine::new`] applies to every machine
/// built on this thread. The default (all unset) leaves configs untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ambient {
    /// Media-fault model for machines whose config leaves `mem.faults`
    /// unset; an explicit config always wins.
    pub media_faults: Option<MediaFaultConfig>,
    /// Forces `mem.legacy_maps` on (the ordered-map store layout); `false`
    /// leaves configs untouched.
    pub legacy_maps: bool,
    /// Far-tier backend for machines whose config leaves `mem.backend`
    /// unset; an explicit config always wins.
    pub backend: Option<Backend>,
}

thread_local! {
    static AMBIENT: Cell<Ambient> =
        const { Cell::new(Ambient { media_faults: None, legacy_maps: false, backend: None }) };
}

impl Ambient {
    /// The value published on this thread (the default if none was).
    #[must_use]
    pub fn current() -> Self {
        AMBIENT.with(Cell::get)
    }

    /// Publishes `self` on this thread; publish [`Ambient::default`] to
    /// clear every knob.
    pub fn publish(self) {
        AMBIENT.with(|a| a.set(self));
    }
}
