//! Discrete-event simulation kernel for the Snap reproduction.
//!
//! The paper evaluates Snap on Google production hardware (50/100 Gbps
//! NICs, 42-machine racks, a custom kernel scheduling class). This crate
//! provides the substrate that replaces that testbed: a deterministic
//! discrete-event simulator with virtual time ([`Sim`]), seeded random
//! number streams ([`rng::Rng`]), the statistical machinery used by the
//! evaluation harness ([`stats::Histogram`]), and the calibrated cost
//! model ([`costs`]) from which every benchmark derives its CPU and
//! latency numbers.
//!
//! Determinism is a design goal: a simulation seeded with the same seed
//! produces byte-identical results, which makes the paper-figure benches
//! reproducible and the property tests debuggable.
//!
//! # Examples
//!
//! ```
//! use snap_sim::{Sim, time::Nanos};
//!
//! let mut sim = Sim::new();
//! let hits = std::rc::Rc::new(std::cell::Cell::new(0u32));
//! let h = hits.clone();
//! sim.schedule_in(Nanos::from_micros(5), move |_sim| {
//!     h.set(h.get() + 1);
//! });
//! sim.run();
//! assert_eq!(hits.get(), 1);
//! assert_eq!(sim.now(), Nanos::from_micros(5));
//! ```

// The crate's only `unsafe` is the event slot (`event::Slot`); every
// block of it states why it is sound.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod codec;
pub mod costs;
pub mod dist;
pub mod event;
pub mod fault;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::{EventHandle, Sim};
pub use rng::Rng;
pub use stats::Histogram;
pub use time::Nanos;
pub use trace::{TraceContext, TraceRecorder};

/// Declares a struct whose every field is a `pub u64` counter, plus
/// `counters()`: every field under its published name — the field's
/// name, or the literal after `=` — in declaration order. That table is
/// what a consumer (telemetry, a conservation check) walks instead of
/// naming fields, so a counter added to the struct is published from
/// the line that declares it.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* pub $field:ident: u64 $(= $published:literal)?,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            /// Every counter under its published name, in declaration
            /// order.
            pub fn counters(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$(($crate::counter_table!(@name $field $($published)?), self.$field)),*]
            }
        }
    };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $published:literal) => { $published };
}
