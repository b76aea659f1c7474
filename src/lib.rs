//! # snap-repro
//!
//! A from-scratch Rust reproduction of *"Snap: a Microkernel Approach
//! to Host Networking"* (Marty, de Kruijf, et al., SOSP 2019).
//!
//! This umbrella crate re-exports the workspace and provides
//! [`testbed`]: a convenience layer that assembles complete simulated
//! deployments (hosts + NICs + fabric + Snap processes + Pony Express
//! engines + applications) with a few lines of code. The examples,
//! integration tests, and every paper-figure bench build on it.
//!
//! See `DESIGN.md` for the system inventory and the experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

pub use snap_apps as apps;
pub use snap_core as core;
pub use snap_isolation as isolation;
pub use snap_nic as nic;
pub use snap_pony as pony;
pub use snap_sched as sched;
pub use snap_shm as shm;
pub use snap_sim as sim;
pub use snap_tcp as tcp;
pub use snap_telemetry as telemetry;
pub use snap_topo as topo;

pub use snap_health as health;
pub use snap_obs as obs;

pub mod fleet;
pub mod health_rig;
pub mod pair;
pub mod rack;
mod stack;
pub mod testbed;
