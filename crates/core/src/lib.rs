//! Snap: the microkernel-style host networking framework (the paper's
//! primary contribution).
//!
//! Snap hosts packet-processing **engines** — "stateful, single-threaded
//! tasks that are scheduled and run by a Snap engine scheduling runtime"
//! (§2.2) — inside an ordinary userspace process. This crate implements
//! that runtime:
//!
//! * [`engine::Engine`] — the engine abstraction: bounded scheduling
//!   passes, queueing-delay reporting (for the compacting scheduler),
//!   and state serialization (for transparent upgrades).
//! * [`group::EngineGroup`] — engine groups bound to one of the three
//!   scheduling modes of §2.4: **dedicating cores**, **spreading
//!   engines** (interrupt-driven, one thread per engine, MicroQuanta
//!   class), and **compacting engines** (Shenango-style queueing-delay
//!   driven scale-out/compaction).
//! * [`module`] — the control plane's shared error,
//!   [`ControlError`]: modules are typed objects that set engines up
//!   and reach them between passes through
//!   [`GroupHandle::try_with_engine`](group::GroupHandle::try_with_engine),
//!   the simulator's stand-in for §2.3's depth-1 engine mailbox; §2.6's
//!   session authentication is not modeled.
//! * [`upgrade::UpgradeOrchestrator`] — transparent upgrade with
//!   brownout/blackout phases, migrating engines one at a time (§4),
//!   rolling back to the still-live predecessor if the successor fails
//!   mid-migration.
//! * [`virt::VirtEngine`] — an Andromeda-style network-virtualization
//!   engine (§2.1), the one non-Pony engine kept: the upgrade tests
//!   migrate and roll it back beside Pony.
//! * [`supervisor::Supervisor`] — periodic engine checkpoints (reusing
//!   the upgrade serialization format), dead/wedged engine detection
//!   via per-engine progress heartbeats, and restart-from-checkpoint
//!   recovery.
//!
//! CPU and memory are charged to application containers throughout
//! (§2.5), via the accountants from [`snap_shm`].

pub mod engine;
pub mod group;
pub mod module;
pub mod supervisor;
pub mod upgrade;
pub mod virt;

pub use engine::{Engine, EngineId, RunReport};
pub use virt::{Route, VirtAddr, VirtEngine};
pub use group::{
    EngineGroup, EngineHealth, GroupConfig, GroupHandle, SchedulingMode, WeakGroupHandle,
};
pub use module::ControlError;
pub use supervisor::{RestartFactory, RestartKind, RestartRecord, Supervisor, SupervisorConfig, SupervisorReport};
pub use upgrade::{UpgradeOrchestrator, UpgradeReport};
