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
//! * [`elements`] — the Click-style pluggable element library engines
//!   are built from (§2.2): classifiers, ACLs, token-bucket shapers,
//!   counters, tees, queues.
//! * [`module::SnapProcess`] — the control plane: modules, RPC
//!   dispatch, application bootstrap (shared-memory handle passing),
//!   authentication (§2.3, §2.6).
//! * [`upgrade::UpgradeOrchestrator`] — transparent upgrade with
//!   brownout/blackout phases, migrating engines one at a time (§4),
//!   rolling back to the still-live predecessor if the successor fails
//!   mid-migration.
//! * [`supervisor::Supervisor`] — periodic engine checkpoints (reusing
//!   the upgrade serialization format), dead/wedged engine detection
//!   via per-engine progress heartbeats, and restart-from-checkpoint
//!   recovery.
//!
//! CPU and memory are charged to application containers throughout
//! (§2.5), via the accountants from [`snap_shm`].

pub mod elements;
pub mod engine;
pub mod kernel_inject;
pub mod group;
pub mod module;
pub mod supervisor;
pub mod upgrade;
pub mod virt;

pub use engine::{Engine, EngineId, RunReport};
pub use kernel_inject::{InjectEngine, KernelRing};
pub use virt::{Route, VirtAddr, VirtEngine};
pub use group::{
    EngineGroup, EngineHealth, GroupConfig, GroupHandle, SchedulingMode, WeakGroupHandle,
};
pub use module::{ControlError, Module, SnapProcess};
pub use supervisor::{RestartFactory, RestartKind, RestartRecord, Supervisor, SupervisorConfig, SupervisorReport};
pub use upgrade::{UpgradeOrchestrator, UpgradeReport};
