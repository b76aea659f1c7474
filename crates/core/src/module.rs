//! The Snap control plane (§2.3, Fig. 2).
//!
//! "Snap modules are responsible for setting up control plane RPC
//! services, instantiating engines, loading them into engine groups,
//! and proxying all user setup interactions for those engines."
//!
//! Here a module is a plain typed object — `snap_pony::PonyModule`,
//! `snap_telemetry::StatsModule` — whose methods set engines up and
//! reach them between passes through
//! [`GroupHandle::try_with_engine`](crate::group::GroupHandle::try_with_engine),
//! which refuses a crashed or suspended engine. That call stands in for
//! §2.3's engine mailbox: the control plane and the engines share the
//! simulator's one thread, so control work runs at once and wakes
//! nothing. The lock-free mailbox itself is `snap_shm::Mailbox`.
//! The RPC transport between an application and its module, and §2.6's
//! session authentication, are not modeled: they charge no modeled cost
//! and no modeled path depends on them. What is shared is the error
//! every control operation degrades into, [`ControlError`].

// Control-plane code must degrade into typed errors, never panic: a
// malformed request or a crashed engine is an expected event here.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

/// Control-plane errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// The request violated a precondition.
    Invalid(String),
    /// The target engine is crashed, suspended, or gone; the caller
    /// should retry after the supervisor restarts it.
    Unavailable(String),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ControlError::Unavailable(what) => write!(f, "engine unavailable: {what}"),
        }
    }
}

impl std::error::Error for ControlError {}
