//! Modules and the Snap control plane (§2.3, Fig. 2).
//!
//! "Snap modules are responsible for setting up control plane RPC
//! services, instantiating engines, loading them into engine groups,
//! and proxying all user setup interactions for those engines."
//!
//! [`SnapProcess`] is one running Snap instance: it hosts modules,
//! engine groups, the shared-memory region registry, and the
//! accountants. Applications first authenticate (§2.6: "Applications
//! establishing interactions with Snap authenticate its identity using
//! standard Linux mechanisms" — modeled with session tokens), then
//! issue control RPCs that modules service; the RPCs that set up the
//! fast path hand back shared-memory queue endpoints, standing in for
//! fd-passing over Unix domain sockets.

// Control-plane code must degrade into typed errors, never panic: a
// malformed RPC or a crashed engine is an expected event here.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::HashMap;

use snap_shm::account::{CpuAccountant, MemoryAccountant};
use snap_shm::region::RegionRegistry;
use snap_sim::Sim;

use crate::group::{GroupConfig, GroupHandle, MachineHandle, SchedulingMode};

/// Control-plane errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// The session is not authenticated.
    Unauthenticated,
    /// No module registered under that name.
    UnknownModule(String),
    /// The module does not implement the method.
    UnknownMethod(String),
    /// The request payload was malformed or violated a precondition.
    Invalid(String),
    /// The target engine is crashed, suspended, or gone; the caller
    /// should retry after the supervisor restarts it.
    Unavailable(String),
    /// The engine mailbox is occupied; retry later.
    Busy(String),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Unauthenticated => write!(f, "unauthenticated"),
            ControlError::UnknownModule(m) => write!(f, "unknown module {m}"),
            ControlError::UnknownMethod(m) => write!(f, "unknown method {m}"),
            ControlError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ControlError::Unavailable(what) => write!(f, "engine unavailable: {what}"),
            ControlError::Busy(what) => write!(f, "mailbox busy: {what}"),
        }
    }
}

impl std::error::Error for ControlError {}

/// Context handed to module RPC handlers: everything a module needs to
/// instantiate engines and wire applications to them.
pub struct ControlCx<'a> {
    /// The simulator, for scheduling engine work.
    pub sim: &'a mut Sim,
    /// Engine groups by name.
    pub groups: &'a HashMap<String, GroupHandle>,
    /// The shared-memory region registry.
    pub regions: &'a RegionRegistry,
    /// Memory accountant (charge per-user state, §2.5).
    pub memory: &'a MemoryAccountant,
    /// CPU accountant.
    pub cpu: &'a CpuAccountant,
    /// Name of the authenticated application issuing the RPC.
    pub app: &'a str,
}

/// A Snap module: control-plane logic for a family of engines.
pub trait Module {
    /// Module name (RPC routing key).
    fn name(&self) -> &str;

    /// Handles one control RPC.
    fn handle(
        &mut self,
        method: &str,
        payload: &[u8],
        cx: &mut ControlCx<'_>,
    ) -> Result<Vec<u8>, ControlError>;
}

/// An authenticated application session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSession {
    app: String,
    token: u64,
}

impl AppSession {
    /// The application (container) name.
    pub fn app(&self) -> &str {
        &self.app
    }
}

/// One running Snap instance.
pub struct SnapProcess {
    version: u32,
    modules: HashMap<String, Box<dyn Module>>,
    groups: HashMap<String, GroupHandle>,
    regions: RegionRegistry,
    memory: MemoryAccountant,
    cpu: CpuAccountant,
    machine: MachineHandle,
    sessions: HashMap<u64, String>,
    next_token: u64,
}

impl SnapProcess {
    /// Launches a Snap instance of the given release version on
    /// `machine`.
    pub fn new(version: u32, machine: MachineHandle) -> Self {
        let memory = MemoryAccountant::new();
        SnapProcess {
            version,
            modules: HashMap::new(),
            groups: HashMap::new(),
            regions: RegionRegistry::new(memory.clone()),
            memory,
            cpu: CpuAccountant::new(),
            machine,
            sessions: HashMap::new(),
            next_token: 1,
        }
    }

    /// Release version of this instance.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The machine this instance runs on.
    pub fn machine(&self) -> MachineHandle {
        self.machine.clone()
    }

    /// Registers a module.
    ///
    /// # Panics
    ///
    /// Panics on duplicate module names.
    pub fn register_module(&mut self, module: Box<dyn Module>) {
        let name = module.name().to_string();
        let prev = self.modules.insert(name.clone(), module);
        assert!(prev.is_none(), "duplicate module {name}");
    }

    /// Creates an engine group with the given scheduling mode.
    ///
    /// # Panics
    ///
    /// Panics on duplicate group names.
    pub fn create_group(&mut self, name: &str, mode: SchedulingMode) -> GroupHandle {
        let handle = GroupHandle::new(
            GroupConfig {
                name: name.to_string(),
                mode,
                class: None,
            },
            self.machine.clone(),
            self.cpu.clone(),
        );
        let prev = self.groups.insert(name.to_string(), handle.clone());
        assert!(prev.is_none(), "duplicate group {name}");
        handle
    }

    /// Looks up a group by name.
    pub fn group(&self, name: &str) -> Option<GroupHandle> {
        self.groups.get(name).cloned()
    }

    /// All groups, for the upgrade orchestrator.
    pub fn groups(&self) -> impl Iterator<Item = (&String, &GroupHandle)> {
        self.groups.iter()
    }

    /// The shared-memory region registry.
    pub fn regions(&self) -> &RegionRegistry {
        &self.regions
    }

    /// Authenticates an application, producing a session (the Unix
    /// domain socket credential handshake of §2.3/§2.6).
    pub fn authenticate(&mut self, app: &str) -> AppSession {
        let token = self.next_token;
        self.next_token += 1;
        self.sessions.insert(token, app.to_string());
        AppSession {
            app: app.to_string(),
            token,
        }
    }

    /// Revokes a session.
    pub fn disconnect(&mut self, session: &AppSession) {
        self.sessions.remove(&session.token);
    }

    /// Dispatches a control RPC from an authenticated session to a
    /// module.
    pub fn rpc(
        &mut self,
        sim: &mut Sim,
        session: &AppSession,
        module: &str,
        method: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, ControlError> {
        let app = self
            .sessions
            .get(&session.token)
            .filter(|a| *a == &session.app)
            .cloned()
            .ok_or(ControlError::Unauthenticated)?;
        let m = self
            .modules
            .get_mut(module)
            .ok_or_else(|| ControlError::UnknownModule(module.to_string()))?;
        let mut cx = ControlCx {
            sim,
            groups: &self.groups,
            regions: &self.regions,
            memory: &self.memory,
            cpu: &self.cpu,
            app: &app,
        };
        m.handle(method, payload, &mut cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_sched::machine::Machine;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct EchoModule;

    impl Module for EchoModule {
        fn name(&self) -> &str {
            "echo"
        }
        fn handle(
            &mut self,
            method: &str,
            payload: &[u8],
            cx: &mut ControlCx<'_>,
        ) -> Result<Vec<u8>, ControlError> {
            match method {
                "echo" => {
                    let mut out = cx.app.as_bytes().to_vec();
                    out.push(b':');
                    out.extend_from_slice(payload);
                    Ok(out)
                }
                other => Err(ControlError::UnknownMethod(other.to_string())),
            }
        }
    }

    fn process() -> SnapProcess {
        SnapProcess::new(1, Rc::new(RefCell::new(Machine::new(4, 1))))
    }

    #[test]
    fn rpc_roundtrip() {
        let mut sim = Sim::new();
        let mut p = process();
        p.register_module(Box::new(EchoModule));
        let session = p.authenticate("websearch");
        let reply = p.rpc(&mut sim, &session, "echo", "echo", b"hi").unwrap();
        assert_eq!(reply, b"websearch:hi");
    }

    #[test]
    fn unknown_module_and_method() {
        let mut sim = Sim::new();
        let mut p = process();
        p.register_module(Box::new(EchoModule));
        let session = p.authenticate("app");
        assert!(matches!(
            p.rpc(&mut sim, &session, "ghost", "x", b""),
            Err(ControlError::UnknownModule(_))
        ));
        assert!(matches!(
            p.rpc(&mut sim, &session, "echo", "nope", b""),
            Err(ControlError::UnknownMethod(_))
        ));
    }

    #[test]
    fn disconnected_session_is_rejected() {
        let mut sim = Sim::new();
        let mut p = process();
        p.register_module(Box::new(EchoModule));
        let session = p.authenticate("app");
        p.disconnect(&session);
        assert_eq!(
            p.rpc(&mut sim, &session, "echo", "echo", b""),
            Err(ControlError::Unauthenticated)
        );
    }

    #[test]
    fn forged_session_is_rejected() {
        let mut sim = Sim::new();
        let mut p = process();
        p.register_module(Box::new(EchoModule));
        let real = p.authenticate("alice");
        let forged = AppSession {
            app: "bob".to_string(),
            token: real.token,
        };
        assert_eq!(
            p.rpc(&mut sim, &forged, "echo", "echo", b""),
            Err(ControlError::Unauthenticated)
        );
    }

    #[test]
    fn groups_are_created_and_found() {
        let mut p = process();
        let g = p.create_group("transport", SchedulingMode::Spreading);
        assert_eq!(g.name(), "transport");
        assert!(p.group("transport").is_some());
        assert!(p.group("nope").is_none());
        assert_eq!(p.groups().count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate group")]
    fn duplicate_group_panics() {
        let mut p = process();
        p.create_group("g", SchedulingMode::Spreading);
        p.create_group("g", SchedulingMode::Spreading);
    }

    #[test]
    fn version_is_visible() {
        assert_eq!(process().version(), 1);
    }
}
