//! The Pony module: control-plane glue for Pony Express (§2.3, §3.1).
//!
//! "The 'Pony module' authenticates users and sets up memory regions
//! shared with user applications by exchanging file descriptors over a
//! local RPC system. It also services other performance-insensitive
//! functions such as engine creation/destruction, compatibility checks,
//! and policy updates."
//!
//! [`PonyModule`] performs those duties for one host: creating engines
//! in a Snap engine group, bootstrapping application sessions (the
//! command/completion queue pairs), connecting applications across
//! hosts through the [`PonyNet`] directory (the stand-in for the
//! out-of-band TCP socket used for version advertisement, §3.1), and
//! building the engine factories used by transparent upgrades.

// Control-plane code must degrade into typed errors, never panic: a
// malformed RPC or a crashed engine is an expected event here.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_core::engine::EngineId;
use snap_core::group::GroupHandle;
use snap_core::module::{ControlCx, ControlError, Module};
use snap_core::supervisor::RestartFactory;
use snap_core::upgrade::{UpgradeError, UpgradeFactory};
use snap_isolation::AdmissionController;
use snap_nic::fabric::FabricHandle;
use snap_nic::packet::HostId;
use snap_shm::queue_pair::QueuePair;
use snap_shm::region::RegionRegistry;
use snap_sim::codec::{DecodeError, Reader, Writer};
use snap_sim::hash::IntMap;
use snap_sim::trace::TraceRecorder;
use snap_sim::{Nanos, Sim};

use crate::client::PonyClient;
use crate::engine::{PonyEngine, PonyEngineConfig, SessionTable};
use crate::wire::{negotiate_version, MAX_WIRE_VERSION, MIN_WIRE_VERSION};

/// A directory entry: where an application's Pony engine lives.
#[derive(Clone)]
pub struct DirectoryEntry {
    /// Host of the engine.
    pub host: HostId,
    /// NIC steering key of the engine.
    pub engine_key: u64,
    /// Group hosting the engine.
    pub group: GroupHandle,
    /// Engine id within the group.
    pub engine_id: EngineId,
    /// The app's default session for completions.
    pub session: Option<u64>,
    /// Advertised wire versions (min, max).
    pub versions: (u16, u16),
}

/// The fleet-wide directory and connection-id allocator — the model of
/// the out-of-band channel used to find remote engines and advertise
/// wire versions.
#[derive(Default)]
pub struct PonyNet {
    entries: BTreeMap<(HostId, String), DirectoryEntry>,
    next_conn: u64,
}

/// Shared handle to the directory.
pub type PonyNetHandle = Rc<RefCell<PonyNet>>;

/// Creates an empty fleet directory.
pub fn new_net() -> PonyNetHandle {
    Rc::new(RefCell::new(PonyNet::default()))
}

/// Errors from Pony control operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PonyError {
    /// The (host, app) pair is not in the directory.
    UnknownApp,
    /// No common wire version with the peer.
    VersionMismatch,
    /// The named application has no engine on this module's host.
    NoEngine,
    /// The engine exists but cannot take control work right now —
    /// crashed (awaiting supervisor restart), suspended for upgrade, or
    /// not the expected engine type. Retryable.
    EngineUnavailable(String),
}

impl std::fmt::Display for PonyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PonyError::UnknownApp => write!(f, "unknown application"),
            PonyError::VersionMismatch => write!(f, "no common wire version"),
            PonyError::NoEngine => write!(f, "application has no engine"),
            PonyError::EngineUnavailable(why) => write!(f, "engine unavailable: {why}"),
        }
    }
}

/// Runs `f` against the [`PonyEngine`] behind `id`, converting a
/// missing/crashed/suspended slot or a non-Pony placeholder into a
/// typed, retryable error instead of a panic.
fn with_pony_engine<R>(
    group: &GroupHandle,
    id: EngineId,
    f: impl FnOnce(&mut PonyEngine) -> R,
) -> Result<R, PonyError> {
    group
        .try_with_engine(id, |e| {
            e.as_any()
                .downcast_mut::<PonyEngine>()
                .map(f)
                .ok_or_else(|| PonyError::EngineUnavailable("not a pony engine".into()))
        })
        .map_err(|e| PonyError::EngineUnavailable(e.to_string()))?
}

impl std::error::Error for PonyError {}

/// What every Pony engine of one host is built from and attached to.
/// The upgrade and restart factories keep a copy, so a successor gets
/// the attachments that were installed when its factory was made.
#[derive(Clone)]
struct EngineKit {
    fabric: FabricHandle,
    regions: RegionRegistry,
    sessions: SessionTable,
    group: GroupHandle,
    /// Host-wide admission controller (§2.5), if one was installed.
    admission: Option<AdmissionController>,
    /// Host-wide trace recorder, if one was installed.
    recorder: Option<TraceRecorder>,
}

impl EngineKit {
    /// A new, unattached engine.
    fn fresh(&self, cfg: PonyEngineConfig) -> PonyEngine {
        PonyEngine::new(cfg, self.fabric.clone(), self.regions.clone(), self.sessions.clone())
    }

    /// Attaches `engine`, which is (or is about to be) engine `id` of
    /// the group: whom its pacing/RTO timers wake, the admission
    /// controller, the trace recorder. Every new or rebuilt engine
    /// passes through here, so the next attachment is added here only.
    fn wire(&self, id: EngineId, engine: &mut PonyEngine) {
        engine.set_wake(self.group.downgrade(), id);
        if let Some(adm) = &self.admission {
            engine.set_admission(adm.clone());
        }
        if let Some(rec) = &self.recorder {
            engine.set_recorder(rec.clone());
        }
    }

    /// Rebuilds engine `id` from serialized state plus re-injected
    /// runtime handles (§4), attached.
    fn restore(
        &self,
        id: EngineId,
        cfg: PonyEngineConfig,
        state: &[u8],
        now: Nanos,
    ) -> Result<PonyEngine, DecodeError> {
        let (fabric, regions, sessions) =
            (self.fabric.clone(), self.regions.clone(), self.sessions.clone());
        let mut engine = PonyEngine::restore(state, cfg, fabric, regions, sessions, now)?;
        self.wire(id, &mut engine);
        Ok(engine)
    }
}

/// The per-host Pony control module.
pub struct PonyModule {
    host: HostId,
    /// Engines created by this module — and their restart/upgrade
    /// successors — are gated by the kit's admission controller and
    /// stamp trace stage records into its recorder; clients
    /// bootstrapped by [`PonyModule::open_session`] allocate trace
    /// contexts at submit.
    kit: EngineKit,
    net: PonyNetHandle,
    /// Which engine owns each bootstrapped session — the control-plane
    /// record of per-engine session ownership. Restart factories close
    /// over it so a *shared* engine rebuilt from a corrupt checkpoint
    /// re-injects only its own sessions, never the whole host's.
    sessions_by_engine: Rc<RefCell<IntMap<EngineId, Vec<u64>>>>,
    /// By app name, so every walk over the engines is in name order.
    engines: BTreeMap<String, EngineId>,
    /// Which engine polls each NIC rx queue; the interrupt handler
    /// reads it on every interrupt.
    queue_owner: Rc<RefCell<IntMap<u16, EngineId>>>,
    next_session: u64,
    next_key: u64,
    next_queue: u16,
}

impl PonyModule {
    /// Creates the module for `host`, installing the NIC interrupt
    /// handler that routes queue irqs to engine wakeups.
    pub fn new(
        host: HostId,
        fabric: FabricHandle,
        regions: RegionRegistry,
        group: GroupHandle,
        net: PonyNetHandle,
    ) -> Self {
        let queue_owner: Rc<RefCell<IntMap<u16, EngineId>>> = Rc::default();
        let qmap = queue_owner.clone();
        // Weak: the NIC lives in the fabric, which the group's engines
        // hold, so a strong handle here would be a cycle.
        let wake_group = group.downgrade();
        fabric.with_nic(host, |nic| {
            nic.set_irq_handler(Rc::new(move |sim, queue| {
                if let Some(id) = qmap.borrow().get(&queue).copied() {
                    wake_group.wake(sim, id);
                }
            }));
        });
        PonyModule {
            host,
            kit: EngineKit {
                fabric,
                regions,
                sessions: SessionTable::default(),
                group,
                admission: None,
                recorder: None,
            },
            net,
            sessions_by_engine: Rc::default(),
            engines: BTreeMap::new(),
            queue_owner,
            next_session: 1,
            next_key: (host as u64) << 16 | 1,
            next_queue: 0,
        }
    }

    /// Installs the host-wide admission controller. Engines created
    /// afterwards (and their restart/upgrade successors) enforce its
    /// quotas on the datapath; engines already running are also gated
    /// retroactively.
    pub fn set_admission(&mut self, admission: AdmissionController) {
        for &id in self.engines.values() {
            let adm = admission.clone();
            let _ = with_pony_engine(&self.kit.group, id, move |e| e.set_admission(adm));
        }
        self.kit.admission = Some(admission);
    }

    /// Installs the host-wide trace recorder. Engines created afterwards
    /// (and their restart/upgrade successors) stamp stage records into
    /// it; engines already running are wired retroactively. Clients
    /// returned by later [`PonyModule::open_session`] calls allocate
    /// trace contexts at submit time.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        for &id in self.engines.values() {
            let rec = recorder.clone();
            let _ = with_pony_engine(&self.kit.group, id, move |e| e.set_recorder(rec));
        }
        self.kit.recorder = Some(recorder);
    }

    /// Creates an application-exclusive engine (§3.1: "applications
    /// using Pony Express can either request their own exclusive
    /// engines, or can use a set of pre-loaded shared engines").
    pub fn create_engine(&mut self, app: &str, configure: impl FnOnce(&mut PonyEngineConfig)) -> EngineId {
        let key = self.next_key;
        self.next_key += 1;
        let queues = self.kit.fabric.with_nic(self.host, |nic| nic.config().num_queues);
        let queue = self.next_queue % queues;
        self.next_queue += 1;
        let mut cfg = PonyEngineConfig::new(format!("pony-{}-{app}", self.host), self.host, key);
        cfg.queue = queue;
        cfg.container = app.to_string();
        configure(&mut cfg);
        let id = self.kit.group.add_engine(Box::new(self.kit.fresh(cfg)));
        // Its id is known only now. The engine was just added, so this
        // cannot miss.
        let _ = with_pony_engine(&self.kit.group, id, |e| self.kit.wire(id, e));
        self.queue_owner.borrow_mut().insert(queue, id);
        self.engines.insert(app.to_string(), id);
        self.net.borrow_mut().entries.insert(
            (self.host, app.to_string()),
            DirectoryEntry {
                host: self.host,
                engine_key: key,
                group: self.kit.group.clone(),
                engine_id: id,
                session: None,
                versions: (MIN_WIRE_VERSION, MAX_WIRE_VERSION),
            },
        );
        id
    }

    /// Creates a pre-loaded *shared* engine under a pool name; multiple
    /// applications may attach to it (§3.1: "can use a set of
    /// pre-loaded shared engines. ... Applications use shared engines
    /// when strong isolation is less important"). The pool name acts
    /// as the app key for sessions opened directly against it.
    pub fn create_shared_engine(
        &mut self,
        pool: &str,
        configure: impl FnOnce(&mut PonyEngineConfig),
    ) -> EngineId {
        self.create_engine(pool, |cfg| {
            cfg.container = "pony-shared".to_string();
            configure(cfg);
        })
    }

    /// Attaches an application to a shared engine pool: the app gets
    /// its own directory identity and sessions, but shares the engine's
    /// CPU and scheduling fate with the pool's other users.
    pub fn attach_app_to_shared(&mut self, app: &str, pool: &str) -> Result<EngineId, PonyError> {
        let &engine_id = self.engines.get(pool).ok_or(PonyError::NoEngine)?;
        let entry = self
            .net
            .borrow()
            .entries
            .get(&(self.host, pool.to_string()))
            .cloned()
            .ok_or(PonyError::UnknownApp)?;
        self.engines.insert(app.to_string(), engine_id);
        self.net.borrow_mut().entries.insert(
            (self.host, app.to_string()),
            DirectoryEntry {
                session: None,
                ..entry
            },
        );
        Ok(engine_id)
    }

    /// Bootstraps an application session: creates the shared-memory
    /// queue pair, registers the engine endpoint, and returns the
    /// client library handle (§3.1's Unix-domain-socket bootstrap).
    pub fn open_session(&mut self, app: &str, depth: usize) -> Result<PonyClient, PonyError> {
        let &engine_id = self.engines.get(app).ok_or(PonyError::NoEngine)?;
        let sid = self.next_session;
        self.next_session += 1;
        let (app_ep, engine_ep) = QueuePair::create(depth);
        self.kit.sessions.borrow_mut().insert(sid, engine_ep);
        if let Err(e) = with_pony_engine(&self.kit.group, engine_id, |e| e.add_session(sid)) {
            // Undo the half-open session so a retry starts clean.
            self.kit.sessions.borrow_mut().remove(&sid);
            return Err(e);
        }
        self.sessions_by_engine
            .borrow_mut()
            .entry(engine_id)
            .or_default()
            .push(sid);
        if let Some(entry) = self
            .net
            .borrow_mut()
            .entries
            .get_mut(&(self.host, app.to_string()))
        {
            entry.session = Some(sid);
        }
        let wake = self.kit.group.wake_handle(engine_id);
        let mut client = PonyClient::new(app_ep, wake);
        if let Some(rec) = &self.kit.recorder {
            client.set_trace(rec.clone(), self.host);
        }
        Ok(client)
    }

    /// Connects a local application to a remote one, negotiating the
    /// wire version and installing connection state in both engines
    /// (through their mailbox-equivalent control path). Returns the
    /// connection id.
    pub fn connect(
        &mut self,
        local_app: &str,
        remote_host: HostId,
        remote_app: &str,
    ) -> Result<u64, PonyError> {
        let (local, remote, conn) = {
            let mut net = self.net.borrow_mut();
            let local = net
                .entries
                .get(&(self.host, local_app.to_string()))
                .cloned()
                .ok_or(PonyError::UnknownApp)?;
            let remote = net
                .entries
                .get(&(remote_host, remote_app.to_string()))
                .cloned()
                .ok_or(PonyError::UnknownApp)?;
            net.next_conn += 1;
            (local, remote, net.next_conn)
        };
        let version = negotiate_version(remote.versions.0, remote.versions.1)
            .ok_or(PonyError::VersionMismatch)?;
        with_pony_engine(&local.group, local.engine_id, |e| {
            e.establish_conn(conn, remote.host, remote.engine_key, version, local.session);
        })?;
        with_pony_engine(&remote.group, remote.engine_id, |e| {
            e.establish_conn(conn, local.host, local.engine_key, version, remote.session);
        })?;
        Ok(conn)
    }

    /// The engine config + runtime handles needed to rebuild an app's
    /// engine from serialized state.
    fn rebuild_parts(&self, app: &str) -> Result<(EngineId, PonyEngineConfig), PonyError> {
        let &engine_id = self.engines.get(app).ok_or(PonyError::NoEngine)?;
        let entry = self
            .net
            .borrow()
            .entries
            .get(&(self.host, app.to_string()))
            .cloned()
            .ok_or(PonyError::UnknownApp)?;
        let mut cfg = PonyEngineConfig::new("restored", self.host, entry.engine_key);
        cfg.queue = {
            let owners = self.queue_owner.borrow();
            owners
                .iter()
                .find(|(_, &id)| id == engine_id)
                .map(|(&q, _)| q)
                .unwrap_or(0)
        };
        cfg.container = app.to_string();
        Ok((engine_id, cfg))
    }

    /// Builds the upgrade factory for an app's engine: the new-version
    /// engine is reconstructed from serialized state plus re-injected
    /// runtime handles (§4). A corrupt snapshot surfaces as
    /// [`UpgradeError::BadState`], which makes the orchestrator roll
    /// back to the still-live predecessor.
    pub fn upgrade_factory(&self, app: &str) -> Result<UpgradeFactory, PonyError> {
        let (engine_id, cfg) = self.rebuild_parts(app)?;
        let kit = self.kit.clone();
        Ok(Box::new(move |state, sim| {
            let engine = kit
                .restore(engine_id, cfg, &state, sim.now())
                .map_err(|e| UpgradeError::BadState(e.to_string()))?;
            Ok(Box::new(engine))
        }))
    }

    /// Builds the supervisor restart factory for an app's engine: like
    /// [`PonyModule::upgrade_factory`] but reusable across restarts.
    /// A healthy checkpoint carries the engine's own session-ownership
    /// list; a checkpoint that fails to deserialize falls back to a
    /// fresh engine with only *this engine's* sessions re-injected
    /// (from the module's control-plane ownership record, so a shared
    /// engine's restart never steals other engines' sessions) —
    /// connection state is lost but control-plane attachments survive,
    /// and peers recover via their own SACK/RTO machinery.
    pub fn restart_factory(&self, app: &str) -> Result<RestartFactory, PonyError> {
        let (engine_id, cfg) = self.rebuild_parts(app)?;
        let kit = self.kit.clone();
        let owned = self.sessions_by_engine.clone();
        Ok(Rc::new(move |state: Vec<u8>, sim: &mut Sim| {
            let restored = kit.restore(engine_id, cfg.clone(), &state, sim.now());
            Box::new(restored.unwrap_or_else(|_| {
                let mut fresh = kit.fresh(cfg.clone());
                if let Some(sids) = owned.borrow().get(&engine_id) {
                    for sid in sids {
                        fresh.add_session(*sid);
                    }
                }
                kit.wire(engine_id, &mut fresh);
                fresh
            }))
        }))
    }

    /// The engine id serving `app`, if any.
    pub fn engine_for(&self, app: &str) -> Option<EngineId> {
        self.engines.get(app).copied()
    }

    /// Every registered (app, engine) pair, in app-name order. Shared
    /// engines appear once per attached app — callers watching engines
    /// should dedupe on the id.
    pub fn apps(&self) -> Vec<(String, EngineId)> {
        self.engines
            .iter()
            .map(|(app, &id)| (app.clone(), id))
            .collect()
    }

    /// Sessions owned by `app`'s engine, in open order (control-plane
    /// ownership record; empty if the app has no engine or sessions).
    pub fn sessions_for(&self, app: &str) -> Vec<u64> {
        self.engines
            .get(app)
            .and_then(|id| self.sessions_by_engine.borrow().get(id).cloned())
            .unwrap_or_default()
    }
}

impl Module for PonyModule {
    fn name(&self) -> &str {
        "pony"
    }

    /// RPC surface: `connect` takes a codec-encoded (remote_host,
    /// remote_app) and returns the codec-encoded connection id; the
    /// caller's app name comes from the authenticated session.
    fn handle(
        &mut self,
        method: &str,
        payload: &[u8],
        cx: &mut ControlCx<'_>,
    ) -> Result<Vec<u8>, ControlError> {
        match method {
            "connect" => {
                let mut r = Reader::new(payload);
                let remote_host = r
                    .u32()
                    .map_err(|_| ControlError::Invalid("remote host".into()))?;
                let remote_app = r
                    .string()
                    .map_err(|_| ControlError::Invalid("remote app".into()))?;
                let conn = self
                    .connect(cx.app, remote_host, &remote_app)
                    .map_err(|e| ControlError::Invalid(e.to_string()))?;
                let mut w = Writer::new();
                w.u64(conn);
                Ok(w.finish())
            }
            "versions" => {
                let mut w = Writer::new();
                w.u16(MIN_WIRE_VERSION).u16(MAX_WIRE_VERSION);
                Ok(w.finish())
            }
            other => Err(ControlError::UnknownMethod(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{OpStatus, PonyCommand, PonyCompletion};
    use snap_core::group::{GroupConfig, SchedulingMode};
    use snap_nic::fabric::FabricConfig;
    use snap_nic::nic::NicConfig;
    use snap_shm::account::{CpuAccountant, MemoryAccountant};
    use snap_shm::region::AccessMode;
    use snap_sched::machine::Machine;
    use snap_sim::{Nanos, Sim};

    /// A two-host Pony Express world.
    struct World {
        sim: Sim,
        fabric: FabricHandle,
        modules: Vec<PonyModule>,
        groups: Vec<GroupHandle>,
        regions: Vec<RegionRegistry>,
    }

    fn world(loss: f64) -> World {
        let fabric = FabricHandle::new(FabricConfig {
            loss_prob: loss,
            ..FabricConfig::default()
        });
        let net = new_net();
        let mut modules = Vec::new();
        let mut groups = Vec::new();
        let mut regions_all = Vec::new();
        let mut sim = Sim::new();
        for h in 0..2u32 {
            let host = fabric.add_host(NicConfig {
                gbps: 100.0,
                ..NicConfig::default()
            });
            assert_eq!(host, h);
            let machine = Rc::new(RefCell::new(Machine::new(8, h as u64 + 1)));
            let group = GroupHandle::new(
                GroupConfig {
                    name: format!("pony-host{h}"),
                    mode: SchedulingMode::Dedicated { cores: vec![0] },
                    class: None,
                },
                machine,
                CpuAccountant::new(),
            );
            group.start(&mut sim);
            let regions = RegionRegistry::new(MemoryAccountant::new());
            let module = PonyModule::new(
                host,
                fabric.clone(),
                regions.clone(),
                group.clone(),
                net.clone(),
            );
            modules.push(module);
            groups.push(group);
            regions_all.push(regions);
        }
        World {
            sim,
            fabric,
            modules,
            groups,
            regions: regions_all,
        }
    }

    fn drain(w: &mut World, until_ms: u64) {
        w.sim.run_until(Nanos::from_millis(until_ms));
    }

    #[test]
    fn two_sided_small_message_roundtrip() {
        let mut w = world(0.0);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        let mut client = w.modules[0].open_session("client", 64).unwrap();
        let mut server = w.modules[1].open_session("server", 64).unwrap();
        let conn = w.modules[0].connect("client", 1, "server").unwrap();

        let op = client.submit(
            &mut w.sim,
            PonyCommand::Send {
                conn,
                stream: 0,
                len: 1000,
            },
        );
        drain(&mut w, 10);
        // Server got the message.
        let server_cpl = server.take_completions();
        assert!(
            server_cpl
                .iter()
                .any(|c| matches!(c, PonyCompletion::RecvMsg { len: 1000, .. })),
            "server completions: {server_cpl:?}"
        );
        // Client send completed (all chunks acked).
        let client_cpl = client.take_completions();
        assert!(
            client_cpl.iter().any(|c| matches!(
                c,
                PonyCompletion::OpDone { op: o, status: OpStatus::Ok, .. } if *o == op
            )),
            "client completions: {client_cpl:?}"
        );
    }

    #[test]
    fn large_message_requires_posted_buffers() {
        let mut w = world(0.0);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        let mut client = w.modules[0].open_session("client", 64).unwrap();
        let mut server = w.modules[1].open_session("server", 64).unwrap();
        let conn = w.modules[0].connect("client", 1, "server").unwrap();

        // 1 MB send with no buffers posted: held by flow control.
        client.submit(
            &mut w.sim,
            PonyCommand::Send {
                conn,
                stream: 0,
                len: 1_000_000,
            },
        );
        drain(&mut w, 5);
        assert!(
            server.take_completions().is_empty(),
            "message must be held until buffers are posted"
        );
        // Server posts buffers; the held message now flows.
        server.submit(&mut w.sim, PonyCommand::PostRecvBuffers { conn, count: 4 });
        drain(&mut w, 50);
        let got = server.take_completions();
        assert!(
            got.iter()
                .any(|c| matches!(c, PonyCompletion::RecvMsg { len: 1_000_000, .. })),
            "server completions after post: {got:?}"
        );
    }

    #[test]
    fn one_sided_read_write_roundtrip() {
        let mut w = world(0.0);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        let mut client = w.modules[0].open_session("client", 64).unwrap();
        let _server = w.modules[1].open_session("server", 64).unwrap();
        let conn = w.modules[0].connect("client", 1, "server").unwrap();

        // Server app shares a region; no server thread participates in
        // the accesses below.
        let region = w.regions[1].register_with("server", (0u8..200).collect(), AccessMode::ReadWrite);

        let read_op = client.submit(
            &mut w.sim,
            PonyCommand::Read {
                conn,
                region: region.0,
                offset: 10,
                len: 5,
            },
        );
        drain(&mut w, 5);
        let cpl = client.take_completions();
        let read_done = cpl.iter().find_map(|c| match c {
            PonyCompletion::OpDone { op, status, data, .. } if *op == read_op => {
                Some((status, data.clone()))
            }
            _ => None,
        });
        let (status, data) = read_done.expect("read completed");
        assert_eq!(*status, OpStatus::Ok);
        assert_eq!(data, vec![10, 11, 12, 13, 14]);

        // One-sided write, then read it back.
        let write_op = client.submit(
            &mut w.sim,
            PonyCommand::Write {
                conn,
                region: region.0,
                offset: 0,
                data: vec![0xAA; 4],
            },
        );
        drain(&mut w, 10);
        let cpl = client.take_completions();
        assert!(cpl.iter().any(|c| matches!(
            c,
            PonyCompletion::OpDone { op, status: OpStatus::Ok, .. } if *op == write_op
        )));
        assert_eq!(w.regions[1].read(region, 0, 4).unwrap(), vec![0xAA; 4]);
    }

    #[test]
    fn one_sided_read_out_of_bounds_errors() {
        let mut w = world(0.0);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        let mut client = w.modules[0].open_session("client", 64).unwrap();
        let conn = w.modules[0].connect("client", 1, "server").unwrap();
        let region = w.regions[1].register("server", 16, AccessMode::ReadOnly);

        let op = client.submit(
            &mut w.sim,
            PonyCommand::Read {
                conn,
                region: region.0,
                offset: 12,
                len: 10,
            },
        );
        drain(&mut w, 5);
        let cpl = client.take_completions();
        assert!(cpl.iter().any(|c| matches!(
            c,
            PonyCompletion::OpDone { op: o, status: OpStatus::RemoteAccessError, .. } if *o == op
        )));
    }

    #[test]
    fn indirect_read_follows_table() {
        let mut w = world(0.0);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        let mut client = w.modules[0].open_session("client", 64).unwrap();
        let conn = w.modules[0].connect("client", 1, "server").unwrap();

        // Data region with recognizable content.
        let data_region = w.regions[1].register_with("server", (0u8..255).collect(), AccessMode::ReadOnly);
        // Indirection table: entry i -> (data_region, offset 50 + i).
        let mut table_bytes = Vec::new();
        for i in 0..8u64 {
            let packed = (data_region.0 << 32) | (50 + i);
            table_bytes.extend_from_slice(&packed.to_le_bytes());
        }
        let table = w.regions[1].register_with("server", table_bytes, AccessMode::ReadOnly);

        // Batched indirect read of entries 0, 3, 7 (batch of 3).
        let op = client.submit(
            &mut w.sim,
            PonyCommand::IndirectRead {
                conn,
                table: table.0,
                indices: vec![0, 3, 7],
                len: 2,
            },
        );
        drain(&mut w, 5);
        let cpl = client.take_completions();
        let data = cpl
            .iter()
            .find_map(|c| match c {
                PonyCompletion::OpDone { op: o, status: OpStatus::Ok, data, .. } if *o == op => {
                    Some(data.clone())
                }
                _ => None,
            })
            .expect("indirect read completed");
        assert_eq!(data, vec![50, 51, 53, 54, 57, 58]);
    }

    #[test]
    fn scan_read_matches_key() {
        let mut w = world(0.0);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        let mut client = w.modules[0].open_session("client", 64).unwrap();
        let conn = w.modules[0].connect("client", 1, "server").unwrap();

        let data_region = w.regions[1].register_with("server", vec![7u8; 64], AccessMode::ReadOnly);
        // Scan region: 3 entries of (key, target).
        let mut scan = Vec::new();
        for (k, off) in [(100u64, 0u64), (200, 8), (300, 16)] {
            scan.extend_from_slice(&k.to_le_bytes());
            let target = (data_region.0 << 32) | off;
            scan.extend_from_slice(&target.to_le_bytes());
        }
        let scan_region = w.regions[1].register_with("server", scan, AccessMode::ReadOnly);

        let hit = client.submit(
            &mut w.sim,
            PonyCommand::ScanRead {
                conn,
                region: scan_region.0,
                key: 200,
                len: 4,
            },
        );
        let miss = client.submit(
            &mut w.sim,
            PonyCommand::ScanRead {
                conn,
                region: scan_region.0,
                key: 999,
                len: 4,
            },
        );
        drain(&mut w, 5);
        let cpl = client.take_completions();
        assert!(cpl.iter().any(|c| matches!(
            c,
            PonyCompletion::OpDone { op, status: OpStatus::Ok, data, .. }
                if *op == hit && data == &vec![7u8; 4]
        )));
        assert!(cpl.iter().any(|c| matches!(
            c,
            PonyCompletion::OpDone { op, status: OpStatus::RemoteAccessError, .. } if *op == miss
        )));
    }

    #[test]
    fn lossy_fabric_still_delivers_reliably() {
        let mut w = world(0.10);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        let mut client = w.modules[0].open_session("client", 64).unwrap();
        let mut server = w.modules[1].open_session("server", 64).unwrap();
        let conn = w.modules[0].connect("client", 1, "server").unwrap();
        server.submit(&mut w.sim, PonyCommand::PostRecvBuffers { conn, count: 32 });
        for _ in 0..10 {
            client.submit(
                &mut w.sim,
                PonyCommand::Send {
                    conn,
                    stream: 0,
                    len: 20_000,
                },
            );
        }
        drain(&mut w, 500);
        let got = server
            .take_completions()
            .iter()
            .filter(|c| matches!(c, PonyCompletion::RecvMsg { len: 20_000, .. }))
            .count();
        assert_eq!(got, 10, "all messages must survive 10% loss");
    }

    #[test]
    fn streams_deliver_in_order_and_independently() {
        let mut w = world(0.0);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        let mut client = w.modules[0].open_session("client", 128).unwrap();
        let mut server = w.modules[1].open_session("server", 128).unwrap();
        let conn = w.modules[0].connect("client", 1, "server").unwrap();
        for stream in 0..3u32 {
            for _ in 0..5 {
                client.submit(
                    &mut w.sim,
                    PonyCommand::Send {
                        conn,
                        stream,
                        len: 500,
                    },
                );
            }
        }
        drain(&mut w, 50);
        let mut per_stream: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for c in server.take_completions() {
            if let PonyCompletion::RecvMsg { stream, msg, .. } = c {
                per_stream.entry(stream).or_default().push(msg);
            }
        }
        assert_eq!(per_stream.len(), 3);
        for (stream, msgs) in per_stream {
            assert_eq!(msgs, vec![0, 1, 2, 3, 4], "stream {stream} out of order");
        }
    }

    #[test]
    fn rpc_connect_through_snap_process() {
        use snap_core::module::SnapProcess;
        let mut w = world(0.0);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        // Wrap module 0 in a SnapProcess and connect via control RPC.
        let machine = Rc::new(RefCell::new(Machine::new(4, 9)));
        let mut proc0 = SnapProcess::new(1, machine);
        let module = std::mem::replace(
            &mut w.modules[0],
            PonyModule::new(
                0,
                w.fabric.clone(),
                w.regions[0].clone(),
                w.groups[0].clone(),
                new_net(),
            ),
        );
        proc0.register_module(Box::new(module));
        let session = proc0.authenticate("client");
        let mut payload = Writer::new();
        payload.u32(1).string("server");
        let reply = proc0
            .rpc(&mut w.sim, &session, "pony", "connect", &payload.finish())
            .expect("connect rpc");
        let conn = Reader::new(&reply).u64().unwrap();
        assert!(conn > 0);
        // Unknown method errors.
        assert!(matches!(
            proc0.rpc(&mut w.sim, &session, "pony", "bogus", &[]),
            Err(ControlError::UnknownMethod(_))
        ));
    }

    #[test]
    fn version_rpc_reports_range() {
        let mut w = world(0.0);
        let mut cx_sim = Sim::new();
        let machine = Rc::new(RefCell::new(Machine::new(2, 5)));
        let mut proc0 = snap_core::module::SnapProcess::new(1, machine);
        let module = std::mem::replace(
            &mut w.modules[0],
            PonyModule::new(
                0,
                w.fabric.clone(),
                w.regions[0].clone(),
                w.groups[0].clone(),
                new_net(),
            ),
        );
        proc0.register_module(Box::new(module));
        let session = proc0.authenticate("x");
        let reply = proc0
            .rpc(&mut cx_sim, &session, "pony", "versions", &[])
            .unwrap();
        let mut r = Reader::new(&reply);
        assert_eq!(r.u16().unwrap(), MIN_WIRE_VERSION);
        assert_eq!(r.u16().unwrap(), MAX_WIRE_VERSION);
    }

    #[test]
    fn shared_engine_serves_multiple_apps() {
        let mut w = world(0.0);
        // Host 0: one shared engine, two applications attached.
        w.modules[0].create_shared_engine("shared-pool", |_| {});
        w.modules[0].attach_app_to_shared("app1", "shared-pool").unwrap();
        w.modules[0].attach_app_to_shared("app2", "shared-pool").unwrap();
        assert_eq!(
            w.modules[0].engine_for("app1"),
            w.modules[0].engine_for("app2"),
            "both apps share one engine"
        );
        // Host 1: one exclusive engine per app.
        w.modules[1].create_engine("sink1", |_| {});
        w.modules[1].create_engine("sink2", |_| {});
        let mut a1 = w.modules[0].open_session("app1", 64).unwrap();
        let mut a2 = w.modules[0].open_session("app2", 64).unwrap();
        let mut s1 = w.modules[1].open_session("sink1", 64).unwrap();
        let mut s2 = w.modules[1].open_session("sink2", 64).unwrap();
        let c1 = w.modules[0].connect("app1", 1, "sink1").unwrap();
        let c2 = w.modules[0].connect("app2", 1, "sink2").unwrap();
        a1.submit(&mut w.sim, PonyCommand::Send { conn: c1, stream: 0, len: 111 });
        a2.submit(&mut w.sim, PonyCommand::Send { conn: c2, stream: 0, len: 222 });
        drain(&mut w, 10);
        // Each sink receives exactly its own app's message.
        let got1: Vec<u64> = s1
            .take_completions()
            .into_iter()
            .filter_map(|c| match c {
                PonyCompletion::RecvMsg { len, .. } => Some(len),
                _ => None,
            })
            .collect();
        let got2: Vec<u64> = s2
            .take_completions()
            .into_iter()
            .filter_map(|c| match c {
                PonyCompletion::RecvMsg { len, .. } => Some(len),
                _ => None,
            })
            .collect();
        assert_eq!(got1, vec![111]);
        assert_eq!(got2, vec![222]);
        // Completions route back to the right app sessions.
        assert!(a1
            .take_completions()
            .iter()
            .any(|c| matches!(c, PonyCompletion::OpDone { .. })));
        assert!(a2
            .take_completions()
            .iter()
            .any(|c| matches!(c, PonyCompletion::OpDone { .. })));
    }

    #[test]
    fn attach_to_missing_pool_fails() {
        let mut w = world(0.0);
        assert_eq!(
            w.modules[0].attach_app_to_shared("app", "ghost"),
            Err(PonyError::NoEngine)
        );
    }

    #[test]
    fn upgrade_preserves_streams_mid_traffic() {
        use snap_core::upgrade::UpgradeOrchestrator;
        let mut w = world(0.0);
        w.modules[0].create_engine("client", |_| {});
        w.modules[1].create_engine("server", |_| {});
        let mut client = w.modules[0].open_session("client", 256).unwrap();
        let mut server = w.modules[1].open_session("server", 256).unwrap();
        let conn = w.modules[0].connect("client", 1, "server").unwrap();
        server.submit(&mut w.sim, PonyCommand::PostRecvBuffers { conn, count: 64 });

        // First half of the traffic.
        for _ in 0..5 {
            client.submit(&mut w.sim, PonyCommand::Send { conn, stream: 0, len: 500 });
        }
        drain(&mut w, 5);

        // Upgrade the *server* engine while the connection is live.
        let server_engine = w.modules[1].engine_for("server").unwrap();
        let factory = w.modules[1].upgrade_factory("server").unwrap();
        let mut orch = UpgradeOrchestrator::new();
        orch.add_engine(w.groups[1].clone(), server_engine, 2, factory);
        let result = orch.start(&mut w.sim);
        drain(&mut w, 200);
        assert!(result.borrow().is_some(), "upgrade completed");

        // Second half: the same connection and stream keep working,
        // message ids continue from where they left off.
        for _ in 0..5 {
            client.submit(&mut w.sim, PonyCommand::Send { conn, stream: 0, len: 500 });
        }
        drain(&mut w, 800);
        let mut msgs: Vec<u64> = server
            .take_completions()
            .iter()
            .filter_map(|c| match c {
                PonyCompletion::RecvMsg { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        msgs.sort_unstable();
        assert_eq!(msgs, (0..10).collect::<Vec<u64>>(), "stream survived the upgrade intact");
    }
}
