//! Ready-made simulated deployments for examples, tests and benches.
//!
//! A [`Testbed`] is a rack: N hosts on one ToR switch, each with a
//! multi-queue NIC, a machine model, a Snap engine group, and a Pony
//! module wired to a shared fleet directory. Helper methods create
//! application engines/sessions, connect applications across hosts, and
//! drive the simulation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_apps::dag::{DagEdge, DagRuntime, DagSpec};
use snap_apps::socket::{wire, SnapSocket, SocketError, SocketHost};
use snap_apps::transport::{Backend, PonyEnd, TcpEnd, Transport};
use snap_apps::workload::WorkloadError;
use snap_apps::SimPump;

use snap_core::engine::EngineId;
use snap_core::group::{GroupConfig, GroupHandle, MachineHandle, SchedulingMode};
use snap_core::supervisor::{Supervisor, SupervisorConfig};
use snap_isolation::AdmissionController;
use snap_nic::fabric::{FabricConfig, FabricHandle};
use snap_nic::nic::NicConfig;
use snap_nic::packet::HostId;
use snap_pony::client::PonyClient;
use snap_pony::engine::PonyEngineConfig;
use snap_pony::module::{new_net, PonyModule, PonyNetHandle};
use snap_sched::machine::Machine;
use snap_shm::account::{CpuAccountant, MemoryAccountant};
use snap_shm::region::RegionRegistry;
use snap_sim::fault::{FaultEvent, FaultPlan};
use snap_sim::trace::TraceRecorder;
use snap_sim::{Nanos, Sim};
use snap_topo::ClosSpec;

use crate::health_rig::{HealthRig, HealthRigConfig, PROBER_APP};
use snap_obs::{FlightRecorder, RecorderConfig};
use snap_tcp::stack::{TcpConfig, TcpHost};
use snap_telemetry::{StatsConfig, StatsModule};

/// Testbed construction parameters.
#[derive(Clone)]
pub struct TestbedConfig {
    /// Number of hosts on the rack.
    pub hosts: usize,
    /// NIC line rate per host, Gbps.
    pub nic_gbps: f64,
    /// Hardware threads per host.
    pub cores_per_host: usize,
    /// Engine-group scheduling mode used on every host.
    pub mode: SchedulingMode,
    /// Random per-packet loss probability on the fabric.
    pub loss: f64,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Install a per-host [`AdmissionController`] enforcing memory
    /// quotas on every engine (§2.5). Containers start unlimited, so
    /// enabling this alone changes no admission decisions — set
    /// policies (or inject memory-pressure faults) to constrain them.
    pub admission: bool,
    /// Head-sampling rate of the causal trace layer, in parts per
    /// million of ops (`1_000_000` traces everything, `0` disables
    /// tracing entirely). Sampling decisions hash off the master seed
    /// and never touch the simulation RNG streams, so any rate leaves
    /// modeled time byte-identical.
    pub trace_sample_ppm: u32,
    /// Fabric topology. `None` (the default) builds the classic
    /// single-switch rack; `Some(spec)` compiles a spine/leaf Clos and
    /// routes cross-rack traffic over its trunks. Hosts are assigned to
    /// racks in creation order (`rack = host / hosts_per_rack`), so
    /// `hosts` should normally be `racks * hosts_per_rack`.
    pub topology: Option<ClosSpec>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            hosts: 2,
            nic_gbps: 50.0,
            cores_per_host: 16,
            mode: SchedulingMode::Dedicated { cores: vec![0] },
            loss: 0.0,
            seed: 42,
            admission: false,
            trace_sample_ppm: 0,
            topology: None,
        }
    }
}

/// One simulated host.
pub struct TestHost {
    /// Fabric host id.
    pub id: HostId,
    /// The machine (cores, C-states, antagonists).
    pub machine: MachineHandle,
    /// The Snap engine group.
    pub group: GroupHandle,
    /// The Pony control module.
    pub module: PonyModule,
    /// Shared-memory regions registered on this host.
    pub regions: RegionRegistry,
    /// Per-container CPU accounting.
    pub cpu: CpuAccountant,
    /// Per-container memory accounting.
    pub memory: MemoryAccountant,
    /// Quota enforcement over this host's accountants, when the
    /// testbed was built with [`TestbedConfig::admission`].
    pub admission: Option<AdmissionController>,
}

/// A simulated rack running Snap.
pub struct Testbed {
    /// The discrete-event simulator.
    pub sim: Sim,
    /// The shared fabric.
    pub fabric: FabricHandle,
    /// All hosts, indexed by fabric host id.
    pub hosts: Vec<TestHost>,
    /// The fleet directory.
    pub net: PonyNetHandle,
    /// The rack-wide trace recorder, when tracing is enabled.
    pub recorder: Option<TraceRecorder>,
    /// Each host's kernel-TCP stack, once built, with its
    /// configuration: a host runs at most one.
    tcp: Vec<Option<(TcpConfig, TcpHost)>>,
    /// Facade socket hosts and their stacks by (host, app name).
    /// Ordered so the pump polls apps in a deterministic sequence (same
    /// seed ⇒ identical event order ⇒ identical latencies).
    apps: BTreeMap<(usize, String), (Backend, SocketHost)>,
    cfg: TestbedConfig,
}

impl Testbed {
    /// Builds and starts a rack.
    pub fn new(cfg: TestbedConfig) -> Self {
        let fabric = FabricHandle::with_topology(
            FabricConfig {
                loss_prob: cfg.loss,
                seed: cfg.seed,
                ..FabricConfig::default()
            },
            cfg.topology.clone().unwrap_or_else(ClosSpec::single_rack),
        );
        let net = new_net();
        let mut sim = Sim::new();
        // One recorder spans the rack: it is the distributed-tracing
        // backend, with cross-host span assembly free in simulation.
        let recorder = (cfg.trace_sample_ppm > 0)
            .then(|| TraceRecorder::new(cfg.seed, cfg.trace_sample_ppm, 4096));
        if let Some(rec) = &recorder {
            fabric.set_recorder(rec.clone());
        }
        let mut hosts = Vec::with_capacity(cfg.hosts);
        for h in 0..cfg.hosts {
            let id = fabric.add_host(NicConfig {
                gbps: cfg.nic_gbps,
                num_queues: 8,
                ..NicConfig::default()
            });
            let machine: MachineHandle = Rc::new(RefCell::new(Machine::new(
                cfg.cores_per_host,
                cfg.seed ^ (h as u64 + 1),
            )));
            let cpu = CpuAccountant::new();
            let memory = MemoryAccountant::new();
            let group = GroupHandle::new(
                GroupConfig {
                    name: format!("pony-group-{h}"),
                    mode: cfg.mode.clone(),
                    class: None,
                },
                machine.clone(),
                cpu.clone(),
            );
            group.start(&mut sim);
            let regions = RegionRegistry::new(memory.clone());
            let mut module = PonyModule::new(
                id,
                fabric.clone(),
                regions.clone(),
                group.clone(),
                net.clone(),
            );
            let admission = cfg.admission.then(|| {
                let adm = AdmissionController::new(memory.clone(), cpu.clone());
                module.set_admission(adm.clone());
                adm
            });
            if let Some(rec) = &recorder {
                module.set_recorder(rec.clone());
            }
            hosts.push(TestHost {
                id,
                machine,
                group,
                module,
                regions,
                cpu,
                memory,
                admission,
            });
        }
        Testbed {
            sim,
            fabric,
            hosts,
            net,
            recorder,
            tcp: vec![None; cfg.hosts],
            apps: BTreeMap::new(),
            cfg,
        }
    }

    /// A two-host testbed with defaults — the quickest start.
    pub fn pair() -> Self {
        Self::new(TestbedConfig::default())
    }

    /// A multi-rack Clos testbed: `racks * hosts_per_rack` hosts behind
    /// leaf switches cross-connected by `spines` spines, otherwise
    /// default configuration. The paper-scale deployment of §5.2 is
    /// `Testbed::clos(7, 6, 3)` — 42 hosts.
    pub fn clos(racks: u32, hosts_per_rack: u32, spines: u32) -> Self {
        Self::new(TestbedConfig {
            hosts: (racks * hosts_per_rack) as usize,
            topology: Some(ClosSpec::clos(racks, hosts_per_rack, spines)),
            ..TestbedConfig::default()
        })
    }

    /// Creates a Pony engine + session for `app` on `host` and returns
    /// the client library handle.
    pub fn pony_app(
        &mut self,
        host: usize,
        app: &str,
        configure: impl FnOnce(&mut PonyEngineConfig),
    ) -> PonyClient {
        self.hosts[host].module.create_engine(app, configure);
        self.hosts[host]
            .module
            .open_session(app, 4096)
            .expect("engine just created")
    }

    /// Connects `app_a` on `host_a` to `app_b` on `host_b`; returns the
    /// connection id (valid at both ends).
    pub fn connect(&mut self, host_a: usize, app_a: &str, host_b: usize, app_b: &str) -> u64 {
        let remote = self.hosts[host_b].id;
        self.hosts[host_a]
            .module
            .connect(app_a, remote, app_b)
            .expect("both apps registered")
    }

    /// The kernel-TCP stack of `host` (for baseline comparisons),
    /// built with `cfg` at the first call; every application on the
    /// host, facade or §5 driver, runs on it. The stack claims NIC
    /// queues of its own, beside those of the host's Pony engines.
    ///
    /// # Panics
    ///
    /// Panics if the host's stack was built with another configuration.
    pub fn tcp_host(&mut self, host: usize, cfg: TcpConfig) -> TcpHost {
        let (id, machine) = (self.hosts[host].id, &self.hosts[host].machine);
        let (built, stack) = self.tcp[host].get_or_insert_with(|| {
            let stack = TcpHost::new(id, self.fabric.clone(), machine.clone(), cfg.clone());
            (cfg.clone(), stack)
        });
        assert!(
            *built == cfg,
            "host {host} already runs a kernel stack, configured {built:?}, not {cfg:?}"
        );
        stack.clone()
    }

    /// The kernel-TCP stack `host` runs.
    ///
    /// # Panics
    ///
    /// Panics if it has none yet.
    pub(crate) fn kernel(&self, host: usize) -> &TcpHost {
        let (_, stack) = self.tcp[host].as_ref().expect("a kernel stack on the host");
        stack
    }

    /// Dials `app_b` on `host_b` from `app_a` on `host_a` over
    /// `backend`; returns the connection id, valid at both ends. Kernel
    /// TCP dials from stack to stack, built already, and ignores the
    /// names; the passive end is registered at once, so either end may
    /// send first.
    pub(crate) fn dial(
        &mut self,
        backend: Backend,
        (host_a, app_a): (usize, &str),
        (host_b, app_b): (usize, &str),
    ) -> u64 {
        match backend {
            Backend::Pony => self.connect(host_a, app_a, host_b, app_b),
            Backend::Tcp => {
                let (peer_a, peer_b) = (self.hosts[host_a].id, self.hosts[host_b].id);
                let conn = self.kernel(host_a).connect(peer_b);
                self.kernel(host_b).accept(conn, peer_a);
                conn
            }
        }
    }

    /// A facade socket host for `app` on `host` over `backend` — the
    /// byte-stream sockets API. `Backend::Pony` creates an engine +
    /// session under the hood; `Backend::Tcp` runs on the host's kernel
    /// stack ([`Testbed::tcp_host`]), built by the host's first TCP
    /// app. Idempotent per (host, app): repeated calls return the same
    /// facade host.
    pub fn app(&mut self, host: usize, app: &str, backend: Backend) -> SocketHost {
        if let Some((_, existing)) = self.apps.get(&(host, app.to_string())) {
            return existing.clone();
        }
        let end: Box<dyn Transport> = match backend {
            Backend::Pony => Box::new(PonyEnd::new(self.pony_app(host, app, |_| {}))),
            Backend::Tcp => {
                let stack = self.tcp_host(host, TcpConfig::default());
                Box::new(TcpEnd::new(stack, Rc::default()))
            }
        };
        let sh = SocketHost::new(end);
        self.apps.insert((host, app.into()), (backend, sh.clone()));
        sh
    }

    /// Connects two facade apps (created with [`Testbed::app`]); both
    /// ends must use the same backend. Returns the dialing (client)
    /// socket; the remote app accepts the peer socket from its
    /// [`SocketHost::listener`].
    pub fn app_connect(
        &mut self,
        host_a: usize,
        app_a: &str,
        host_b: usize,
        app_b: &str,
    ) -> Result<SnapSocket, SocketError> {
        let app = |host, name: &str| self.apps.get(&(host, name.to_string())).cloned();
        let (Some((backend, a)), Some((other, b))) = (app(host_a, app_a), app(host_b, app_b))
        else {
            return Err(SocketError::NotConnected);
        };
        if backend != other {
            return Err(SocketError::BackendMismatch);
        }
        let conn = self.dial(backend, (host_a, app_a), (host_b, app_b));
        Ok(wire(&a, &b, conn))
    }

    /// The whole wiring of one facade connection: creates `app_a` on
    /// `host_a` and `app_b` on `host_b` over `backend` (or finds them,
    /// as [`Testbed::app`] does), dials a → b and accepts at b.
    /// Returns the (dialing, accepted) sockets.
    pub fn app_pair(
        &mut self,
        host_a: usize,
        app_a: &str,
        host_b: usize,
        app_b: &str,
        backend: Backend,
    ) -> Result<(SnapSocket, SnapSocket), SocketError> {
        self.app(host_a, app_a, backend);
        let b = self.app(host_b, app_b, backend);
        let dialed = self.app_connect(host_a, app_a, host_b, app_b)?;
        let accepted = b.listener().accept().ok_or(SocketError::NotConnected)?;
        Ok((dialed, accepted))
    }

    /// Builds and wires a [`DagRuntime`] over `backend`: one facade app
    /// per service (named `{prefix}-s{i}`, pinned to the spec's host),
    /// one facade connection per edge. The identical spec runs
    /// unmodified over kernel TCP or Pony — only `backend` changes.
    pub fn dag(
        &mut self,
        prefix: &str,
        spec: &DagSpec,
        backend: Backend,
    ) -> Result<DagRuntime, WorkloadError> {
        spec.validate().map_err(WorkloadError::Spec)?;
        // Apps in service order, whatever order the edges name them in.
        let apps: Vec<(usize, String)> = (0..spec.services.len())
            .map(|i| (spec.services[i].host, format!("{prefix}-s{i}")))
            .collect();
        for (host, name) in &apps {
            self.app(*host, name, backend);
        }
        let mut edges = Vec::new();
        for (parent, child) in spec.edge_list() {
            let (p, c) = (&apps[parent], &apps[child]);
            let (parent_sock, child_sock) = self.app_pair(p.0, &p.1, c.0, &c.1, backend)?;
            edges.push(DagEdge {
                parent,
                child,
                parent_sock,
                child_sock,
            });
        }
        DagRuntime::new(spec.clone(), edges, self.cfg.seed, self.recorder.clone())
            .map_err(WorkloadError::Spec)
    }

    /// Runs the simulation for `ms` more milliseconds of virtual time.
    pub fn run_ms(&mut self, ms: u64) {
        let deadline = self.sim.now() + Nanos::from_millis(ms);
        self.sim.run_until(deadline);
    }

    /// Runs the simulation for `us` more microseconds of virtual time.
    pub fn run_us(&mut self, us: u64) {
        let deadline = self.sim.now() + Nanos::from_micros(us);
        self.sim.run_until(deadline);
    }

    /// Drives blocking-style facade calls (`poll_until`, `drive`):
    /// every timeout they observe is virtual time on this testbed's
    /// simulator, never wall time.
    pub fn as_pump(&mut self) -> &mut dyn SimPump {
        self
    }

    /// Stops group rebalancers (needed before a draining `sim.run()` on
    /// a compacting-mode testbed with a host of more than one engine: a
    /// rebalancer with nothing to rebalance is not ticking).
    pub fn stop_groups(&self) {
        for h in &self.hosts {
            h.group.stop();
        }
    }

    /// The configured scheduling mode.
    pub fn mode(&self) -> &SchedulingMode {
        &self.cfg.mode
    }

    /// Installs a fault plan: each scripted [`FaultEvent`] is mapped
    /// onto this rack's live fabric and engine groups at its scheduled
    /// virtual timestamp. Events naming hosts or engines that don't
    /// exist are ignored (randomized plans may over-approximate).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        let fabric = self.fabric.clone();
        let groups: Vec<GroupHandle> = self.hosts.iter().map(|h| h.group.clone()).collect();
        let admissions: Vec<Option<AdmissionController>> =
            self.hosts.iter().map(|h| h.admission.clone()).collect();
        plan.install(&mut self.sim, move |sim, ev| match *ev {
            FaultEvent::EngineCrash { host, engine } => {
                if let Some(g) = groups.get(host as usize) {
                    g.kill_engine(EngineId(engine));
                }
            }
            FaultEvent::EngineStall {
                host,
                engine,
                duration,
            } => {
                if let Some(g) = groups.get(host as usize) {
                    g.stall_engine(sim, EngineId(engine), duration);
                }
            }
            FaultEvent::NicQueueStall {
                host,
                queue,
                duration,
            } => {
                fabric.stall_queue_until(host, queue, sim.now() + duration);
            }
            FaultEvent::Partition { a, b } => fabric.partition(a, b),
            FaultEvent::Heal { a, b } => fabric.heal(a, b),
            FaultEvent::PartitionOneWay { from, to } => fabric.partition_oneway(from, to),
            FaultEvent::HealOneWay { from, to } => fabric.heal_oneway(from, to),
            FaultEvent::CorruptRate { prob } => fabric.set_corrupt_prob(prob),
            FaultEvent::MemoryPressure {
                host,
                ref container,
                fraction,
            } => {
                if let Some(Some(adm)) = admissions.get(host as usize) {
                    if let Some(name) = resolve_container(adm, container) {
                        adm.apply_pressure(&name, fraction);
                    }
                }
            }
            FaultEvent::ReleasePressure {
                host,
                ref container,
            } => {
                if let Some(Some(adm)) = admissions.get(host as usize) {
                    if let Some(name) = resolve_container(adm, container) {
                        adm.release_pressure(&name);
                    }
                }
            }
            FaultEvent::LinkLossy { from, to, prob } => {
                fabric.set_link_loss(from, to, prob);
            }
            FaultEvent::LinkJitter { from, to, dist } => {
                fabric.set_link_jitter(from, to, dist.median, dist.sigma);
            }
            FaultEvent::PauseStorm { host, duration } => {
                fabric.pause_host(host, sim.now() + duration);
            }
            FaultEvent::EngineSlowdown {
                host,
                engine,
                factor,
            } => {
                if let Some(g) = groups.get(host as usize) {
                    g.slow_engine(EngineId(engine), factor);
                }
            }
            // Topology arms. Trunk events are inert on a single-switch
            // fabric (no trunk is ever routed over); a brownout of rack
            // 0 browns out the lone ToR, which is the right degenerate
            // reading.
            FaultEvent::TrunkDown { leaf, spine } => fabric.fail_trunk(leaf, spine),
            FaultEvent::TrunkUp { leaf, spine } => fabric.restore_trunk(leaf, spine),
            FaultEvent::LeafBrownout {
                rack,
                drop_prob,
                extra,
            } => fabric.set_leaf_brownout(rack, drop_prob, extra),
        });
    }

    /// Builds the rack's prober + gray-failure-detection loop: a
    /// prober engine on every host, probing every directed link with
    /// small one-sided Reads, feeding a shared
    /// [`snap_health::HealthMonitor`], with a sweep loop that
    /// quarantines degraded links on the fabric. Call
    /// [`Testbed::health_watch_app`] to additionally probe (and
    /// proactively restart) workload engines, then
    /// [`HealthRig::start`]. Requires at least two hosts.
    pub fn health_rig(&mut self, cfg: HealthRigConfig) -> HealthRig {
        let probe_len = cfg.probe_len;
        let rig = HealthRig::new(cfg, self.fabric.clone());
        // Pass 1: a prober engine and a probe-target region per host.
        let mut regions = Vec::with_capacity(self.hosts.len());
        for host in &mut self.hosts {
            host.module.create_engine(PROBER_APP, |_| {});
            regions.push(crate::health_rig::register_probe_region(
                &host.regions,
                probe_len,
            ));
        }
        // Pass 2: one prober session per host, one connection per
        // directed pair (each direction probes independently, since
        // gray faults are directional).
        for i in 0..self.hosts.len() {
            let client = self.hosts[i]
                .module
                .open_session(PROBER_APP, 4096)
                .expect("prober engine just created");
            let mut peers = Vec::new();
            for (j, &region) in regions.iter().enumerate() {
                if i == j {
                    continue;
                }
                let remote = self.hosts[j].id;
                let conn = self.hosts[i]
                    .module
                    .connect(PROBER_APP, remote, PROBER_APP)
                    .expect("prober apps registered on every host");
                peers.push((remote, conn, region));
            }
            let from = self.hosts[i].id;
            rig.add_link_prober(from, client, peers);
        }
        rig
    }

    /// Adds a gray-failure probe on `app`'s (already supervised)
    /// workload engine: a second session submits no-op buffer posts
    /// whose dequeue latency senses slowdowns, and a degraded verdict
    /// makes `supervisor` proactively rebuild the engine from its last
    /// checkpoint.
    pub fn health_watch_app(
        &mut self,
        rig: &HealthRig,
        host: usize,
        app: &str,
        supervisor: &Supervisor,
    ) {
        let engine_id = self.hosts[host]
            .module
            .engine_for(app)
            .expect("app has an engine");
        let client = self.hosts[host]
            .module
            .open_session(app, 1024)
            .expect("app registered");
        rig.add_engine_probe(
            host as u32,
            engine_id,
            client,
            self.hosts[host].group.clone(),
            supervisor.clone(),
        );
    }

    /// Puts an app's engine on `host` under supervision: periodic
    /// checkpoints plus crash/wedge detection, restarting the engine
    /// from its last checkpoint via the Pony restart factory. The loop
    /// is *not* started — call [`Supervisor::start`].
    pub fn supervise_app(&mut self, host: usize, app: &str, cfg: SupervisorConfig) -> Supervisor {
        let engine_id = self.hosts[host]
            .module
            .engine_for(app)
            .expect("app has an engine");
        let factory = self.hosts[host]
            .module
            .restart_factory(app)
            .expect("app registered");
        let supervisor = Supervisor::new(cfg);
        supervisor.watch(self.hosts[host].group.clone(), engine_id, factory);
        supervisor
    }

    /// Total Snap CPU seconds consumed on a host so far.
    pub fn host_cpu(&mut self, host: usize) -> snap_core::group::GroupCpu {
        let now = self.sim.now();
        self.hosts[host].group.cpu(now)
    }

    /// A [`StatsModule`] watching the whole rack: the fabric plus every
    /// Pony engine registered so far (labeled `h<host>.<app>`). Call
    /// after creating apps; the poll loop is *not* started — call
    /// [`StatsModule::start`] (periodic) or
    /// [`StatsModule::poll_once`] as the experiment needs.
    pub fn stats_module(&mut self, cfg: StatsConfig) -> StatsModule {
        let stats = StatsModule::new(cfg);
        stats.watch_fabric(self.fabric.clone());
        for (h, host) in self.hosts.iter().enumerate() {
            let mut seen: Vec<EngineId> = Vec::new();
            for (app, engine_id) in host.module.apps() {
                // A shared engine serves several apps; watch it once,
                // under the first app's label.
                if seen.contains(&engine_id) {
                    continue;
                }
                seen.push(engine_id);
                stats.watch_engine(&format!("h{h}.{app}"), host.group.clone(), engine_id);
            }
            if let Some(adm) = &host.admission {
                stats.watch_admission(&format!("h{h}"), adm.clone());
            }
            // Per host group: the scheduling-delay distribution, keyed
            // by mode (`sched.h<h>.<mode>.delay`), and the CPU ledger
            // (`cpu.h<h>.*`).
            stats.watch_group(&format!("h{h}"), host.group.clone(), host.machine.clone());
        }
        stats
    }

    /// A [`FlightRecorder`] over a fresh [`StatsModule`] watching every
    /// host's engine group (labeled `h<h>`): each tick publishes the
    /// per-core/per-engine CPU split (`cpu.h<h>.*`) and scheduling
    /// delays, pure reads like every source's, before folding the
    /// registry into time series. The sampling loop is *not* started —
    /// call [`FlightRecorder::start`] (periodic on the configured
    /// cadence) or [`FlightRecorder::sample_once`] as the experiment
    /// needs.
    pub fn flight_recorder(&mut self, cfg: RecorderConfig) -> FlightRecorder {
        let stats = StatsModule::new(StatsConfig::default());
        for (h, host) in self.hosts.iter().enumerate() {
            stats.watch_group(&format!("h{h}"), host.group.clone(), host.machine.clone());
        }
        FlightRecorder::new(cfg, stats)
    }
}

impl SimPump for Testbed {
    fn sim_mut(&mut self) -> &mut Sim {
        &mut self.sim
    }

    fn pump_us(&mut self, us: u64) {
        self.run_us(us);
        // Every facade app's event loop runs each slice: retries fire
        // and acks drain even for apps no one is actively receiving
        // on. Deterministic (BTreeMap) order keeps runs reproducible.
        for (_, app) in self.apps.values() {
            app.poll(&mut self.sim);
        }
    }
}

/// Resolves a fault plan's container name against a host's admission
/// controller. Randomized plans use the positional convention `c<k>`
/// (the k-th registered container, sorted); anything else passes
/// through literally if registered. Unknown names resolve to `None`
/// (randomized plans over-approximate, same contract as unknown hosts).
fn resolve_container(adm: &AdmissionController, name: &str) -> Option<String> {
    let registered = adm.containers();
    if let Some(idx) = name
        .strip_prefix('c')
        .and_then(|rest| rest.parse::<usize>().ok())
    {
        return registered.get(idx).cloned();
    }
    registered.iter().find(|c| c.as_str() == name).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_apps::workload::poll_until;
    use snap_pony::client::{PonyCommand, PonyCompletion};

    /// One message to each receiving app, however many engines its
    /// host runs: nine are more than the NIC's eight configured queues,
    /// and each still gets a queue of its own.
    #[test]
    fn pair_testbed_messaging_works() {
        for receivers in [1, 9] {
            let mut tb = Testbed::pair();
            let mut a = tb.pony_app(0, "alpha", |_| {});
            let names: Vec<String> = (0..receivers).map(|i| format!("beta{i}")).collect();
            let mut bs: Vec<PonyClient> = names.iter().map(|b| tb.pony_app(1, b, |_| {})).collect();
            for b in &names {
                let conn = tb.connect(0, "alpha", 1, b);
                a.submit(
                    &mut tb.sim,
                    PonyCommand::Send {
                        conn,
                        stream: 0,
                        len: 64,
                    },
                );
            }
            tb.run_ms(5);
            let count = |client: &mut PonyClient, done: fn(&PonyCompletion) -> bool| {
                client.take_completions().iter().filter(|&c| done(c)).count()
            };
            let received: Vec<usize> = bs
                .iter_mut()
                .map(|b| count(b, |c| matches!(c, PonyCompletion::RecvMsg { len: 64, .. })))
                .collect();
            assert_eq!(received, vec![1; receivers]);
            let sent = count(&mut a, |c| matches!(c, PonyCompletion::OpDone { .. }));
            assert_eq!(sent, receivers);
        }
    }

    /// A testbed owns its hosts: nothing inside an engine group (the
    /// NIC interrupt handlers its engines' queues were claimed with)
    /// may hold the group strongly, or every dropped testbed leaks
    /// whole.
    #[test]
    fn dropping_a_testbed_frees_its_groups() {
        let mut tb = Testbed::pair();
        let mut a = tb.pony_app(0, "alpha", |_| {});
        let mut b = tb.pony_app(1, "beta", |_| {});
        let conn = tb.connect(0, "alpha", 1, "beta");
        b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 4 });
        a.submit(
            &mut tb.sim,
            PonyCommand::Send {
                conn,
                stream: 0,
                len: 100_000,
            },
        );
        // Stop mid-transfer: deadline wakes armed, packets in flight,
        // worker passes scheduled.
        tb.run_us(30);
        let groups: Vec<_> = tb.hosts.iter().map(|h| h.group.downgrade()).collect();
        assert!(groups.iter().all(|g| g.upgrade().is_some()));
        drop(tb);
        drop((a, b));
        assert!(
            groups.iter().all(|g| g.upgrade().is_none()),
            "an Rc cycle keeps a dropped testbed's engine groups alive"
        );
    }

    /// Likewise for the kernel-TCP baseline: the stack holds the fabric
    /// and its host's machine, so the handler it claims NIC queues with
    /// must not hold the stack.
    #[test]
    fn dropping_a_tcp_testbed_frees_its_stacks() {
        let mut tb = Testbed::pair();
        let a = tb.tcp_host(0, TcpConfig::default());
        let b = tb.tcp_host(1, TcpConfig::default());
        let conn = a.connect(tb.hosts[1].id);
        a.send(&mut tb.sim, conn, 1, 100_000);
        // Stop mid-transfer: segments in flight, softirqs pending.
        tb.run_us(30);
        assert!(a.stats().segs_sent > 0 && b.stats().msgs_delivered == 0);
        let machines: Vec<_> = tb.hosts.iter().map(|h| Rc::downgrade(&h.machine)).collect();
        drop(tb);
        drop((a, b));
        assert!(
            machines.iter().all(|m| m.upgrade().is_none()),
            "an Rc cycle keeps a dropped testbed's TCP stacks alive"
        );
    }

    /// Sends 100 000 bytes of `byte` from `tx`; returns how many of
    /// them `rx` received within 20 ms.
    fn transfer(tb: &mut Testbed, (tx, rx): &(SnapSocket, SnapSocket), byte: u8) -> usize {
        tx.send(&mut tb.sim, &vec![byte; 100_000]).expect("connected");
        let mut got = vec![0; 100_000];
        let mut received = 0;
        let _ = poll_until(tb.as_pump(), 5, Nanos::from_millis(20), |sim| {
            received += rx.try_recv(sim, &mut got[received..])?;
            Ok::<_, SocketError>((received == got.len()).then_some(()))
        });
        assert!(got[..received].iter().all(|&b| b == byte));
        received
    }

    /// A host runs one kernel stack: asking for it after the facade
    /// built it returns that stack, not a second one that takes the
    /// NIC's interrupts and strands the first. Pony engines run beside
    /// it, on NIC queues of their own, whichever was built first.
    #[test]
    fn a_host_has_one_kernel_stack() {
        let mut tb = Testbed::pair();
        let tcp = tb.app_pair(0, "a", 1, "b", Backend::Tcp).expect("wires");
        let stack = tb.tcp_host(1, TcpConfig::default());
        tcp.0.send(&mut tb.sim, &[7; 1000]).expect("connected");
        let mut got = [0; 1000];
        let mut filled = 0;
        let delivered = poll_until(tb.as_pump(), 5, Nanos::from_millis(5), |sim| {
            filled += tcp.1.try_recv(sim, &mut got[filled..])?;
            Ok::<_, SocketError>((filled == got.len()).then_some(()))
        });
        assert_eq!(delivered, Ok(Some(())), "delivered by the host's one stack");
        assert_eq!(got, [7; 1000]);
        assert_eq!(stack.stats().msgs_delivered, 1);

        let pony = tb.app_pair(0, "p", 1, "q", Backend::Pony).expect("wires");
        assert_eq!(
            [transfer(&mut tb, &pony, 1), transfer(&mut tb, &tcp, 2), transfer(&mut tb, &pony, 3)],
            [100_000; 3],
            "Pony after the kernel stack, then TCP, then Pony again"
        );

        // The other way round: the kernel stack's RSS range is the
        // queues it claimed after the engines', not the engines' queue.
        let mut tb = Testbed::pair();
        let pony = tb.app_pair(0, "p", 1, "q", Backend::Pony).expect("wires");
        let tcp = tb.app_pair(0, "a", 1, "b", Backend::Tcp).expect("wires");
        assert_eq!(
            [transfer(&mut tb, &tcp, 1), transfer(&mut tb, &pony, 2)],
            [100_000; 2],
            "TCP after the engines, then Pony"
        );
    }

    #[test]
    #[should_panic(expected = "host 1 already runs a kernel stack")]
    fn a_second_kernel_stack_configuration_panics() {
        let mut tb = Testbed::pair();
        tb.tcp_host(1, TcpConfig::default());
        tb.tcp_host(
            1,
            TcpConfig {
                busy_poll: true,
                ..TcpConfig::default()
            },
        );
    }

    #[test]
    fn cpu_accounting_flows_through() {
        let mut tb = Testbed::pair();
        let mut a = tb.pony_app(0, "alpha", |_| {});
        let _b = tb.pony_app(1, "beta", |_| {});
        let conn = tb.connect(0, "alpha", 1, "beta");
        for _ in 0..50 {
            a.submit(
                &mut tb.sim,
                PonyCommand::Send {
                    conn,
                    stream: 0,
                    len: 1000,
                },
            );
        }
        tb.run_ms(20);
        let cpu = tb.host_cpu(0);
        assert!(cpu.engine > Nanos::ZERO);
        // Engine CPU is charged to the app container.
        assert!(tb.hosts[0].cpu.usage("alpha") > 0);
    }
}
