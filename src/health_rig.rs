//! The prober application and quarantine loop, made first-class.
//!
//! Snap's production story (§5, §6) keeps tail latency bounded with a
//! prober app that continually exercises the fleet and health machinery
//! that reacts *before* customer traffic notices. A [`HealthRig`]
//! reproduces that loop on a [`Testbed`](crate::testbed::Testbed):
//!
//! * **Link probes** — one prober engine per host, sending small
//!   one-sided Reads across every directed host pair at a fixed
//!   cadence. Probes ride the same fabric as workload traffic
//!   (in-band, as in the paper), so a lossy or jittery link shows up in
//!   the probe stream exactly as it does to applications.
//! * **Engine probes** — a second session on a watched *workload*
//!   engine submitting no-op buffer posts; the submit-to-issue latency
//!   is the engine's dequeue delay, which balloons when the engine is
//!   gray (alive, heartbeating, pathologically slow).
//! * **Detection** — every probe outcome feeds a
//!   [`snap_health::HealthMonitor`]: phi-accrual over arrivals, loss
//!   ratio, and latency-over-baseline.
//! * **Reaction** — a periodic sweep turns verdicts into quarantine:
//!   degraded links go to [`FabricHandle::quarantine_link`] (reroute
//!   transport where an alternate path exists, shed best-effort);
//!   degraded engines go to [`Supervisor::quarantine`] (proactive
//!   rebuild from the last checkpoint).
//!
//! Determinism: the rig draws no randomness — probe cadence is fixed,
//! the monitor iterates targets in a fixed order, and probe ops flow
//! through the same simulated queues as everything else. Two runs of
//! the same seeded testbed with the rig attached are bit-identical.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_core::engine::EngineId;
use snap_core::group::GroupHandle;
use snap_core::supervisor::Supervisor;
use snap_health::{HealthMonitor, HealthScore, MonitorConfig, Target};
use snap_nic::fabric::FabricHandle;
use snap_nic::packet::HostId;
use snap_pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_shm::region::AccessMode;
use snap_sim::event::Ticker;
use snap_sim::{Nanos, Sim};

/// Rig tuning.
#[derive(Debug, Clone)]
pub struct HealthRigConfig {
    /// Probe cadence per target (both links and engines).
    pub probe_interval: Nanos,
    /// A probe with no completion after this long counts as lost.
    pub probe_deadline: Nanos,
    /// How often verdicts are swept into quarantine actions.
    pub sweep_interval: Nanos,
    /// Bytes read per link probe.
    pub probe_len: u32,
    /// Detector thresholds.
    pub monitor: MonitorConfig,
}

impl Default for HealthRigConfig {
    fn default() -> Self {
        HealthRigConfig {
            probe_interval: Nanos::from_micros(50),
            probe_deadline: Nanos::from_micros(500),
            sweep_interval: Nanos::from_micros(200),
            probe_len: 64,
            monitor: MonitorConfig::default(),
        }
    }
}

/// App name used for the per-host prober engines.
pub const PROBER_APP: &str = "__prober";

/// Cap on unacknowledged probes per target: a black-holed target stops
/// accumulating queue pressure long before quarantine reacts.
const MAX_OUTSTANDING: usize = 32;

struct LinkPeer {
    to: HostId,
    conn: u64,
    /// The probe region registered on the destination host.
    region: u64,
}

struct LinkProber {
    from: HostId,
    client: PonyClient,
    peers: Vec<LinkPeer>,
    /// op id -> (target, submit time).
    pending: BTreeMap<u64, (Target, Nanos)>,
}

struct EngineProbe {
    host: u32,
    engine: EngineId,
    client: PonyClient,
    group: GroupHandle,
    supervisor: Supervisor,
    pending: BTreeMap<u64, Nanos>,
}

struct RigInner {
    cfg: HealthRigConfig,
    fabric: FabricHandle,
    link_probers: Vec<LinkProber>,
    engine_probes: Vec<EngineProbe>,
    quarantined_links: Vec<(HostId, HostId)>,
    quarantined_engines: Vec<(u32, u32)>,
}

/// Cloneable handle to the prober + detection + quarantine loop.
#[derive(Clone)]
pub struct HealthRig {
    monitor: Rc<RefCell<HealthMonitor>>,
    inner: Rc<RefCell<RigInner>>,
    probe: Ticker,
    sweep: Ticker,
}

impl HealthRig {
    pub(crate) fn new(cfg: HealthRigConfig, fabric: FabricHandle) -> Self {
        let monitor = HealthMonitor::new(cfg.monitor.clone());
        HealthRig {
            monitor: Rc::new(RefCell::new(monitor)),
            inner: Rc::new(RefCell::new(RigInner {
                cfg,
                fabric,
                link_probers: Vec::new(),
                engine_probes: Vec::new(),
                quarantined_links: Vec::new(),
                quarantined_engines: Vec::new(),
            })),
            probe: Ticker::default(),
            sweep: Ticker::default(),
        }
    }

    pub(crate) fn add_link_prober(
        &self,
        from: HostId,
        client: PonyClient,
        peers: Vec<(HostId, u64, u64)>,
    ) {
        let mut monitor = self.monitor.borrow_mut();
        let peers: Vec<LinkPeer> = peers
            .into_iter()
            .map(|(to, conn, region)| {
                monitor.track(Target::Link { from, to });
                LinkPeer { to, conn, region }
            })
            .collect();
        self.inner.borrow_mut().link_probers.push(LinkProber {
            from,
            client,
            peers,
            pending: BTreeMap::new(),
        });
    }

    pub(crate) fn add_engine_probe(
        &self,
        host: u32,
        engine: EngineId,
        client: PonyClient,
        group: GroupHandle,
        supervisor: Supervisor,
    ) {
        self.monitor.borrow_mut().track(Target::Engine {
            host,
            engine: engine.0,
        });
        self.inner.borrow_mut().engine_probes.push(EngineProbe {
            host,
            engine,
            client,
            group,
            supervisor,
            pending: BTreeMap::new(),
        });
    }

    /// Starts the probe and sweep loops, a [`Ticker`] each: idempotent
    /// while they are live, and a restart after [`stop`](Self::stop)
    /// resumes them.
    pub fn start(&self, sim: &mut Sim) {
        let (probe_iv, sweep_iv) = {
            let cfg = &self.inner.borrow().cfg;
            (cfg.probe_interval, cfg.sweep_interval)
        };
        let rig = self.clone();
        self.probe
            .start(sim, probe_iv, move |sim| rig.probe_tick(sim));
        let rig = self.clone();
        self.sweep
            .start(sim, sweep_iv, move |sim| rig.sweep_tick(sim));
    }

    /// Stops both loops (their pending ticks lapse) so a draining
    /// simulation can terminate.
    pub fn stop(&self) {
        self.probe.stop();
        self.sweep.stop();
    }

    /// The shared detector, to read scores from directly.
    pub fn monitor(&self) -> Rc<RefCell<HealthMonitor>> {
        self.monitor.clone()
    }

    /// Score snapshot for one target.
    pub fn score(&self, target: Target, now: Nanos) -> Option<HealthScore> {
        self.monitor.borrow().score(target, now)
    }

    /// Links quarantined so far, in detection order.
    pub fn quarantined_links(&self) -> Vec<(HostId, HostId)> {
        self.inner.borrow().quarantined_links.clone()
    }

    /// Engines quarantined so far (`(host, engine)`), in detection
    /// order.
    pub fn quarantined_engines(&self) -> Vec<(u32, u32)> {
        self.inner.borrow().quarantined_engines.clone()
    }

    /// Total quarantine actions taken.
    pub fn quarantines(&self) -> usize {
        let inner = self.inner.borrow();
        inner.quarantined_links.len() + inner.quarantined_engines.len()
    }

    /// One probe pass: harvest completions, expire deadlines, launch
    /// the next round of probes.
    fn probe_tick(&self, sim: &mut Sim) {
        let now = sim.now();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let mut monitor = self.monitor.borrow_mut();
        let deadline = inner.cfg.probe_deadline;
        let len = inner.cfg.probe_len;

        for p in &mut inner.link_probers {
            // Harvest: completion arrival closes the loop; latency is
            // engine-issue minus submit, independent of poll cadence.
            for c in p.client.take_completions_at(now) {
                let PonyCompletion::OpDone { op, status, issued_at, .. } = c else {
                    continue;
                };
                let Some((target, submitted)) = p.pending.remove(&op) else {
                    continue; // expired as lost; late reply ignored
                };
                match status {
                    OpStatus::Ok => {
                        monitor.record_success(target, now, issued_at.saturating_sub(submitted));
                    }
                    _ => monitor.record_loss(target, now),
                }
            }
            // Expire: a probe past its deadline is a loss even though
            // the reliable transport may still deliver it eventually —
            // the detector cares about timeliness, not delivery.
            p.pending.retain(|_, &mut (target, at)| {
                let live = now.saturating_sub(at) <= deadline;
                if !live {
                    monitor.record_loss(target, now);
                }
                live
            });
            // Launch the next round: one probe per live peer link.
            for peer in &p.peers {
                let target = Target::Link {
                    from: p.from,
                    to: peer.to,
                };
                if monitor.latched(target) {
                    continue; // quarantined: reroute owns this link now
                }
                let outstanding = p.pending.values().filter(|(t, _)| *t == target).count();
                if outstanding >= MAX_OUTSTANDING {
                    continue;
                }
                let op = p.client.submit(
                    sim,
                    PonyCommand::Read {
                        conn: peer.conn,
                        region: peer.region,
                        offset: 0,
                        len,
                    },
                );
                p.pending.insert(op, (target, now));
            }
        }

        for e in &mut inner.engine_probes {
            let target = Target::Engine {
                host: e.host,
                engine: e.engine.0,
            };
            for c in e.client.take_completions_at(now) {
                let PonyCompletion::OpDone { op, issued_at, .. } = c else {
                    continue;
                };
                let Some(submitted) = e.pending.remove(&op) else {
                    continue;
                };
                // A no-op buffer post completes the moment the engine
                // dequeues it: issue minus submit IS the dequeue delay.
                monitor.record_success(target, now, issued_at.saturating_sub(submitted));
            }
            e.pending.retain(|_, &mut at| {
                let live = now.saturating_sub(at) <= deadline;
                if !live {
                    monitor.record_loss(target, now);
                }
                live
            });
            if monitor.latched(target) || e.pending.len() >= MAX_OUTSTANDING {
                continue;
            }
            let op = e.client.submit(
                sim,
                PonyCommand::PostRecvBuffers {
                    conn: u64::MAX,
                    count: 0,
                },
            );
            e.pending.insert(op, now);
        }
    }

    /// One sweep: turn newly-unhealthy verdicts into quarantine. The
    /// monitor latches each target, so one degradation episode yields
    /// exactly one action.
    ///
    /// Root-cause attribution: link probes share cores (and the wire)
    /// with everything else on their hosts, so a saturated gray engine
    /// drags every probe through its host into collateral degradation.
    /// Engine verdicts are therefore applied first, and a link verdict
    /// whose endpoint host has a sick engine is *suppressed* — its
    /// tracker is reset instead of quarantining an innocent link; a
    /// genuinely bad link re-converges from warmup after the engine
    /// rebuild.
    fn sweep_tick(&self, sim: &mut Sim) {
        let now = sim.now();
        let verdicts = self.monitor.borrow_mut().sweep(now);
        if verdicts.is_empty() {
            return;
        }
        let sick_hosts: Vec<u32> = verdicts
            .iter()
            .filter_map(|&(t, _)| match t {
                Target::Engine { host, .. } => Some(host),
                Target::Link { .. } => None,
            })
            .collect();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        for (target, _verdict) in &verdicts {
            let Target::Engine { host, engine } = *target else {
                continue;
            };
            let Some(e) = inner
                .engine_probes
                .iter_mut()
                .find(|e| e.host == host && e.engine.0 == engine)
            else {
                continue;
            };
            if e.supervisor.quarantine(sim, &e.group, e.engine) {
                inner.quarantined_engines.push((host, engine));
                // The rebuilt engine starts clean: drop stale probes
                // and re-arm detection from warmup.
                e.pending.clear();
                self.monitor.borrow_mut().reset(*target);
            }
        }
        for (target, _verdict) in &verdicts {
            let Target::Link { from, to } = *target else {
                continue;
            };
            if sick_hosts.contains(&from) || sick_hosts.contains(&to) {
                self.monitor.borrow_mut().reset(*target);
                continue;
            }
            inner.fabric.quarantine_link(from, to);
            inner.quarantined_links.push((from, to));
        }
    }
}

/// Registers the probe region for [`PROBER_APP`] on a host's region
/// registry; returns its id for remote Reads.
pub(crate) fn register_probe_region(
    regions: &snap_shm::region::RegionRegistry,
    len: u32,
) -> u64 {
    regions
        .register_with(
            PROBER_APP,
            vec![0xA5u8; (len as usize).max(64)],
            AccessMode::ReadOnly,
        )
        .0
}
