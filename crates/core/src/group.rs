//! Engine groups and the three engine-scheduling modes (§2.4).
//!
//! "Snap accommodates each of these cases with support for bundling
//! engines into groups with a specific scheduling mode, which dictates
//! a scheduling algorithm and CPU resource constraints."
//!
//! * **Dedicating cores** — engines pinned to dedicated hyperthreads,
//!   spin-polling; CPU does not scale with load but latency is minimal.
//!   When CPU constrained (more engines than cores) the runtime
//!   fair-shares by multiplexing engines round-robin on the workers.
//! * **Spreading engines** — one thread per engine; blocks on
//!   interrupt notification when idle and wakes through the MicroQuanta
//!   class with priority. Best tail latency given enough cores, at the
//!   cost of per-wake interrupt/context-switch overhead.
//! * **Compacting engines** — work collapses onto as few cores as
//!   possible; a rebalancer polls engine queueing delays (estimated
//!   Shenango-style from the age of the oldest pending item) and scales
//!   out when the delay exceeds the latency SLO, migrating engines back
//!   and compacting when load subsides.
//!
//! The runtime here is simulator-driven: workers are virtual threads
//! whose wakeups, slices, and spin time are charged against the shared
//! [`snap_sched::Machine`] and metered for the Fig. 6(b) CPU curves.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use snap_nic::{fabric::FabricHandle, packet::HostId};
use snap_shm::account::{CpuAccountant, CpuSlot};
use snap_sim::costs;
use snap_sim::stats::Histogram;
use snap_sim::{Nanos, Sim};

use snap_sched::classes::{MicroQuantaBudget, SchedClass};
use snap_sched::machine::{CoreId, Machine};

use crate::engine::{Engine, EngineId, RunReport};
use crate::module::ControlError;

/// Shared machine handle (matches `snap_sched::antagonist::MachineHandle`).
pub type MachineHandle = Rc<RefCell<Machine>>;

/// The scheduling mode of an engine group (§2.4, Fig. 3).
#[derive(Debug, Clone)]
pub enum SchedulingMode {
    /// Pin engines to dedicated spinning hyperthreads.
    Dedicated {
        /// Cores granted to this group; engines are distributed
        /// round-robin and fair-shared when outnumbering cores.
        cores: Vec<CoreId>,
    },
    /// One interrupt-driven MicroQuanta thread per engine.
    Spreading,
    /// Collapse onto few cores; scale by queueing-delay SLO.
    Compacting {
        /// Queueing-delay SLO that triggers scale-out.
        slo: Nanos,
        /// Rebalancer polling interval (non-preemptive polling is the
        /// latency floor of this mode, §2.4).
        rebalance_poll: Nanos,
        /// Idle time after which the last spinning worker blocks, to
        /// "scale down to less than a full core".
        idle_block: Nanos,
    },
}

impl SchedulingMode {
    /// The default compacting configuration used in the evaluation.
    pub fn compacting_default() -> SchedulingMode {
        SchedulingMode::Compacting {
            slo: Nanos::from_micros(50),
            rebalance_poll: Nanos::from_micros(10),
            idle_block: Nanos::from_micros(100),
        }
    }
}

/// Group construction parameters.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Group name (dashboards, upgrade logs).
    pub name: String,
    /// Scheduling mode.
    pub mode: SchedulingMode,
    /// Kernel scheduling class for the group's worker threads; `None`
    /// picks the mode's default (FIFO for dedicated cores, MicroQuanta
    /// otherwise). Fig. 6(d) sets `Some(Cfs { nice: -20 })` to compare
    /// MicroQuanta against the best CFS can do.
    pub class: Option<SchedClass>,
}

impl GroupConfig {
    /// Config with the mode's default scheduling class.
    pub fn new(name: impl Into<String>, mode: SchedulingMode) -> Self {
        GroupConfig {
            name: name.into(),
            mode,
            class: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum WorkerState {
    /// Spin-polling with no work; `since` starts the idle-spin clock.
    SpinningIdle { since: Nanos },
    /// Parked on interrupt notification.
    Blocked,
    /// A wakeup or run pass is already scheduled.
    Scheduled,
}

struct Worker {
    engines: Vec<EngineId>,
    state: WorkerState,
    core: CoreId,
    /// Spinning workers burn their core while idle; blocked workers
    /// pay a wake cost instead.
    spins: bool,
    budget: Option<MicroQuantaBudget>,
    /// Cancels the pending "block after idling" event, if any.
    idle_block_event: Option<snap_sim::EventHandle>,
}

impl Worker {
    /// A worker that spin-polls `core` (a dedicated core; the
    /// compacting primary). The caller reserves the core on the machine.
    fn spinning(core: CoreId, budget: Option<MicroQuantaBudget>) -> Worker {
        Worker {
            engines: Vec::new(),
            state: WorkerState::SpinningIdle { since: Nanos::ZERO },
            core,
            spins: true,
            budget,
            idle_block_event: None,
        }
    }

    /// A MicroQuanta worker parked on interrupt notification (one per
    /// spreading engine; a compacting scale-out target). `core` is only
    /// where it last ran: every wake picks one anew.
    fn blocked(core: CoreId) -> Worker {
        Worker {
            engines: Vec::new(),
            state: WorkerState::Blocked,
            core,
            spins: false,
            budget: Some(MicroQuantaBudget::default_engine()),
            idle_block_event: None,
        }
    }
}

/// Where an engine is in its life. Only a `Running` engine is woken,
/// scheduled and reachable through [`GroupHandle::try_with_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// On its worker's list and run whenever the worker passes.
    Running,
    /// Detached and off the schedule: an upgrade or a supervisor
    /// restart owns the slot until [`GroupHandle::resume_engine`].
    /// `crashed` records a kill that landed before or during the
    /// suspension (the successor dying mid-install), which the owner —
    /// not the supervisor's liveness loop — has to answer.
    Suspended { crashed: bool },
    /// Destroyed by [`GroupHandle::kill_engine`]: its state is gone.
    Crashed,
}

impl Lifecycle {
    fn suspended(self) -> bool {
        matches!(self, Lifecycle::Suspended { .. })
    }

    fn crashed(self) -> bool {
        matches!(self, Lifecycle::Crashed | Lifecycle::Suspended { crashed: true })
    }
}

/// Everything the group knows about one engine.
struct Slot {
    /// `None` while [`GroupHandle::run_worker`] has the engine out for
    /// its pass (passes run off the slot so the group is not borrowed
    /// across [`Engine::run`]), after [`GroupHandle::take_engine`], and
    /// once the engine crashed.
    engine: Option<Box<dyn Engine>>,
    state: Lifecycle,
    /// The CPU counter of the engine's container, resolved when the
    /// engine is installed so that a pass charges it without a lookup.
    cpu: CpuSlot,
    worker: usize,
    last_report: RunReport,
    /// When the engine last completed a run pass — the progress
    /// heartbeat sampled by the supervisor for wedge detection.
    last_pass: Nanos,
    /// A wedged engine makes no progress until this virtual time.
    stalled_until: Nanos,
    /// CPU inflation factor (gray-failure model: a slow-degrading
    /// engine burns `slowdown`× CPU per pass, stretching its dequeue
    /// latency without ever crashing). 1.0 = healthy.
    slowdown: f64,
    /// Cumulative engine-pass CPU (slowdown-inflated), written by
    /// [`EngineGroup::charge`] only.
    pass_cpu: Nanos,
}

impl Slot {
    fn engine_mut(&mut self) -> &mut dyn Engine {
        self.engine.as_deref_mut().expect("engine is mid-pass")
    }

    /// Items the engine holds pending; none once its state has left
    /// the slot (crashed, or taken for migration).
    fn pending_work(&self) -> usize {
        self.engine.as_deref().map_or(0, |e| e.pending_work())
    }

    /// Queueing-delay estimate the rebalancer polls; see
    /// [`Slot::pending_work`] for an engine that is not in the slot.
    fn oldest_pending_age(&self, now: Nanos) -> Nanos {
        self.engine
            .as_deref()
            .map_or(Nanos::ZERO, |e| e.oldest_pending_age(now))
    }
}

/// A supervisor-facing snapshot of one engine's liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHealth {
    /// Items the engine reports pending (0 for a crashed engine — its
    /// state is gone).
    pub pending: u64,
    /// Virtual time of the engine's last completed run pass.
    pub last_pass: Nanos,
    /// True once [`GroupHandle::kill_engine`] destroyed the engine.
    pub crashed: bool,
    /// True while the engine is suspended (upgrade/restart in flight).
    pub suspended: bool,
}

/// Aggregated CPU consumption of a group.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCpu {
    /// CPU spent inside engine passes (useful work + poll passes).
    pub engine: Nanos,
    /// CPU burned spin-polling while idle.
    pub spin: Nanos,
    /// Interrupt + context-switch overhead of blocked-thread wakeups.
    pub wake_overhead: Nanos,
}

impl GroupCpu {
    /// Total CPU across all categories.
    pub fn total(&self) -> Nanos {
        self.engine + self.spin + self.wake_overhead
    }
}

/// CPU this group consumed on one core, split by category — the
/// per-core attribution behind the paper's Table 1 / Fig. 5 efficiency
/// comparison. The per-core table is the group's only CPU ledger:
/// [`GroupCpu`] is its column sums, so summing [`CoreCpu::total`] across
/// [`GroupHandle::core_cpu`] reproduces [`GroupCpu::total`] exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCpu {
    /// CPU spent inside engine passes on this core.
    pub busy: Nanos,
    /// CPU burned spin-polling (idle spin + poll-waits) on this core.
    pub spin: Nanos,
    /// Interrupt + context-switch overhead paid on this core.
    pub wake_overhead: Nanos,
}

impl CoreCpu {
    /// Total CPU across all categories on this core.
    pub fn total(&self) -> Nanos {
        self.busy + self.spin + self.wake_overhead
    }
}

/// What a span of CPU was burned on; see [`EngineGroup::charge`].
enum Burn {
    /// One engine's run pass.
    Pass(EngineId),
    /// Idle spin-polling or a poll-wait.
    Spin,
    /// Interrupt + context switch of a blocked worker's wakeup.
    Wake,
}

/// The compacting rebalancer's clock. Ticks fall on the grid
/// `start + k · poll` and are events only while
/// [`rebalance_could_act`] holds, so a group that cannot be rebalanced
/// costs the simulator nothing.
struct RebalanceTick {
    /// When [`GroupHandle::start`] ran: the grid's origin.
    start: Nanos,
    poll: Nanos,
    /// A tick event is pending.
    armed: bool,
}

/// Whether [`GroupHandle::rebalance`] could do anything: scale-out needs
/// a worker holding more than one engine, a merge needs a worker other
/// than the primary holding any. Where this is false a rebalance returns
/// without acting, which is what lets its tick be skipped.
fn rebalance_could_act(workers: &[Worker]) -> bool {
    workers
        .iter()
        .enumerate()
        .any(|(wi, w)| w.engines.len() > usize::from(wi == 0))
}

/// An engine group plus its scheduling runtime state.
pub struct EngineGroup {
    name: String,
    mode: SchedulingMode,
    class_override: Option<SchedClass>,
    slots: Vec<Slot>,
    workers: Vec<Worker>,
    machine: MachineHandle,
    /// The group's CPU ledger, one row per core of the machine.
    core_cpu: Vec<CoreCpu>,
    accountant: CpuAccountant,
    next_core: usize,
    /// `Some` once a compacting group has been started.
    tick: Option<RebalanceTick>,
    /// Set by [`GroupHandle::stop`]; ends the rebalancer for good.
    stopped: bool,
    /// Scheduling delay of every wake that had to schedule a worker:
    /// spin pickup for a spinning worker, interrupt wake latency for a
    /// blocked one. The per-mode distribution behind the trace layer's
    /// engine-dequeue gap and Fig. 3's latency/CPU trade-off.
    sched_delay: Histogram,
}

impl EngineGroup {
    fn sched_class(&self) -> SchedClass {
        if let Some(class) = self.class_override {
            return class;
        }
        match self.mode {
            SchedulingMode::Dedicated { .. } => SchedClass::Fifo,
            _ => SchedClass::microquanta_default(),
        }
    }

    /// The one place the group's CPU books are written: `ns` burned on
    /// `core`, and for a pass also on the engine's own counter. Every
    /// view ([`GroupHandle::cpu`], [`GroupHandle::core_cpu`],
    /// [`GroupHandle::engine_cpu`]) is read off these two, so they agree
    /// by construction. The container's [`CpuSlot`] and the machine's
    /// slices are other parties' ledgers, charged where a pass ends.
    fn charge(&mut self, core: CoreId, burn: Burn, ns: Nanos) {
        let row = &mut self.core_cpu[core];
        match burn {
            Burn::Pass(id) => {
                row.busy += ns;
                self.slots[id.0 as usize].pass_cpu += ns;
            }
            Burn::Spin => row.spin += ns,
            Burn::Wake => row.wake_overhead += ns,
        }
    }

    /// If the rebalancer should be ticking and is not, marks it armed
    /// and returns the instant of its next tick: the first grid instant
    /// after `now`, so a rebalancer that resumes keeps the instants it
    /// would have had ticking throughout.
    fn rebalance_due(&mut self, now: Nanos) -> Option<Nanos> {
        let tick = self.tick.as_mut()?;
        if tick.armed || self.stopped || !rebalance_could_act(&self.workers) {
            return None;
        }
        tick.armed = true;
        Some(now + tick.poll - (now - tick.start) % tick.poll)
    }

    /// Books what every idle-spinning worker has burned up to `now`,
    /// so that a reading of the ledger is current.
    fn flush_idle_spin(&mut self, now: Nanos) {
        for wi in 0..self.workers.len() {
            let w = &mut self.workers[wi];
            if let WorkerState::SpinningIdle { since } = w.state {
                if now > since {
                    w.state = WorkerState::SpinningIdle { since: now };
                    let core = w.core;
                    self.charge(core, Burn::Spin, now - since);
                }
            }
        }
    }
}

/// Cloneable handle to a shared [`EngineGroup`]; the public API.
#[derive(Clone)]
pub struct GroupHandle {
    inner: Rc<RefCell<EngineGroup>>,
}

/// A [`GroupHandle`] that does not keep the group alive. Whatever the
/// group's own engines (or the NICs they attach to) hold on to in order
/// to wake it must be one of these: a strong handle there is an `Rc`
/// cycle through the engine slot, and the whole host leaks on drop.
#[derive(Clone)]
pub struct WeakGroupHandle {
    inner: Weak<RefCell<EngineGroup>>,
}

impl WeakGroupHandle {
    /// The group, if anything still owns it.
    pub fn upgrade(&self) -> Option<GroupHandle> {
        self.inner.upgrade().map(|inner| GroupHandle { inner })
    }

    /// [`GroupHandle::wake`], if anything still owns the group: what a
    /// NIC queue's interrupt and an application's doorbell call.
    pub fn wake(&self, sim: &mut Sim, id: EngineId) {
        if let Some(group) = self.upgrade() {
            group.wake(sim, id);
        }
    }
}

fn unavailable(id: EngineId, why: &str) -> ControlError {
    ControlError::Unavailable(format!("engine {} {why}", id.0))
}

impl GroupHandle {
    /// A handle to this group that does not keep it alive.
    pub fn downgrade(&self) -> WeakGroupHandle {
        WeakGroupHandle {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Creates an empty group on `machine`.
    pub fn new(cfg: GroupConfig, machine: MachineHandle, accountant: CpuAccountant) -> Self {
        let core_cpu = vec![CoreCpu::default(); machine.borrow().num_cores()];
        GroupHandle {
            inner: Rc::new(RefCell::new(EngineGroup {
                name: cfg.name,
                mode: cfg.mode,
                class_override: cfg.class,
                slots: Vec::new(),
                workers: Vec::new(),
                machine,
                core_cpu,
                accountant,
                next_core: 0,
                tick: None,
                stopped: false,
                sched_delay: Histogram::new(),
            })),
        }
    }

    /// Group name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Adds the engine `build` makes on a NIC rx queue of its own:
    /// claims the next queue of `host`'s NIC, whose interrupt wakes the
    /// engine, and hands `build` the queue. Returns the engine's id and
    /// its queue.
    pub fn add_engine_on_queue(
        &self,
        fabric: &FabricHandle,
        host: HostId,
        build: impl FnOnce(u16) -> Box<dyn Engine>,
    ) -> (EngineId, u16) {
        // The handler names the engine before it exists: the id
        // `add_engine` gives next.
        let id = EngineId(self.inner.borrow().slots.len() as u32);
        // Weak: the NIC lives in the fabric, which the group's engines
        // hold, so a strong handle here would be a cycle.
        let group = self.downgrade();
        let wake = Rc::new(move |sim: &mut Sim, _| group.wake(sim, id));
        let queue = fabric.with_nic(host, |nic| nic.claim(1, wake)).start;
        let added = self.add_engine(build(queue));
        assert_eq!(added, id, "queue {queue} wakes another engine");
        (id, queue)
    }

    /// Adds an engine; returns its id. May be called before or after
    /// [`GroupHandle::start`].
    pub fn add_engine(&self, engine: Box<dyn Engine>) -> EngineId {
        let mut g = self.inner.borrow_mut();
        let id = EngineId(g.slots.len() as u32);
        let worker = match g.mode {
            SchedulingMode::Dedicated { ref cores } => {
                // One spinning worker per granted core; engines beyond
                // the core count fair-share existing workers.
                let wi = g.slots.len() % cores.len().max(1);
                if g.workers.len() <= wi {
                    let core = cores.get(wi).copied().unwrap_or(0);
                    g.machine.borrow_mut().set_spinning(core, true);
                    g.workers.push(Worker::spinning(core, None));
                }
                wi
            }
            SchedulingMode::Spreading => {
                // One blocked worker per engine, MicroQuanta bandwidth.
                let core = g.next_core;
                let num_cores = g.machine.borrow().num_cores();
                g.next_core = (g.next_core + 1) % num_cores;
                g.workers.push(Worker::blocked(core));
                g.workers.len() - 1
            }
            SchedulingMode::Compacting { .. } => {
                // All engines start on the primary spinning worker.
                if g.workers.is_empty() {
                    g.machine.borrow_mut().set_spinning(0, true);
                    let budget = MicroQuantaBudget::default_engine();
                    g.workers.push(Worker::spinning(0, Some(budget)));
                }
                0
            }
        };
        g.workers[worker].engines.push(id);
        let cpu = g.accountant.slot(engine.container());
        g.slots.push(Slot {
            engine: Some(engine),
            state: Lifecycle::Running,
            cpu,
            worker,
            last_report: RunReport::default(),
            last_pass: Nanos::ZERO,
            stalled_until: Nanos::ZERO,
            slowdown: 1.0,
            pass_cpu: Nanos::ZERO,
        });
        id
    }

    /// Starts the group runtime (rebalancer for compacting mode).
    pub fn start(&self, sim: &mut Sim) {
        {
            let mut g = self.inner.borrow_mut();
            let SchedulingMode::Compacting { rebalance_poll, .. } = g.mode else { return };
            if g.tick.is_some() {
                return;
            }
            assert!(!rebalance_poll.is_zero(), "rebalancer with zero period");
            g.tick = Some(RebalanceTick {
                start: sim.now(),
                poll: rebalance_poll,
                armed: false,
            });
        }
        self.arm_rebalancer(sim);
    }

    /// Schedules the rebalancer's next tick if one is due and none is
    /// pending. A group's engines change hands only in
    /// [`GroupHandle::add_engine`], which has no simulator to schedule
    /// on, and inside a tick, so this hangs off the calls that follow an
    /// added engine: [`GroupHandle::start`], [`GroupHandle::wake`], the
    /// end of a worker pass.
    fn arm_rebalancer(&self, sim: &mut Sim) {
        let Some(at) = self.inner.borrow_mut().rebalance_due(sim.now()) else { return };
        let handle = self.clone();
        sim.schedule_at(at, move |sim| {
            if handle.inner.borrow().stopped {
                return;
            }
            handle.rebalance(sim);
            if let Some(tick) = handle.inner.borrow_mut().tick.as_mut() {
                tick.armed = false;
            }
            handle.arm_rebalancer(sim);
        });
    }

    /// Overrides the kernel scheduling class for this group's workers
    /// (Fig. 6d compares MicroQuanta against CFS nice -20).
    pub fn set_class_override(&self, class: SchedClass) {
        self.inner.borrow_mut().class_override = Some(class);
    }

    /// Stops the group's background rebalancer (compacting mode) for
    /// good: a pending tick does nothing and none is armed again.
    /// Engines already scheduled finish their work. A simulation drains
    /// without this once no worker but the primary holds an engine and
    /// the primary holds one; with engines to rebalance the tick goes on
    /// until this is called.
    pub fn stop(&self) {
        self.inner.borrow_mut().stopped = true;
    }

    /// Signals that an engine has new work (packet arrival, command
    /// submission, a deadline it reported). Schedules the worker that
    /// holds it now if that worker is idle; a suspended or crashed
    /// engine is not woken. This is the one way an engine is woken, and
    /// it may be called from anywhere, an engine pass of this group
    /// included: the running worker is `Scheduled` for the whole pass,
    /// so a wake addressed to it is a no-op and the pass's reports
    /// decide whether it runs again. Work handed inside a pass to an
    /// engine of the same worker that has already run in it therefore
    /// waits until something else runs that worker.
    pub fn wake(&self, sim: &mut Sim, id: EngineId) {
        let now = sim.now();
        let (worker_idx, action) = {
            let mut g = self.inner.borrow_mut();
            let slot = &g.slots[id.0 as usize];
            if slot.state != Lifecycle::Running {
                return;
            }
            let wi = slot.worker;
            let class = g.sched_class();
            let w = &mut g.workers[wi];
            match w.state {
                WorkerState::Scheduled => (wi, None),
                WorkerState::SpinningIdle { since } => {
                    if let Some(ev) = w.idle_block_event.take() {
                        ev.cancel();
                    }
                    w.state = WorkerState::Scheduled;
                    let core = w.core;
                    g.charge(core, Burn::Spin, now.saturating_sub(since));
                    (wi, Some(Nanos(costs::SPIN_PICKUP_NS)))
                }
                WorkerState::Blocked => {
                    w.state = WorkerState::Scheduled;
                    let core_hint = Some(wi as u64);
                    let (core, lat) =
                        g.machine.borrow_mut().interrupt_wakeup(now, class, core_hint);
                    g.workers[wi].core = core;
                    let overhead = Nanos(costs::INTERRUPT_NS + costs::CONTEXT_SWITCH_NS);
                    g.charge(core, Burn::Wake, overhead);
                    (wi, Some(lat))
                }
            }
        };
        self.arm_rebalancer(sim);
        if let Some(delay) = action {
            self.inner.borrow_mut().sched_delay.record_nanos(delay);
            let handle = self.clone();
            sim.schedule_at(now + delay, move |sim| handle.run_worker(sim, worker_idx));
        }
    }

    /// One worker scheduling pass: run each assigned engine that is
    /// running and not stalled once, charge CPU, and reschedule or go
    /// idle.
    fn run_worker(&self, sim: &mut Sim, worker_idx: usize) {
        // Engines run without the group borrowed: they may transmit
        // packets, which schedules fabric events that only fire later,
        // and they may wake engines, this group's too. Such a wake finds
        // this worker `Scheduled` and does nothing; one for another
        // worker schedules that worker's pass as any wake does. Nothing
        // reachable from a pass edits this worker's engine list or
        // moves it to another core, so the list is walked by index and
        // the core read once.
        let Some(core) = self.inner.borrow().workers.get(worker_idx).map(|w| w.core) else {
            return;
        };
        let now = sim.now();
        let mut total_cpu = Nanos::ZERO;
        let mut any_work = false;
        let mut any_pending = false;
        for i in 0.. {
            // Take the engine out of the slot to run it borrow-free.
            let (id, mut engine, factor) = {
                let mut g = self.inner.borrow_mut();
                let Some(&id) = g.workers[worker_idx].engines.get(i) else { break };
                let slot = &mut g.slots[id.0 as usize];
                if slot.state != Lifecycle::Running || slot.stalled_until > now {
                    continue;
                }
                let Some(engine) = slot.engine.take() else { continue };
                (id, engine, slot.slowdown)
            };
            let mut report = engine.run(sim);
            if factor > 1.0 {
                // Gray failure: the same pass burns `factor`× the CPU,
                // which stretches the worker's slice and every queued
                // op's dequeue latency behind it.
                report.cpu = Nanos((report.cpu.as_nanos() as f64 * factor) as u64);
            }
            total_cpu += report.cpu;
            any_work |= report.work_done;
            any_pending |= report.pending > 0;
            let mut g = self.inner.borrow_mut();
            g.charge(core, Burn::Pass(id), report.cpu);
            let slot = &mut g.slots[id.0 as usize];
            slot.cpu.charge(report.cpu.as_nanos());
            slot.engine = Some(engine);
            slot.last_report = report;
            slot.last_pass = now;
        }

        // Charge the machine and decide what happens next.
        let (next, deadline) = {
            let mut g = self.inner.borrow_mut();
            // Earliest deadline across the engines this worker runs, and
            // the engine that reported it: near deadlines are
            // poll-waited (burning spin CPU) instead of paying a block +
            // interrupt-wake cycle per pacing gap. A suspended or
            // crashed engine is not run, so the deadline it last
            // reported is nobody's to wait for.
            let deadline = g.workers[worker_idx]
                .engines
                .iter()
                .map(|id| (*id, &g.slots[id.0 as usize]))
                .filter(|(_, slot)| slot.state == Lifecycle::Running)
                .filter_map(|(id, slot)| slot.last_report.next_deadline.map(|d| (d, id)))
                .min();
            let w = &mut g.workers[worker_idx];
            let throttle_start = match w.budget.as_mut() {
                Some(b) if !total_cpu.is_zero() => b.request(now, total_cpu),
                _ => now,
            };
            g.machine.borrow_mut().run_slice(core, throttle_start, total_cpu);
            let w = &mut g.workers[worker_idx];
            debug_assert_eq!(w.core, core, "a worker moved cores mid-pass");
            let next = if any_work || any_pending {
                w.state = WorkerState::Scheduled;
                Some(throttle_start + total_cpu)
            } else if let Some((d, _)) = deadline
                .filter(|&(d, _)| d.saturating_sub(now) <= Nanos(costs::ENGINE_SPIN_WAIT_NS))
            {
                // Poll-wait: stay runnable and burn the gap as spin.
                let resume = d.max(now + Nanos(1));
                w.state = WorkerState::Scheduled;
                g.charge(core, Burn::Spin, resume - now);
                Some(resume)
            } else {
                if w.spins {
                    w.state = WorkerState::SpinningIdle { since: now };
                } else {
                    w.state = WorkerState::Blocked;
                }
                None
            };
            (next, deadline)
        };

        self.arm_rebalancer(sim);
        match next {
            Some(at) => {
                let handle = self.clone();
                sim.schedule_at(at.max(now), move |sim| handle.run_worker(sim, worker_idx));
            }
            None => {
                // Far-future deadline (pacing, shaper refill, RTO): wake
                // the engine that reported it then, on whichever worker
                // holds it by that time (a wake of a scheduled worker is
                // a no-op).
                if let Some((d, id)) = deadline {
                    let handle = self.clone();
                    sim.schedule_at(d.max(now), move |sim| handle.wake(sim, id));
                }
                self.maybe_arm_idle_block(sim, worker_idx);
            }
        }
    }

    /// For compacting mode: after `idle_block` of idle spinning, the
    /// worker blocks and releases its core ("scale down to less than a
    /// full core").
    fn maybe_arm_idle_block(&self, sim: &mut Sim, worker_idx: usize) {
        let idle_block = {
            let g = self.inner.borrow();
            match g.mode {
                SchedulingMode::Compacting { idle_block, .. } if g.workers[worker_idx].spins => {
                    Some(idle_block)
                }
                _ => None,
            }
        };
        let Some(idle_block) = idle_block else { return };
        let handle = self.clone();
        let ev = sim.schedule_cancellable_in(idle_block, move |sim| {
            let mut g = handle.inner.borrow_mut();
            let now = sim.now();
            let w = &mut g.workers[worker_idx];
            if let WorkerState::SpinningIdle { since } = w.state {
                w.state = WorkerState::Blocked;
                w.spins = false;
                let core = w.core;
                g.machine.borrow_mut().set_spinning(core, false);
                g.charge(core, Burn::Spin, now.saturating_sub(since));
            }
        });
        self.inner.borrow_mut().workers[worker_idx].idle_block_event = Some(ev);
    }

    /// The compacting rebalancer (§2.4): scale out on SLO violation,
    /// migrate back and compact when load subsides.
    fn rebalance(&self, sim: &mut Sim) {
        let now = sim.now();
        let slo = {
            let g = self.inner.borrow();
            match g.mode {
                SchedulingMode::Compacting { slo, .. } => slo,
                _ => return,
            }
        };

        // Scale out: find an overloaded worker with more than one
        // engine and move its most-delayed engine to an idle worker.
        let mut move_plan: Option<(usize, EngineId)> = None;
        {
            let g = self.inner.borrow();
            'outer: for (wi, w) in g.workers.iter().enumerate() {
                if w.engines.len() <= 1 {
                    continue;
                }
                let mut worst: Option<(EngineId, Nanos)> = None;
                for id in &w.engines {
                    let age = g.slots[id.0 as usize].oldest_pending_age(now);
                    if age > slo && worst.map(|(_, a)| age > a).unwrap_or(true) {
                        worst = Some((*id, age));
                    }
                }
                if let Some((id, _)) = worst {
                    move_plan = Some((wi, id));
                    break 'outer;
                }
            }
        }
        if let Some((from, id)) = move_plan {
            self.scale_out(sim, from, id);
            return; // one action per poll, like the paper's rebalancer
        }

        // Compact: merge an entirely idle secondary worker back into
        // the primary.
        let mut merge_plan: Option<usize> = None;
        {
            let g = self.inner.borrow();
            for (wi, w) in g.workers.iter().enumerate().skip(1) {
                if w.engines.is_empty() {
                    continue;
                }
                let all_idle = w
                    .engines
                    .iter()
                    .all(|id| g.slots[id.0 as usize].pending_work() == 0);
                let primary_ok = g.workers[0]
                    .engines
                    .iter()
                    .all(|id| g.slots[id.0 as usize].oldest_pending_age(now) < slo / 2);
                if all_idle && primary_ok {
                    merge_plan = Some(wi);
                    break;
                }
            }
        }
        if let Some(wi) = merge_plan {
            let mut g = self.inner.borrow_mut();
            let engines = std::mem::take(&mut g.workers[wi].engines);
            for id in &engines {
                g.slots[id.0 as usize].worker = 0;
            }
            g.workers[0].engines.extend(engines);
            let w = &mut g.workers[wi];
            let spin_accrued = match w.state {
                WorkerState::SpinningIdle { since } => now.saturating_sub(since),
                _ => Nanos::ZERO,
            };
            let core = w.core;
            w.state = WorkerState::Blocked;
            w.spins = false;
            g.charge(core, Burn::Spin, spin_accrued);
            g.machine.borrow_mut().set_spinning(core, false);
        }
    }

    /// Moves engine `id` from worker `from` to a fresh (or re-used
    /// blocked) worker and wakes it there.
    fn scale_out(&self, sim: &mut Sim, from: usize, id: EngineId) {
        {
            let mut g = self.inner.borrow_mut();
            let w = &mut g.workers[from];
            w.engines.retain(|e| *e != id);
            // Reuse a blocked empty worker or create one.
            let target = g
                .workers
                .iter()
                .position(|w| w.engines.is_empty() && w.state == WorkerState::Blocked);
            let ti = match target {
                Some(t) => t,
                None => {
                    let cores = g.machine.borrow().num_cores();
                    let core = g.next_core % cores;
                    g.next_core += 1;
                    g.workers.push(Worker::blocked(core));
                    g.workers.len() - 1
                }
            };
            g.workers[ti].engines.push(id);
            g.slots[id.0 as usize].worker = ti;
        }
        self.wake(sim, id);
    }

    /// True when `other` is a handle to the *same* underlying group —
    /// engine ids are only meaningful within one group, so callers that
    /// key work by `(group, EngineId)` (the supervisor's quarantine
    /// path) need identity, not name equality.
    pub fn same_group(&self, other: &GroupHandle) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Runs `f` against an engine synchronously, between its passes: the
    /// control plane's one way in. In the real system this is a mailbox
    /// call that blocks the *control* thread only (the lock-free
    /// mailbox is `snap_shm::Mailbox`); in the simulator the control
    /// plane and engines share one thread, so it executes immediately
    /// and wakes nothing.
    ///
    /// The engine need not be running, only present: a suspended engine
    /// that has not been taken is detached but its state is intact
    /// (this is how a checkpoint is read out of one).
    ///
    /// # Panics
    ///
    /// Panics if the group has no such engine or there is nothing to
    /// run `f` against — the engine crashed, or was taken for
    /// migration. A caller that can race a fault or an upgrade uses
    /// [`GroupHandle::try_with_engine`].
    pub fn with_engine<R>(&self, id: EngineId, f: impl FnOnce(&mut dyn Engine) -> R) -> R {
        let mut g = self.inner.borrow_mut();
        let slot = &mut g.slots[id.0 as usize];
        let state = slot.state;
        let Some(engine) = slot.engine.as_deref_mut() else {
            panic!("engine {} is not in its slot ({state:?})", id.0);
        };
        f(engine)
    }

    /// Fallible [`GroupHandle::with_engine`] that also insists the
    /// engine is running: an unknown id or a crashed/suspended engine
    /// becomes a [`ControlError::Unavailable`] naming the state, so
    /// control operations racing a fault or an in-flight upgrade get a typed
    /// error the caller can retry on.
    pub fn try_with_engine<R>(
        &self,
        id: EngineId,
        f: impl FnOnce(&mut dyn Engine) -> R,
    ) -> Result<R, ControlError> {
        let mut g = self.inner.borrow_mut();
        let slot = g
            .slots
            .get_mut(id.0 as usize)
            .ok_or_else(|| unavailable(id, "removed"))?;
        match slot.state {
            Lifecycle::Running => Ok(f(slot.engine_mut())),
            state if state.crashed() => Err(unavailable(id, "crashed")),
            _ => Err(unavailable(id, "suspended for upgrade")),
        }
    }

    /// Suspends an engine (upgrade blackout start): it is no longer
    /// scheduled and its detach hook runs (dropping NIC filters).
    pub fn suspend_engine(&self, sim: &mut Sim, id: EngineId) {
        let engine = {
            let mut g = self.inner.borrow_mut();
            let slot = &mut g.slots[id.0 as usize];
            slot.state = Lifecycle::Suspended {
                crashed: slot.state.crashed(),
            };
            slot.engine.take()
        };
        // Detach outside the borrow: the hook may drive the simulator.
        if let Some(mut engine) = engine {
            engine.detach(sim);
            self.inner.borrow_mut().slots[id.0 as usize].engine = Some(engine);
        }
    }

    /// Installs `engine` — a new-version successor, a rebuild from a
    /// checkpoint, or the predecessor on rollback — and resumes
    /// scheduling (upgrade blackout end). Whatever state the slot was
    /// in, it is running and healthy afterwards, so the same path
    /// serves supervisor recovery.
    pub fn resume_engine(&self, sim: &mut Sim, id: EngineId, engine: Box<dyn Engine>) {
        let mut engine = engine;
        // Re-attach outside the borrow: the hook may drive the NIC.
        engine.attach(sim);
        {
            let mut g = self.inner.borrow_mut();
            // The successor may run on behalf of another container.
            let cpu = g.accountant.slot(engine.container());
            let slot = &mut g.slots[id.0 as usize];
            slot.cpu = cpu;
            slot.engine = Some(engine);
            slot.state = Lifecycle::Running;
            slot.stalled_until = Nanos::ZERO;
            // A restart replaces the degraded process: healthy again.
            slot.slowdown = 1.0;
        }
        self.wake(sim, id);
    }

    /// Destroys an engine in place — the fault-injection model of an
    /// engine panicking or its worker thread dying. Its in-memory state
    /// is lost and it is never scheduled again until
    /// [`GroupHandle::resume_engine`] installs a successor rebuilt from
    /// a checkpoint. Ids that were never allocated are a no-op, so
    /// over-approximate (e.g. randomized) fault plans can't panic the
    /// group.
    pub fn kill_engine(&self, id: EngineId) {
        let mut g = self.inner.borrow_mut();
        if let Some(slot) = g.slots.get_mut(id.0 as usize) {
            slot.state = match slot.state {
                Lifecycle::Suspended { .. } => Lifecycle::Suspended { crashed: true },
                _ => Lifecycle::Crashed,
            };
            slot.engine = None;
        }
    }

    /// Degrades an engine's efficiency by `factor` (>= 1.0): every pass
    /// burns `factor`× the CPU, the gray-failure model of a process
    /// that is alive and making progress but pathologically slow (lock
    /// contention, a sick core, thermal throttling). Unlike a wedge the
    /// engine still heartbeats, so only latency-based health scoring —
    /// not liveness checks — can see it. `factor <= 1.0` heals.
    /// Unknown ids are a no-op so over-approximate fault plans can't
    /// panic the group.
    pub fn slow_engine(&self, id: EngineId, factor: f64) {
        if let Some(slot) = self.inner.borrow_mut().slots.get_mut(id.0 as usize) {
            slot.slowdown = factor.max(1.0);
        }
    }

    /// Wedges an engine for `duration`: it stays resident but makes no
    /// progress (models a livelock or a stuck syscall). Pending work
    /// accumulates and its heartbeat stops, which is what supervisor
    /// wedge detection keys on. The engine resumes by itself when the
    /// stall lifts unless the supervisor restarts it first. Unknown ids
    /// are a no-op.
    pub fn stall_engine(&self, sim: &mut Sim, id: EngineId, duration: Nanos) {
        let until = sim.now() + duration;
        {
            let mut g = self.inner.borrow_mut();
            let Some(slot) = g.slots.get_mut(id.0 as usize) else { return };
            slot.stalled_until = slot.stalled_until.max(until);
        }
        // Self-resume once the wedge clears (a real livelock may break).
        let handle = self.clone();
        sim.schedule_at(until, move |sim| handle.wake(sim, id));
    }

    /// A liveness snapshot of one engine, or `None` for an unknown id.
    /// Crashed engines report zero pending work because their state is
    /// gone; the `crashed` flag is the signal.
    pub fn engine_health(&self, id: EngineId) -> Option<EngineHealth> {
        let g = self.inner.borrow();
        let slot = g.slots.get(id.0 as usize)?;
        Some(EngineHealth {
            pending: slot.pending_work() as u64,
            last_pass: slot.last_pass,
            crashed: slot.state.crashed(),
            suspended: slot.state.suspended(),
        })
    }

    /// Takes a suspended engine out entirely (for state serialization
    /// by the upgrade orchestrator). The slot stays reserved. `None` if
    /// the engine crashed or was taken already.
    pub fn take_engine(&self, id: EngineId) -> Option<Box<dyn Engine>> {
        let mut g = self.inner.borrow_mut();
        let slot = &mut g.slots[id.0 as usize];
        assert!(
            slot.state.suspended(),
            "taking a running engine; suspend it first"
        );
        slot.engine.take()
    }

    /// CPU consumption snapshot up to `now`: the column sums of the
    /// per-core ledger, idle-spin accrual flushed into it first.
    pub fn cpu(&self, now: Nanos) -> GroupCpu {
        let mut g = self.inner.borrow_mut();
        g.flush_idle_spin(now);
        let mut total = GroupCpu::default();
        for row in &g.core_cpu {
            total.engine += row.busy;
            total.spin += row.spin;
            total.wake_overhead += row.wake_overhead;
        }
        total
    }

    /// Per-core CPU split (busy / spin / wake) up to `now`, one row per
    /// core of the machine in ascending core id, idle-spin accrual
    /// flushed into the ledger first.
    pub fn core_cpu(&self, now: Nanos) -> Vec<(CoreId, CoreCpu)> {
        let mut g = self.inner.borrow_mut();
        g.flush_idle_spin(now);
        g.core_cpu.iter().copied().enumerate().collect()
    }

    /// Cumulative engine-pass CPU per engine slot (slowdown-inflated,
    /// like the group totals). Sums exactly to [`GroupCpu::engine`].
    pub fn engine_cpu(&self) -> Vec<(EngineId, Nanos)> {
        self.inner
            .borrow()
            .slots
            .iter()
            .enumerate()
            .map(|(i, slot)| (EngineId(i as u32), slot.pass_cpu))
            .collect()
    }

    /// Total CPU-time the MicroQuanta budgets deferred across all
    /// workers (zero in dedicated mode, which runs unbudgeted).
    pub fn throttled_total(&self) -> Nanos {
        self.inner
            .borrow()
            .workers
            .iter()
            .filter_map(|w| w.budget.as_ref())
            .map(|b| b.throttled_total)
            .fold(Nanos::ZERO, |a, b| a + b)
    }

    /// Snapshot of the group's scheduling-delay histogram: one sample
    /// per wake that had to schedule a worker (spin pickup vs interrupt
    /// wake latency). Cumulative; diff two snapshots for an interval.
    pub fn sched_delay_histogram(&self) -> Histogram {
        self.inner.borrow().sched_delay.clone()
    }

    /// Stable label of the group's scheduling mode, for metric keys.
    pub fn mode_label(&self) -> &'static str {
        match self.inner.borrow().mode {
            SchedulingMode::Dedicated { .. } => "dedicated",
            SchedulingMode::Spreading => "spreading",
            SchedulingMode::Compacting { .. } => "compacting",
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::engine::CountingEngine;

    fn machine() -> MachineHandle {
        Rc::new(RefCell::new(Machine::new(8, 1)))
    }

    fn counting_group(mode: SchedulingMode) -> (GroupHandle, EngineId) {
        let g = GroupHandle::new(
            GroupConfig {
                name: "test".into(),
                mode,
                class: None,
            },
            machine(),
            CpuAccountant::new(),
        );
        let id = g.add_engine(Box::new(CountingEngine::new("e0", Nanos(500))));
        (g, id)
    }

    fn inject(g: &GroupHandle, id: EngineId, now: Nanos, n: usize) {
        g.with_engine(id, |e| {
            let e = e
                .as_any()
                .downcast_mut::<CountingEngine>()
                .expect("tests only build CountingEngine");
            for _ in 0..n {
                e.inject(now);
            }
        });
    }

    fn processed(g: &GroupHandle, id: EngineId) -> u64 {
        g.with_engine(id, |e| {
            e.as_any()
                .downcast_mut::<CountingEngine>()
                .expect("tests only build CountingEngine")
                .processed
        })
    }

    #[test]
    fn dedicated_mode_processes_work() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
        g.start(&mut sim);
        inject(&g, id, sim.now(), 40);
        g.wake(&mut sim, id);
        sim.run();
        assert_eq!(processed(&g, id), 40);
        let cpu = g.cpu(sim.now());
        assert!(cpu.engine > Nanos(40 * 500), "engine CPU {:?}", cpu);
        assert_eq!(cpu.wake_overhead, Nanos::ZERO, "spinning never pays wakes");
    }

    #[test]
    fn spreading_mode_pays_wake_overhead() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        inject(&g, id, sim.now(), 5);
        g.wake(&mut sim, id);
        sim.run();
        assert_eq!(processed(&g, id), 5);
        let cpu = g.cpu(sim.now());
        assert!(cpu.wake_overhead > Nanos::ZERO);
        assert_eq!(cpu.spin, Nanos::ZERO, "blocked workers never spin");
    }

    #[test]
    fn spreading_gives_each_engine_a_worker() {
        let (g, _) = counting_group(SchedulingMode::Spreading);
        g.add_engine(Box::new(CountingEngine::new("e1", Nanos(100))));
        g.add_engine(Box::new(CountingEngine::new("e2", Nanos(100))));
        assert_eq!(workers(&g), 3);
    }

    #[test]
    fn dedicated_fair_shares_when_core_constrained() {
        let mut sim = Sim::new();
        let g = GroupHandle::new(
            GroupConfig {
                name: "fair".into(),
                mode: SchedulingMode::Dedicated { cores: vec![0, 1] },
                class: None,
            },
            machine(),
            CpuAccountant::new(),
        );
        let ids: Vec<EngineId> = (0..4)
            .map(|i| g.add_engine(Box::new(CountingEngine::new(format!("e{i}"), Nanos(100)))))
            .collect();
        assert_eq!(workers(&g), 2, "4 engines share 2 cores");
        g.start(&mut sim);
        for id in &ids {
            inject(&g, *id, sim.now(), 10);
            g.wake(&mut sim, *id);
        }
        sim.run();
        for id in &ids {
            assert_eq!(processed(&g, *id), 10);
        }
    }

    fn compacting_group(slo: Nanos, idle_block: Nanos) -> GroupHandle {
        GroupHandle::new(
            GroupConfig::new(
                "compact",
                SchedulingMode::Compacting {
                    slo,
                    rebalance_poll: Nanos::from_micros(10),
                    idle_block,
                },
            ),
            machine(),
            CpuAccountant::new(),
        )
    }

    /// Two heavy engines under sustained load on a 5 us SLO: per-item
    /// cost is large, so queueing delay blows through the SLO. Returns
    /// the group, the engines and the instant of the first scale-out.
    /// `start_first` is the `Testbed` order: the group is started empty
    /// and populated afterwards.
    fn scale_out_under_load(start_first: bool) -> (GroupHandle, [EngineId; 2], Nanos) {
        let mut sim = Sim::new();
        let g = compacting_group(Nanos::from_micros(5), Nanos::from_millis(50));
        if start_first {
            g.start(&mut sim);
        }
        let a = g.add_engine(Box::new(CountingEngine::new("a", Nanos::from_micros(20))));
        let b = g.add_engine(Box::new(CountingEngine::new("b", Nanos::from_micros(20))));
        assert_eq!(workers(&g), 1);
        g.start(&mut sim);
        for round in 0..50u64 {
            let at = Nanos::from_micros(round * 20);
            let (g2, a2, b2) = (g.clone(), a, b);
            sim.schedule_at(at, move |sim| {
                inject(&g2, a2, sim.now(), 8);
                inject(&g2, b2, sim.now(), 8);
                g2.wake(sim, a2);
                g2.wake(sim, b2);
            });
        }
        while workers(&g) == 1 && sim.step() {}
        let scaled_out_at = sim.now();
        sim.run_until(Nanos::from_millis(10));
        g.stop();
        sim.run();
        (g, [a, b], scaled_out_at)
    }

    /// When [`scale_out_under_load`] first scales out.
    const SCALED_OUT_AT: Nanos = Nanos::from_micros(30);

    #[test]
    fn compacting_starts_on_one_worker_and_scales_out() {
        let (g, [a, b], _) = scale_out_under_load(false);
        assert!(workers(&g) >= 2, "rebalancer should have scaled out");
        assert_eq!(processed(&g, a), 400);
        assert_eq!(processed(&g, b), 400);
    }

    #[test]
    fn a_group_started_empty_scales_out_like_one_started_full() {
        // The rebalancer of a group started empty has nothing to do and
        // is not ticking; the engines' first wake arms it on the grid
        // that `start` laid down. The instant and the worker count are
        // what the always-ticking rebalancer of the parent commit gave.
        let (full, _, full_at) = scale_out_under_load(false);
        let (empty, [a, b], empty_at) = scale_out_under_load(true);
        assert_eq!((full_at, workers(&full)), (SCALED_OUT_AT, 2));
        assert_eq!((empty_at, workers(&empty)), (SCALED_OUT_AT, 2));
        assert_eq!(processed(&empty, a), 400);
        assert_eq!(processed(&empty, b), 400);
    }

    /// Adds, at `join`, an engine whose backlog will be past a 1 us SLO
    /// at the next rebalance, and wakes it.
    fn second_engine_joins(sim: &mut Sim, g: &GroupHandle, join: Nanos) -> EngineId {
        let b = g.add_engine(Box::new(CountingEngine::new("late", Nanos::from_micros(20))));
        // More than a batch, so that a pass leaves a backlog behind.
        inject(g, b, join, 40);
        g.wake(sim, b);
        b
    }

    fn worker_of(g: &GroupHandle, id: EngineId) -> usize {
        g.inner.borrow().slots[id.0 as usize].worker
    }

    /// Workers ever created.
    fn workers(g: &GroupHandle) -> usize {
        g.inner.borrow().workers.len()
    }

    #[test]
    fn a_one_engine_group_does_not_tick_and_a_second_engine_resumes_the_grid() {
        let mut sim = Sim::new();
        let g = compacting_group(Nanos::from_micros(1), Nanos::from_millis(50));
        g.add_engine(Box::new(CountingEngine::new("first", Nanos(500))));
        g.start(&mut sim);
        sim.run();
        assert_eq!(sim.events_executed(), 0, "nothing to rebalance, no tick");

        // The second engine arrives 37 us after `start`: its first
        // rebalance is the grid's tick at 40 us, not one poll later.
        sim.run_until(Nanos::from_micros(37));
        let b = second_engine_joins(&mut sim, &g, Nanos::from_micros(37));
        sim.run_until(Nanos::from_micros(40) - Nanos(1));
        assert_eq!(workers(&g), 1);
        sim.run_until(Nanos::from_micros(40));
        assert_eq!(workers(&g), 2, "scaled out by the tick at 40 us");
        assert_eq!(worker_of(&g, b), 1);
    }

    #[test]
    fn the_tick_stops_after_a_merge_leaves_one_engine_and_restarts_on_the_grid() {
        let mut sim = Sim::new();
        let g = compacting_group(Nanos::from_micros(1), Nanos::from_millis(50));
        let a = g.add_engine(Box::new(CountingEngine::new("a", Nanos(500))));
        g.start(&mut sim);
        // An engine alone on a secondary worker: what a scale-out and
        // the removal of the primary's other engine would leave. The
        // group has no removal yet, so the state is built by hand.
        {
            let mut inner = g.inner.borrow_mut();
            inner.workers[0].engines.clear();
            inner.workers.push(Worker::blocked(1));
            inner.workers[1].engines.push(a);
            inner.slots[a.0 as usize].worker = 1;
        }
        sim.run_until(Nanos::from_micros(3));
        g.wake(&mut sim, a);
        // The tick at 10 us merges the idle secondary into the primary;
        // with one engine on the primary nothing is left to rebalance,
        // and the simulation drains without `stop()`.
        sim.run();
        assert_eq!(worker_of(&g, a), 0);
        assert!(sim.now() < Nanos::from_micros(20), "drained at {}", sim.now());

        sim.run_until(Nanos::from_micros(123));
        let b = second_engine_joins(&mut sim, &g, Nanos::from_micros(123));
        sim.run_until(Nanos::from_micros(130) - Nanos(1));
        assert_eq!(worker_of(&g, b), 0);
        sim.run_until(Nanos::from_micros(130));
        assert_eq!(worker_of(&g, b), 1, "scaled out by the tick at 130 us");
    }

    #[test]
    fn stop_ends_the_rebalancer_for_good() {
        let mut sim = Sim::new();
        let g = compacting_group(Nanos::from_micros(1), Nanos::from_millis(50));
        g.add_engine(Box::new(CountingEngine::new("a", Nanos(500))));
        g.add_engine(Box::new(CountingEngine::new("b", Nanos(500))));
        g.start(&mut sim);
        sim.run_until(Nanos::from_micros(25));
        assert_eq!(sim.events_executed(), 2, "two engines: ticks at 10 and 20 us");
        g.stop();
        sim.run();
        // Nothing re-arms it: an engine that the rebalancer would move
        // stays on the primary and the simulation still drains.
        let c = second_engine_joins(&mut sim, &g, Nanos::from_micros(30));
        sim.run();
        assert_eq!(worker_of(&g, c), 0);
        assert_eq!(workers(&g), 1);
        assert_eq!(processed(&g, c), 40);
    }

    #[test]
    fn compacting_blocks_after_idle_and_rewakes() {
        let mut sim = Sim::new();
        let g = compacting_group(Nanos::from_micros(50), Nanos::from_micros(100));
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(500))));
        g.start(&mut sim);
        inject(&g, id, Nanos::ZERO, 1);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_millis(1));
        // Long idle: the primary should have blocked, capping spin CPU.
        let cpu_at_1ms = g.cpu(sim.now());
        assert!(
            cpu_at_1ms.spin < Nanos::from_micros(300),
            "spin CPU {:?} should be bounded by idle_block",
            cpu_at_1ms.spin
        );
        // Blocked, the worker burns nothing more while idle.
        sim.run_until(Nanos::from_micros(1500));
        let cpu_at_1500us = g.cpu(sim.now()).total();
        assert_eq!(cpu_at_1500us, cpu_at_1ms.total(), "worker blocked after idling");
        // Work arrives again: the blocked worker wakes and processes.
        inject(&g, id, sim.now(), 3);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_millis(2));
        assert_eq!(processed(&g, id), 4);
    }

    #[test]
    fn per_core_attribution_sums_to_group_totals_in_every_mode() {
        let modes = [
            SchedulingMode::Dedicated { cores: vec![0, 1] },
            SchedulingMode::Spreading,
            SchedulingMode::Compacting {
                slo: Nanos::from_micros(5),
                rebalance_poll: Nanos::from_micros(10),
                idle_block: Nanos::from_micros(100),
            },
        ];
        for mode in modes {
            let mut sim = Sim::new();
            let g = GroupHandle::new(
                GroupConfig {
                    name: "attr".into(),
                    mode: mode.clone(),
                    class: None,
                },
                machine(),
                CpuAccountant::new(),
            );
            let a = g.add_engine(Box::new(CountingEngine::new("a", Nanos(800))));
            let b = g.add_engine(Box::new(CountingEngine::new("b", Nanos(800))));
            g.start(&mut sim);
            for round in 0..30u64 {
                let at = Nanos::from_micros(round * 15);
                let (g2, a2, b2) = (g.clone(), a, b);
                sim.schedule_at(at, move |sim| {
                    inject(&g2, a2, sim.now(), 4);
                    inject(&g2, b2, sim.now(), 4);
                    g2.wake(sim, a2);
                    g2.wake(sim, b2);
                });
            }
            sim.run_until(Nanos::from_millis(2));
            g.stop();
            sim.run();
            let now = sim.now();
            let total = g.cpu(now);
            let per_core = g.core_cpu(now);
            let core_sum: Nanos = per_core
                .iter()
                .map(|(_, c)| c.total())
                .fold(Nanos::ZERO, |x, y| x + y);
            assert_eq!(
                core_sum,
                total.total(),
                "{}: per-core CPU must sum to the group total exactly",
                g.mode_label()
            );
            let busy_sum: Nanos = per_core
                .iter()
                .map(|(_, c)| c.busy)
                .fold(Nanos::ZERO, |x, y| x + y);
            assert_eq!(busy_sum, total.engine, "{}: busy split", g.mode_label());
            let engine_sum: Nanos = g
                .engine_cpu()
                .iter()
                .map(|(_, ns)| *ns)
                .fold(Nanos::ZERO, |x, y| x + y);
            assert_eq!(
                engine_sum, total.engine,
                "{}: per-engine CPU must sum to GroupCpu::engine",
                g.mode_label()
            );
            assert_eq!(processed(&g, a), 120, "{}", g.mode_label());
            assert_eq!(processed(&g, b), 120, "{}", g.mode_label());
        }
    }

    #[test]
    fn slowed_engine_burns_scaled_cpu_and_restart_heals() {
        // Engine CPU of 20 items, the engine slowed by `factor` and, if
        // `restart`, replaced by a successor before the work arrives.
        fn engine_cpu(factor: Option<f64>, restart: bool) -> Nanos {
            let mut sim = Sim::new();
            let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
            if let Some(f) = factor {
                g.slow_engine(id, f);
            }
            g.start(&mut sim);
            if restart {
                g.suspend_engine(&mut sim, id);
                let old = g.take_engine(id).expect("suspended");
                g.resume_engine(&mut sim, id, old);
            }
            inject(&g, id, sim.now(), 20);
            g.wake(&mut sim, id);
            sim.run();
            assert_eq!(processed(&g, id), 20, "slowdown must not drop work");
            g.cpu(sim.now()).engine
        }
        let healthy = engine_cpu(None, false);
        let slowed = engine_cpu(Some(4.0), false);
        assert!(
            slowed >= healthy * 3,
            "4x slowdown should inflate engine CPU: healthy {healthy}, slowed {slowed}"
        );

        // A factor below 1 is clamped: a slowdown never speeds up.
        assert_eq!(engine_cpu(Some(0.5), false), healthy);
        // A supervisor restart replaces the degraded process: the
        // factor resets to healthy.
        assert_eq!(engine_cpu(Some(4.0), true), engine_cpu(None, true));
        // Unknown ids are a no-op (over-approximate fault plans).
        let (g, _) = counting_group(SchedulingMode::Spreading);
        g.slow_engine(EngineId(99), 7.0);
    }

    #[test]
    fn try_with_engine_names_each_non_running_state() {
        fn refusal(g: &GroupHandle, id: EngineId) -> String {
            match g.try_with_engine(id, |_| ()) {
                Err(ControlError::Unavailable(why)) => why,
                other => panic!("expected Unavailable, got {other:?}"),
            }
        }
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        assert!(g.try_with_engine(id, |e| e.name().to_string()).is_ok());
        g.suspend_engine(&mut sim, id);
        assert_eq!(refusal(&g, id), "engine 0 suspended for upgrade");
        let old = g.take_engine(id).expect("suspended");
        assert_eq!(refusal(&g, id), "engine 0 suspended for upgrade");
        // A kill that lands mid-blackout outranks the suspension.
        g.kill_engine(id);
        assert_eq!(refusal(&g, id), "engine 0 crashed");
        g.resume_engine(&mut sim, id, old);
        assert!(g.try_with_engine(id, |_| ()).is_ok());
        g.kill_engine(id);
        assert_eq!(refusal(&g, id), "engine 0 crashed");
        assert_eq!(refusal(&g, EngineId(7)), "engine 7 removed");
    }

    #[test]
    fn fault_ops_on_unknown_engine_ids_are_noops() {
        // Over-approximate fault plans may name engines that were never
        // created; the group must absorb those without panicking.
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        let bogus = EngineId(id.0 + 41);
        g.kill_engine(bogus);
        g.stall_engine(&mut sim, bogus, Nanos::from_millis(1));
        assert!(g.engine_health(bogus).is_none());
        // The real engine is untouched.
        assert!(!g.engine_health(id).expect("real engine").crashed);
        assert!(g.try_with_engine(id, |_| ()).is_ok());
    }

    #[test]
    fn suspend_stops_scheduling_and_resume_restores() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
        g.start(&mut sim);
        g.suspend_engine(&mut sim, id);
        assert!(g.with_engine(id, |e| {
            e.as_any()
                .downcast_mut::<CountingEngine>()
                .expect("tests only build CountingEngine")
                .is_detached()
        }));
        inject(&g, id, sim.now(), 5);
        g.wake(&mut sim, id);
        sim.run();
        assert_eq!(processed(&g, id), 0, "suspended engine must not run");
        // Take state out, build "new version", resume.
        let mut old = g.take_engine(id).expect("suspended engine");
        let _state = old.serialize_state();
        let mut new_engine = CountingEngine::new("e0-v2", Nanos(500));
        for _ in 0..5 {
            new_engine.inject(sim.now());
        }
        g.resume_engine(&mut sim, id, Box::new(new_engine));
        sim.run();
        assert_eq!(processed(&g, id), 5);
    }

    #[test]
    fn killed_engine_stops_and_resume_revives() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
        g.start(&mut sim);
        inject(&g, id, sim.now(), 3);
        g.wake(&mut sim, id);
        sim.run();
        assert_eq!(processed(&g, id), 3);
        g.kill_engine(id);
        let health = g.engine_health(id).expect("slot kept");
        assert!(health.crashed);
        // Work and wakes against the corpse do nothing.
        g.wake(&mut sim, id);
        sim.run();
        let health = g.engine_health(id).expect("slot kept");
        assert_eq!(health.pending, 0, "crashed engine lost its state");
        // Supervisor-style revival: install a successor and resume.
        let mut revived = CountingEngine::new("e0-r", Nanos(500));
        revived.inject(sim.now());
        g.resume_engine(&mut sim, id, Box::new(revived));
        assert!(!g.engine_health(id).expect("slot kept").crashed);
        sim.run();
        assert_eq!(processed(&g, id), 1);
    }

    #[test]
    fn stalled_engine_stops_heartbeat_then_self_resumes() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Dedicated { cores: vec![0] });
        g.start(&mut sim);
        inject(&g, id, sim.now(), 2);
        g.wake(&mut sim, id);
        sim.run();
        let passed_at = g.engine_health(id).expect("slot").last_pass;
        // Wedge for 1ms, then inject more work mid-stall.
        g.stall_engine(&mut sim, id, Nanos::from_millis(1));
        inject(&g, id, sim.now(), 4);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_micros(500));
        let mid = g.engine_health(id).expect("slot");
        assert_eq!(mid.last_pass, passed_at, "no heartbeat progress while wedged");
        assert!(mid.pending >= 4, "work piles up on a wedged engine");
        assert_eq!(processed(&g, id), 2);
        // Stall lifts: the self-wake drains the backlog.
        sim.run_until(Nanos::from_millis(2));
        sim.run();
        assert_eq!(processed(&g, id), 6);
        assert!(g.engine_health(id).expect("slot").last_pass > passed_at);
    }

    /// An engine with nothing to do before `deadline` and no timer of
    /// its own: it relies on [`RunReport::next_deadline`].
    struct DeadlineEngine {
        deadline: Nanos,
        passes: Rc<RefCell<Vec<Nanos>>>,
    }

    impl Engine for DeadlineEngine {
        fn name(&self) -> &str {
            "deadline"
        }

        fn run(&mut self, sim: &mut Sim) -> RunReport {
            self.passes.borrow_mut().push(sim.now());
            RunReport {
                next_deadline: Some(self.deadline).filter(|d| *d > sim.now()),
                ..RunReport::idle(Nanos(costs::ENGINE_POLL_PASS_NS))
            }
        }

        fn pending_work(&self) -> usize {
            0
        }

        fn oldest_pending_age(&self, _now: Nanos) -> Nanos {
            Nanos::ZERO
        }

        fn serialize_state(&mut self) -> Vec<u8> {
            Vec::new()
        }

        fn detach(&mut self, _sim: &mut Sim) {}

        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_deadline_is_kept_while_the_workers_first_engine_is_suspended() {
        let mut sim = Sim::new();
        let g = compacting_group(Nanos::from_micros(50), Nanos::from_micros(100));
        let first = g.add_engine(Box::new(CountingEngine::new("upgrading", Nanos(500))));
        let deadline = Nanos::from_millis(1);
        let passes = Rc::new(RefCell::new(Vec::new()));
        let second = g.add_engine(Box::new(DeadlineEngine {
            deadline,
            passes: passes.clone(),
        }));
        g.start(&mut sim);
        g.suspend_engine(&mut sim, first);
        g.wake(&mut sim, second);
        sim.run_until(Nanos::from_millis(2));
        g.stop();
        sim.run();
        // One pass at the wake, one at the deadline (the worker has
        // blocked by then, so it is an interrupt wake-up late).
        let passes = passes.borrow();
        assert_eq!(passes.len(), 2, "passes at {passes:?}");
        assert!(
            passes[1] >= deadline && passes[1] < deadline + Nanos::from_micros(100),
            "second pass at {}, deadline {deadline}",
            passes[1]
        );
    }

    #[test]
    fn a_suspended_engines_deadline_is_not_waited_for() {
        let mut sim = Sim::new();
        let g = GroupHandle::new(
            GroupConfig::new("shared", SchedulingMode::Dedicated { cores: vec![0] }),
            machine(),
            CpuAccountant::new(),
        );
        g.add_engine(Box::new(CountingEngine::new("neighbour", Nanos(500))));
        let deadline = Nanos::from_millis(1);
        let passes = Rc::new(RefCell::new(Vec::new()));
        let upgrading = g.add_engine(Box::new(DeadlineEngine {
            deadline,
            passes: passes.clone(),
        }));
        assert_eq!(workers(&g), 1, "both on the one core");
        g.wake(&mut sim, upgrading);
        sim.run_until(Nanos::from_micros(10));
        g.suspend_engine(&mut sim, upgrading);
        // The deadline passes mid-upgrade. The worker wakes for it, has
        // nobody to run it for, and goes back to idle: it does not
        // poll-wait on a deadline that no pass of its own can clear.
        sim.run_until(deadline + Nanos::from_micros(10));
        assert_eq!(*passes.borrow(), [Nanos(costs::SPIN_PICKUP_NS)]);
        assert!(sim.events_executed() < 10, "{} events", sim.events_executed());
    }

    #[test]
    fn a_deadline_is_kept_when_the_workers_first_engine_is_moved() {
        let mut sim = Sim::new();
        let g = compacting_group(Nanos::from_micros(50), Nanos::from_micros(100));
        let first = g.add_engine(Box::new(CountingEngine::new("wedged", Nanos(500))));
        let deadline = Nanos::from_millis(1);
        let passes = Rc::new(RefCell::new(Vec::new()));
        let second = g.add_engine(Box::new(DeadlineEngine {
            deadline,
            passes: passes.clone(),
        }));
        g.start(&mut sim);
        // Wedged with a backlog, the first engine is past the SLO at a
        // rebalance and is scaled out to a worker of its own.
        g.stall_engine(&mut sim, first, Nanos::from_millis(3));
        inject(&g, first, sim.now(), 4);
        g.wake(&mut sim, second);
        sim.run_until(Nanos::from_micros(500));
        assert_eq!(workers(&g), 2, "the wedged engine was scaled out");
        assert_ne!(worker_of(&g, first), worker_of(&g, second));
        // The deadline wake is addressed to the engine that reported the
        // deadline, so it reaches the worker that still holds it.
        sim.run_until(Nanos::from_millis(2));
        {
            let passes = passes.borrow();
            assert_eq!(passes.len(), 2, "passes at {passes:?}");
            assert!(
                passes[1] >= deadline && passes[1] < deadline + Nanos::from_micros(100),
                "second pass at {}, deadline {deadline}",
                passes[1]
            );
        }
        g.stop();
        sim.run();
        assert_eq!(processed(&g, first), 4);
    }

    /// An engine fed through a shared inbox, as a queue pair feeds a
    /// Pony engine: each pass takes the whole inbox. Its first pass
    /// also rings `doorbells` from inside the pass: it queues one
    /// command in each inbox and then wakes that inbox's engine.
    struct InboxEngine {
        inbox: Rc<Cell<usize>>,
        passes: Rc<RefCell<Vec<(Nanos, usize)>>>,
        doorbells: Vec<(WeakGroupHandle, EngineId, Rc<Cell<usize>>)>,
    }

    impl InboxEngine {
        fn new() -> Self {
            InboxEngine {
                inbox: Rc::default(),
                passes: Rc::default(),
                doorbells: Vec::new(),
            }
        }
    }

    impl Engine for InboxEngine {
        fn name(&self) -> &str {
            "inbox"
        }

        fn run(&mut self, sim: &mut Sim) -> RunReport {
            let taken = self.inbox.take();
            self.passes.borrow_mut().push((sim.now(), taken));
            for (group, id, inbox) in self.doorbells.drain(..) {
                inbox.set(inbox.get() + 1);
                group.wake(sim, id);
            }
            RunReport {
                work_done: taken > 0,
                pending: self.inbox.get(),
                ..RunReport::idle(Nanos(costs::ENGINE_POLL_PASS_NS))
            }
        }

        fn pending_work(&self) -> usize {
            self.inbox.get()
        }

        fn oldest_pending_age(&self, _now: Nanos) -> Nanos {
            Nanos::ZERO
        }

        fn serialize_state(&mut self) -> Vec<u8> {
            Vec::new()
        }

        fn detach(&mut self, _sim: &mut Sim) {}

        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_wake_from_inside_a_pass_schedules_only_an_idle_worker() {
        let mut sim = Sim::new();
        let g = GroupHandle::new(
            GroupConfig::new("doorbells", SchedulingMode::Spreading),
            machine(),
            CpuAccountant::new(),
        );
        // Spreading: one worker per engine, both blocked.
        let mut ringer = InboxEngine::new();
        let neighbour = InboxEngine::new();
        let (mine, theirs) = (ringer.passes.clone(), neighbour.passes.clone());
        let (own, next) = (EngineId(0), EngineId(1));
        ringer.doorbells = vec![
            (g.downgrade(), own, ringer.inbox.clone()),
            (g.downgrade(), next, neighbour.inbox.clone()),
        ];
        assert_eq!(g.add_engine(Box::new(ringer)), own);
        assert_eq!(g.add_engine(Box::new(neighbour)), next);
        assert_ne!(worker_of(&g, own), worker_of(&g, next));
        g.start(&mut sim);
        g.wake(&mut sim, own);
        sim.run();

        // The ringer's own wake found its worker scheduled and did
        // nothing. Each later pass is the one the previous report asked
        // for, one pass's CPU later: the second for the command queued
        // before the wake, which it picks up, the third because the
        // second did work.
        let pass = Nanos(costs::ENGINE_POLL_PASS_NS);
        let t = mine.borrow()[0].0;
        assert_eq!(
            *mine.borrow(),
            [(t, 0), (t + pass, 1), (t + pass + pass, 0)]
        );
        // The neighbour's worker was blocked: the wake scheduled it, and
        // its first pass takes the command queued before the wake.
        let u = theirs.borrow()[0].0;
        assert!(u > t, "woken from the ringer's first pass");
        assert_eq!(*theirs.borrow(), [(u, 1), (u + pass, 0)]);
        // Two interrupt wake-ups, one per blocked worker; none for the
        // ringer's wake of its own running worker. (A wake that
        // re-entered the group would have panicked on its borrow.)
        let one = Nanos(costs::INTERRUPT_NS + costs::CONTEXT_SWITCH_NS);
        assert_eq!(g.cpu(sim.now()).wake_overhead, one + one);
    }

    #[test]
    fn a_wake_of_a_scheduled_worker_or_a_dropped_group_does_nothing() {
        let mut sim = Sim::new();
        let (g, id) = counting_group(SchedulingMode::Spreading);
        g.start(&mut sim);
        g.wake(&mut sim, id);
        let cpu = g.cpu(sim.now()).total();
        let weak = g.downgrade();
        weak.wake(&mut sim, id);
        assert_eq!(sim.pending(), 1);
        assert_eq!(g.cpu(sim.now()).total(), cpu, "no second wake-up charged");
        drop(g);
        sim.run();
        weak.wake(&mut sim, id);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cpu_charged_to_engine_container() {
        let mut sim = Sim::new();
        let acct = CpuAccountant::new();
        let g = GroupHandle::new(
            GroupConfig {
                name: "acct".into(),
                mode: SchedulingMode::Spreading,
                class: None,
            },
            machine(),
            acct.clone(),
        );
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(500))));
        g.start(&mut sim);
        inject(&g, id, sim.now(), 4);
        g.wake(&mut sim, id);
        sim.run();
        // CountingEngine charges to the default "snap-system" container.
        assert!(acct.usage("snap-system") >= 2_000);
    }
}
