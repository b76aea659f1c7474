//! Per-core machine model: power states, busy slices, non-preemptible
//! windows, and the wakeup-latency computation.
//!
//! The model is mechanistic: every latency is assembled from per-core
//! state transitions and the calibrated constants in
//! [`snap_sim::costs`], so the figure shapes (Fig. 6c/d, Fig. 7a/b)
//! *emerge* from core state rather than being sampled from a target
//! distribution.
//!
//! What is modeled per core:
//!
//! * **busy/idle**: a core is busy until `busy_until`; idle cores track
//!   `idle_since` and descend into a deep C-state after
//!   [`snap_sim::costs::CSTATE_DESCEND_NS`] (Fig. 7a).
//! * **non-preemptible kernel sections**: the mmap antagonist marks a
//!   core unpreemptible until a deadline; even MicroQuanta cannot run
//!   there until it ends (Fig. 7b, §5.3).
//! * **spin reservation**: a core running a spin-polling engine never
//!   idles and never descends (the compacting scheduler's "most
//!   compacted, least-loaded state spin-polls on a single core").
//! * **compute antagonist pressure**: a machine-wide count of
//!   CFS compute hogs; they keep otherwise-idle cores busy and add
//!   run-queue delay to CFS wakeups (Fig. 6d).

use snap_sim::costs;
use snap_sim::{dist, Nanos, Rng};

use crate::classes::SchedClass;

/// Index of a hardware thread on the machine.
pub type CoreId = usize;

#[derive(Debug, Clone)]
struct Core {
    busy_until: Nanos,
    idle_since: Nanos,
    nonpreempt_until: Nanos,
    /// Reserved by a spin-polling thread: never idle, never descends.
    spinning: bool,
}

impl Core {
    fn is_idle(&self, now: Nanos) -> bool {
        !self.spinning && self.busy_until <= now && self.nonpreempt_until <= now
    }
}

/// A machine: a set of hardware threads plus scheduling-relevant state.
pub struct Machine {
    cores: Vec<Core>,
    /// Cumulative busy nanoseconds charged per core via
    /// [`Machine::run_slice`] — the machine-level view of core
    /// occupancy (engines *and* antagonists), read by the observability
    /// layer's CPU attribution.
    busy_total: Vec<Nanos>,
    cstates_enabled: bool,
    /// Number of CFS compute-antagonist threads currently runnable.
    compute_antagonists: u32,
    rng: Rng,
}

impl Machine {
    /// Creates a machine with `num_cores` hardware threads, all idle at
    /// time zero, with C-states enabled.
    pub fn new(num_cores: usize, seed: u64) -> Self {
        assert!(num_cores > 0, "machine needs cores");
        Machine {
            cores: vec![
                Core {
                    busy_until: Nanos::ZERO,
                    idle_since: Nanos::ZERO,
                    nonpreempt_until: Nanos::ZERO,
                    spinning: false,
                };
                num_cores
            ],
            busy_total: vec![Nanos::ZERO; num_cores],
            cstates_enabled: true,
            compute_antagonists: 0,
            rng: Rng::new(seed).stream(0x5CED),
        }
    }

    /// Number of hardware threads.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Enables or disables deep C-states (Fig. 7a's variable).
    pub fn set_cstates_enabled(&mut self, enabled: bool) {
        self.cstates_enabled = enabled;
    }

    /// Sets the number of runnable CFS compute-antagonist threads
    /// (Fig. 6d's MD5 workers). They soak idle cores and add run-queue
    /// latency to CFS wakeups.
    pub fn set_compute_antagonists(&mut self, n: u32) {
        self.compute_antagonists = n;
    }

    /// Marks a core as reserved by a spin-polling thread.
    pub fn set_spinning(&mut self, core: CoreId, spinning: bool) {
        self.cores[core].spinning = spinning;
    }

    /// Records that `core` executes work for `duration` starting `now`
    /// (extends any current slice).
    pub fn run_slice(&mut self, core: CoreId, now: Nanos, duration: Nanos) {
        self.busy_total[core] += duration;
        let c = &mut self.cores[core];
        let start = c.busy_until.max(now);
        c.busy_until = start + duration;
        c.idle_since = c.busy_until;
    }

    /// Cumulative busy time per core, indexed by [`CoreId`], charged via
    /// [`Machine::run_slice`].
    pub fn busy_totals(&self) -> &[Nanos] {
        &self.busy_total
    }

    /// Marks a core as inside a non-preemptible kernel section until
    /// `until` (the mmap antagonist's hook, §5.3).
    pub fn begin_nonpreemptible(&mut self, core: CoreId, until: Nanos) {
        let c = &mut self.cores[core];
        c.nonpreempt_until = c.nonpreempt_until.max(until);
        c.idle_since = c.nonpreempt_until.max(c.idle_since);
    }

    /// The C-state exit penalty an interrupt pays on `core` at `now`.
    fn cstate_exit(&self, core: CoreId, now: Nanos) -> Nanos {
        let c = &self.cores[core];
        if !c.is_idle(now) {
            return Nanos::ZERO;
        }
        if !self.cstates_enabled {
            return Nanos(costs::C1_EXIT_NS);
        }
        let idle_for = now.saturating_sub(c.idle_since);
        if idle_for >= Nanos(costs::CSTATE_DESCEND_NS) {
            Nanos(costs::CSTATE_EXIT_NS)
        } else {
            Nanos(costs::C1_EXIT_NS)
        }
    }

    /// Picks the core an interrupt lands on: NIC irq affinity is static
    /// in practice, so we hash by `affinity_hint`, falling back to a
    /// uniform pick.
    fn irq_target(&mut self, affinity_hint: Option<u64>) -> CoreId {
        match affinity_hint {
            Some(h) => (h % self.cores.len() as u64) as usize,
            None => self.rng.below(self.cores.len() as u64) as usize,
        }
    }

    /// Computes the latency from "packet delivered, interrupt raised"
    /// to "woken thread running on a core", and accounts the target
    /// core as busy from then on (the caller adds its own service time
    /// via [`Machine::run_slice`]).
    ///
    /// Returns `(core, latency)`.
    pub fn interrupt_wakeup(
        &mut self,
        now: Nanos,
        class: SchedClass,
        affinity_hint: Option<u64>,
    ) -> (CoreId, Nanos) {
        let irq_core = self.irq_target(affinity_hint);
        // The interrupt handler itself must run on the target core:
        // pay C-state exit plus any non-preemptible remainder there.
        let mut latency = Nanos(costs::INTERRUPT_NS) + self.cstate_exit(irq_core, now);
        let nonpreempt_wait = self.cores[irq_core]
            .nonpreempt_until
            .saturating_sub(now + latency);
        latency += nonpreempt_wait;

        // Now the woken thread must get a core; the scheduler prefers
        // the interrupted core, spilling elsewhere if it is occupied.
        // The interrupt handler itself occupies the target core,
        // resetting its idle clock (frequent wakes keep cores out of
        // deep C-states; sparse wakes re-descend).
        {
            let c = &mut self.cores[irq_core];
            let handler_done = now + latency;
            c.busy_until = c.busy_until.max(handler_done);
            c.idle_since = c.idle_since.max(handler_done);
        }
        let run_core = self.pick_run_core(irq_core, now + latency);
        latency += match class {
            SchedClass::MicroQuanta { .. } | SchedClass::Fifo => {
                // Priority preemption via high-resolution timers: a
                // tightly bounded cost regardless of CFS load.
                Nanos(costs::MICROQUANTA_WAKEUP_NS)
            }
            SchedClass::Cfs { nice } => self.cfs_wakeup_delay(run_core, now + latency, nice),
        };
        (run_core, latency)
    }

    fn pick_run_core(&self, preferred: CoreId, at: Nanos) -> CoreId {
        if self.cores[preferred].is_idle(at) {
            return preferred;
        }
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_idle(at))
            .map(|(i, _)| i)
            .next()
            .unwrap_or(preferred)
    }

    /// CFS wakeup delay on `core` at time `at`. An idle machine wakes
    /// quickly; antagonist pressure adds run-queue delay with a heavy
    /// tail (Fig. 6d), because even nice -20 cannot preempt a running
    /// task before its slice check, and scheduler pile-ups happen.
    fn cfs_wakeup_delay(&mut self, core: CoreId, at: Nanos, nice: i32) -> Nanos {
        let free_cores = self.cores.iter().filter(|c| c.is_idle(at)).count() as u32;
        let contended = self.compute_antagonists > free_cores;
        if !contended && self.cores[core].is_idle(at) {
            return Nanos(costs::CFS_WAKEUP_IDLE_NS);
        }
        // Run-queue wait: scaled down by niceness weight (nice -20 gets
        // ~2x the preemption aggressiveness of nice 0 in this model).
        let nice_factor = 1.0 - (nice.clamp(-20, 19) as f64 / 40.0);
        let mean = costs::CFS_BUSY_WAIT_MEAN_NS as f64 * nice_factor;
        let mut delay = dist::exponential(&mut self.rng, mean);
        if self.compute_antagonists > 0
            && self.rng.chance(costs::CFS_ANTAGONIST_TAIL_PROB)
        {
            delay += self.rng.f64() * costs::CFS_ANTAGONIST_TAIL_NS as f64;
        }
        Nanos(delay as u64)
    }

    /// Latency for a spin-polling thread to notice new work: no
    /// interrupt, no scheduler — just the cache-line pickup.
    pub fn spin_pickup(&self) -> Nanos {
        Nanos(costs::SPIN_PICKUP_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(cores: usize) -> Machine {
        Machine::new(cores, 42)
    }

    #[test]
    fn idle_shallow_wakeup_is_fast() {
        let mut m = machine(4);
        // Fresh machine at t=0: cores idle since 0; at t=1us they have
        // not yet descended.
        let (_, lat) = m.interrupt_wakeup(
            Nanos::from_micros(1),
            SchedClass::microquanta_default(),
            Some(0),
        );
        let expect = costs::INTERRUPT_NS + costs::C1_EXIT_NS + costs::MICROQUANTA_WAKEUP_NS;
        assert_eq!(lat, Nanos(expect));
    }

    #[test]
    fn deep_idle_pays_cstate_exit() {
        let mut m = machine(4);
        let now = Nanos::from_millis(1); // long past the descend time
        let (_, lat) =
            m.interrupt_wakeup(now, SchedClass::microquanta_default(), Some(0));
        assert!(
            lat >= Nanos(costs::CSTATE_EXIT_NS),
            "deep idle wake {lat} below C6 exit"
        );
    }

    #[test]
    fn disabled_cstates_avoid_the_penalty() {
        let mut m = machine(4);
        m.set_cstates_enabled(false);
        let now = Nanos::from_millis(1);
        let (_, lat) =
            m.interrupt_wakeup(now, SchedClass::microquanta_default(), Some(0));
        assert!(lat < Nanos(costs::CSTATE_EXIT_NS));
    }

    #[test]
    fn busy_core_has_no_cstate_penalty() {
        let mut m = machine(1);
        let now = Nanos::from_millis(1);
        m.run_slice(0, now, Nanos::from_millis(10));
        let (_, lat) =
            m.interrupt_wakeup(now, SchedClass::microquanta_default(), Some(0));
        // Busy core: no C-state exit, just irq + MQ preemption.
        assert_eq!(
            lat,
            Nanos(costs::INTERRUPT_NS + costs::MICROQUANTA_WAKEUP_NS)
        );
    }

    #[test]
    fn nonpreemptible_section_delays_even_microquanta() {
        let mut m = machine(1);
        let now = Nanos::from_micros(10);
        m.begin_nonpreemptible(0, now + Nanos::from_millis(5));
        let (_, lat) =
            m.interrupt_wakeup(now, SchedClass::microquanta_default(), Some(0));
        assert!(
            lat >= Nanos::from_millis(4),
            "MQ wake should wait out the section, got {lat}"
        );
    }

    #[test]
    fn nonpreemptible_on_other_core_spills() {
        let mut m = machine(2);
        let now = Nanos::from_micros(10);
        m.begin_nonpreemptible(0, now + Nanos::from_millis(5));
        // irq lands on core 0 (stuck); the irq handler itself waits out
        // the section. This is the Fig. 7b spreading pathology: the
        // wake is only as good as the irq target core, even with a
        // healthy core sitting right next to it.
        let (_, lat) =
            m.interrupt_wakeup(now, SchedClass::microquanta_default(), Some(0));
        assert!(lat >= Nanos::from_millis(4));
        // An irq targeting the healthy core is fast.
        let (_, lat2) =
            m.interrupt_wakeup(now, SchedClass::microquanta_default(), Some(1));
        assert!(lat2 < Nanos::from_micros(50));
    }

    #[test]
    fn cfs_idle_machine_wakes_quickly() {
        let mut m = machine(4);
        let (_, lat) = m.interrupt_wakeup(
            Nanos::from_micros(1),
            SchedClass::Cfs { nice: 0 },
            Some(0),
        );
        assert!(lat <= Nanos::from_micros(20), "idle CFS wake {lat}");
    }

    #[test]
    fn antagonists_inflate_cfs_tail_but_not_microquanta() {
        let mut m = machine(4);
        m.set_compute_antagonists(16);
        let now = Nanos::from_millis(1);
        for c in 0..4 {
            m.run_slice(c, now, Nanos::from_millis(1_000)); // hogs everywhere
        }
        let mut cfs = Vec::new();
        let mut mq = Vec::new();
        for _ in 0..2_000 {
            cfs.push(m.interrupt_wakeup(now, SchedClass::Cfs { nice: -20 }, None).1);
            mq.push(
                m.interrupt_wakeup(now, SchedClass::microquanta_default(), None)
                    .1,
            );
        }
        cfs.sort();
        mq.sort();
        let cfs_p99 = cfs[(cfs.len() as f64 * 0.99) as usize];
        let mq_p99 = mq[(mq.len() as f64 * 0.99) as usize];
        assert!(
            cfs_p99 > mq_p99 * 10,
            "CFS p99 {cfs_p99} should dwarf MQ p99 {mq_p99}"
        );
    }

    #[test]
    fn spinning_core_never_descends() {
        let mut m = machine(2);
        m.set_spinning(0, true);
        let now = Nanos::from_millis(10);
        assert_eq!(m.cstate_exit(0, now), Nanos::ZERO);
        assert!(m.cstate_exit(1, now) > Nanos::ZERO, "the idle core does");
        assert_eq!(m.spin_pickup(), Nanos(costs::SPIN_PICKUP_NS));
    }

    #[test]
    fn run_slice_extends_busy() {
        let mut m = machine(1);
        m.run_slice(0, Nanos(100), Nanos(50));
        m.run_slice(0, Nanos(100), Nanos(50));
        // Second slice queues behind the first.
        assert!(!m.cores[0].is_idle(Nanos(199)));
        assert!(m.cores[0].is_idle(Nanos(200)));
    }

    #[test]
    fn busy_totals_accumulate_per_core() {
        let mut m = machine(2);
        m.run_slice(0, Nanos(100), Nanos(50));
        m.run_slice(0, Nanos(200), Nanos(25));
        m.run_slice(1, Nanos(100), Nanos(10));
        assert_eq!(m.busy_totals(), &[Nanos(75), Nanos(10)]);
    }

    #[test]
    fn irq_affinity_is_stable() {
        let mut m = machine(8);
        let a = m.irq_target(Some(13));
        let b = m.irq_target(Some(13));
        assert_eq!(a, b);
        assert_eq!(a, 13 % 8);
    }
}
