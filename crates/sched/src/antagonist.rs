//! Antagonist workloads from the paper's evaluation (§5.2–5.3).
//!
//! * [`ComputeAntagonist`] — "background antagonist compute processes
//!   ... continually wake threads to perform MD5 computations. They
//!   place enormous pressure on both the hardware ... and software
//!   scheduling systems" (Fig. 6d).
//! * [`MmapAntagonist`] — "a harsh antagonist that spawns threads to
//!   repeatedly mmap() and munmap() 50MB buffers ... a pathology found
//!   in many Linux kernels in which certain code regions cannot be
//!   preempted by any userspace process" (Fig. 7b).
//!
//! Both drive a shared [`Machine`] from the simulator's event loop.

use std::cell::RefCell;
use std::rc::Rc;

use snap_sim::{dist, Nanos, Rng, Sim};

use crate::machine::Machine;

/// A shared, simulator-friendly handle to a [`Machine`].
pub type MachineHandle = Rc<RefCell<Machine>>;

/// Compute antagonist: keeps `threads` CFS workers churning, soaking
/// idle cores and inflating CFS run-queue delays.
pub struct ComputeAntagonist {
    /// Number of antagonist worker threads.
    pub threads: u32,
    /// Mean burst length of each MD5 computation slice.
    pub burst: Nanos,
}

impl Default for ComputeAntagonist {
    fn default() -> Self {
        ComputeAntagonist {
            threads: 16,
            burst: Nanos::from_micros(50),
        }
    }
}

impl ComputeAntagonist {
    /// Starts the antagonist: registers pressure on the machine and
    /// keeps random cores busy with short slices until `until`.
    pub fn start(&self, sim: &mut Sim, machine: MachineHandle, seed: u64, until: Nanos) {
        machine.borrow_mut().set_compute_antagonists(self.threads);
        let burst = self.burst;
        let threads = self.threads;
        let rng = Rc::new(RefCell::new(Rng::new(seed).stream(0xAD5)));
        // Each tick, every antagonist thread that found a core burns a
        // burst on a random core. Ticks are spaced one burst apart so
        // pressure is continuous but the event count stays modest.
        snap_sim::event::every(sim, Nanos::ZERO, burst, move |sim| {
            if sim.now() >= until {
                machine.borrow_mut().set_compute_antagonists(0);
                return false;
            }
            let mut m = machine.borrow_mut();
            let cores = m.num_cores();
            let mut rng = rng.borrow_mut();
            // Deterministic core assignment keeps every core pressed
            // when threads >= cores; slice lengths are jittered but
            // never shorter than the tick, so pressure has no gaps.
            for i in 0..threads.min(cores as u32) {
                let core = i as usize % cores;
                let jitter = dist::exponential(&mut rng, burst.as_nanos() as f64) as u64;
                m.run_slice(core, sim.now(), burst + Nanos(jitter / 2));
            }
            true
        });
    }
}

/// mmap/munmap antagonist: opens non-preemptible kernel sections on
/// random cores at a configured rate.
pub struct MmapAntagonist {
    /// Mean gap between sections.
    pub mean_gap: Nanos,
    /// Mean non-preemptible section length (zap_page_range-style
    /// teardown of a 50 MB mapping runs for milliseconds).
    pub mean_section: Nanos,
}

impl Default for MmapAntagonist {
    fn default() -> Self {
        MmapAntagonist {
            mean_gap: Nanos::from_micros(400),
            mean_section: Nanos::from_millis(2),
        }
    }
}

impl MmapAntagonist {
    /// Starts the antagonist until `until`.
    pub fn start(&self, sim: &mut Sim, machine: MachineHandle, seed: u64, until: Nanos) {
        let mean_gap = self.mean_gap;
        let mean_section = self.mean_section;
        let rng = Rc::new(RefCell::new(Rng::new(seed).stream(0x33AA)));
        fn tick(
            sim: &mut Sim,
            machine: MachineHandle,
            rng: Rc<RefCell<Rng>>,
            mean_gap: Nanos,
            mean_section: Nanos,
            until: Nanos,
        ) {
            if sim.now() >= until {
                return;
            }
            let gap;
            {
                let mut r = rng.borrow_mut();
                let mut m = machine.borrow_mut();
                let core = r.below(m.num_cores() as u64) as usize;
                let section =
                    dist::exponential(&mut r, mean_section.as_nanos() as f64) as u64;
                m.begin_nonpreemptible(core, sim.now() + Nanos(section));
                gap = dist::exponential(&mut r, mean_gap.as_nanos() as f64) as u64;
            }
            sim.schedule_in(Nanos(gap.max(1)), move |sim| {
                tick(sim, machine, rng, mean_gap, mean_section, until);
            });
        }
        let machine2 = machine;
        sim.schedule_at(Nanos::ZERO.max(sim.now()), move |sim| {
            tick(sim, machine2, rng, mean_gap, mean_section, until);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::SchedClass;

    #[test]
    fn compute_antagonist_registers_and_expires() {
        let mut sim = Sim::new();
        let machine = Rc::new(RefCell::new(Machine::new(4, 1)));
        let antagonist = ComputeAntagonist {
            threads: 8,
            burst: Nanos::from_micros(100),
        };
        antagonist.start(&mut sim, machine.clone(), 7, Nanos::from_millis(1));
        sim.run_until(Nanos::from_micros(500));
        {
            let m = machine.borrow();
            let now = sim.now();
            assert!(
                m.busy_totals().iter().all(|&busy| busy >= now),
                "hogs should soak all cores"
            );
        }
        sim.run_until(Nanos::from_millis(3));
        sim.run();
        // After expiry, pressure is gone.
        let mut m = machine.borrow_mut();
        let (_, lat) = m.interrupt_wakeup(
            Nanos::from_millis(1_000),
            SchedClass::Cfs { nice: 0 },
            Some(0),
        );
        assert!(lat < Nanos::from_micros(50), "post-expiry wake {lat}");
    }

    #[test]
    fn mmap_antagonist_creates_nonpreemptible_sections() {
        let mut sim = Sim::new();
        let machine = Rc::new(RefCell::new(Machine::new(2, 1)));
        MmapAntagonist::default().start(&mut sim, machine.clone(), 9, Nanos::from_millis(50));
        let mut saw_section = false;
        for step in 1..100u64 {
            sim.run_until(Nanos::from_micros(step * 500));
            // A wake that waits out a section takes longer than the
            // slowest one on an idle core (irq, deep C-state exit, MQ).
            let mut m = machine.borrow_mut();
            let now = sim.now();
            let class = SchedClass::microquanta_default();
            let mut wake = |c| m.interrupt_wakeup(now, class, Some(c)).1;
            if (0..2).any(|c| wake(c) > Nanos::from_micros(50)) {
                saw_section = true;
                break;
            }
        }
        assert!(saw_section, "antagonist never opened a section");
    }

    #[test]
    fn mmap_antagonist_stops_at_deadline() {
        let mut sim = Sim::new();
        let machine = Rc::new(RefCell::new(Machine::new(2, 1)));
        MmapAntagonist::default().start(&mut sim, machine.clone(), 9, Nanos::from_millis(5));
        sim.run();
        // All events drained: the generator stopped itself.
        assert!(sim.now() < Nanos::from_millis(1_000));
    }
}
