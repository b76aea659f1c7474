//! Intel I/OAT DMA copy-engine model (§3.4).
//!
//! "Pony Express exploits stateless offloads, including the Intel I/OAT
//! DMA device to offload memory copy operations. ... the asynchronous
//! interactions around DMA \[are\] a natural fit for Snap, with its
//! continuously-executing packet processing pipelines."
//!
//! The model charges the engine only the descriptor setup cost
//! ([`snap_sim::costs::IOAT_SETUP_NS`]); the copy itself proceeds
//! off-CPU at [`snap_sim::costs::IOAT_BYTES_PER_NS`] on a single
//! channel (FIFO), and a completion callback fires when done — exactly
//! the contract the Table 1 I/OAT row depends on.

use std::cell::RefCell;
use std::rc::Rc;

use snap_sim::costs;
use snap_sim::{Nanos, Sim};

/// Counters for a copy engine.
#[derive(Debug, Clone, Default)]
pub struct CopyEngineStats {
    /// Copies submitted.
    pub submitted: u64,
    /// Copies completed.
    pub completed: u64,
    /// Bytes copied.
    pub bytes: u64,
}

struct Inner {
    /// FIFO channel occupancy: when the in-flight copies will drain.
    busy_until: Nanos,
    stats: CopyEngineStats,
}

/// An asynchronous DMA copy engine (one channel).
#[derive(Clone)]
pub struct CopyEngine {
    inner: Rc<RefCell<Inner>>,
}

impl Default for CopyEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CopyEngine {
    /// Creates an idle copy engine.
    pub fn new() -> Self {
        CopyEngine {
            inner: Rc::new(RefCell::new(Inner {
                busy_until: Nanos::ZERO,
                stats: CopyEngineStats::default(),
            })),
        }
    }

    /// CPU cost the submitting engine pays per copy (descriptor setup
    /// and completion handling); the data movement itself is off-CPU.
    pub fn cpu_cost(&self) -> Nanos {
        Nanos(costs::IOAT_SETUP_NS)
    }

    /// Submits an asynchronous copy of `bytes`; `on_done` fires when
    /// the DMA completes.
    pub fn submit(&self, sim: &mut Sim, bytes: u64, on_done: impl FnOnce(&mut Sim) + 'static) {
        let done_at = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.submitted += 1;
            inner.stats.bytes += bytes;
            let start = inner.busy_until.max(sim.now());
            let done = start + Nanos((bytes as f64 / costs::IOAT_BYTES_PER_NS).ceil() as u64);
            inner.busy_until = done;
            done
        };
        let engine = self.clone();
        sim.schedule_at(done_at, move |sim| {
            engine.inner.borrow_mut().stats.completed += 1;
            on_done(sim);
        });
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CopyEngineStats {
        self.inner.borrow().stats.clone()
    }

    /// Earliest time a newly submitted copy would start.
    pub fn busy_until(&self) -> Nanos {
        self.inner.borrow().busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn copy_completes_after_transfer_time() {
        let mut sim = Sim::new();
        let ce = CopyEngine::new();
        let done_at = Rc::new(Cell::new(Nanos::ZERO));
        let d = done_at.clone();
        // 16000 bytes at 16 B/ns = 1000 ns.
        ce.submit(&mut sim, 16_000, move |sim| d.set(sim.now()));
        sim.run();
        assert_eq!(done_at.get(), Nanos(1_000));
        let s = ce.stats();
        assert_eq!((s.submitted, s.completed, s.bytes), (1, 1, 16_000));
    }

    #[test]
    fn channel_serializes_copies() {
        let mut sim = Sim::new();
        let ce = CopyEngine::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let t = times.clone();
            ce.submit(&mut sim, 16_000, move |sim| t.borrow_mut().push(sim.now()));
        }
        sim.run();
        assert_eq!(*times.borrow(), vec![Nanos(1_000), Nanos(2_000), Nanos(3_000)]);
    }

    #[test]
    fn cpu_cost_is_fixed_and_small() {
        let ce = CopyEngine::new();
        // The whole point of the offload: CPU cost is independent of
        // copy size and far below the inline copy cost for an MTU.
        assert_eq!(ce.cpu_cost(), Nanos(costs::IOAT_SETUP_NS));
        assert!(ce.cpu_cost() < costs::copy_cost(5_000));
    }

    #[test]
    fn idle_engine_starts_immediately() {
        let mut sim = Sim::new();
        sim.schedule_at(Nanos(500), |_| {});
        sim.run();
        let ce = CopyEngine::new();
        let done_at = Rc::new(Cell::new(Nanos::ZERO));
        let d = done_at.clone();
        ce.submit(&mut sim, 160, move |sim| d.set(sim.now()));
        sim.run();
        assert_eq!(done_at.get(), Nanos(510));
    }
}
