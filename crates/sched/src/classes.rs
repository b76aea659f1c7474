//! Kernel scheduling classes (§2.4.1).
//!
//! MicroQuanta "runs for a configurable runtime out of every period
//! time units, with the remaining CPU time available to other
//! CFS-scheduled tasks. ... MicroQuanta uses only per-CPU
//! high-resolution timers. This allows scalable time slicing at
//! microsecond granularity." [`MicroQuantaBudget`] enforces exactly that
//! contract over virtual time.

use snap_sim::costs;
use snap_sim::Nanos;

/// The scheduling class of a thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedClass {
    /// Linux CFS with a niceness in `[-20, 19]` (lower = more weight).
    Cfs {
        /// Niceness value; -20 is the most aggressive (Fig. 6d's
        /// baseline comparator).
        nice: i32,
    },
    /// The paper's MicroQuanta class: `runtime` out of every `period`,
    /// preempting CFS with bounded latency.
    MicroQuanta {
        /// Guaranteed runtime per period.
        runtime: Nanos,
        /// Period length.
        period: Nanos,
    },
    /// SCHED_FIFO-like: runs until it yields; used for dedicated-core
    /// engine threads.
    Fifo,
}

impl SchedClass {
    /// The default MicroQuanta parameters used for Snap engine threads.
    pub fn microquanta_default() -> SchedClass {
        SchedClass::MicroQuanta {
            runtime: Nanos(costs::MICROQUANTA_RUNTIME_NS),
            period: Nanos(costs::MICROQUANTA_PERIOD_NS),
        }
    }
}

/// Tracks a MicroQuanta thread's bandwidth: `runtime` of CPU out of
/// every `period`, throttled to the next period when exhausted.
#[derive(Debug, Clone)]
pub struct MicroQuantaBudget {
    runtime: Nanos,
    period: Nanos,
    period_start: Nanos,
    used: Nanos,
    /// Total time spent throttled (for fairness accounting).
    pub throttled_total: Nanos,
}

impl MicroQuantaBudget {
    /// Creates a budget; panics if runtime exceeds period or period is
    /// zero.
    pub fn new(runtime: Nanos, period: Nanos) -> Self {
        assert!(!period.is_zero(), "zero period");
        assert!(runtime <= period, "runtime {runtime} > period {period}");
        MicroQuantaBudget {
            runtime,
            period,
            period_start: Nanos::ZERO,
            used: Nanos::ZERO,
            throttled_total: Nanos::ZERO,
        }
    }

    /// Creates the default Snap engine budget.
    pub fn default_engine() -> Self {
        Self::new(
            Nanos(costs::MICROQUANTA_RUNTIME_NS),
            Nanos(costs::MICROQUANTA_PERIOD_NS),
        )
    }

    fn roll(&mut self, now: Nanos) {
        if now >= self.period_start + self.period {
            let periods = (now - self.period_start) / self.period;
            self.period_start += self.period * periods;
            self.used = Nanos::ZERO;
        }
    }

    /// Requests to run `duration` starting at `now`. Returns the time
    /// the slice may start: `now` if budget remains, else the start of
    /// the next period (throttling).
    ///
    /// The slice is charged to the budget; slices longer than the
    /// remaining runtime are allowed to finish (MicroQuanta enforces at
    /// slice granularity, like the real class's timer tick).
    pub fn request(&mut self, now: Nanos, duration: Nanos) -> Nanos {
        self.roll(now);
        let start = if self.used < self.runtime {
            now
        } else {
            let next = self.period_start + self.period;
            self.throttled_total += next - now;
            self.period_start = next;
            self.used = Nanos::ZERO;
            next
        };
        self.used += duration;
        start
    }

    /// Remaining runtime in the current period as of `now`.
    pub fn remaining(&mut self, now: Nanos) -> Nanos {
        self.roll(now);
        self.runtime.saturating_sub(self.used)
    }

    /// The configured share of a core (runtime/period).
    pub fn share(&self) -> f64 {
        self.runtime.as_nanos() as f64 / self.period.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_constructors() {
        assert_eq!(
            SchedClass::microquanta_default(),
            SchedClass::MicroQuanta {
                runtime: Nanos(costs::MICROQUANTA_RUNTIME_NS),
                period: Nanos(costs::MICROQUANTA_PERIOD_NS),
            }
        );
    }

    #[test]
    fn budget_allows_within_runtime() {
        let mut b = MicroQuantaBudget::new(Nanos(900), Nanos(1_000));
        assert_eq!(b.request(Nanos(0), Nanos(400)), Nanos(0));
        assert_eq!(b.request(Nanos(400), Nanos(400)), Nanos(400));
        assert_eq!(b.remaining(Nanos(800)), Nanos(100));
    }

    #[test]
    fn budget_throttles_to_next_period() {
        let mut b = MicroQuantaBudget::new(Nanos(500), Nanos(1_000));
        assert_eq!(b.request(Nanos(0), Nanos(500)), Nanos(0));
        // Budget exhausted: the next request is pushed to t=1000.
        assert_eq!(b.request(Nanos(500), Nanos(100)), Nanos(1_000));
        assert_eq!(b.throttled_total, Nanos(500));
    }

    #[test]
    fn budget_resets_each_period() {
        let mut b = MicroQuantaBudget::new(Nanos(500), Nanos(1_000));
        b.request(Nanos(0), Nanos(500));
        // A request in a later period sees a fresh budget.
        assert_eq!(b.request(Nanos(2_300), Nanos(100)), Nanos(2_300));
        assert_eq!(b.remaining(Nanos(2_300)), Nanos(400));
    }

    #[test]
    fn share_fraction() {
        let b = MicroQuantaBudget::new(Nanos(900_000), Nanos(1_000_000));
        assert!((b.share() - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "runtime")]
    fn runtime_over_period_panics() {
        MicroQuantaBudget::new(Nanos(2_000), Nanos(1_000));
    }
}
