//! The one way to wait on virtual time, and the contract every
//! workload is driven through.
//!
//! A workload is a cooperative state machine over facade sockets: the
//! harness alternates its [`Workload::tick`] with slices of simulated
//! time until [`Workload::progress`] says it is finished or the
//! virtual-time budget runs out. [`poll_until`] is that alternation,
//! written once — socket deadline receives and the one-sided lookups
//! wait through it too — [`drive`] runs any number of workloads under
//! it against one simulator, and [`WorkloadError`] is the one way any
//! of them fails.

use snap_sim::{Nanos, Sim};

use crate::dag::DagError;
use crate::socket::SocketError;
use crate::SimPump;

/// Virtual-time slice between two polls of a socket or two rounds of
/// ticks. Short against every modeled service time and wire delay, so
/// an application reacts to a completion within 5 µs of it.
pub(crate) const POLL_SLICE_US: u64 = 5;

/// How a workload run fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// A facade socket failed, at wiring or mid-run.
    Socket(SocketError),
    /// The virtual-time budget expired first.
    Incomplete {
        /// [`Workload::name`] of the first unfinished workload, in the
        /// order they were handed to [`drive`].
        workload: &'static str,
        /// Its units of work finished by then.
        done: u64,
        /// The units it had to finish.
        expected: u64,
    },
    /// A KV value failed byte verification.
    Corrupt {
        /// The offending key.
        key: u64,
    },
    /// The DAG spec, or its wiring, is malformed.
    Spec(DagError),
}

impl From<SocketError> for WorkloadError {
    fn from(e: SocketError) -> Self {
        WorkloadError::Socket(e)
    }
}

/// What a driver needs of a workload. `begin` is not part of it: what
/// arms a workload (a start time, a load curve) differs, and happens
/// once, before it is handed to [`drive`].
pub trait Workload {
    /// A short stable name, for blame ([`WorkloadError::Incomplete`]).
    fn name(&self) -> &'static str;

    /// One cooperative step at `sim.now()`: inject what is due, move
    /// bytes through the facade sockets, answer what is ready. It may
    /// send, poll its sockets and read the clock; it must not advance
    /// the simulation, which the driver does between ticks so several
    /// workloads share one timeline.
    fn tick(&mut self, sim: &mut Sim) -> Result<(), WorkloadError>;

    /// `(done, expected)` in the workload's own unit of work (requests
    /// answered, bytes received); finished once `done >= expected`.
    fn progress(&self) -> (u64, u64);
}

/// Alternates `step` with `slice_us` of simulated time until `step`
/// yields a value (`Ok(Some)`) or fails, or until a step that yielded
/// nothing ends `budget` or more after the call began (`Ok(None)`).
/// The step runs first, so a zero budget still takes one.
pub fn poll_until<T, E>(
    pump: &mut dyn SimPump,
    slice_us: u64,
    budget: Nanos,
    mut step: impl FnMut(&mut Sim) -> Result<Option<T>, E>,
) -> Result<Option<T>, E> {
    let deadline = pump.sim_mut().now() + budget;
    loop {
        let yielded = step(pump.sim_mut())?;
        if yielded.is_some() || pump.sim_mut().now() >= deadline {
            return Ok(yielded);
        }
        pump.pump_us(slice_us);
    }
}

/// Runs `workloads` (already begun) against one simulator until all
/// are finished: each round ticks them in slice order, then 5 µs of
/// virtual time pass. Fails with the first tick error, or — when
/// `budget` of virtual time runs out — with
/// [`WorkloadError::Incomplete`] naming the first unfinished one.
pub fn drive(
    pump: &mut dyn SimPump,
    workloads: &mut [&mut dyn Workload],
    budget: Nanos,
) -> Result<(), WorkloadError> {
    poll_until(pump, POLL_SLICE_US, budget, |sim| {
        for w in workloads.iter_mut() {
            w.tick(sim)?;
        }
        Ok::<_, WorkloadError>(first_unfinished(workloads).is_none().then_some(()))
    })?;
    first_unfinished(workloads).map_or(Ok(()), Err)
}

fn first_unfinished(workloads: &[&mut dyn Workload]) -> Option<WorkloadError> {
    workloads.iter().find_map(|w| {
        let (done, expected) = w.progress();
        (done < expected).then_some(WorkloadError::Incomplete {
            workload: w.name(),
            done,
            expected,
        })
    })
}
