//! `snap-apps`: application workloads over Snap transports.
//!
//! Two layers. The **sockets facade** ([`socket`], [`transport`]) gives
//! simulated applications a POSIX-flavored byte-stream API —
//! [`socket::SnapSocket`] / [`socket::Listener`] with non-blocking and
//! sim-time-deadline receives — behind a [`transport::Transport`] trait
//! with two interchangeable backends: the kernel-TCP model
//! (`snap_tcp::stack::TcpHost`) and the Pony Express client
//! (`PonyCommand` message ops). The same application code runs over
//! either; the backend is picked per app at testbed construction.
//!
//! The **workload library** ([`dag`], [`kv`], [`stream`], [`pool`])
//! runs application shapes over the facade: declarative microservice
//! RPC DAGs with fan-out/fan-in and per-stage service-time
//! distributions, a KV cache with Zipf hot-key skew, an open-loop
//! record streamer, and a closed-loop N:1 client pool (the incast
//! driver) — each a [`workload::Workload`], so any mix of them runs
//! under one [`workload::drive`] on shared hosts and fails with one
//! [`workload::WorkloadError`].
//!
//! Everything is driven by the discrete-event simulator: deadlines,
//! backoffs and service times are virtual [`snap_sim::Nanos`], never
//! wall time. The [`SimPump`] trait abstracts "advance virtual time";
//! [`workload::poll_until`] is the one loop that alternates a step
//! with it, under every blocking-style call (`recv_deadline`, the
//! one-sided lookups, `drive`).

pub mod dag;
pub mod framing;
pub mod kv;
pub mod pool;
pub mod socket;
pub mod stream;
pub mod transport;
pub mod workload;

use snap_sim::Sim;

/// Advances the simulation on behalf of a blocking-style facade call.
///
/// Implemented by harnesses that own the [`Sim`] (the root crate's
/// `Testbed` implements it); [`workload::poll_until`] alternates
/// polling with `pump_us` so every timeout is virtual time.
pub trait SimPump {
    /// The simulator being driven.
    fn sim_mut(&mut self) -> &mut Sim;
    /// Runs the simulation forward by `us` microseconds of virtual
    /// time.
    fn pump_us(&mut self, us: u64);
}
