//! Gray-failure detection for the Snap reproduction (§5, §6).
//!
//! Snap's production reliability story leans on *probers* and health
//! signals: "a prober application that continually monitors the health
//! of the fleet" feeds detection machinery that reacts before customer
//! traffic notices. Crisp failures (crashes, partitions) are easy — the
//! supervisor's liveness checks and the transport's RTO already cover
//! them. The hard cases are *gray*: a link that delivers 90% of its
//! packets, a switch that jitters, an engine that is alive and
//! heartbeating but pathologically slow. Nothing in those failure modes
//! trips a binary liveness check.
//!
//! This crate is the passive core of the detection stack:
//!
//! * [`phi::PhiAccrual`] — a phi-accrual failure detector over probe
//!   arrivals (suspicion grows continuously with silence, instead of a
//!   binary timeout).
//! * [`monitor::HealthMonitor`] — per-target (link or engine) trackers
//!   combining phi, probe loss ratio, and latency degradation against a
//!   learned baseline into a [`monitor::Verdict`], with quarantine
//!   latching so each degradation episode fires exactly one reaction.
//!
//! It is deliberately dependency-light (simulation primitives only) and
//! side-effect free: the testbed wires probers that feed it and a sweep
//! loop that acts on its verdicts (supervisor restarts, fabric
//! quarantine). Determinism note — the monitor draws no randomness and
//! iterates targets in a fixed order, so attaching it to a healthy run
//! changes nothing about modeled time.

pub mod monitor;
pub mod phi;

pub use monitor::{HealthMonitor, HealthScore, MonitorConfig, Target, Verdict};
pub use phi::PhiAccrual;
