//! Continuous observability for the Snap reproduction.
//!
//! Snap's operability story is *always-on* introspection: per-engine
//! CPU attribution (Table 1), scheduling-mode efficiency comparisons by
//! tail latency *and* CPU consumed (§4, Fig. 5), and monitoring that
//! drives upgrade and degradation decisions. The telemetry registry
//! (PR 3) and causal tracer (PR 5) are point-in-time; this crate
//! records *trajectories*:
//!
//! * [`recorder::FlightRecorder`] — the last stage of the telemetry
//!   pipeline (sources → registry → recorder): on a deterministic
//!   sim-time cadence it polls a [`snap_telemetry::StatsModule`]'s
//!   sources and folds the window since the last tick
//!   ([`snap_telemetry::Snapshot::delta`]) into bounded ring-buffered
//!   time series: counters become per-tick rates, gauges keep their
//!   last reading, histograms reduce to per-window quantile digests.
//!   `Testbed::flight_recorder` samples a module watching every host's
//!   engine group, so the per-core busy/spin/wake/idle split and
//!   per-engine CPU (`cpu.<host>.*`, named in `snap_telemetry`'s table)
//!   are series from the first tick.
//! * [`slo::SloEngine`] — declarative objectives (success ratio,
//!   latency-below-threshold) evaluated over recorded series into
//!   multi-window burn-rate alerts, pushed to
//!   [`snap_health::AdvisoryLog`] as advisory signals.
//! * [`timeline::Timeline`] — a deterministic Chrome-trace (Perfetto
//!   compatible) JSON exporter merging PR-5 span trees, CPU lanes, and
//!   fault/alert instants onto one virtual-time axis.
//!
//! Determinism contract: everything here *reads* modeled state and
//! writes only its own registry — attaching a recorder over pure-read
//! sources to a run never changes modeled time (pinned by the repo
//! benchmark's `obs.attach_pct` digest gate; the alert and timeline
//! behaviour by `tests/obs.rs`). All JSON output is hand-rolled with
//! sorted keys: same seed ⇒ byte-identical files.

// Observability is control-plane code: degrade into typed errors or
// defaults, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod module;
pub mod recorder;
pub mod slo;
pub mod timeline;

pub use module::ObsModule;
pub use recorder::{FlightRecorder, PointValue, QuantileDigest, RecorderConfig};
pub use slo::{AlertEvent, AlertState, Objective, SloEngine, SloSpec};
pub use timeline::Timeline;
