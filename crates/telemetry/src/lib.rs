//! Observability for the Snap reproduction: the first stage of the
//! telemetry pipeline (sources → registry → flight recorder).
//!
//! Snap's evaluation is driven by production dashboards: per-engine
//! op-rate time series (Fig. 8), tail-latency breakdowns (Fig. 6/7),
//! and an upgrade-blackout distribution (Fig. 9). This crate holds the
//! machine-level numbers those dashboards are drawn from:
//!
//! * **[`registry`]** — hierarchical [`Counter`]/[`Gauge`]/
//!   [`Histogram`](snap_sim::stats::Histogram) handles under dotted
//!   names (`engine.<app>.tx_packets`, `shm.<app>.s<sid>.cmd_depth`,
//!   `fabric.link.<a>-><b>.drops.partition`), with cheap per-scope
//!   views and point-in-time [`Snapshot`]s that diff (`delta`, the one
//!   window rule) and export to JSON or a human-readable table.
//! * **[`module`]** — [`StatsModule`], a control-plane module (same
//!   no-panic lint wall as the other Snap modules) holding one list of
//!   sources — engines read between passes, the fabric, supervisors,
//!   upgrade reports, admission controllers, engine groups — that one
//!   poll walks into the registry. Its own loop ([`StatsModule::start`])
//!   or a flight recorder's clock (`snap_obs::FlightRecorder`) drives
//!   the poll; never both.
//!
//! The datapath itself stays uninstrumented: engines keep their plain
//! `u64` counters, and all telemetry cost is concentrated in the
//! periodic control-plane poll, so instrumentation is measurably
//! near-free when snapshots are not taken (the repo benchmark's
//! `telemetry.attach_pct` measures the poll's wall cost, and its digest
//! gate asserts an attached run models identically to a bare one). The
//! poll reads and never wakes: a source is handed the poll's instant,
//! not the simulator, so an attached run models the same as a bare one
//! also where engines go idle between messages.
//!
//! ## Metric naming scheme
//!
//! | prefix | meaning |
//! |---|---|
//! | `engine.<label>.{rx_packets,tx_packets,commands,onesided_served,msgs_delivered,ops_completed,completions_dropped,ops_shed,busy_rejected,hedge_dups,hedge_retransmits,retransmits,duplicates}` | Pony engine op counters: every `PonyStats::counters` row |
//! | `engine.<label>.restarts.{crash,wedge,quarantine}` | supervisor restarts, by cause |
//! | `engine.<label>.blackout` | restart blackout histogram (ns) |
//! | `shm.<label>.s<sid>.cmd_depth` | per-session SPSC command-queue depth gauge |
//! | `fabric.{delivered,switch_drops,random_drops,partition_drops,corrupted,lossy_drops,pauses,rerouted,quarantine_sheds,brownout_drops,trunk_down_drops}` | fabric totals: every `FabricStats::counters` row |
//! | `fabric.host<h>.drops.{crc_bad,partition,corruption,no_buffer,lossy,quarantined,brownout,trunk_down}` | per-dest-host drop reasons: every `DropReasons::counters` row |
//! | `fabric.host<h>.egress.queue_bytes` | bytes standing in the leaf's egress buffer toward host `h` (gauge) |
//! | `fabric.link.<a>-><b>.{bytes,delivered,drops.partition,drops.corruption,drops.lossy,jittered,jitter_ns,rerouted,drops.quarantine}` | per-directed-link traffic and faults: every `LinkStats::counters` row |
//! | `fabric.link.<a>-><b>.util_pct` | egress utilization over the last poll window (gauge) |
//! | `fabric.trunk.<a>-><b>.{bytes,forwarded,drops}` | per-directed-trunk traffic: every `TrunkStats::counters` row |
//! | `fabric.trunk.<a>-><b>.{util_pct,queue_bytes}` | trunk utilization and bytes standing in its egress buffer (gauges) |
//! | `fabric.switch.<sw>.drops.{transport,best_effort}` | egress-buffer drops by switch and class (sum to `fabric.switch_drops`) |
//! | `upgrade.{blackout,brownout}` | per-engine upgrade histograms (ns) |
//! | `upgrade.{engines,rollbacks}` | upgrade outcome counters |
//! | `sched.<label>.<mode>.delay` | engine-group scheduling-delay histogram (ns) |
//! | `cpu.<label>.core<c>.{busy_ns,spin_ns,wake_ns}` | the group's CPU on core `c`: engine passes, spin-polling, interrupt + context-switch overhead (sum to the group total) |
//! | `cpu.<label>.core<c>.idle_ns` | core `c`'s elapsed virtual time minus the three above |
//! | `cpu.<label>.core<c>.machine_busy_ns` | the machine's view of core `c` (includes non-group work, e.g. antagonists) |
//! | `cpu.<label>.engine.e<id>.busy_ns` | engine-pass CPU per engine (sums to the group's engine CPU) |
//! | `cpu.<label>.throttled_ns` | CPU the MicroQuanta budgets deferred |
//! | `isolation.<label>.<container>.{pressure,usage_bytes}` | admission pressure level and charged bytes (gauges) |
//! | `isolation.<label>.<container>.{denials,sheds}` | admission outcomes per container |
//! | `isolation.<label>.{pressure_transitions,accounting_errors}` | admission-controller totals |
//! | `stats.polls` | poll passes completed |
//!
//! A fabric counter is registered when it first leaves zero, so a
//! healthy rack publishes no fault names; read one with
//! `Snapshot::counter(..).unwrap_or(0)`. The engine row and the four
//! fabric rows are checked against the code's tables by a unit test.

pub mod export;
pub mod module;
pub mod registry;
pub mod trace;

pub use export::{Metric, Snapshot};
pub use module::{StatsConfig, StatsModule};
pub use registry::{Counter, Gauge, HistogramHandle, Registry, ScopedRegistry};
pub use trace::{render_stage_stats, render_top, render_trace};
