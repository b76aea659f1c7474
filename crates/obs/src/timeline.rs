//! Chrome-trace (Perfetto-compatible) timeline export.
//!
//! Merges the observability layer's three views onto one virtual-time
//! axis, in the Trace Event JSON format `chrome://tracing` and
//! Perfetto load directly:
//!
//! * **Span slices** (`"ph": "X"`) from PR-5 [`CompletedTrace`]s: the
//!   gap ending at each stage record becomes a duration slice on the
//!   host it was stamped on (`pid` = host, `tid` = trace id), so an
//!   op's causal path reads as a staircase across host lanes.
//! * **Counter lanes** (`"ph": "C"`) from flight-recorder series —
//!   CPU attribution, throughput rates, queue depths.
//! * **Instants** (`"ph": "i"`, global scope) for fault injections and
//!   SLO alert transitions, so "what happened when the alert fired" is
//!   one glance.
//!
//! Output is deterministic: events sort by timestamp with insertion
//! order as the tiebreak, floats print with fixed precision, and no
//! wall-clock value is ever consulted — same seed ⇒ byte-identical
//! files.

use std::fmt::Write as _;

use snap_sim::trace::{CompletedTrace, FABRIC_HOST};
use snap_sim::Nanos;

use crate::recorder::{FlightRecorder, PointValue};
use crate::slo::{AlertState, SloEngine};

/// Process id used for counter lanes (host lanes use the host id).
const RECORDER_PID: u64 = 1_000_000;
/// Process id used for the fabric's switch lane.
const FABRIC_PID: u64 = 1_000_001;

enum Event {
    /// A duration slice: name, pid, tid, start, duration.
    Slice {
        name: String,
        pid: u64,
        tid: u64,
        ts: Nanos,
        dur: Nanos,
    },
    /// A counter sample: name, value at ts.
    Counter { name: String, ts: Nanos, value: f64 },
    /// A global instant.
    Instant { name: String, ts: Nanos },
    /// Process-name metadata.
    ProcessName { pid: u64, name: String },
}

/// A timeline builder; see the [module docs](self) for the format.
#[derive(Default)]
pub struct Timeline {
    events: Vec<Event>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Names a process lane (host, recorder, fabric).
    pub fn name_process(&mut self, pid: u64, name: &str) {
        self.events.push(Event::ProcessName {
            pid,
            name: name.to_string(),
        });
    }

    /// Adds one completed causal trace as duration slices: each
    /// consecutive record pair becomes a slice named after the stage
    /// the gap *ends* at (interval semantics, matching the critical-
    /// path breakdown), on the lane of the host that stamped it.
    pub fn add_trace(&mut self, trace: &CompletedTrace) {
        for pair in trace.records.windows(2) {
            let prev = &pair[0];
            let cur = &pair[1];
            let pid = if cur.host == FABRIC_HOST {
                FABRIC_PID
            } else {
                cur.host as u64
            };
            self.events.push(Event::Slice {
                name: cur.stage.label().to_string(),
                pid,
                tid: trace.trace_id,
                ts: prev.at,
                dur: cur.at.saturating_sub(prev.at),
            });
        }
    }

    /// Adds every completed trace from a recorder drain.
    pub fn add_traces(&mut self, traces: &[CompletedTrace]) {
        for t in traces {
            self.add_trace(t);
        }
    }

    /// Adds a flight-recorder series as a counter lane. Rates and
    /// levels plot directly; digest series plot their p99 (the tail is
    /// what the sweeps compare).
    pub fn add_series(&mut self, recorder: &FlightRecorder, name: &str) {
        for (at, value) in recorder.series(name) {
            let v = match value {
                PointValue::Rate(r) => r as f64,
                PointValue::Level(l) => l as f64,
                PointValue::Digest(d) => d.p99 as f64,
            };
            self.events.push(Event::Counter {
                name: name.to_string(),
                ts: at,
                value: v,
            });
        }
    }

    /// Adds every series under a prefix (e.g. `cpu.h0.`) as counter
    /// lanes.
    pub fn add_series_under(&mut self, recorder: &FlightRecorder, prefix: &str) {
        for name in recorder.series_names() {
            if name.starts_with(prefix) {
                self.add_series(recorder, &name);
            }
        }
    }

    /// Adds an SLO engine's alert transitions as global instants.
    pub fn add_alerts(&mut self, engine: &SloEngine) {
        for e in engine.events() {
            let state = match e.state {
                AlertState::Firing => "firing",
                AlertState::Ok => "ok",
            };
            self.events.push(Event::Instant {
                name: format!("slo.{} {state}", e.slo),
                ts: e.at,
            });
        }
    }

    /// Adds one labeled instant (fault injections, phase markers).
    pub fn add_instant(&mut self, at: Nanos, name: &str) {
        self.events.push(Event::Instant {
            name: name.to_string(),
            ts: at,
        });
    }

    /// Number of events queued.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the Trace Event JSON (`{"traceEvents": [...]}`), sorted
    /// by timestamp (metadata first, insertion order as tiebreak).
    pub fn to_json(&self) -> String {
        // Stable sort: metadata (no ts) first, then by ts; equal
        // timestamps keep insertion order.
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| match &self.events[i] {
            Event::ProcessName { .. } => (0u8, Nanos::ZERO),
            Event::Slice { ts, .. } => (1, *ts),
            Event::Counter { ts, .. } => (1, *ts),
            Event::Instant { ts, .. } => (1, *ts),
        });
        let mut out = String::from("{\"traceEvents\": [");
        for (n, &i) in order.iter().enumerate() {
            if n > 0 {
                out.push_str(", ");
            }
            match &self.events[i] {
                Event::ProcessName { pid, name } => {
                    let _ = write!(
                        out,
                        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \
                         \"args\": {{\"name\": \"{name}\"}}}}"
                    );
                }
                Event::Slice {
                    name,
                    pid,
                    tid,
                    ts,
                    dur,
                } => {
                    let _ = write!(
                        out,
                        "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": {pid}, \
                         \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}}}",
                        ts.as_nanos() as f64 / 1_000.0,
                        dur.as_nanos() as f64 / 1_000.0
                    );
                }
                Event::Counter { name, ts, value } => {
                    let _ = write!(
                        out,
                        "{{\"name\": \"{name}\", \"ph\": \"C\", \"pid\": {RECORDER_PID}, \
                         \"ts\": {:.3}, \"args\": {{\"value\": {value:.3}}}}}",
                        ts.as_nanos() as f64 / 1_000.0
                    );
                }
                Event::Instant { name, ts } => {
                    let _ = write!(
                        out,
                        "{{\"name\": \"{name}\", \"ph\": \"i\", \"pid\": {RECORDER_PID}, \
                         \"tid\": 0, \"ts\": {:.3}, \"s\": \"g\"}}",
                        ts.as_nanos() as f64 / 1_000.0
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderConfig;
    use snap_sim::Sim;
    use snap_sim::trace::{Stage, TraceRecorder, TRACE_SAMPLE_SCALE};
    use snap_telemetry::{StatsConfig, StatsModule};

    #[test]
    fn traces_series_and_instants_share_one_axis() {
        // A real two-stamp trace via the recorder.
        let tracer = TraceRecorder::new(7, TRACE_SAMPLE_SCALE, 16);
        let ctx = tracer.begin(Nanos(1_000), 0);
        assert!(ctx.is_some());
        if let Some(c) = ctx {
            tracer.record(c, Stage::EngineDequeue, 0, Nanos(3_000));
            tracer.finalize(c, Nanos(5_000), 0);
        }
        let traces = tracer.completed();
        assert_eq!(traces.len(), 1);

        let rec = FlightRecorder::new(
            RecorderConfig::default(),
            StatsModule::new(StatsConfig::default()),
        );
        let registry = rec.registry();
        registry.counter("cpu.h0.core0.busy_ns").add(500);
        let mut sim = Sim::new();
        sim.schedule_at(Nanos(4_000), |_| {});
        sim.run();
        rec.sample_once(&mut sim);

        let mut tl = Timeline::new();
        tl.name_process(0, "host0");
        tl.add_traces(&traces);
        tl.add_series_under(&rec, "cpu.");
        tl.add_instant(Nanos(2_000), "fault: link_lossy");
        let json = tl.to_json();
        assert!(json.starts_with("{\"traceEvents\": ["), "{json}");
        assert!(json.contains("\"ph\": \"M\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"ph\": \"C\""), "{json}");
        assert!(json.contains("\"ph\": \"i\""), "{json}");
        assert!(json.contains("\"name\": \"engine_dequeue\""), "{json}");
        // Slice ts is µs with fixed precision: 1000ns = 1.000µs.
        assert!(json.contains("\"ts\": 1.000"), "{json}");
        assert!(json.ends_with("]}"), "{json}");

        // Determinism: rebuilding renders the identical file.
        let mut tl2 = Timeline::new();
        tl2.name_process(0, "host0");
        tl2.add_traces(&traces);
        tl2.add_series_under(&rec, "cpu.");
        tl2.add_instant(Nanos(2_000), "fault: link_lossy");
        assert_eq!(json, tl2.to_json());
    }

    #[test]
    fn events_sort_by_time_with_metadata_first() {
        let mut tl = Timeline::new();
        tl.add_instant(Nanos(9_000), "late");
        tl.add_instant(Nanos(1_000), "early");
        tl.name_process(3, "host3");
        let json = tl.to_json();
        let meta = json.find("process_name").unwrap_or(usize::MAX);
        let early = json.find("early").unwrap_or(usize::MAX);
        let late = json.find("late").unwrap_or(usize::MAX);
        assert!(meta < early && early < late, "{json}");
        assert_eq!(tl.len(), 3);
        assert!(!tl.is_empty());
    }
}
