//! Text reports over the causal trace layer ([`snap_sim::trace`]).
//!
//! The datapath only *stamps* stage records into the shared
//! [`TraceRecorder`]; everything a human (or dashboard) asks of the
//! trace store is rendered here, off the datapath:
//!
//! * [`render_trace`] — one span tree with its critical-path breakdown
//!   (fetch it with [`TraceRecorder::get`]).
//! * [`render_top`] — the K slowest retained traces, each with its
//!   breakdown.
//! * [`render_stage_stats`] — per-stage count/p50/p99 aggregates over
//!   **all** finalized ops (sampled or not — stage stats are folded at
//!   finalize time, before retention drops anything).
//!
//! All rendering is deterministic: stages print in [`TraceStage::ALL`]
//! order, traces in latency-then-id order, times as integer
//! nanoseconds. A seeded run renders byte-identical reports.

// Reports are control-plane code: never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::fmt::Write as _;

use snap_sim::trace::{CompletedTrace, TraceRecorder, FABRIC_HOST};

/// Renders a host id, mapping the switch pseudo-host to `fabric`.
fn host_label(host: u32) -> String {
    if host == FABRIC_HOST {
        "fabric".to_string()
    } else {
        format!("host{host}")
    }
}

/// Renders one completed trace: the causal record sequence (each line
/// one stage boundary) followed by the per-stage critical-path
/// breakdown, whose durations sum exactly to the end-to-end latency.
pub fn render_trace(t: &CompletedTrace) -> String {
    let mut out = String::new();
    let hosts = t
        .hosts()
        .iter()
        .map(|&h| host_label(h))
        .collect::<Vec<_>>()
        .join("->");
    let _ = writeln!(
        out,
        "trace {} total={}ns faulted={} path={}",
        t.trace_id,
        t.total().as_nanos(),
        t.faulted,
        hosts,
    );
    for r in &t.records {
        let _ = writeln!(
            out,
            "  @{:<12} {:<15} {}",
            r.at.as_nanos(),
            r.stage.label(),
            host_label(r.host),
        );
    }
    let _ = writeln!(out, "  breakdown (sums to {}ns):", t.total().as_nanos());
    for (stage, d) in t.breakdown() {
        let _ = writeln!(out, "    {:<15} {}ns", stage.label(), d.as_nanos());
    }
    out
}

/// The K slowest retained traces of `recorder`, rendered with their
/// breakdowns under a one-line retention summary.
pub fn render_top(recorder: &TraceRecorder, k: usize) -> String {
    let top = recorder.top_slowest(k);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "top {} of {} retained traces ({} finalized, {} evicted)",
        top.len(),
        recorder.completed().len(),
        recorder.finalized(),
        recorder.dropped(),
    );
    for t in &top {
        out.push_str(&render_trace(t));
    }
    out
}

/// Per-stage latency aggregates over all of `recorder`'s finalized ops,
/// rendered.
pub fn render_stage_stats(recorder: &TraceRecorder) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:>10} {:>12} {:>12}",
        "stage", "count", "p50_ns", "p99_ns"
    );
    for (stage, count, p50, p99) in recorder.stage_quantiles() {
        let _ = writeln!(
            out,
            "{:<15} {:>10} {:>12} {:>12}",
            stage.label(),
            count,
            p50.as_nanos(),
            p99.as_nanos(),
        );
    }
    out
}

// Re-exported so report consumers name stages without reaching into
// snap_sim directly.
pub use snap_sim::trace::Stage as TraceStage;

#[cfg(test)]
mod tests {
    use super::*;
    use snap_sim::trace::Stage;
    use snap_sim::Nanos;

    fn seeded_recorder() -> TraceRecorder {
        let rec = TraceRecorder::new(7, 1_000_000, 64);
        // One remote read: client 0 -> fabric -> host 1 -> back.
        let ctx = rec.begin(Nanos(100), 0).unwrap();
        rec.record(ctx, Stage::EngineDequeue, 0, Nanos(300));
        rec.record(ctx, Stage::NicTx, 0, Nanos(1_600));
        rec.record(ctx, Stage::SwitchArrive, FABRIC_HOST, Nanos(1_750));
        rec.record(ctx, Stage::SwitchDepart, FABRIC_HOST, Nanos(2_050));
        rec.record(ctx, Stage::NicDeliver, 1, Nanos(2_200));
        rec.record(ctx, Stage::RemoteDequeue, 1, Nanos(2_400));
        rec.record(ctx, Stage::OpExecute, 1, Nanos(2_550));
        rec.finalize(ctx, Nanos(5_000), 0);
        rec
    }

    #[test]
    fn render_is_deterministic_and_breakdown_sums() {
        let a = seeded_recorder();
        let b = seeded_recorder();
        let ta = a.completed().remove(0);
        let tb = b.completed().remove(0);
        assert_eq!(render_trace(&ta), render_trace(&tb));
        let sum: u64 = ta.breakdown().iter().map(|(_, d)| d.as_nanos()).sum();
        assert_eq!(sum, ta.total().as_nanos());
        let text = render_trace(&ta);
        assert!(text.contains("path=host0->fabric->host1"), "{text}");
        assert!(text.contains("breakdown (sums to 4900ns)"), "{text}");
    }

    #[test]
    fn top_and_stage_stats_render() {
        let rec = seeded_recorder();
        let top = render_top(&rec, 5);
        assert!(top.contains("top 1 of 1 retained"), "{top}");
        assert!(top.contains("trace "), "{top}");
        let stats = render_stage_stats(&rec);
        assert!(stats.contains("op_execute"), "{stats}");
        assert!(stats.contains("complete"), "{stats}");
    }
}
