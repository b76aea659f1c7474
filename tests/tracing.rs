//! End-to-end causal op tracing: deterministic cross-host span
//! assembly, the breakdown-sums-exactly invariant, fault-artifact
//! tail retention, and the trace control-plane module.

use proptest::prelude::*;

use snap_repro::isolation::QuotaPolicy;
use snap_repro::pony::client::{OpStatus, PonyCommand, PonyCompletion};
use snap_repro::pony::engine::PonyEngine;
use snap_repro::sim::trace::{Stage, TraceRecorder, TRACE_SAMPLE_SCALE};
use snap_repro::telemetry::render_trace;
use snap_repro::testbed::{Testbed, TestbedConfig};

/// Runs a mixed read/send workload on a fully-traced pair and returns
/// the testbed (recorder inside).
fn traced_workload(seed: u64, loss: f64, msgs: usize, len: u64) -> Testbed {
    workload(Some(TRACE_SAMPLE_SCALE), seed, loss, msgs, len).0
}

/// The workload at any tracing setting — `None` untraced, `Some(0)` a
/// recorder attached with sampling off (which `TestbedConfig` cannot
/// say: its zero means no recorder) — plus everything the model
/// decided, rendered as one string: both clients' completions (status,
/// data, issue time), both engines', both NICs' (wire bytes) and the
/// fabric's counters, each host's CPU ledger and the end time.
fn workload(sample_ppm: Option<u32>, seed: u64, loss: f64, msgs: usize, len: u64) -> (Testbed, String) {
    let mut tb = Testbed::new(TestbedConfig {
        loss,
        seed,
        trace_sample_ppm: sample_ppm.unwrap_or(0),
        ..TestbedConfig::default()
    });
    if sample_ppm == Some(0) {
        let rec = TraceRecorder::new(seed, 0, 4096);
        tb.fabric.set_recorder(rec.clone());
        for host in &mut tb.hosts {
            host.module.set_recorder(rec.clone());
        }
        tb.recorder = Some(rec);
    }
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 1024 });
    let region = tb.hosts[1]
        .regions
        .register_with("server", (0u8..128).collect(), snap_repro::shm::region::AccessMode::ReadOnly);
    for i in 0..msgs {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len });
        if i % 2 == 0 {
            a.submit(
                &mut tb.sim,
                PonyCommand::Read { conn, region: region.0, offset: 8, len: 32 },
            );
        }
        tb.run_us(200);
    }
    tb.run_ms(100);
    let mut modeled = format!("{:?}\n{:?}\n", a.take_completions(), b.take_completions());
    for (h, app) in ["client", "server"].into_iter().enumerate() {
        let id = tb.hosts[h].module.engine_for(app).expect("app exists");
        let stats = tb.hosts[h].group.with_engine(id, |e| {
            e.as_any().downcast_mut::<PonyEngine>().expect("pony engine").stats().clone()
        });
        let nic = tb.fabric.with_nic(tb.hosts[h].id, |nic| nic.stats().clone());
        modeled += &format!("{stats:?}\n{nic:?}\n{:?}\n", tb.host_cpu(h));
    }
    modeled += &format!("{:?}\nend {}\n", tb.fabric.stats(), tb.sim.now());
    (tb, modeled)
}

/// Renders every completed trace, sorted by trace id — the full span
/// forest as one string.
fn render_all(rec: &TraceRecorder) -> String {
    let mut traces = rec.completed();
    traces.sort_by_key(|t| t.trace_id);
    traces.iter().map(render_trace).collect()
}

#[test]
fn same_seed_assembles_byte_identical_span_trees() {
    let a = traced_workload(7, 0.02, 10, 20_000);
    let b = traced_workload(7, 0.02, 10, 20_000);
    let ra = a.recorder.as_ref().expect("tracing enabled");
    let rb = b.recorder.as_ref().expect("tracing enabled");
    assert!(ra.finalized() > 0, "workload finalized traces");
    assert_eq!(ra.finalized(), rb.finalized());
    let text_a = render_all(ra);
    let text_b = render_all(rb);
    assert!(!text_a.is_empty());
    assert_eq!(text_a, text_b, "same seed must assemble identical span trees");
    // A different seed takes a different path (loss pattern, at least).
    let c = traced_workload(8, 0.02, 10, 20_000);
    let text_c = render_all(c.recorder.as_ref().expect("tracing enabled"));
    assert_ne!(text_a, text_c, "different seed should differ somewhere");
}

/// Off is free: a recorder attached at rate zero allocates no contexts
/// and puts no bytes on the wire, so the model cannot tell it from an
/// untraced run. Zero delta, not "within a budget".
#[test]
fn recorder_at_zero_ppm_is_modeled_identical_to_untraced() {
    let (_, untraced) = workload(None, 42, 0.02, 12, 20_000);
    let (tb, off) = workload(Some(0), 42, 0.02, 12, 20_000);
    assert_eq!(off, untraced, "0 ppm sampling steered the model");
    let rec = tb.recorder.as_ref().expect("recorder attached");
    assert_eq!(rec.finalized(), 0, "0 ppm sampling must allocate no traces");
}

/// The rate never steers the model: at any nonzero rate every op
/// carries a context (the head verdict only decides retention, and
/// tail-biased retention needs unsampled ops stamped too), so 1% and
/// 100% put the same header bytes on the wire.
#[test]
fn sampling_rate_never_steers_the_modeled_schedule() {
    let (one_pct, modeled_one_pct) = workload(Some(TRACE_SAMPLE_SCALE / 100), 42, 0.02, 12, 20_000);
    let (full, modeled_full) = workload(Some(TRACE_SAMPLE_SCALE), 42, 0.02, 12, 20_000);
    assert_eq!(modeled_one_pct, modeled_full, "the sampling rate steered the model");
    // Nonzero tracing is not modeled as free — the context rides the
    // Pony wire header — so the comparison above can tell runs apart.
    let (_, untraced) = workload(None, 42, 0.02, 12, 20_000);
    assert_ne!(modeled_full, untraced, "trace contexts cost wire bytes");
    let (one_pct, full) = (
        one_pct.recorder.as_ref().expect("tracing enabled"),
        full.recorder.as_ref().expect("tracing enabled"),
    );
    assert!(full.finalized() > 0, "100% sampling finalized traces");
    assert_eq!(one_pct.finalized(), full.finalized(), "every op is stamped at any rate");
    assert!(full.retained() > one_pct.retained(), "100% must retain more traces than 1%");
}

#[test]
fn traces_cover_both_hosts_and_the_fabric() {
    let tb = traced_workload(42, 0.0, 6, 10_000);
    let rec = tb.recorder.as_ref().expect("tracing enabled");
    let full = rec
        .completed()
        .into_iter()
        .find(|t| t.hosts().len() >= 3)
        .expect("some op crossed client -> fabric -> server");
    let stages: Vec<Stage> = full.records.iter().map(|r| r.stage).collect();
    assert_eq!(stages[0], Stage::ClientEnqueue);
    assert_eq!(*stages.last().expect("non-empty"), Stage::Complete);
    for want in [Stage::EngineDequeue, Stage::NicTx, Stage::SwitchArrive, Stage::SwitchDepart, Stage::NicDeliver, Stage::RemoteDequeue] {
        assert!(stages.contains(&want), "missing {want:?} in {stages:?}");
    }
}

#[test]
fn lossy_run_tail_retains_retransmit_spans() {
    // 1% head sampling but 15% loss: retransmitted ops must be retained
    // through the tail-biased path regardless of the head verdict.
    let mut tb = Testbed::new(TestbedConfig {
        loss: 0.15,
        seed: 11,
        trace_sample_ppm: 10_000,
        ..TestbedConfig::default()
    });
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 1024 });
    for _ in 0..30 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 20_000 });
        tb.run_us(300);
    }
    tb.run_ms(300);
    let rec = tb.recorder.as_ref().expect("tracing enabled");
    let faulted: Vec<_> = rec.completed().into_iter().filter(|t| t.faulted).collect();
    assert!(
        !faulted.is_empty(),
        "15% loss over 30 sends must tail-retain at least one faulted trace"
    );
    assert!(
        faulted.iter().any(|t| t
            .records
            .iter()
            .any(|r| r.stage == Stage::Retransmit || r.stage == Stage::WireDrop)),
        "a faulted trace carries its fault-artifact stage"
    );
    assert!(rec.tail_retained() > 0, "tail retention counted");
}

#[test]
fn busy_refusal_traces_are_captured() {
    let mut tb = Testbed::new(TestbedConfig {
        admission: true,
        trace_sample_ppm: TRACE_SAMPLE_SCALE,
        ..TestbedConfig::default()
    });
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 64 });
    let adm = tb.hosts[0].admission.clone().expect("admission enabled");
    // Hard line below one send: the transport op is refused up front.
    adm.set_policy("client", QuotaPolicy::with_mem(4_000, 5_000));
    let op = a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 20_000 });
    tb.run_ms(10);
    let status = a
        .take_completions()
        .into_iter()
        .find_map(|c| match c {
            PonyCompletion::OpDone { op: o, status, .. } if o == op => Some(status),
            _ => None,
        })
        .expect("busy completion");
    assert_eq!(status, OpStatus::Busy);
    let rec = tb.recorder.as_ref().expect("tracing enabled");
    let busy_trace = rec
        .completed()
        .into_iter()
        .find(|t| t.records.iter().any(|r| r.stage == Stage::Busy))
        .expect("the refused op left a Busy span");
    assert!(busy_trace.faulted, "refusals are fault artifacts");
    // Even a refusal's breakdown telescopes exactly.
    let sum: u64 = busy_trace.breakdown().iter().map(|(_, d)| d.as_nanos()).sum();
    assert_eq!(sum, busy_trace.total().as_nanos());
}

#[test]
fn trace_module_serves_top_slowest_with_breakdowns() {
    let tb = traced_workload(42, 0.0, 8, 30_000);
    let module = tb.trace_module();
    let top = module.render_top(3);
    assert!(top.contains("top 3 of"), "{top}");
    assert!(top.contains("breakdown (sums to"), "{top}");
    let stats = module.render_stage_stats();
    assert!(stats.contains("engine_dequeue"), "{stats}");
    assert!(stats.contains("p99_ns"), "{stats}");
    // Top-1 really is the slowest retained trace.
    let rec = module.recorder();
    let slowest = rec.top_slowest(1).remove(0);
    assert!(rec
        .completed()
        .iter()
        .all(|t| t.total() <= slowest.total()));
}

proptest! {
    /// The critical-path breakdown of every assembled trace sums
    /// EXACTLY to its end-to-end modeled latency — across random
    /// workload shapes, loss rates and seeds.
    #[test]
    fn breakdown_sums_exactly_to_end_to_end_latency(
        seed in 0u64..500,
        msgs in 1usize..6,
        len in 500u64..40_000,
        lossy in any::<bool>(),
    ) {
        let loss = if lossy { 0.08 } else { 0.0 };
        let tb = traced_workload(seed, loss, msgs, len);
        let rec = tb.recorder.as_ref().expect("tracing enabled");
        prop_assert!(rec.finalized() > 0);
        for t in rec.completed() {
            let sum: u64 = t.breakdown().iter().map(|(_, d)| d.as_nanos()).sum();
            prop_assert_eq!(
                sum,
                t.total().as_nanos(),
                "trace {} breakdown must telescope exactly", t.trace_id
            );
            // Assembled order is causal: records sorted by time.
            for pair in t.records.windows(2) {
                prop_assert!(pair[0].at <= pair[1].at);
            }
        }
    }
}
