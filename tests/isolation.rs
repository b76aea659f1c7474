//! Isolation end to end (§2.5): per-container memory quotas enforced on
//! the Pony datapath, memory-pressure faults squeezing those quotas
//! mid-run, and an engine crash in the middle of it all — while the
//! transport keeps its exactly-once contract. Back-pressure (`Busy`)
//! and best-effort shedding (`Shed`) are the only ways work is refused;
//! nothing is silently dropped.

use std::collections::HashMap;

use snap_repro::core::supervisor::SupervisorConfig;
use snap_repro::isolation::{PressureState, QuotaPolicy};
use snap_repro::nic::packet::QosClass;
use snap_repro::pony::client::{OpStatus, PonyCommand, PonyCompletion};
use snap_repro::pony::PonyClient;
use snap_repro::sim::fault::{FaultEvent, FaultPlan};
use snap_repro::sim::Nanos;
use snap_repro::telemetry::{StatsConfig, StatsModule};
use snap_repro::testbed::{Testbed, TestbedConfig};

const MSG: u64 = 20_000;

fn admission_pair() -> Testbed {
    Testbed::new(TestbedConfig {
        admission: true,
        ..TestbedConfig::default()
    })
}

/// Drains a client's completions into per-op status and received-message
/// maps.
fn pump(
    client: &mut PonyClient,
    done: &mut HashMap<u64, OpStatus>,
    recvd: &mut Vec<(u32, u64)>,
) {
    for c in client.take_completions() {
        match c {
            PonyCompletion::OpDone { op, status, .. } => {
                done.insert(op, status);
            }
            PonyCompletion::RecvMsg { stream, msg, .. } => recvd.push((stream, msg)),
        }
    }
}

/// Submits one transport send and retries on `Busy` until it completes
/// `Ok`; panics on any status the transport class must never see.
/// Returns how many `Busy` refusals were absorbed.
#[allow(clippy::too_many_arguments)]
fn send_transport_retrying(
    tb: &mut Testbed,
    a: &mut PonyClient,
    conn: u64,
    done: &mut HashMap<u64, OpStatus>,
    recvd: &mut Vec<(u32, u64)>,
) -> u64 {
    let mut busy = 0;
    loop {
        let op = a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: MSG });
        let mut waited = 0;
        while !done.contains_key(&op) && waited < 600 {
            tb.run_ms(1);
            pump(a, done, recvd);
            waited += 1;
        }
        match done.get(&op) {
            Some(OpStatus::Ok) => return busy,
            Some(OpStatus::Busy) => {
                // Back-pressure: wait for quota to free up, then retry.
                busy += 1;
                tb.run_ms(5);
                pump(a, done, recvd);
            }
            other => panic!("transport send must never see {other:?}"),
        }
    }
}

/// The tentpole churn scenario: a finite quota on the sender container,
/// a randomized-convention memory-pressure window that squeezes it to
/// Soft (shedding best-effort probes) and then deeper (refusing
/// transport with Busy), plus an engine crash with supervised restart.
/// All 30 transport messages arrive exactly once, in order; only
/// best-effort work was shed; every submission got a completion.
#[test]
fn transport_exactly_once_under_pressure_and_crash() {
    let mut tb = admission_pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });

    let adm = tb.hosts[0].admission.clone().expect("admission enabled");
    // One 20 KB send fits; the soft line sits above a single in-flight
    // send until pressure squeezes it below.
    adm.set_policy("client", QuotaPolicy::with_mem(25_000, 30_000))
        .unwrap();

    let stats = tb.stats_module(StatsConfig::default());

    let sup = tb.supervise_app(
        0,
        "client",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            ..SupervisorConfig::default()
        },
    );
    sup.start(&mut tb.sim);

    // Crash in a quiet window; soft squeeze at 90 ms (effective soft
    // 17.5 KB < one in-flight send -> Soft while sending), deep squeeze
    // at 130 ms (effective hard 12 KB < one send -> Busy), heal at
    // 170 ms. The `c0` positional name resolves to "client" (the only
    // registered container on host 0) — the randomized-plan convention.
    let plan = FaultPlan::new()
        .at(
            Nanos::from_millis(40),
            FaultEvent::EngineCrash { host: 0, engine: 0 },
        )
        .at(
            Nanos::from_millis(90),
            FaultEvent::MemoryPressure {
                host: 0,
                container: "c0".to_string(),
                fraction: 0.3,
            },
        )
        .at(
            Nanos::from_millis(130),
            FaultEvent::MemoryPressure {
                host: 0,
                container: "client".to_string(),
                fraction: 0.6,
            },
        )
        .at(
            Nanos::from_millis(170),
            FaultEvent::ReleasePressure {
                host: 0,
                container: "client".to_string(),
            },
        );
    tb.install_fault_plan(&plan);

    let mut done: HashMap<u64, OpStatus> = HashMap::new();
    let mut recvd_a: Vec<(u32, u64)> = Vec::new();
    let mut submitted: Vec<u64> = Vec::new();
    let mut be_phase1: Vec<u64> = Vec::new();
    let mut be_soft: Vec<u64> = Vec::new();
    let mut busy_total = 0;

    // Phase 1 (no pressure): 10 transport sends, each paired with a
    // best-effort probe submitted while the send is in flight — usage
    // 20 KB stays under the 25 KB soft line, so nothing sheds.
    for _ in 0..10 {
        busy_total += send_transport_retrying(&mut tb, &mut a, conn, &mut done, &mut recvd_a);
        let be = a.submit_with_class(
            &mut tb.sim,
            PonyCommand::Send { conn, stream: 1, len: 512 },
            QosClass::BestEffort,
        );
        be_phase1.push(be);
    }
    submitted.extend(be_phase1.iter());

    // Quiet window for the crash, then let the supervisor restart the
    // engine from its checkpoint (blackout ~25 ms).
    while tb.sim.now() < Nanos::from_millis(85) {
        tb.run_ms(5);
        pump(&mut a, &mut done, &mut recvd_a);
    }
    assert_eq!(sup.report().crash_restarts, 1, "engine was restarted");

    // Phase 2 (Soft): the transport send is admitted (20 KB <= 21 KB
    // effective hard) but holds usage above the squeezed soft line, so
    // the best-effort probe submitted behind it in the same poll batch
    // is shed.
    while tb.sim.now() < Nanos::from_millis(95) {
        tb.run_ms(1);
        pump(&mut a, &mut done, &mut recvd_a);
    }
    for _ in 0..5 {
        let t = a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: MSG });
        let be = a.submit_with_class(
            &mut tb.sim,
            PonyCommand::Send { conn, stream: 1, len: 512 },
            QosClass::BestEffort,
        );
        be_soft.push(be);
        let mut waited = 0;
        while !done.contains_key(&t) && waited < 600 {
            tb.run_ms(1);
            pump(&mut a, &mut done, &mut recvd_a);
            waited += 1;
        }
        assert_eq!(done.get(&t), Some(&OpStatus::Ok), "soft pressure never blocks transport");
    }
    submitted.extend(be_soft.iter());

    // Phase 3 (deep squeeze): transport sends are refused with Busy
    // until the pressure releases at 170 ms, then retried to success.
    while tb.sim.now() < Nanos::from_millis(135) {
        tb.run_ms(1);
        pump(&mut a, &mut done, &mut recvd_a);
    }
    for _ in 0..5 {
        busy_total += send_transport_retrying(&mut tb, &mut a, conn, &mut done, &mut recvd_a);
    }

    // Phase 4 (healed): the rest of the traffic flows cleanly.
    for _ in 0..10 {
        busy_total += send_transport_retrying(&mut tb, &mut a, conn, &mut done, &mut recvd_a);
    }

    // Final drain.
    while tb.sim.now() < Nanos::from_millis(400) {
        tb.run_ms(10);
        pump(&mut a, &mut done, &mut recvd_a);
    }

    // Transport exactly-once, in order, despite crash + pressure.
    let mut got = Vec::new();
    for c in b.take_completions() {
        if let PonyCompletion::RecvMsg { stream: 0, msg, .. } = c {
            got.push(msg);
        }
    }
    assert_eq!(got, (0..30).collect::<Vec<u64>>(), "stream 0 exactly once, in order");

    // Deep pressure produced real back-pressure, and it healed.
    assert!(busy_total >= 1, "deep squeeze must refuse at least one transport send");

    // Zero silent drops: every best-effort probe has a completion.
    for op in &submitted {
        assert!(done.contains_key(op), "op {op} must complete (Ok or Shed), never vanish");
    }
    // Phase-2 probes shed; phase-1 probes succeeded.
    for op in &be_soft {
        assert_eq!(done.get(op), Some(&OpStatus::Shed), "soft pressure sheds best-effort");
    }
    for op in &be_phase1 {
        assert_eq!(done.get(op), Some(&OpStatus::Ok), "no pressure, no shedding");
    }

    // Every charge was matched by a release: usage drains to zero and
    // the accountant saw no unmatched releases.
    assert_eq!(adm.usage("client"), 0, "all send charges released");
    assert_eq!(adm.accounting_errors(), 0);
    assert_eq!(adm.pressure("client"), PressureState::Ok);

    // Telemetry attribution: sheds and denials land under the host's
    // isolation scope, and the pressure transitions were logged.
    let final_poll = |stats: &StatsModule, tb: &mut Testbed| {
        stats.poll_once(&tb.sim);
        tb.run_ms(1);
        stats.poll_once(&tb.sim);
    };
    final_poll(&stats, &mut tb);
    let snap = stats.snapshot(tb.sim.now());
    assert_eq!(snap.counter("isolation.h0.client.sheds"), Some(5));
    assert!(snap.counter("isolation.h0.client.denials").unwrap_or(0) >= 1);
    assert!(snap.counter("isolation.h0.pressure_transitions").unwrap_or(0) >= 2);
    assert_eq!(snap.counter("isolation.h0.accounting_errors").unwrap_or(0), 0);
    assert_eq!(snap.gauge("isolation.h0.client.pressure"), Some(0));
    let (transitions, _) = adm.transitions_since(0);
    assert!(
        transitions.iter().any(|t| t.to == PressureState::Soft),
        "soft transition logged: {transitions:?}"
    );
}

/// Quotas are enforced-but-invisible for unconstrained containers: a
/// testbed with admission enabled but no policies set behaves exactly
/// like one without admission, even under a randomized fault plan that
/// includes memory-pressure events (unlimited quotas are immune to
/// squeezes by construction).
#[test]
fn unconstrained_admission_is_transparent_under_randomized_pressure() {
    let run = |admission: bool| -> Vec<u64> {
        let mut tb = Testbed::new(TestbedConfig {
            admission,
            ..TestbedConfig::default()
        });
        let mut a = tb.pony_app(0, "src", |_| {});
        let mut b = tb.pony_app(1, "sink", |_| {});
        let conn = tb.connect(0, "src", 1, "sink");
        b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 64 });
        let plan = FaultPlan::randomized(99, Nanos::from_millis(80), 2, 1, 6);
        tb.install_fault_plan(&plan);
        for _ in 0..20 {
            a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 9_000 });
            tb.run_ms(2);
        }
        while tb.sim.now() < Nanos::from_millis(1_500) {
            tb.run_ms(25);
        }
        let mut got: Vec<u64> = b
            .take_completions()
            .into_iter()
            .filter_map(|c| match c {
                PonyCompletion::RecvMsg { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        got.sort_unstable();
        got
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(with, (0..20).collect::<Vec<u64>>(), "exactly once with admission");
    assert_eq!(with, without, "unconstrained admission changes nothing");
}

/// The admission controller takes runtime policy changes on a live testbed:
/// shrinking a live container's hard limit turns new sends into Busy,
/// restoring it lets them through again.
#[test]
fn runtime_quota_change_applies_immediately() {
    let mut tb = admission_pair();
    let mut a = tb.pony_app(0, "app", |_| {});
    let mut b = tb.pony_app(1, "peer", |_| {});
    let conn = tb.connect(0, "app", 1, "peer");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 32 });

    let adm = tb.hosts[0].admission.clone().expect("admission enabled");
    assert!(
        adm.table().contains("app"),
        "table lists the container:\n{}",
        adm.table()
    );

    // Clamp the hard limit below one message.
    adm.set_policy("app", QuotaPolicy::with_mem(4_000, 8_000))
        .unwrap();
    let op = a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: MSG });
    tb.run_ms(5);
    let mut done = HashMap::new();
    let mut recvd = Vec::new();
    pump(&mut a, &mut done, &mut recvd);
    assert_eq!(done.get(&op), Some(&OpStatus::Busy), "over-quota send refused");

    // Raise it back; the retry goes through.
    adm.set_policy("app", QuotaPolicy::UNLIMITED).unwrap();
    let op2 = a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: MSG });
    while !done.contains_key(&op2) && tb.sim.now() < Nanos::from_millis(200) {
        tb.run_ms(2);
        pump(&mut a, &mut done, &mut recvd);
    }
    assert_eq!(done.get(&op2), Some(&OpStatus::Ok), "restored quota admits the send");
    assert_eq!(adm.usage("app"), 0);
}
