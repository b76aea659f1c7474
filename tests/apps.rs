//! Application-facade tests: byte-stream equivalence across backends,
//! sim-time deadline semantics, DAG determinism, exactly-once DAG
//! completion under randomized gray faults, and the workload contract
//! (one driver, one error) held by every workload over both backends.

use proptest::prelude::*;

use snap_repro::apps::dag::{DagEdge, DagRuntime, DagSpec, OpenLoop, ServiceSpec, ServiceTime};
use snap_repro::apps::kv::{KvSpec, KvWorkload};
use snap_repro::apps::pool::{ClientPool, PoolSpec};
use snap_repro::apps::socket::{wire, SnapSocket, SocketError};
use snap_repro::apps::stream::{StreamSpec, StreamWorkload};
use snap_repro::apps::transport::Backend;
use snap_repro::apps::workload::{drive, poll_until, Workload, WorkloadError};
use snap_repro::fleet::{run_mixed_fleet, FleetSpec};
use snap_repro::sim::fault::{FaultEvent, FaultPlan, JitterDist};
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};

/// Deterministic payload for message `idx` of a script.
fn msg_bytes(seed: u64, idx: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((seed as usize + idx * 31 + i) & 0xff) as u8)
        .collect()
}

/// What [`play_script`] saw: the two received streams, every receive
/// that returned bytes as `(side, virtual ns, bytes)` (side 0 the
/// server), and the packets the fabric dropped at random.
struct Played {
    to_server: Vec<u8>,
    to_client: Vec<u8>,
    deliveries: Vec<(u8, u64, usize)>,
    random_drops: u64,
}

/// Plays `script` over `backend` on a fabric dropping `loss` of its
/// packets: true entries send client→server, false entries
/// server→client; then each side receives until it has its stream.
fn play_script(backend: Backend, seed: u64, loss: f64, script: &[(bool, usize)]) -> Played {
    let mut tb = Testbed::new(TestbedConfig {
        seed: 42,
        loss,
        ..TestbedConfig::default()
    });
    let a = tb.app(0, "alpha", backend);
    let b = tb.app(1, "beta", backend);
    let client = tb
        .app_connect(0, "alpha", 1, "beta")
        .expect("same-backend endpoints wire");
    let server = b.listener().accept().expect("wire queues the peer");

    let (mut to_server, mut to_client) = (Vec::new(), Vec::new());
    for (idx, &(c2s, len)) in script.iter().enumerate() {
        let bytes = msg_bytes(seed, idx, len);
        if c2s {
            to_server.extend_from_slice(&bytes);
            client.send(&mut tb.sim, &bytes).expect("send queues");
        } else {
            to_client.extend_from_slice(&bytes);
            server.send(&mut tb.sim, &bytes).expect("send queues");
        }
    }

    let mut deliveries = Vec::new();
    let mut receive = |side: u8, sock: &SnapSocket, want: usize| {
        let mut got = vec![0u8; want];
        let mut filled = 0;
        while filled < want {
            let n = recv_some(&mut tb, sock, &mut got[filled..], Nanos::from_millis(500))
                .expect("stream drains within budget");
            deliveries.push((side, tb.sim.now().as_nanos(), n));
            filled += n;
        }
        got
    };
    let got_server = receive(0, &server, to_server.len());
    let got_client = receive(1, &client, to_client.len());

    assert_eq!(got_server, to_server, "{}: c→s bytes", backend.label());
    assert_eq!(got_client, to_client, "{}: s→c bytes", backend.label());
    assert_eq!(a.stats().dup_chunks, 0, "{}: dups", backend.label());
    assert_eq!(b.stats().dup_chunks, 0, "{}: dups", backend.label());
    Played {
        to_server: got_server,
        to_client: got_client,
        deliveries,
        random_drops: tb.fabric.stats().random_drops,
    }
}

/// Pins when the facade over kernel TCP delivers on a lossy fabric: the
/// stack retransmits what the fabric dropped, and the order it resends
/// in (its in-flight segments, keyed by message id) decides when each
/// chunk completes. Any change to the ids it is handed that reorders
/// them moves an instant here.
#[test]
fn lossy_kernel_tcp_facade_delivery_instants_are_pinned() {
    let script = [(true, 30_000), (false, 9_000), (true, 70_000), (false, 500)];
    let played = play_script(Backend::Tcp, 3, 0.05, &script);
    assert!(played.random_drops > 0, "the fabric dropped nothing");
    assert_eq!(
        played.deliveries, PINNED_LOSSY_TCP_DELIVERIES,
        "(side, ns, bytes) of every receive"
    );
}

/// What the fabric dropped is resent by the 10 ms retransmission
/// timer: the last 25 kB and the whole reverse stream land at 20 ms.
const PINNED_LOSSY_TCP_DELIVERIES: [(u8, u64, usize); 9] = [
    (0, 15_000, 4_096),
    (0, 20_000, 12_288),
    (0, 25_000, 13_616),
    (0, 30_000, 16_384),
    (0, 35_000, 8_192),
    (0, 40_000, 16_384),
    (0, 45_000, 4_096),
    (0, 20_045_000, 24_944),
    (1, 20_045_000, 9_500),
];

proptest! {
    /// The same randomized byte-stream script arrives in order and
    /// uncorrupted over both backends, and the two backends deliver
    /// byte-identical streams.
    #[test]
    fn byte_stream_identical_over_both_backends(
        script in proptest::collection::vec((any::<bool>(), 1usize..1500), 1..10),
        seed in 0u64..1000,
    ) {
        let tcp = play_script(Backend::Tcp, seed, 0.0, &script);
        let pony = play_script(Backend::Pony, seed, 0.0, &script);
        prop_assert_eq!(&tcp.to_server, &pony.to_server, "c→s streams diverge across backends");
        prop_assert_eq!(&tcp.to_client, &pony.to_client, "s→c streams diverge across backends");
    }

    /// Under a randomized gray fault plan (lossy links, jitter, pause
    /// storms — no crashes), every DAG request completes exactly once:
    /// no request is lost, none is double-completed.
    #[test]
    fn dag_completes_exactly_once_under_gray_faults(
        loss_ppm in 0u64..150_000,
        jitter_us in 0u64..200,
        pause_us in 0u64..300,
    ) {
        let mut tb = Testbed::new(TestbedConfig {
            hosts: 3,
            seed: 7,
            ..TestbedConfig::default()
        });
        let plan = FaultPlan::new()
            .at(
                Nanos::from_micros(200),
                FaultEvent::LinkLossy { from: 0, to: 1, prob: loss_ppm as f64 / 1e6 },
            )
            .at(
                Nanos::from_micros(300),
                FaultEvent::LinkJitter {
                    from: 1,
                    to: 2,
                    dist: JitterDist { median: Nanos::from_micros(jitter_us), sigma: 0.8 },
                },
            )
            .at(
                Nanos::from_micros(400),
                FaultEvent::PauseStorm { host: 2, duration: Nanos::from_micros(pause_us) },
            )
            .at(
                Nanos::from_millis(4),
                FaultEvent::LinkLossy { from: 0, to: 1, prob: 0.0 },
            );
        tb.install_fault_plan(&plan);

        let spec = small_dag();
        let mut dag = tb.dag("gray", &spec, Backend::Pony).expect("spec wires");
        dag.begin(tb.sim.now(), OpenLoop::constant(4_000.0, 20));
        drive(tb.as_pump(), &mut [&mut dag], Nanos::from_millis(400))
            .expect("every request completes despite gray faults");
        let report = dag.report();

        prop_assert_eq!(report.results.len(), 20);
        let mut rids: Vec<u64> = report.results.iter().map(|r| r.rid).collect();
        rids.sort_unstable();
        rids.dedup();
        prop_assert_eq!(rids.len(), 20, "a request completed twice");
        // The critical-path breakdown telescopes exactly even when the
        // transport leg absorbs retransmits and jitter.
        for r in &report.results {
            prop_assert_eq!(
                (r.queue + r.service + r.transport).as_nanos(),
                r.total().as_nanos(),
                "breakdown must telescope"
            );
        }
    }
}

/// Root fans out to two mid services which both feed a shared leaf —
/// a diamond, exercising fan-out and fan-in.
fn small_dag() -> DagSpec {
    DagSpec {
        services: vec![
            ServiceSpec {
                name: "frontend".into(),
                host: 0,
                time: ServiceTime::Constant(Nanos::from_micros(5)),
                concurrency: 8,
                children: vec![1, 2],
            },
            ServiceSpec {
                name: "mid-a".into(),
                host: 1,
                time: ServiceTime::Exponential { mean_us: 10.0 },
                concurrency: 4,
                children: vec![3],
            },
            ServiceSpec {
                name: "mid-b".into(),
                host: 1,
                time: ServiceTime::Exponential { mean_us: 15.0 },
                concurrency: 4,
                children: vec![3],
            },
            ServiceSpec {
                name: "leaf".into(),
                host: 0,
                time: ServiceTime::LogNormal {
                    median_us: 8.0,
                    sigma: 0.5,
                },
                concurrency: 16,
                children: vec![],
            },
        ],
        request_bytes: 256,
        reply_bytes: 128,
    }
}

/// Receives what has arrived into `buf`: `try_recv` every 5 µs of
/// virtual time until some bytes have, or `TimedOut` once `budget` ran
/// out.
fn recv_some(
    tb: &mut Testbed,
    sock: &SnapSocket,
    buf: &mut [u8],
    budget: Nanos,
) -> Result<usize, SocketError> {
    poll_until(tb.as_pump(), 5, budget, |sim| {
        let n = sock.try_recv(sim, buf)?;
        Ok((n > 0).then_some(n))
    })?
    .ok_or(SocketError::TimedOut)
}

/// Fills `buf` the same way, or fails with `TimedOut`.
fn recv_exact(
    tb: &mut Testbed,
    sock: &SnapSocket,
    buf: &mut [u8],
    budget: Nanos,
) -> Result<(), SocketError> {
    let mut filled = 0;
    poll_until(tb.as_pump(), 5, budget, |sim| {
        filled += sock.try_recv(sim, &mut buf[filled..])?;
        Ok((filled == buf.len()).then_some(()))
    })?
    .ok_or(SocketError::TimedOut)
}

/// A receive that waits with nothing inbound burns exactly its virtual
/// budget on the simulator clock — never wall time.
#[test]
fn socket_wait_uses_sim_time() {
    let mut tb = Testbed::pair();
    tb.app(0, "alpha", Backend::Pony);
    let b = tb.app(1, "beta", Backend::Pony);
    let client = tb.app_connect(0, "alpha", 1, "beta").expect("wires");
    let _server = b.listener().accept().expect("peer queued");

    let t0 = tb.sim.now();
    let mut buf = [0u8; 16];
    let err = recv_some(&mut tb, &client, &mut buf, Nanos::from_millis(2))
        .expect_err("no data is coming");
    assert_eq!(err, SocketError::TimedOut);
    let waited = tb.sim.now().saturating_sub(t0);
    assert!(
        waited >= Nanos::from_millis(2),
        "returned before the virtual deadline: {waited:?}"
    );
    assert!(
        waited < Nanos::from_millis(2) + Nanos::from_micros(50),
        "overshot the virtual deadline: {waited:?}"
    );
}

/// The identical DagSpec value runs unmodified over both backends, and
/// reruns with the same seed are latency-identical (determinism).
#[test]
fn same_dag_spec_runs_on_both_backends_deterministically() {
    let spec = small_dag();
    let load = OpenLoop::constant(5_000.0, 40);
    let run = |backend: Backend| {
        let mut tb = Testbed::new(TestbedConfig {
            seed: 11,
            ..TestbedConfig::default()
        });
        let mut dag = tb.dag("d", &spec, backend).expect("spec wires");
        dag.begin(tb.sim.now(), load);
        drive(tb.as_pump(), &mut [&mut dag], Nanos::from_millis(200))
            .expect("all requests complete");
        dag.report()
    };

    let tcp = run(Backend::Tcp);
    let pony = run(Backend::Pony);
    assert_eq!(tcp.results.len(), 40);
    assert_eq!(pony.results.len(), 40);

    let pony2 = run(Backend::Pony);
    assert_eq!(pony.p50, pony2.p50, "same seed must reproduce p50");
    assert_eq!(pony.p99, pony2.p99, "same seed must reproduce p99");
    let tcp2 = run(Backend::Tcp);
    assert_eq!(tcp.p50, tcp2.p50, "same seed must reproduce p50");
    assert_eq!(tcp.p99, tcp2.p99, "same seed must reproduce p99");
}

/// Back-pressure path: a Pony-backed socket under a tiny memory quota
/// sees Busy rejections, retries under the same chunk identity, and
/// still delivers the stream exactly once, in order.
#[test]
fn quota_backpressure_preserves_stream() {
    let mut tb = Testbed::new(TestbedConfig {
        admission: true,
        seed: 3,
        ..TestbedConfig::default()
    });
    let a = tb.app(0, "alpha", Backend::Pony);
    let b = tb.app(1, "beta", Backend::Pony);
    let client = tb.app_connect(0, "alpha", 1, "beta").expect("wires");
    let server = b.listener().accept().expect("peer queued");

    // Squeeze the sender's memory quota so some submissions bounce.
    if let Some(adm) = &tb.hosts[0].admission {
        adm.set_policy(
            "alpha",
            snap_repro::isolation::QuotaPolicy::with_mem(16 * 1024, 24 * 1024),
        )
        .unwrap();
    }

    let payload = msg_bytes(9, 0, 200 * 1024);
    client.send(&mut tb.sim, &payload).expect("send queues");
    let mut got = vec![0u8; payload.len()];
    recv_exact(&mut tb, &server, &mut got, Nanos::from_millis(2_000))
        .expect("stream drains despite Busy back-pressure");
    assert_eq!(got, payload);
    assert_eq!(a.stats().dup_chunks, 0);
    assert_eq!(b.stats().dup_chunks, 0);
}

/// The mixed-fleet scenario: a latency-sensitive DAG, a Zipf-skewed KV
/// cache, and a bulk streamer co-scheduled on three hosts under
/// per-container memory quotas, all driven against one simulator. All
/// three workloads must finish and verify, and the run must be
/// seed-deterministic.
#[test]
fn mixed_fleet_coschedules_dag_kv_and_stream_under_quotas() {
    let run = || {
        let mut tb = Testbed::new(TestbedConfig {
            hosts: 3,
            admission: true,
            seed: 13,
            ..TestbedConfig::default()
        });
        let spec = FleetSpec {
            dag: small_dag(),
            dag_load: OpenLoop::constant(4_000.0, 30),
            kv: KvSpec {
                keys: 64,
                zipf_s: 1.1,
                value_bytes: 128,
                lookup: ServiceTime::Exponential { mean_us: 3.0 },
                rate_per_sec: 6_000.0,
                requests: 40,
            },
            kv_hosts: (2, 1),
            stream: StreamSpec {
                record_bytes: 8 * 1024,
                rate_per_sec: 2_000.0,
                records: 25,
            },
            stream_hosts: (0, 2),
            mem_quota: (256 * 1024, 512 * 1024),
            budget: Nanos::from_millis(500),
        };
        run_mixed_fleet(&mut tb, &spec).expect("fleet completes within budget")
    };

    let report = run();
    assert_eq!(report.dag.results.len(), 30, "every DAG request completed");
    assert_eq!(report.kv.verified, 40, "every GET answered and verified");
    assert_eq!(report.stream.records, 25, "every record delivered");
    assert_eq!(report.stream.corrupt_bytes, 0, "stream bytes verified");
    assert!(
        report.kv.hottest_frac > 0.1,
        "Zipf skew concentrates on the hot key (got {})",
        report.kv.hottest_frac
    );

    let again = run();
    assert_eq!(report.dag.p50, again.dag.p50, "fleet must be deterministic");
    assert_eq!(report.dag.p99, again.dag.p99, "fleet must be deterministic");
    assert_eq!(report.kv.p50, again.kv.p50, "fleet must be deterministic");
}

/// Pins the virtual instants of a socket receive's poll loop
/// (`poll_until` over `try_recv`) on `Testbed::pair()` (seed 42): when
/// a receive with nothing inbound gives up (the first 5 µs poll at or
/// past the deadline), and when one with data inbound returns. No
/// golden table runs through that loop; this does.
#[test]
fn socket_wait_poll_instants_are_pinned() {
    let mut tb = Testbed::pair();
    tb.app(0, "alpha", Backend::Pony);
    let b = tb.app(1, "beta", Backend::Pony);
    let client = tb.app_connect(0, "alpha", 1, "beta").expect("wires");
    let server = b.listener().accept().expect("peer queued");
    let mut buf = vec![0u8; 64 * 1024];

    // Nothing inbound: 2.001234 ms of budget runs out at the 2.005 ms poll.
    let err = recv_some(&mut tb, &client, &mut buf, Nanos(2_001_234));
    assert_eq!(err, Err(SocketError::TimedOut));
    assert_eq!(tb.sim.now(), Nanos(2_005_000));

    // 100 000 bytes inbound: the first poll that sees any returns what
    // has arrived by then; the exact receive polls on for the rest.
    let payload = msg_bytes(1, 0, 100_000);
    server.send(&mut tb.sim, &payload).expect("send queues");
    let n = recv_some(&mut tb, &client, &mut buf, Nanos::from_millis(2)).expect("data is coming");
    assert_eq!((n, tb.sim.now()), (24_576, Nanos(2_045_000)));
    let mut rest = vec![0u8; payload.len() - n];
    recv_exact(&mut tb, &client, &mut rest, Nanos::from_millis(2)).expect("the rest follows");
    assert_eq!(tb.sim.now(), Nanos(2_070_000));
    assert_eq!([&buf[..n], &rest[..]].concat(), payload);

    // A short exact receive times out on the same grid.
    let err = recv_exact(&mut tb, &client, &mut buf[..1], Nanos(7_001));
    assert_eq!(err, Err(SocketError::TimedOut));
    assert_eq!(tb.sim.now(), Nanos(2_080_000));
}

/// Pins the virtual instants at which the one-sided lookups return on
/// `Testbed::pair()` (seed 42): `wait_op` polls completions every
/// 50 µs, so a pointer chase (two round trips) returns at the second
/// poll after its submit and an indirect read (one) at the first.
#[test]
fn onesided_lookup_poll_instants_are_pinned() {
    use snap_repro::apps::kv::onesided;

    let mut tb = Testbed::pair();
    let mut client = tb.pony_app(0, "analytics", |_| {});
    let _server = tb.pony_app(1, "kvserver", |_| {});
    let conn = tb.connect(0, "analytics", 1, "kvserver");
    let layout = onesided::install(&tb.hosts[1].regions, "kvserver", 64, 32);

    let v = onesided::lookup_ptr_chase(tb.as_pump(), &mut client, conn, &layout, 7)
        .expect("pointer chase completes");
    assert_eq!(v, vec![onesided::expected_byte(7); 32]);
    assert_eq!(tb.sim.now(), Nanos(100_000));

    let v = onesided::lookup_indirect(tb.as_pump(), &mut client, conn, &layout, 9)
        .expect("indirect read completes");
    assert_eq!(v, vec![onesided::expected_byte(9); 32]);
    assert_eq!(tb.sim.now(), Nanos(150_000));

    // An op on a connection the engine does not know fails at once, and
    // one that never completes burns exactly its 5 ms budget.
    let (status, _) = onesided::lookup_status(tb.as_pump(), &mut client, conn + 99, &layout, 1)
        .expect("the engine answers");
    assert_eq!(status, snap_repro::pony::client::OpStatus::Error);
    assert_eq!(tb.sim.now(), Nanos(200_000));
    tb.fabric.partition(0, 1);
    let err = onesided::lookup_indirect(tb.as_pump(), &mut client, conn, &layout, 1);
    assert_eq!(err, Err(onesided::LookupError::Timeout));
    assert_eq!(tb.sim.now(), Nanos(5_200_000));
}

/// One of each workload shape, small, over connections taken from
/// `pair` (a dialing and an accepted socket), begun now. The contract
/// tests below are written against this array, not against any one
/// workload.
fn one_of_each(
    tb: &mut Testbed,
    mut pair: impl FnMut(&mut Testbed) -> (SnapSocket, SnapSocket),
) -> [Box<dyn Workload>; 4] {
    let now = tb.sim.now();
    let (client, server) = pair(tb);
    let kv_spec = KvSpec {
        keys: 16,
        zipf_s: 1.1,
        value_bytes: 256,
        lookup: ServiceTime::Constant(Nanos::from_micros(3)),
        rate_per_sec: 50_000.0,
        requests: 20,
    };
    let mut kv = KvWorkload::new(kv_spec, client, server, 1);
    kv.begin(now);

    let (tx, rx) = pair(tb);
    let stream_spec = StreamSpec {
        record_bytes: 6_000,
        rate_per_sec: 50_000.0,
        records: 20,
    };
    let mut stream = StreamWorkload::new(stream_spec, tx, rx, 2);
    stream.begin(now);

    let pool_spec = PoolSpec {
        request_bytes: 9_000,
        reply_bytes: 64,
        window: 2,
        think: Nanos::from_micros(1),
        service: ServiceTime::Constant(Nanos::from_micros(2)),
        requests_per_client: 10,
    };
    let mut pool = ClientPool::new(pool_spec, vec![pair(tb), pair(tb)], 3);
    pool.begin(now);

    let spec = small_dag();
    let edges = spec
        .edge_list()
        .into_iter()
        .map(|(parent, child)| {
            let (parent_sock, child_sock) = pair(tb);
            DagEdge {
                parent,
                child,
                parent_sock,
                child_sock,
            }
        })
        .collect();
    let mut dag = DagRuntime::new(spec, edges, 4, None).expect("one edge per spec edge");
    dag.begin(now, OpenLoop::constant(20_000.0, 20));

    [
        Box::new(kv),
        Box::new(stream),
        Box::new(pool),
        Box::new(dag),
    ]
}

/// The workload contract, over both backends: a driver that runs out
/// of virtual time names the first workload still unfinished, with its
/// progress; given the time, every workload finishes exactly its
/// expected units.
#[test]
fn every_workload_keeps_the_drive_contract_on_both_backends() {
    for backend in [Backend::Tcp, Backend::Pony] {
        let mut tb = Testbed::new(TestbedConfig {
            seed: 5,
            ..TestbedConfig::default()
        });
        let mut wired = 0;
        let mut all = one_of_each(&mut tb, |tb| {
            wired += 1;
            let (dialer, accepter) = (format!("dial{wired}"), format!("accept{wired}"));
            tb.app_pair(0, &dialer, 1, &accepter, backend)
                .expect("same-backend endpoints wire")
        });

        // No time at all: one tick each, nothing can have finished.
        for w in &mut all {
            let name = w.name();
            match drive(tb.as_pump(), &mut [w.as_mut()], Nanos::ZERO) {
                Err(WorkloadError::Incomplete {
                    workload,
                    done,
                    expected,
                }) => {
                    assert_eq!(workload, name, "{}", backend.label());
                    assert!(done < expected, "{name}: {done} of {expected}");
                }
                other => panic!("{name} over {}: {other:?}", backend.label()),
            }
        }

        // Blame goes to the first *unfinished* workload in slice order:
        // the streamer, first in the slice, is done by then.
        let [kv, stream, pool, dag] = &mut all;
        drive(
            tb.as_pump(),
            &mut [stream.as_mut()],
            Nanos::from_millis(200),
        )
        .expect("the streamer finishes alone");
        let stalled = drive(
            tb.as_pump(),
            &mut [stream.as_mut(), dag.as_mut(), kv.as_mut()],
            Nanos::ZERO,
        );
        assert!(
            matches!(
                stalled,
                Err(WorkloadError::Incomplete {
                    workload: "dag",
                    ..
                })
            ),
            "{}: {stalled:?}",
            backend.label()
        );

        // Given the time, all four finish under one driver.
        drive(
            tb.as_pump(),
            &mut [kv.as_mut(), stream.as_mut(), pool.as_mut(), dag.as_mut()],
            Nanos::from_millis(500),
        )
        .expect("every workload finishes");
        for w in &all {
            let (done, expected) = w.progress();
            assert_eq!(done, expected, "{} over {}", w.name(), backend.label());
        }
    }
}

/// One error model: a terminal transport failure reaches the caller as
/// `WorkloadError::Socket` whichever workload met it. The connections
/// here were wired at the facade but never dialed, so the Pony engine
/// fails every chunk (`OpStatus::Error`) and the facade marks the
/// socket `TransportFailed`. (The kernel-TCP model has no terminal
/// failure to report: its stream is reliable and `TcpEnd` never
/// emits `SendFailed`.)
#[test]
fn a_failed_transport_is_a_socket_error_from_every_workload() {
    let mut tb = Testbed::pair();
    let a = tb.app(0, "left", Backend::Pony);
    let b = tb.app(1, "right", Backend::Pony);
    let mut conn = 1 << 40;
    let mut all = one_of_each(&mut tb, |_| {
        conn += 1;
        let dialed = wire(&a, &b, conn);
        (dialed, b.listener().accept().expect("queued by wire"))
    });
    for w in &mut all {
        assert_eq!(
            drive(tb.as_pump(), &mut [w.as_mut()], Nanos::from_millis(20)),
            Err(WorkloadError::Socket(SocketError::TransportFailed)),
            "{}",
            w.name()
        );
    }
}
