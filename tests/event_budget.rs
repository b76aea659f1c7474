//! Simulator events per delivered packet, held to a budget.
//!
//! Every simulator event costs a heap pop, a push and — under the
//! drivers here, which look at their completion queues after each one,
//! as the benchmark's do — a poll, whether or not it changes anything.
//! Two warm two-host shapes are run and `Sim::events_executed()` per
//! `FabricStats::delivered` packet is held to a ceiling set just above
//! what the test measures. The runs are deterministic, so the counts
//! are too: a ceiling is crossed only when code on the path starts to
//! schedule events it did not need before.

use snap_repro::core::group::SchedulingMode;
use snap_repro::pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_repro::pony::timely::TimelyConfig;
use snap_repro::sim::{Nanos, Rng};
use snap_repro::testbed::{Testbed, TestbedConfig};

/// Steps the simulator until `until` or until either application has a
/// completion to look at.
fn step_to_completion(tb: &mut Testbed, a: &PonyClient, b: &PonyClient, until: Nanos) {
    while tb.sim.step()
        && tb.sim.now() < until
        && a.completions_pending() == 0
        && b.completions_pending() == 0
    {}
}

/// Events executed per packet delivered over `run`.
fn events_per_packet(tb: &mut Testbed, run: impl FnOnce(&mut Testbed)) -> f64 {
    let (events, packets) = (tb.sim.events_executed(), tb.fabric.stats().delivered);
    run(tb);
    let (events, packets) = (
        tb.sim.events_executed() - events,
        tb.fabric.stats().delivered - packets,
    );
    assert!(packets >= 1_000, "{packets} packets is too few to budget");
    println!("{events} events for {packets} delivered packets");
    events as f64 / packets as f64
}

/// The shape of the benchmark's `stream_pony`: 100 Gbps, a dedicated
/// spinning engine, one connection, eight 500 KB messages in flight.
#[test]
fn stream_events_per_delivered_packet() {
    const MSG_BYTES: u64 = 500_000;
    let mut tb = Testbed::new(TestbedConfig {
        nic_gbps: 100.0,
        seed: 42,
        ..TestbedConfig::default()
    });
    let configure = |cfg: &mut snap_repro::pony::PonyEngineConfig| {
        cfg.cc = TimelyConfig {
            max_rate: 12.5e9,
            ..TimelyConfig::default()
        };
    };
    let mut tx = tb.pony_app(0, "tx", configure);
    let mut rx = tb.pony_app(1, "rx", configure);
    let conn = tb.connect(0, "tx", 1, "rx");
    rx.submit(
        &mut tb.sim,
        PonyCommand::PostRecvBuffers {
            conn,
            count: 16_384,
        },
    );
    let send = PonyCommand::Send {
        conn,
        stream: 0,
        len: MSG_BYTES,
    };
    for _ in 0..8 {
        tx.submit(&mut tb.sim, send.clone());
    }
    let mut pump = |tb: &mut Testbed, until: Nanos| {
        while tb.sim.now() < until {
            step_to_completion(tb, &tx, &rx, until);
            rx.take_completions();
            for c in tx.take_completions() {
                if let PonyCompletion::OpDone { status, .. } = c {
                    assert_eq!(status, OpStatus::Ok);
                    tx.submit(&mut tb.sim, send.clone());
                }
            }
        }
    };
    let warm = Nanos::from_millis(2);
    pump(&mut tb, warm);
    let per_packet = events_per_packet(&mut tb, |tb| pump(tb, warm + Nanos::from_millis(10)));
    // Measured 5.72 a packet: four fabric events (`send_train`, the
    // switch's `hop` pair, `deliver_train`), one worker pass, and 0.72
    // of a pacing timer, which wakes its worker in the event that fires
    // it (6.44 while it scheduled a second event to do so).
    assert!(per_packet <= 5.75, "{per_packet:.3} events per packet");
}

/// The shape of the benchmark's `pingpong_pony`: compacting engines,
/// C-states on, ~64 B request and reply, and a think time long enough
/// for both engines to block between round trips.
#[test]
fn pingpong_events_per_delivered_packet() {
    let mut tb = Testbed::new(TestbedConfig {
        nic_gbps: 100.0,
        mode: SchedulingMode::compacting_default(),
        seed: 42,
        ..TestbedConfig::default()
    });
    for h in &tb.hosts {
        h.machine.borrow_mut().set_cstates_enabled(true);
    }
    let mut a = tb.pony_app(0, "ping", |_| {});
    let mut b = tb.pony_app(1, "pong", |_| {});
    let conn = tb.connect(0, "ping", 1, "pong");
    let mut rng = Rng::new(42);
    let mut round_trips = |tb: &mut Testbed, n: usize| {
        for _ in 0..n {
            let len = 48 + rng.below(33);
            a.submit(
                &mut tb.sim,
                PonyCommand::Send {
                    conn,
                    stream: 1,
                    len,
                },
            );
            let mut replied = false;
            while !replied {
                step_to_completion(tb, &a, &b, Nanos::MAX);
                for c in b.take_completions() {
                    if let PonyCompletion::RecvMsg { stream: 1, len, .. } = c {
                        b.submit(
                            &mut tb.sim,
                            PonyCommand::Send {
                                conn,
                                stream: 0,
                                len,
                            },
                        );
                    }
                }
                for c in a.take_completions() {
                    replied |= matches!(c, PonyCompletion::RecvMsg { stream: 0, .. });
                }
            }
            let think = Nanos(100_000 + rng.below(300_000));
            let due = tb.sim.now() + think;
            tb.sim.run_until(due);
        }
    };
    round_trips(&mut tb, 20);
    let per_packet = events_per_packet(&mut tb, |tb| round_trips(tb, 400));
    // Measured 8.13 a packet (a message is two: data and ack): the four
    // fabric events, 1.47 passes scheduled by a wake, 1.76 passes and
    // framework wakes scheduled by a pass, half a doorbell and 0.40 of
    // an RTO timer. 22.0 while the rebalancer of each host's one-engine
    // group ticked every 10 us through the think time.
    assert!(per_packet <= 8.2, "{per_packet:.3} events per packet");

    // One engine on its one worker: there is nothing to rebalance, so
    // nothing ticks and the simulation drains without `stop()`.
    let drained = tb.sim.run_limit(10_000);
    assert!(drained < 10_000, "a compacting group is still ticking");
    assert_eq!(tb.sim.pending(), 0);
}
