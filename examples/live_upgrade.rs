//! Transparent upgrade under live traffic (§4, Fig. 5).
//!
//! Messages flow between two hosts while the server-side engine is
//! migrated to a "new release": brownout transfers the control state in
//! the background, blackout serializes engine state and swaps the
//! engine. The connection, its stream, and its message sequence all
//! survive; in-flight packets lost during blackout are recovered by
//! the transport like congestion loss.
//!
//! ```sh
//! cargo run --example live_upgrade
//! ```

use snap_repro::core::upgrade::UpgradeOrchestrator;
use snap_repro::pony::client::{PonyCommand, PonyCompletion};
use snap_repro::sim::Nanos;
use snap_repro::telemetry::StatsConfig;
use snap_repro::testbed::Testbed;

fn main() {
    let mut tb = Testbed::pair();
    let mut client = tb.pony_app(0, "app", |_| {});
    let mut server = tb.pony_app(1, "service", |_| {});
    let conn = tb.connect(0, "app", 1, "service");
    server.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 1024 });

    // Telemetry rides along: the stats module polls both engines and
    // the fabric, and ingests the upgrade report when it lands.
    let stats = tb.stats_module(StatsConfig::default());
    stats.start(&mut tb.sim);

    let mut received = Vec::new();
    let mut sent = 0u64;

    // Phase 1: steady traffic.
    for _ in 0..20 {
        client.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 900 });
        sent += 1;
        tb.run_us(300);
        for c in server.take_completions() {
            if let PonyCompletion::RecvMsg { msg, .. } = c {
                received.push(msg);
            }
        }
    }
    println!("phase 1: sent {sent}, server received {} messages", received.len());

    // Phase 2: upgrade the server's engine while traffic continues.
    let engine = tb.hosts[1].module.engine_for("service").expect("engine exists");
    let factory = tb.hosts[1].module.upgrade_factory("service").expect("factory");
    let mut orch = UpgradeOrchestrator::new();
    orch.add_engine(tb.hosts[1].group.clone(), engine, 8, factory);
    let report_slot = orch.start(&mut tb.sim);
    stats.watch_upgrade(report_slot.clone());
    println!("upgrade started at t={}", tb.sim.now());

    // Keep sending right through brownout and blackout.
    for _ in 0..20 {
        client.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 900 });
        sent += 1;
        tb.run_ms(3);
        for c in server.take_completions() {
            if let PonyCompletion::RecvMsg { msg, .. } = c {
                received.push(msg);
            }
        }
    }

    // Phase 3: drain.
    tb.run_ms(500);
    for c in server.take_completions() {
        if let PonyCompletion::RecvMsg { msg, .. } = c {
            received.push(msg);
        }
    }

    stats.stop();
    let report = report_slot.borrow().clone().expect("upgrade finished");
    let e = &report.engines[0];
    assert!(
        e.blackout < Nanos::from_millis(250),
        "blackout within the paper's envelope"
    );
    // The final dashboard: the upgrade shows up as blackout/brownout
    // histograms next to the engine and fabric counters — and the
    // machine-level op counters are exact across the engine swap.
    println!("\n{}", stats.snapshot(tb.sim.now()).to_table());
    let snap = stats.snapshot(tb.sim.now());
    assert_eq!(snap.counter("upgrade.engines"), Some(1));
    assert!(
        snap.histogram("upgrade.blackout").map(|h| h.count()) == Some(1),
        "upgrade blackout folded into telemetry exactly once"
    );

    received.sort_unstable();
    received.dedup();
    println!(
        "delivered {}/{} messages across the upgrade; stream ids continuous: {}",
        received.len(),
        sent,
        received == (0..sent).collect::<Vec<_>>()
    );
    assert_eq!(
        received,
        (0..sent).collect::<Vec<_>>(),
        "every message delivered exactly once, in the same stream"
    );
    println!("transparent upgrade complete — applications never disconnected");
}
