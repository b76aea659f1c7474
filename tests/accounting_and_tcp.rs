//! CPU/memory accounting (§2.5) and the kernel-TCP baseline compared
//! against Pony Express (§5.1's headline efficiency claim).

use std::rc::Rc;

use snap_repro::pair::{pingpong, stream, Learn, Op, Stack, Stream};
use snap_repro::pony::client::PonyCommand;
use snap_repro::shm::region::AccessMode;
use snap_repro::sim::costs;
use snap_repro::sim::Nanos;
use snap_repro::testbed::Testbed;

#[test]
fn engine_cpu_charged_to_app_containers() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "websearch", |_| {});
    let _b = tb.pony_app(1, "storage", |_| {});
    let conn = tb.connect(0, "websearch", 1, "storage");
    for _ in 0..100 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 1_000 });
    }
    tb.run_ms(50);
    // Sender engine CPU charged to websearch; receiver engine CPU to
    // storage — softirq-style misattribution is exactly what §2.5 says
    // Snap fixes.
    assert!(tb.hosts[0].cpu.usage("websearch") > 0);
    assert!(tb.hosts[1].cpu.usage("storage") > 0);
    assert_eq!(tb.hosts[0].cpu.usage("storage"), 0);
}

#[test]
fn region_memory_charged_and_released() {
    let mut tb = Testbed::pair();
    let _b = tb.pony_app(1, "kv", |_| {});
    let before = tb.hosts[1].memory.usage("kv");
    let region = tb.hosts[1].regions.register("kv", 1 << 20, AccessMode::ReadWrite);
    assert_eq!(tb.hosts[1].memory.usage("kv"), before + (1 << 20));
    tb.hosts[1].regions.deregister(region);
    assert_eq!(tb.hosts[1].memory.usage("kv"), before);
}

/// Runs the saturating stream of Table 1 over kernel TCP and over
/// Snap/Pony on identical 50 Gbps pairs, and compares Gbps per
/// CPU-second — the paper's "3x better transport processing efficiency"
/// claim.
#[test]
fn pony_beats_tcp_on_gbps_per_core() {
    let window = Nanos::from_millis(2);
    let tcp = stream(&Stack::Tcp, 50.0, 1, window);
    // Snap/Pony, large MTU (the deployed configuration of §5.2).
    let large_mtu = Stack::Pony(Rc::new(|cfg| cfg.mtu = costs::PONY_LARGE_MTU));
    let pony = stream(&large_mtu, 50.0, 1, window);
    // Both machines' transport CPU; for Pony the engines' busy passes
    // only (spin time excluded to measure transport processing
    // efficiency, as Table 1 does for the busy engine).
    let eff = |r: &Stream| r.gbps / (r.cores[0] + r.cores[1]); // Gbit per cpu-sec
    let (tcp_eff, pony_eff) = (eff(&tcp), eff(&pony));
    let (tcp_gbps, pony_gbps) = (tcp.gbps, pony.gbps);

    assert!(
        pony_eff > 2.0 * tcp_eff,
        "Pony efficiency {pony_eff:.1} Gb/cpu-s must be >2x TCP {tcp_eff:.1} \
         (throughputs: pony {pony_gbps:.1} Gbps, tcp {tcp_gbps:.1} Gbps)"
    );
    assert!(
        pony_gbps > tcp_gbps,
        "Pony {pony_gbps:.1} Gbps should beat TCP {tcp_gbps:.1} Gbps"
    );
}

#[test]
fn tcp_busy_poll_reduces_latency() {
    // Fig. 6(a): busy-polling sockets cut TCP RTT from ~23us to ~18us.
    let mean_rtt_us = |learn| {
        let rtts = pingpong(&Stack::Tcp, 50.0, learn, Op::Message);
        assert!(rtts.count() > 0, "echo completed");
        rtts.mean() / 1e3
    };
    let normal = mean_rtt_us(Learn::Notified);
    let polled = mean_rtt_us(Learn::Spin);
    assert!(
        polled < normal,
        "busy-poll RTT {polled:.1}us should beat {normal:.1}us"
    );
}
