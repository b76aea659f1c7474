//! **Fig. 7(a)** (§5.3): latency impact of deep C-states at low QPS on
//! otherwise-idle machines.
//!
//! "Both kernel TCP and the Snap spreading scheduler see remarkably
//! worse latency than the prior two-machine ping-pong result due to
//! C-state interrupt wakeup latency. The Snap compacting scheduler
//! avoids this wakeup cost because its most compacted, least-loaded
//! state spin-polls on a single core."
//!
//! Probes fire once per millisecond (1000 QPS); between probes every
//! interrupt-driven core descends into C6. The prober application
//! thread spins, isolating *transport* wakeup (as the paper does).
//!
//! Run: `cargo bench -p snap-bench --bench fig7a_cstate`

use snap_repro::core::group::SchedulingMode;
use snap_repro::rack::{run, Antagonist, RackParams, Stack};
use snap_repro::sim::Nanos;

fn main() {
    snap_bench::header("Fig 7(a): low-QPS latency with C-states, idle machines");
    println!("{:<26} {:>12} {:>12} {:>12}", "stack", "p50", "p99", "mean");
    let compacting_sticky = SchedulingMode::Compacting {
        slo: Nanos::from_micros(50),
        rebalance_poll: Nanos::from_micros(10),
        // Generous idle budget: at 1 ms probe gaps the compacted core
        // keeps spinning instead of blocking (the paper's default
        // compacted state).
        idle_block: Nanos::from_millis(20),
    };
    let cases: Vec<(&str, Stack)> = vec![
        ("kernel TCP", Stack::Tcp),
        ("snap spreading", Stack::Pony(SchedulingMode::Spreading, None)),
        ("snap compacting", Stack::Pony(compacting_sticky, None)),
    ];
    for (name, stack) in cases {
        let params = RackParams {
            hosts: 4,
            jobs_per_host: 1,
            stack,
            // Prober only: no background RPC load.
            rpc_per_sec_per_host: 0.001,
            prober_qps: 1_000.0,
            // 1 000/s x 4 hosts x 0.3 s = 1 200 probes: ten beyond the p99.
            duration: Nanos::from_millis(300),
            antagonist: Antagonist::None,
            cstates: true,
            ..RackParams::default()
        };
        let r = run(&params);
        println!(
            "{:<26} {:>9.1}us {:>9.1}us {:>9.1}us   (n={})",
            name,
            r.prober.median() as f64 / 1e3,
            r.prober.p99() as f64 / 1e3,
            r.prober.mean() / 1e3,
            r.prober.count(),
        );
    }
    println!("\npaper shape: TCP and spreading pay the C6 exit on every wake; compacting spin-polls through it");
}
