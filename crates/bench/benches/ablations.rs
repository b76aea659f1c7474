//! Ablations of Snap design choices called out in DESIGN.md:
//!
//! * NIC polling batch size (§3.1's "default is 16 packets per batch",
//!   trading latency vs bandwidth);
//! * the compacting scheduler's queueing-delay SLO (scale-out
//!   aggressiveness vs CPU).
//!
//! Run: `cargo bench -p snap-bench --bench ablations`

use std::rc::Rc;

use snap_repro::core::group::SchedulingMode;
use snap_repro::pair;
use snap_repro::rack::{self, Antagonist, RackParams};
use snap_repro::sim::Nanos;

/// Goodput and engine CPU (both machines') of the Table 1 stream on a
/// 50 Gbps pair, as a function of the rx poll batch size.
fn poll_batches() {
    println!("\n--- NIC polling batch size (default 16) ---");
    println!("{:>8} {:>10} {:>12}", "batch", "Gbps", "engine CPU");
    for batch in [1usize, 4, 16, 64] {
        let stack = pair::Stack::Pony(Rc::new(move |cfg| cfg.poll_batch = batch));
        let r = pair::stream(&stack, 50.0, 1, Nanos::from_millis(40));
        let cpu = r.cores[0] + r.cores[1];
        println!("{:>8} {:>10.1} {:>12.2}", batch, r.gbps, cpu);
    }
    println!("(small batches pay the per-pass poll cost per packet; large batches add queueing)");
}

/// Compacting-scheduler SLO sweep: tail latency vs CPU.
fn slo_sweep() {
    println!("\n--- Compacting scheduler queueing-delay SLO ---");
    println!(
        "{:>10} {:>12} {:>6} {:>12} {:>10}",
        "SLO", "p99 prober", "n", "CPU/host", "RPCs"
    );
    for slo_us in [10u64, 50, 200, 1_000] {
        let params = RackParams {
            hosts: 4,
            jobs_per_host: 2,
            stack: rack::Stack::Pony(
                SchedulingMode::Compacting {
                    slo: Nanos::from_micros(slo_us),
                    rebalance_poll: Nanos::from_micros(10),
                    idle_block: Nanos::from_micros(100),
                },
                None,
            ),
            rpc_per_sec_per_host: 800.0,
            prober_qps: 300.0,
            duration: Nanos::from_millis(40),
            antagonist: Antagonist::None,
            ..RackParams::default()
        };
        let r = rack::run(&params);
        println!(
            "{:>8}us {:>9.1}us {:>6} {:>12.3} {:>10}",
            slo_us,
            r.prober.p99() as f64 / 1e3,
            r.prober.count(),
            r.cpu_per_host,
            r.rpcs
        );
    }
    println!("(a loose SLO compacts harder: less CPU, longer queueing tails)");
}

fn main() {
    snap_bench::header("Ablations: batching and compacting SLO");
    poll_batches();
    slo_sweep();
}
