//! Ablations of Snap design choices called out in DESIGN.md:
//!
//! * NIC polling batch size (§3.1's "default is 16 packets per batch",
//!   trading latency vs bandwidth);
//! * the compacting scheduler's queueing-delay SLO (scale-out
//!   aggressiveness vs CPU).
//!
//! Run: `cargo bench -p snap-bench --bench ablations`

use snap_repro::core::group::SchedulingMode;
use snap_repro::pony::client::{PonyCommand, PonyCompletion};
use snap_repro::rack::{run, Antagonist, RackParams, Stack};
use snap_repro::sim::Nanos;
use snap_repro::testbed::Testbed;

/// Bulk-transfer goodput and engine CPU as a function of the rx poll
/// batch size.
fn batch_sweep() {
    println!("\n--- NIC polling batch size (default 16) ---");
    println!("{:>8} {:>10} {:>12}", "batch", "Gbps", "engine CPU");
    for batch in [1usize, 4, 16, 64] {
        let mut tb = Testbed::pair();
        let mut a = tb.pony_app(0, "a", |cfg| cfg.poll_batch = batch);
        let mut b = tb.pony_app(1, "b", |cfg| cfg.poll_batch = batch);
        let conn = tb.connect(0, "a", 1, "b");
        b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 4096 });
        tb.run_ms(1);
        let start = tb.sim.now();
        const BYTES: u64 = 10_000_000;
        for _ in 0..(BYTES / 1_000_000) {
            a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 1_000_000 });
        }
        let mut got = 0u64;
        let mut done_at = start;
        while got < BYTES && tb.sim.now() < start + Nanos::from_secs(2) {
            tb.run_ms(2);
            for c in b.take_completions() {
                if let PonyCompletion::RecvMsg { len, .. } = c {
                    got += len;
                    done_at = tb.sim.now();
                }
            }
        }
        let wall = (done_at - start).as_secs_f64();
        let gbps = got as f64 * 8.0 / wall / 1e9;
        let cpu = (tb.host_cpu(0).engine + tb.host_cpu(1).engine).as_secs_f64() / wall;
        println!("{:>8} {:>10.1} {:>12.2}", batch, gbps, cpu);
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
            stack: Stack::Pony(
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
        let r = run(&params);
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
    batch_sweep();
    slo_sweep();
}
