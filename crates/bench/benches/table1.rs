//! **Table 1** (§5.1): single-machine-pair throughput and CPU for
//! kernel TCP vs Snap/Pony across stream counts, MTUs, and I/OAT
//! receive-copy offload — `snap_repro::pair::stream`, one row per
//! parameter list, the paper's value and our signed error beside each.
//!
//! Run: `cargo bench -p snap-bench --bench table1`

use std::rc::Rc;

use snap_repro::pair::{stream, Stack};
use snap_repro::sim::{costs, Nanos};

fn main() {
    snap_bench::header("Table 1: throughput and CPU of a 100 Gbps pair, 40 ms window");
    println!(
        "{:<28} {:>14} {:>6} {:>7}   {:>11} {:>6} {:>7}",
        "configuration", "CPU/sec: paper", "ours", "err %", "Gbps: paper", "ours", "err %"
    );
    let pony = |mtu: u32, ioat: bool| {
        Stack::Pony(Rc::new(move |cfg| {
            cfg.mtu = mtu;
            cfg.use_ioat = ioat;
        }))
    };
    let (small, large) = (costs::PONY_DEFAULT_MTU, costs::PONY_LARGE_MTU);
    // The model meters no application thread: Pony rows add the paper's
    // ≈ 0.05 cores of command issue to the busier engine, kernel rows
    // have their syscalls and copies in the stack's own books.
    let app = costs::PONY_APP_CORES;
    #[rustfmt::skip]
    let rows = [
        ("Linux TCP, 1 stream", Stack::Tcp, 1, 0.0, 1.17, 22.0),
        ("Linux TCP, 200 streams", Stack::Tcp, 200, 0.0, 1.15, 12.4),
        ("Snap/Pony, 1 stream", pony(small, false), 1, app, 1.05, 38.5),
        ("Snap/Pony, 200 streams", pony(small, false), 200, app, 1.05, 39.1),
        ("Snap/Pony 5k MTU, 1 stream", pony(large, false), 1, app, 1.05, 67.5),
        ("Snap/Pony 5k MTU, 200 str", pony(large, false), 200, app, 1.05, 65.7),
        ("Snap/Pony 5k+I/OAT, 1 str", pony(large, true), 1, app, 1.05, 82.2),
        ("Snap/Pony 5k+I/OAT, 200", pony(large, true), 200, app, 1.05, 80.5),
    ];
    for (label, stack, streams, app_cores, paper_cpu, paper_gbps) in rows {
        if matches!(stack, Stack::Tcp) && streams > 1 {
            println!(
                "{label:<28} {paper_cpu:>14.2} {0:>6} {0:>7}   {paper_gbps:>11.1} {0:>6} {0:>7}",
                "-"
            );
            continue;
        }
        let r = stream(&stack, 100.0, streams, Nanos::from_millis(40));
        // Per machine: the busier side is the paper's number.
        let cpu = r.cores[0].max(r.cores[1]) + app_cores;
        println!(
            "{:<28} {:>14.2} {:>6.2} {:>+7.1}   {:>11.1} {:>6.1} {:>+7.1}",
            label,
            paper_cpu,
            cpu,
            snap_bench::error_pct(paper_cpu, cpu),
            paper_gbps,
            r.gbps,
            snap_bench::error_pct(paper_gbps, r.gbps)
        );
    }
    println!(
        "(Linux TCP, 200 streams is not measured: the modeled kernel paces every connection as if"
    );
    println!(
        " on a core of its own, so 200 busy ones fill the link on nine cores; the paper's row is"
    );
    println!(" one thread's. ROADMAP item 2: a host-wide transmit pacer.)");
}
