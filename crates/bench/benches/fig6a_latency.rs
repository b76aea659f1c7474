//! **Fig. 6(a)** (§5.1): mean round-trip latency of a small message
//! between two machines under the same ToR switch —
//! `snap_repro::pair::pingpong`, one row per parameter list, the
//! paper's mean and our signed error beside each. The Pony engine
//! always spins; the variants differ in how the *application thread*
//! learns of completions.
//!
//! Run: `cargo bench -p snap-bench --bench fig6a_latency`

use std::rc::Rc;

use snap_repro::pair::{pingpong, Learn, Op, Stack};

fn main() {
    snap_bench::header("Fig 6(a): two-machine small-message round-trip latency, us");
    println!(
        "{:<28} {:>11} {:>6} {:>7} {:>7}",
        "configuration", "mean: paper", "ours", "err %", "p99"
    );
    let pony = Stack::Pony(Rc::new(|_| {}));
    // The paper gives "<10 us" for the spinning application: its error
    // is against that bound.
    #[rustfmt::skip]
    let rows = [
        ("Linux TCP", &Stack::Tcp, Learn::Notified, Op::Message, 23.0),
        ("Linux TCP busy-poll", &Stack::Tcp, Learn::Spin, Op::Message, 18.0),
        ("Snap/Pony (app notified)", &pony, Learn::Notified, Op::Message, 18.0),
        ("Snap/Pony (app spins)", &pony, Learn::Spin, Op::Message, 10.0),
        ("Snap/Pony one-sided", &pony, Learn::Spin, Op::Read, 8.8),
    ];
    for (label, stack, learn, op, paper) in rows {
        let rtts = pingpong(stack, 100.0, learn, op);
        let mean = rtts.mean() / 1e3;
        println!(
            "{:<28} {:>11.1} {:>6.2} {:>+7.1} {:>7.2}",
            label,
            paper,
            mean,
            snap_bench::error_pct(paper, mean),
            rtts.p99() as f64 / 1e3
        );
    }
}
