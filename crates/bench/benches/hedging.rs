//! **Scenario: hedged retries on a lossy link** (gray-failure health,
//! DESIGN.md §13).
//!
//! A closed-loop streaming source (one op in flight, so an op's
//! latency is its own network fate, not queueing behind a window)
//! sends over a seeded 5%-lossy link, with and without hedged retries.
//! Without hedging a lost packet waits out the flow's RTO (≥ 200 µs);
//! a hedge fires at the observed p80 latency plus jitter and
//! retransmits early, so the hedged p99 must come in strictly below
//! the unhedged p99 while delivery stays exactly-once.
//!
//! Sim clock only: every number printed is virtual time under the
//! fixed seed, asserted identical across a rerun and pinned in
//! `tests/golden/scenarios/hedging.txt`.
//!
//! Run: `cargo bench -p snap-bench --bench hedging`

use snap_repro::pony::client::{HedgeConfig, OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_repro::sim::fault::{FaultEvent, FaultPlan};
use snap_repro::sim::Nanos;
use snap_repro::testbed::Testbed;

const TOTAL_OPS: u64 = 1200;
const MSG_BYTES: u64 = 2048;
const PUMP_US: u64 = 5;
const LOSS_PROB: f64 = 0.05;
/// At a few percent loss the observed-latency window carries that same
/// few percent of RTO-length tail samples, so arming at p90 would chase
/// the tail it is trying to cut; p80 keeps the trigger inside the
/// healthy latency mass.
const HEDGE_QUANTILE: f64 = 0.8;
/// Virtual-time budget per run; a run that can't drain by then is hung.
const BUDGET_MS: u64 = 2_000;

#[derive(PartialEq, Debug)]
struct RunResult {
    /// `(op id, status)` for every completed op, sorted by id.
    op_results: Vec<(u64, OpStatus)>,
    /// Messages the sink actually received.
    delivered: u64,
    /// Per-op completion latency in virtual ns, in completion order.
    latencies: Vec<u64>,
    hedges_fired: u64,
}

impl RunResult {
    fn p_us(&self, q: f64) -> f64 {
        let mut v = self.latencies.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * q).round() as usize;
        v[idx] as f64 / 1_000.0
    }
}

/// Submits `TOTAL_OPS` sends one at a time over the lossy link and
/// records each op's status and virtual-time latency.
fn run(hedged: bool) -> RunResult {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "src", |_| {});
    let mut b = tb.pony_app(1, "sink", |_| {});
    let conn = tb.connect(0, "src", 1, "sink");
    if hedged {
        a.enable_hedging(HedgeConfig {
            quantile: HEDGE_QUANTILE,
            ..HedgeConfig::default()
        });
    }
    tb.install_fault_plan(&FaultPlan::new().at(
        Nanos(0),
        FaultEvent::LinkLossy {
            from: 0,
            to: 1,
            prob: LOSS_PROB,
        },
    ));

    let deadline = tb.sim.now() + Nanos::from_millis(BUDGET_MS);
    let mut op_results: Vec<(u64, OpStatus)> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut delivered = 0u64;
    let count_delivered = |b: &mut PonyClient| {
        b.take_completions()
            .into_iter()
            .filter(|c| matches!(c, PonyCompletion::RecvMsg { .. }))
            .count() as u64
    };
    // One op in flight: each completion is the last send's.
    let send = PonyCommand::Send {
        conn,
        stream: 0,
        len: MSG_BYTES,
    };
    a.submit(&mut tb.sim, send.clone());
    let mut sent_at = tb.sim.now();
    while (op_results.len() as u64) < TOTAL_OPS {
        assert!(tb.sim.now() < deadline, "run failed to drain in budget");
        tb.run_us(PUMP_US);
        let now = tb.sim.now();
        delivered += count_delivered(&mut b);
        for c in a.take_completions_at(now) {
            if let PonyCompletion::OpDone { op, status, .. } = c {
                latencies.push(now.saturating_sub(sent_at).as_nanos());
                op_results.push((op, status));
                if (op_results.len() as u64) < TOTAL_OPS {
                    a.submit(&mut tb.sim, send.clone());
                    sent_at = now;
                }
            }
        }
    }
    // Let the last in-flight deliveries land at the sink.
    tb.run_ms(2);
    delivered += count_delivered(&mut b);
    op_results.sort_unstable_by_key(|&(op, _)| op);
    RunResult {
        op_results,
        delivered,
        latencies,
        hedges_fired: a.hedge_stats().map(|h| h.hedges_fired).unwrap_or(0),
    }
}

fn row(name: &str, r: &RunResult) {
    println!(
        "{:<12} {:>6} {:>9} {:>10.1} {:>10.1} {:>7}",
        name,
        r.op_results.len(),
        r.delivered,
        r.p_us(0.5),
        r.p_us(0.99),
        r.hedges_fired,
    );
}

fn main() {
    snap_bench::header("Scenario: hedged retries on a 5%-lossy link");
    println!(
        "{:<12} {:>6} {:>9} {:>10} {:>10} {:>7}",
        "variant", "ops", "delivered", "p50 µs", "p99 µs", "hedges"
    );
    let unhedged = run(false);
    let hedged = run(true);
    row("lossy", &unhedged);
    row("lossy+hedge", &hedged);

    assert_eq!(
        unhedged,
        run(false),
        "same seed must replay the unhedged run"
    );
    assert_eq!(hedged, run(true), "same seed must replay the hedged run");
    for r in [&unhedged, &hedged] {
        assert_eq!(
            r.delivered, TOTAL_OPS,
            "lossy run lost or duplicated a message"
        );
        assert!(
            r.op_results.iter().all(|&(_, s)| s == OpStatus::Ok),
            "lossy run failed an op"
        );
    }
    assert!(
        hedged.hedges_fired > 0,
        "lossy link never triggered a hedge"
    );
    assert!(
        hedged.p_us(0.99) < unhedged.p_us(0.99),
        "hedging must cut the lossy p99: hedged {:.1}µs vs unhedged {:.1}µs",
        hedged.p_us(0.99),
        unhedged.p_us(0.99)
    );
    println!(
        "\nhedging cuts the streaming p99 by {:.1}% ({:.1}µs -> {:.1}µs), delivery exactly-once (asserted)",
        (1.0 - hedged.p_us(0.99) / unhedged.p_us(0.99)) * 100.0,
        unhedged.p_us(0.99),
        hedged.p_us(0.99)
    );
}
