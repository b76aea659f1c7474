//! `pingpong_pony`: the smallest message, one at a time. Compacting
//! engines with C-states enabled, one connection, ~64 B request and
//! reply, and a think time between round trips long enough for the
//! engines to block (after 100 us idle) and their cores to descend into
//! a deep C-state (after a further 200 us), so every round trip pays the
//! interrupt wake-up path on both hosts. An op is one round trip. The
//! driver looks at both completion queues after every simulator event
//! (an application thread spinning on its queue), so latency is not
//! quantised by the driver.

use snap_repro::core::group::SchedulingMode;
use snap_repro::pony::client::{PonyClient, PonyCommand, PonyCompletion};
use snap_repro::sim::{Nanos, Rng};
use snap_repro::testbed::{Testbed, TestbedConfig};

use super::{trace_ppm, RepOpts};
use crate::harness::{Call, Extra, Latency, RepOut, SimSide, Spans, Totals};

/// Virtual length of the timed window. Frozen.
const WINDOW: Nanos = Nanos::from_millis(3000);
const DRAIN: Nanos = Nanos::from_millis(1);
/// Request and reply sizes are drawn from the seed, uniform in 48..=80 B.
const MSG_MIN: u64 = 48;
const MSG_SPAN: u64 = 33;
/// Think time between a reply and the next request, drawn from the
/// seed, uniform in 100..400 us.
const THINK_MIN_NS: u64 = 100_000;
const THINK_SPAN_NS: u64 = 300_000;
const REQUEST: u32 = 1;
const REPLY: u32 = 0;

struct Driver {
    tb: Testbed,
    a: PonyClient,
    b: PonyClient,
    conn: u64,
    rng: Rng,
    sp: Spans,
    /// Submit instant of the round trip in flight.
    in_flight: Option<Nanos>,
    /// When the next request is due.
    next_ping: Option<Nanos>,
    measuring: bool,
    refill: bool,
    lat_ns: Vec<u64>,
    payload_bytes: u64,
    attempted: u64,
    submitted: u64,
    delivered: u64,
    pending_max: u64,
}

impl Driver {
    fn ping(&mut self) {
        let len = MSG_MIN + self.rng.below(MSG_SPAN);
        self.a.submit(
            &mut self.tb.sim,
            PonyCommand::Send {
                conn: self.conn,
                stream: REQUEST,
                len,
            },
        );
        self.in_flight = Some(self.tb.sim.now());
        self.attempted += 1;
        self.submitted += 1;
    }

    fn pump(&mut self, until: Nanos) {
        while self.tb.sim.now() < until && (self.refill || self.in_flight.is_some()) {
            let t = self.sp.tick();
            if let Some(due) = self.next_ping {
                self.tb.sim.run_until(due.min(until));
                if due > until {
                    break;
                }
                self.next_ping = None;
                self.ping();
            }
            while self.tb.sim.step()
                && self.tb.sim.now() < until
                && self.a.completions_pending() == 0
                && self.b.completions_pending() == 0
            {}
            self.sp.tock(Call::SimRun, t);
            self.pending_max = self.pending_max.max(self.tb.sim.pending() as u64);

            let t = self.sp.tick();
            let rx = self.b.take_completions();
            let tx = self.a.take_completions();
            self.sp.tock(Call::Poll, t);

            let t = self.sp.tick();
            for c in rx {
                if let PonyCompletion::RecvMsg {
                    conn,
                    stream: REQUEST,
                    len,
                    ..
                } = c
                {
                    self.delivered += 1;
                    if self.measuring {
                        self.payload_bytes += len;
                    }
                    self.b.submit(
                        &mut self.tb.sim,
                        PonyCommand::Send {
                            conn,
                            stream: REPLY,
                            len,
                        },
                    );
                    self.submitted += 1;
                }
            }
            for c in tx {
                if let PonyCompletion::RecvMsg {
                    stream: REPLY, len, ..
                } = c
                {
                    self.delivered += 1;
                    if let Some(t0) = self.in_flight.take() {
                        if self.measuring {
                            self.payload_bytes += len;
                            self.lat_ns.push((self.tb.sim.now() - t0).as_nanos());
                        }
                    }
                    if self.refill {
                        let think = THINK_MIN_NS + self.rng.below(THINK_SPAN_NS);
                        self.next_ping = Some(self.tb.sim.now() + Nanos(think));
                    }
                }
            }
            self.sp.tock(Call::Submit, t);
        }
    }
}

pub fn run(o: &RepOpts) -> RepOut {
    let mut sp = Spans::new(o.traced);
    sp.open("rep");
    sp.open("testbed_build");
    let mut tb = Testbed::new(TestbedConfig {
        nic_gbps: 100.0,
        mode: SchedulingMode::compacting_default(),
        seed: o.seed,
        trace_sample_ppm: trace_ppm(o),
        ..TestbedConfig::default()
    });
    for h in &tb.hosts {
        h.machine.borrow_mut().set_cstates_enabled(true);
    }
    let a = tb.pony_app(0, "ping", |_| {});
    let b = tb.pony_app(1, "pong", |_| {});
    sp.next("connect");
    let conn = tb.connect(0, "ping", 1, "pong");

    sp.next("warmup");
    let recorder = tb.recorder.clone();
    let mut d = Driver {
        tb,
        a,
        b,
        conn,
        rng: Rng::new(o.seed).stream(0x9196),
        sp,
        in_flight: None,
        next_ping: None,
        measuring: false,
        refill: true,
        lat_ns: Vec::new(),
        payload_bytes: 0,
        attempted: 0,
        submitted: 0,
        delivered: 0,
        pending_max: 0,
    };
    let window = WINDOW.scale(o.scale);
    d.ping();
    let t = d.tb.sim.now() + window.scale(0.1);
    d.pump(t);

    let start = Totals::read(&mut d.tb);
    d.sp.next("window");
    d.measuring = true;
    d.pump(start.at + window);
    d.measuring = false;
    d.sp.next("drain");
    let end = Totals::read(&mut d.tb);

    d.refill = false;
    d.pump(end.at + DRAIN);
    // Let the last acks land so the packet ledger closes.
    let t = d.tb.sim.now() + DRAIN;
    d.tb.sim.run_until(t);
    let drained = Totals::read(&mut d.tb);
    d.sp.close();
    d.sp.close();

    RepOut {
        spans: d.sp,
        recorder,
        sim: SimSide {
            sides: vec![vec![0], vec![1]],
            start,
            end,
            drained,
            extra: Extra {
                pending_max: d.pending_max,
                ..Extra::default()
            },
            payload_bytes: d.payload_bytes,
            lat: Latency::of_samples(d.lat_ns),
            attempted: d.attempted,
            failed: d.in_flight.is_some() as u64,
            msgs_submitted: d.submitted,
            msgs_delivered: d.delivered,
        },
    }
}
