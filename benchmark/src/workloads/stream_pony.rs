//! `stream_pony`: Table 1 "Snap/Pony, 1 stream". One connection, a
//! closed loop of eight ~500 KB messages in flight, dedicated spinning
//! engine. An op is one message, submit to the sender's `OpDone`. The
//! driver looks at both completion queues after every simulator event,
//! so latency is not quantised by a polling step.

use std::collections::HashMap;

use snap_repro::health_rig::HealthRigConfig;
use snap_repro::obs::RecorderConfig;
use snap_repro::pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_repro::pony::timely::TimelyConfig;
use snap_repro::pony::PonyEngineConfig;
use snap_repro::sim::{Nanos, Rng};
use snap_repro::telemetry::StatsConfig;
use snap_repro::testbed::{Testbed, TestbedConfig};

use super::{trace_ppm, Attach, RepOpts};
use crate::harness::{Call, Extra, Latency, RepOut, SimSide, Spans, Totals};

/// Virtual length of the timed window. Frozen: retuning it moves every
/// simulated metric.
const WINDOW: Nanos = Nanos::from_millis(150);
const DRAIN: Nanos = Nanos::from_millis(20);
const IN_FLIGHT: usize = 8;
/// Message sizes are drawn from the seed, uniform in 500 KB +- 5 %.
const MSG_MIN: u64 = 475_000;
const MSG_SPAN: u64 = 50_001;

struct Driver {
    tb: Testbed,
    a: PonyClient,
    b: PonyClient,
    conn: u64,
    rng: Rng,
    sp: Spans,
    submitted_at: HashMap<u64, Nanos>,
    measuring: bool,
    refill: bool,
    lat_ns: Vec<u64>,
    payload_bytes: u64,
    attempted: u64,
    failed: u64,
    delivered: u64,
    pending_max: u64,
}

impl Driver {
    fn submit(&mut self) {
        let len = MSG_MIN + self.rng.below(MSG_SPAN);
        let op = self.a.submit(
            &mut self.tb.sim,
            PonyCommand::Send {
                conn: self.conn,
                stream: 0,
                len,
            },
        );
        self.submitted_at.insert(op, self.tb.sim.now());
        self.attempted += 1;
    }

    /// Pumps until `until`, or until nothing is outstanding when the
    /// window is no longer refilled (the drain).
    fn pump(&mut self, until: Nanos) {
        while self.tb.sim.now() < until && (self.refill || !self.submitted_at.is_empty()) {
            let t = self.sp.tick();
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

            let now = self.tb.sim.now();
            for c in rx {
                if let PonyCompletion::RecvMsg { len, .. } = c {
                    self.delivered += 1;
                    if self.measuring {
                        self.payload_bytes += len;
                    }
                }
            }
            let t = self.sp.tick();
            for c in tx {
                if let PonyCompletion::OpDone { op, status, .. } = c {
                    let Some(t0) = self.submitted_at.remove(&op) else {
                        self.failed += 1; // completed twice
                        continue;
                    };
                    if status != OpStatus::Ok {
                        self.failed += 1;
                    } else if self.measuring {
                        self.lat_ns.push((now - t0).as_nanos());
                    }
                    if self.refill {
                        self.submit();
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
        seed: o.seed,
        admission: o.attach == Attach::Isolation,
        trace_sample_ppm: trace_ppm(o),
        ..TestbedConfig::default()
    });
    let configure = |cfg: &mut PonyEngineConfig| {
        cfg.cc = TimelyConfig {
            max_rate: 12.5e9, // 100 Gbps line rate
            ..TimelyConfig::default()
        };
    };
    let a = tb.pony_app(0, "sender", configure);
    let mut b = tb.pony_app(1, "receiver", configure);
    sp.next("connect");
    let conn = tb.connect(0, "sender", 1, "receiver");
    b.submit(
        &mut tb.sim,
        PonyCommand::PostRecvBuffers { conn, count: 16384 },
    );
    // The attachment differentials: each watches the same run from one
    // more crate. Handles stay alive to the end of the rep.
    let cadence = Nanos::from_millis(1);
    let stats = (o.attach == Attach::Telemetry).then(|| {
        let s = tb.stats_module(StatsConfig {
            poll_period: cadence,
        });
        s.start(&mut tb.sim);
        s
    });
    let flight = (o.attach == Attach::Obs).then(|| {
        let r = tb.flight_recorder(RecorderConfig {
            cadence,
            ..RecorderConfig::default()
        });
        r.start(&mut tb.sim);
        r
    });
    let rig = (o.attach == Attach::Health).then(|| {
        let r = tb.health_rig(HealthRigConfig::default());
        r.start(&mut tb.sim);
        r
    });

    sp.next("warmup");
    let recorder = tb.recorder.clone();
    let mut d = Driver {
        tb,
        a,
        b,
        conn,
        rng: Rng::new(o.seed).stream(0x57AE),
        sp,
        submitted_at: HashMap::new(),
        measuring: false,
        refill: true,
        lat_ns: Vec::new(),
        payload_bytes: 0,
        attempted: 0,
        failed: 0,
        delivered: 0,
        pending_max: 0,
    };
    let window = WINDOW.scale(o.scale);
    for _ in 0..IN_FLIGHT {
        d.submit();
    }
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
    if let Some(s) = &stats {
        s.stop();
    }
    if let Some(r) = &flight {
        r.stop();
    }
    if let Some(r) = &rig {
        r.stop();
        // A healthy pair must never be quarantined.
        d.failed += r.quarantines() as u64;
    }
    let drained = Totals::read(&mut d.tb);
    d.sp.close();
    d.sp.close();

    d.failed += d.submitted_at.len() as u64;
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
            failed: d.failed,
            msgs_submitted: d.attempted,
            msgs_delivered: d.delivered,
        },
    }
}
