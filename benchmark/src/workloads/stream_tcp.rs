//! `stream_tcp`: Table 1 "Linux TCP, 1 stream". The baseline stack and
//! the control for every Pony-side change. A closed loop of eight ~1 MB
//! messages in flight, refilled from the receiver's `on_message`
//! callback. An op is one message, `send` to the receiver's callback.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use snap_repro::sim::{Nanos, Rng};
use snap_repro::tcp::stack::{TcpConfig, TcpHost};
use snap_repro::testbed::{Testbed, TestbedConfig};

use super::RepOpts;
use crate::harness::{Call, Extra, Latency, RepOut, SimSide, Spans, Totals};

/// Virtual length of the timed window. Frozen.
const WINDOW: Nanos = Nanos::from_millis(1000);
const DRAIN: Nanos = Nanos::from_millis(50);
const PUMP_US: u64 = 1000;
const IN_FLIGHT: usize = 8;
const MSG_MIN: u64 = 950_000;
const MSG_SPAN: u64 = 100_001;

struct Loop {
    rng: Rng,
    next_msg: u64,
    sent_at: HashMap<u64, Nanos>,
    measuring: bool,
    refill: bool,
    lat_ns: Vec<u64>,
    payload_bytes: u64,
    attempted: u64,
    failed: u64,
    delivered: u64,
}

fn send_one(state: &Rc<RefCell<Loop>>, a: &TcpHost, sim: &mut snap_repro::sim::Sim, conn: u64) {
    let (msg, len) = {
        let mut s = state.borrow_mut();
        let len = MSG_MIN + s.rng.below(MSG_SPAN);
        let msg = s.next_msg;
        s.next_msg += 1;
        s.sent_at.insert(msg, sim.now());
        s.attempted += 1;
        (msg, len)
    };
    a.send(sim, conn, msg, len);
}

pub fn run(o: &RepOpts) -> RepOut {
    let mut sp = Spans::new(o.traced);
    sp.open("rep");
    sp.open("testbed_build");
    let mut tb = Testbed::new(TestbedConfig {
        nic_gbps: 100.0,
        seed: o.seed,
        ..TestbedConfig::default()
    });
    let a = tb.tcp_host(0, TcpConfig::default());
    let b = tb.tcp_host(1, TcpConfig::default());
    sp.next("connect");
    let conn = a.connect(tb.hosts[1].id);
    let state = Rc::new(RefCell::new(Loop {
        rng: Rng::new(o.seed).stream(0x57AE),
        next_msg: 0,
        sent_at: HashMap::new(),
        measuring: false,
        refill: true,
        lat_ns: Vec::new(),
        payload_bytes: 0,
        attempted: 0,
        failed: 0,
        delivered: 0,
    }));
    {
        let state = state.clone();
        let a = a.clone();
        b.on_message(Rc::new(move |sim, conn, msg, len| {
            let refill = {
                let mut s = state.borrow_mut();
                s.delivered += 1;
                match s.sent_at.remove(&msg) {
                    None => s.failed += 1, // delivered twice
                    Some(t0) if s.measuring => {
                        s.payload_bytes += len;
                        s.lat_ns.push((sim.now() - t0).as_nanos());
                    }
                    Some(_) => {}
                }
                s.refill
            };
            if refill {
                send_one(&state, &a, sim, conn);
            }
        }));
    }

    sp.next("warmup");
    let window = WINDOW.scale(o.scale);
    for _ in 0..IN_FLIGHT {
        send_one(&state, &a, &mut tb.sim, conn);
    }
    let mut pending_max = 0u64;
    let mut pump = |tb: &mut Testbed, sp: &mut Spans, until: Nanos, drain: bool| {
        while tb.sim.now() < until && !(drain && state.borrow().sent_at.is_empty()) {
            let t = sp.tick();
            let step = Nanos::from_micros(PUMP_US).min(until - tb.sim.now());
            tb.sim.run_until(tb.sim.now() + step);
            sp.tock(Call::SimRun, t);
            pending_max = pending_max.max(tb.sim.pending() as u64);
        }
    };
    let t = tb.sim.now() + window.scale(0.1);
    pump(&mut tb, &mut sp, t, false);

    let start = Totals::read(&mut tb);
    let kernel = |a: &TcpHost, b: &TcpHost| {
        let (sa, sb) = (a.stats(), b.stats());
        (
            [a.cpu_busy().as_nanos(), b.cpu_busy().as_nanos()],
            sa.segs_sent + sb.segs_sent,
            sa.retransmits + sb.retransmits,
        )
    };
    let (cpu0, segs0, rtx0) = kernel(&a, &b);
    sp.next("window");
    state.borrow_mut().measuring = true;
    pump(&mut tb, &mut sp, start.at + window, false);
    state.borrow_mut().measuring = false;
    sp.next("drain");
    let end = Totals::read(&mut tb);
    let (cpu1, segs1, rtx1) = kernel(&a, &b);

    state.borrow_mut().refill = false;
    pump(&mut tb, &mut sp, end.at + DRAIN, true);
    let drained = Totals::read(&mut tb);
    sp.close();
    sp.close();

    let mut s = state.borrow_mut();
    s.failed += s.sent_at.len() as u64;
    RepOut {
        spans: sp,
        recorder: None,
        sim: SimSide {
            sides: vec![vec![0], vec![1]],
            start,
            end,
            drained,
            extra: Extra {
                tcp_segs_sent: segs1 - segs0,
                tcp_retransmits: rtx1 - rtx0,
                tcp_cpu_ns: vec![cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]],
                pending_max,
                ..Extra::default()
            },
            payload_bytes: s.payload_bytes,
            lat: Latency::of_samples(std::mem::take(&mut s.lat_ns)),
            attempted: s.attempted,
            failed: s.failed,
            msgs_submitted: s.attempted,
            msgs_delivered: s.delivered,
        },
    }
}
