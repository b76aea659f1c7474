//! The message contract of `snap_apps::transport`, tested once: each
//! property below runs over every row of [`BACKENDS`] — the in-memory
//! fake, Snap/Pony and kernel TCP — through nothing but the contract.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_repro::apps::transport::{Loopback, PonyEnd, TcpEnd, Transport, TransportEvent, Wire};
use snap_repro::isolation::QuotaPolicy;
use snap_repro::sim::Nanos;
use snap_repro::tcp::stack::TcpConfig;
use snap_repro::testbed::{Testbed, TestbedConfig};

/// Two ends of one connection, and the testbed whose clock carries
/// messages between them.
struct Rig {
    tb: Testbed,
    ends: [Box<dyn Transport>; 2],
    conn: u64,
    /// Makes end 0's admission refuse sends for a while, where the
    /// backend has admission that refuses.
    squeeze: Option<Squeeze>,
}

type Squeeze = Box<dyn Fn(&mut Testbed)>;

/// A backend: its name and a connected rig.
type Row = (&'static str, fn() -> Rig);

const BACKENDS: [Row; 3] = [
    ("loopback", loopback),
    ("pony", pony),
    ("kernel tcp", kernel_tcp),
];

fn loopback() -> Rig {
    let (ab, ba): (Rc<RefCell<Wire>>, Rc<RefCell<Wire>>) = Default::default();
    let refusing = Rc::clone(&ab);
    let a = Loopback {
        tx: Rc::clone(&ab),
        rx: Rc::clone(&ba),
    };
    Rig {
        tb: Testbed::pair(),
        ends: [Box::new(a), Box::new(Loopback { tx: ba, rx: ab })],
        conn: 7,
        squeeze: Some(Box::new(move |_| refusing.borrow_mut().refuse_next = 5)),
    }
}

fn pony() -> Rig {
    let mut tb = Testbed::new(TestbedConfig {
        admission: true,
        ..TestbedConfig::default()
    });
    let [a, b] =
        [(0, "a"), (1, "b")].map(|(host, app)| PonyEnd::new(tb.pony_app(host, app, |_| {})));
    let conn = tb.connect(0, "a", 1, "b");
    // The sender's container may hold 24 kB: a burst of sends is
    // refused until earlier ones complete.
    let quota = QuotaPolicy::with_mem(16 * 1024, 24 * 1024);
    let squeeze = move |tb: &mut Testbed| {
        let admission = tb.hosts[0].admission.as_ref().expect("admission on");
        admission.set_policy("a", quota).unwrap();
    };
    Rig {
        tb,
        ends: [Box::new(a), Box::new(b)],
        conn,
        squeeze: Some(Box::new(squeeze)),
    }
}

fn kernel_tcp() -> Rig {
    let mut tb = Testbed::pair();
    let [a, b] = [0, 1].map(|host| tb.tcp_host(host, TcpConfig::default()));
    let conn = a.connect(tb.hosts[1].id);
    b.accept(conn, tb.hosts[0].id);
    let mut ends: [Box<dyn Transport>; 2] =
        [a, b].map(|stack| Box::new(TcpEnd::new(stack, Rc::default())) as Box<dyn Transport>);
    for end in &mut ends {
        end.open(conn);
    }
    Rig {
        tb,
        ends,
        conn,
        squeeze: None,
    }
}

/// What one end was told: every event, in order.
type Told = [Vec<TransportEvent>; 2];

/// Sends `sends` — `(end, tag, len)`, tags distinct per end — at once,
/// then every 5 µs polls both ends and sends each refused message again
/// under its tag, until every message has arrived and every send has
/// its outcome, or 50 ms of virtual time are up.
fn exchange(rig: &mut Rig, sends: &[(usize, u32, u64)]) -> Told {
    let conn = rig.conn;
    let len: BTreeMap<(usize, u32), u64> = sends.iter().map(|&(e, t, l)| ((e, t), l)).collect();
    for &(end, tag, len) in sends {
        rig.ends[end].send(&mut rig.tb.sim, conn, tag, len);
    }
    let mut told: Told = Default::default();
    let deadline = rig.tb.sim.now() + Nanos::from_millis(50);
    let (mut pending, mut arrived) = (sends.len(), 0);
    while (pending > 0 || arrived < sends.len()) && rig.tb.sim.now() < deadline {
        rig.tb.run_us(5);
        for end in 0..2 {
            let from = told[end].len();
            rig.ends[end].poll(rig.tb.sim.now(), &mut told[end]);
            for &event in &told[end][from..] {
                match event {
                    TransportEvent::Delivered { .. } => arrived += 1,
                    TransportEvent::SendBusy { tag, .. } => {
                        let len = len[&(end, tag)];
                        rig.ends[end].send(&mut rig.tb.sim, conn, tag, len);
                    }
                    TransportEvent::SendDone { .. } | TransportEvent::SendFailed { .. } => {
                        pending -= 1
                    }
                }
            }
        }
    }
    told
}

/// A mix both ways: tags distinct per end, lengths up to 4 kB (the
/// engine's small-message bound, so no receive buffers are needed).
fn both_ways() -> Vec<(usize, u32, u64)> {
    (0..24)
        .map(|i: u32| ((i % 2) as usize, 100 + i, 1 + (i as u64 * 613) % 4000))
        .collect()
}

fn delivered(told: &[TransportEvent]) -> Vec<(u64, u32, u64)> {
    let mut got: Vec<_> = told
        .iter()
        .filter_map(|event| match *event {
            TransportEvent::Delivered { conn, tag, len } => Some((conn, tag, len)),
            _ => None,
        })
        .collect();
    got.sort_unstable();
    got
}

/// What end `end` was told of its sends, per tag: (done, busy, failed).
fn outcomes(told: &[TransportEvent]) -> BTreeMap<u32, (u32, u32, u32)> {
    let mut per_tag = BTreeMap::<u32, (u32, u32, u32)>::new();
    for event in told {
        match *event {
            TransportEvent::SendDone { tag, .. } => per_tag.entry(tag).or_default().0 += 1,
            TransportEvent::SendBusy { tag, .. } => per_tag.entry(tag).or_default().1 += 1,
            TransportEvent::SendFailed { tag, .. } => per_tag.entry(tag).or_default().2 += 1,
            TransportEvent::Delivered { .. } => {}
        }
    }
    per_tag
}

#[test]
fn a_connection_id_is_valid_at_both_ends() {
    for (name, rig) in BACKENDS {
        let mut rig = rig();
        let told = exchange(&mut rig, &[(0, 1, 100), (1, 2, 200)]);
        let conn = rig.conn;
        assert_eq!(delivered(&told[1]), [(conn, 1, 100)], "{name}: 0 → 1");
        assert_eq!(delivered(&told[0]), [(conn, 2, 200)], "{name}: 1 → 0");
    }
}

#[test]
fn each_message_arrives_once_with_its_tag_and_length() {
    for (name, rig) in BACKENDS {
        let mut rig = rig();
        let sends = both_ways();
        let told = exchange(&mut rig, &sends);
        for (end, told) in told.iter().enumerate() {
            let mut want: Vec<_> = (sends.iter())
                .filter(|send| send.0 != end)
                .map(|&(_, tag, len)| (rig.conn, tag, len))
                .collect();
            want.sort_unstable();
            assert_eq!(delivered(told), want, "{name}: at end {end}");
        }
    }
}

#[test]
fn each_accepted_send_gets_exactly_one_outcome() {
    for (name, rig) in BACKENDS {
        let mut rig = rig();
        let sends = both_ways();
        let told = exchange(&mut rig, &sends);
        for (end, told) in told.iter().enumerate() {
            let want: BTreeMap<u32, (u32, u32, u32)> = (sends.iter())
                .filter(|send| send.0 == end)
                .map(|&(_, tag, _)| (tag, (1, 0, 0)))
                .collect();
            assert_eq!(outcomes(told), want, "{name}: at end {end}");
        }
    }
}

/// Only an admission that refuses (Pony's, and the fake standing in for
/// it) answers `SendBusy`, and a refused message sent again under its
/// tag arrives once. Kernel TCP takes every send.
#[test]
fn a_refused_send_is_retried_under_its_tag() {
    for (name, rig) in BACKENDS {
        let mut rig = rig();
        let refuses = rig.squeeze.is_some();
        if let Some(squeeze) = rig.squeeze.take() {
            squeeze(&mut rig.tb);
        }
        let sends: Vec<_> = (0..32).map(|tag| (0, tag, 4000)).collect();
        let told = exchange(&mut rig, &sends);
        let per_tag = outcomes(&told[0]);
        let refused: u32 = per_tag.values().map(|outcome| outcome.1).sum();
        assert_eq!(refused > 0, refuses, "{name}: {refused} sends refused");
        assert!(
            per_tag
                .values()
                .all(|&(done, _, failed)| (done, failed) == (1, 0)),
            "{name}: {per_tag:?}"
        );
        let want: Vec<_> = (0..32).map(|tag| (rig.conn, tag, 4000)).collect();
        assert_eq!(delivered(&told[1]), want, "{name}: each once");
    }
}
