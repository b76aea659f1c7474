//! The §5.1 pair: two machines under one ToR, one driver, two stacks.
//!
//! Table 1 is [`stream`]: one thread on host 0 keeps 8 MB in flight to
//! host 1 over its streams and we report goodput and CPU. Fig 6(a) is
//! [`pingpong`]: one small request and reply at a time. Both run over
//! the message contract and wiring the §5.2 rack runs on
//! (`src/stack.rs`), so Snap/Pony and kernel TCP are offered one
//! workload, timed by one rule: setup settles, the loop warms up, and
//! every figure is a delta over the window `[start, start + duration)`
//! divided by `duration`, or a round trip timed at the event that
//! completes it — none contains a transfer's ramp or the driver's own
//! look period.

use std::convert::Infallible;
use std::rc::Rc;

use snap_apps::transport::TransportEvent;
use snap_apps::workload::poll_until;
use snap_pony::PonyEngineConfig;
use snap_sched::classes::SchedClass;
use snap_shm::region::{AccessMode, RegionId};
use snap_sim::{Histogram, Nanos, Sim};
use snap_tcp::stack::TcpConfig;

use crate::stack::{Ends, POLL_US, SETTLE};
use crate::testbed::{Testbed, TestbedConfig};

/// The sending thread keeps this many bytes in flight, whatever the
/// stack and the stream count, as equal messages: one on every stream,
/// and no fewer than [`MIN_MESSAGES`].
const IN_FLIGHT: u64 = 8 << 20;
const MIN_MESSAGES: u64 = 32;
/// The closed loop runs this long before the window opens: congestion
/// control has converged and the first, shortened messages are gone.
const WARMUP: Nanos = Nanos::from_millis(5);
const PING_BYTES: u32 = 64;
const ROUND_TRIPS: usize = 400;
/// The client thinks this long between a reply and its next request.
const IDLE_GAP: Nanos = Nanos::from_micros(30);
const REPLY: u32 = 0;
const REQUEST: u32 = 1;

/// Which transport runs between the pair.
pub enum Stack {
    /// Kernel TCP baseline.
    Tcp,
    /// Snap/Pony, each engine configured by the closure (MTU, I/OAT,
    /// poll batch) after its rate cap is set to the line rate.
    Pony(Rc<dyn Fn(&mut PonyEngineConfig)>),
}

/// How an application thread learns that a message arrived (Fig 6(a)'s
/// axis): blocked and woken by the scheduler, or spinning on its queue
/// — `SO_BUSY_POLL` on a kernel socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Learn {
    /// A thread wake (`Machine::interrupt_wakeup`).
    Notified,
    /// The cache-miss pickup of a spinning thread.
    Spin,
}

/// What a round trip is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A request message answered by the peer application's reply.
    Message,
    /// A one-sided read the peer's engine serves (Pony only).
    Read,
}

/// What [`stream`] measured, over its window.
#[derive(Debug, PartialEq)]
pub struct Stream {
    /// Payload of the messages delivered in the window, Gbps.
    pub gbps: f64,
    /// Cores of transport work on the `[sender, receiver]` machine: a
    /// Pony engine's busy passes (its idle spinning left out), the
    /// kernel's syscalls, copies, softirqs and context switches.
    pub cores: [f64; 2],
}

/// Two hosts at `nic_gbps`.
fn pair(nic_gbps: f64) -> Testbed {
    Testbed::new(TestbedConfig {
        nic_gbps,
        ..TestbedConfig::default()
    })
}

/// Snap/Pony between the pair, one application a host.
fn pony(tb: &mut Testbed, nic_gbps: f64, configure: &dyn Fn(&mut PonyEngineConfig)) -> Ends {
    Ends::pony(tb, 1, |cfg| {
        cfg.cc.max_rate = nic_gbps * 1e9 / 8.0;
        configure(cfg);
    })
}

/// The saturating stream of Table 1, over a `nic_gbps` link: one
/// thread on host 0 keeps 8 MB in flight to host 1 as equal messages,
/// one on each of its `streams` streams and no fewer than 32, each sent
/// on the next stream in turn — a closed loop, a delivered message
/// replaced at the receiving thread's next 1 µs poll. Setup settles,
/// the loop warms up, then `duration` is measured.
pub fn stream(stack: &Stack, nic_gbps: f64, streams: u32, duration: Nanos) -> Stream {
    let mut tb = pair(nic_gbps);
    let mut stack = match stack {
        Stack::Tcp => Ends::tcp(&mut tb, 1, TcpConfig::default()),
        Stack::Pony(configure) => pony(&mut tb, nic_gbps, &**configure),
    };
    let lanes = stack.streams(&mut tb, (0, 0), (1, 0), streams);
    tb.sim.run_until(tb.sim.now() + SETTLE);
    // The next message goes out on lane `sent % streams`. The first are
    // cut short, the `n`-th to `n / messages` of one, so the messages
    // in flight are out of phase: streams sharing the link fairly would
    // otherwise all deliver at once, and a window count whole rounds.
    let messages = MIN_MESSAGES.max(streams as u64);
    let mut sent = 0;
    let mut send = |stack: &mut Ends, sim: &mut Sim| {
        let (conn, tag) = lanes[(sent % lanes.len() as u64) as usize];
        sent += 1;
        let len = IN_FLIGHT / messages * sent.min(messages) / messages;
        stack.send(sim, 0, conn, tag, len);
    };
    for _ in 0..messages {
        send(&mut stack, &mut tb.sim);
    }
    let mut inbox = Vec::new();
    // Runs the loop for `span`; returns the bytes delivered in it (all
    // at host 1) and each machine's busy CPU at its end.
    let mut pump = |tb: &mut Testbed, stack: &mut Ends, span: Nanos| {
        let mut delivered = 0;
        let _ = poll_until(tb, POLL_US, span, |sim| {
            stack.drain(sim.now(), &mut inbox);
            for event in inbox.drain(..) {
                if let TransportEvent::Delivered { len, .. } = event {
                    delivered += len;
                    send(stack, sim);
                }
            }
            Ok::<Option<()>, Infallible>(None)
        });
        (delivered, [0, 1].map(|host| stack.usage(tb, host).0.engine))
    };
    let (_, before) = pump(&mut tb, &mut stack, WARMUP);
    let (delivered, after) = pump(&mut tb, &mut stack, duration);
    let secs = duration.as_secs_f64();
    Stream {
        gbps: delivered as f64 * 8.0 / secs / 1e9,
        cores: [0, 1].map(|host| (after[host] - before[host]).as_secs_f64() / secs),
    }
}

/// The ping-pong of Fig 6(a): 400 round trips of a 64 B `op`, one at a
/// time with 30 µs of think time between, the application threads
/// learning of a message as `learn` says. Each is timed from its submit
/// to the instant the client thread has the answer.
///
/// # Panics
///
/// Panics on [`Op::Read`] over [`Stack::Tcp`]: the kernel has no
/// one-sided operations.
pub fn pingpong(stack: &Stack, nic_gbps: f64, learn: Learn, op: Op) -> Histogram {
    let mut tb = pair(nic_gbps);
    let (stack, pickup) = match stack {
        Stack::Tcp => {
            assert!(op == Op::Message, "kernel TCP has no one-sided operations");
            let cfg = TcpConfig {
                busy_poll: learn == Learn::Spin,
                ..TcpConfig::default()
            };
            // The kernel hands a message over after the wake or the
            // spin: nothing is left for the thread to pick up.
            (Ends::tcp(&mut tb, 1, cfg), None)
        }
        Stack::Pony(configure) => (pony(&mut tb, nic_gbps, &**configure), Some(learn)),
    };
    // The peer application's memory, served to the reads.
    let served = (op == Op::Read).then(|| {
        let memory = vec![7; PING_BYTES as usize];
        tb.hosts[1]
            .regions
            .register_with("app0", memory, AccessMode::ReadOnly)
    });
    round_trips(tb, stack, pickup, served)
}

/// The ping-pong loop: a read of `served` where there is one to issue,
/// a request and the peer application's reply where not.
fn round_trips(
    mut tb: Testbed,
    mut stack: Ends,
    pickup: Option<Learn>,
    served: Option<RegionId>,
) -> Histogram {
    let conn = stack.connect(&mut tb, (0, 0), (1, 0));
    tb.sim.run_until(tb.sim.now() + SETTLE);
    let mut rtts = Histogram::new();
    for _ in 0..ROUND_TRIPS {
        let sent = tb.sim.now();
        if let Some(region) = served {
            stack.read(&mut tb.sim, 0, conn, region, REPLY, PING_BYTES);
        } else {
            stack.send(&mut tb.sim, 0, conn, REQUEST, PING_BYTES as u64);
            arrival(&mut tb, &mut stack, 1, pickup);
            stack.send(&mut tb.sim, 1, conn, REPLY, PING_BYTES as u64);
        }
        arrival(&mut tb, &mut stack, 0, pickup);
        rtts.record_nanos(tb.sim.now() - sent);
        tb.sim.run_until(tb.sim.now() + IDLE_GAP);
    }
    rtts
}

/// Runs the simulator to the instant the application on `host` has its
/// next message, the one in flight: one event at a time, a look after
/// each, until the message is there — so no look period is in the round
/// trip — then through the thread's `pickup` of it, where the stack
/// leaves one.
fn arrival(tb: &mut Testbed, stack: &mut Ends, host: usize, pickup: Option<Learn>) {
    let lost = tb.sim.now() + Nanos::from_millis(10);
    let mut inbox = Vec::new();
    while !inbox.iter().any(|event| matches!(event, TransportEvent::Delivered { .. })) {
        assert!(tb.sim.step() && tb.sim.now() < lost, "ping lost");
        stack.drain(tb.sim.now(), &mut inbox);
    }
    let mut machine = tb.hosts[host].machine.borrow_mut();
    let latency = match pickup {
        None => Nanos::ZERO,
        Some(Learn::Spin) => machine.spin_pickup(),
        // CFS on an otherwise idle, awake machine.
        Some(Learn::Notified) => {
            let (class, hint) = (SchedClass::Cfs { nice: 0 }, Some(host as u64));
            machine.interrupt_wakeup(tb.sim.now(), class, hint).1
        }
    };
    drop(machine);
    tb.sim.run_until(tb.sim.now() + latency);
}
