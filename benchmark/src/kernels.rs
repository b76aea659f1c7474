//! Layer kernels: one tight loop per layer operation, host clock, all
//! through public APIs. Each is sampled five times for a fixed span of wall
//! time and reports the fastest sample: the loops are deterministic, so
//! whatever a sample takes beyond the fastest was added by the machine.
//! The readings belong to the build, not to a workload: they are measured
//! once per build and kept beside the executable.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use snap_repro::nic::crc::crc32c;
use snap_repro::nic::fabric::{FabricConfig, FabricHandle};
use snap_repro::nic::{NicConfig, Packet};
use snap_repro::obs::RecorderConfig;
use snap_repro::pony::flow::Flow;
use snap_repro::pony::timely::{Timely, TimelyConfig};
use snap_repro::pony::wire::{OpFrame, PonyPacket};
use snap_repro::sched::{Machine, SchedClass};
use snap_repro::shm::account::MemoryAccountant;
use snap_repro::shm::pool::BufferPool;
use snap_repro::shm::spsc::SpscRing;
use snap_repro::shm::{Mailbox, QueuePair};
use snap_repro::sim::trace::{Stage, TRACE_SAMPLE_SCALE};
use snap_repro::sim::{Nanos, Sim, TraceRecorder};
use snap_repro::telemetry::Registry;
use snap_repro::testbed::Testbed;
use snap_repro::topo::ClosSpec;

const SAMPLES: usize = 5;

struct Kernels {
    /// Wall time of one sample.
    sample: Duration,
    out: Vec<(&'static str, &'static str, f64)>,
}

impl Kernels {
    /// Runs `f` (which does `items` operations per call) in a tight loop
    /// and records the fastest sample's ns per operation.
    fn ns_per_item(&mut self, name: &'static str, items: u64, f: impl FnMut()) {
        let best = self.fastest(items, f);
        self.out.push((name, "ns", best));
    }

    /// The same, for a kernel whose operation is one packet.
    fn ns_per_pkt(&mut self, name: &'static str, pkts: u64, f: impl FnMut()) {
        let best = self.fastest(pkts, f);
        self.out.push((name, "ns/pkt", best));
    }

    fn fastest(&self, items: u64, mut f: impl FnMut()) -> f64 {
        let mut best = f64::MAX;
        for _ in 0..SAMPLES {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed() < self.sample {
                for _ in 0..16 {
                    f();
                }
                calls += 16;
            }
            best = best.min(t.elapsed().as_nanos() as f64 / (calls * items) as f64);
        }
        best
    }
}

fn noop(_: &mut Sim) {}

/// A simulator holding `depth` pending no-op events, one per ns.
fn sim_at_depth(depth: u64) -> Sim {
    let mut sim = Sim::new();
    for i in 0..depth {
        sim.schedule_in(Nanos(i + 1), noop);
    }
    sim
}

fn chunk_packet() -> PonyPacket {
    PonyPacket {
        version: 5,
        flow: 77,
        seq: 123_456,
        cum_ack: 123_450,
        sacks: vec![123_460, 123_462],
        trace: None,
        frame: OpFrame::MsgChunk {
            conn: 9,
            stream: 2,
            msg: 55,
            offset: 8192,
            total: 1_000_000,
            len: 1400,
        },
    }
}

/// The three fabric paths a packet can take, each with its kernel.
#[derive(Clone, Copy)]
pub enum FabricPath {
    /// `transmit_burst` of a train, one switch: the Pony path.
    Burst,
    /// `transmit` packet by packet, one switch: the kernel-TCP path.
    Single,
    /// `transmit_burst` across racks, three switches.
    Clos,
}

impl FabricPath {
    pub fn kernel(self) -> &'static str {
        match self {
            FabricPath::Burst => "nic.fabric_burst_ns_per_pkt",
            FabricPath::Single => "nic.fabric_single_ns_per_pkt",
            FabricPath::Clos => "topo.clos_ns_per_pkt",
        }
    }
}

const TRAIN: usize = 16;

/// Trains of `TRAIN` packets from host 0 to the last host of a fabric,
/// to delivery and `poll_rx`.
struct Trains {
    path: FabricPath,
    fabric: FabricHandle,
    sim: Sim,
    dst: u32,
    proto: Packet,
    train: Vec<Packet>,
    rx: Vec<Packet>,
}

impl Trains {
    fn new(path: FabricPath) -> Trains {
        let (spec, hosts) = match path {
            FabricPath::Burst | FabricPath::Single => (ClosSpec::single_rack(), 2),
            FabricPath::Clos => (ClosSpec::clos(2, 2, 2), 4),
        };
        let fabric = FabricHandle::with_topology(FabricConfig::default(), spec);
        for _ in 0..hosts {
            fabric.add_host(NicConfig::default());
        }
        let dst = hosts - 1;
        Trains {
            path,
            fabric,
            sim: Sim::new(),
            dst,
            proto: Packet::new(0, dst, Bytes::from(vec![0xA5u8; 64])),
            train: Vec::with_capacity(TRAIN),
            rx: Vec::with_capacity(TRAIN),
        }
    }

    fn send(&mut self) {
        if let FabricPath::Single = self.path {
            for _ in 0..TRAIN {
                self.fabric
                    .transmit(&mut self.sim, 0, self.proto.clone())
                    .expect("tx slot free");
            }
        } else {
            self.train.extend((0..TRAIN).map(|_| self.proto.clone()));
            let sent = self
                .fabric
                .transmit_burst(&mut self.sim, 0, &mut self.train);
            assert_eq!(sent, TRAIN);
        }
        self.sim.run();
        self.rx.clear();
        let rx = &mut self.rx;
        let got = self.fabric.with_nic(self.dst, |nic| {
            (0..4).map(|q| nic.poll_rx(q, TRAIN, rx)).sum::<usize>()
        });
        assert_eq!(got, TRAIN);
    }
}

/// Simulator events one packet costs on `path`; the attribution nets
/// their queue cost out of the fabric share.
pub fn fabric_events_per_pkt(path: FabricPath) -> f64 {
    let mut trains = Trains::new(path);
    trains.send();
    trains.sim.events_executed() as f64 / TRAIN as f64
}

/// Host ns a Pony packet spends in the codec and the CRC: it is encoded
/// once, decoded once, and its encoded bytes are summed at both NICs.
pub fn codec_crc_ns_per_pkt(k: &Readings) -> f64 {
    let encoded_kb = chunk_packet().encode().len() as f64 / 1024.0;
    k.get("pony.encode_ns")
        + k.get("pony.decode_ns")
        + 2.0 * k.get("nic.crc_ns_per_kb") * encoded_kb
}

/// Kernel readings by name: (name, unit, value).
pub struct Readings(pub Vec<(String, String, f64)>);

impl Readings {
    pub fn get(&self, name: &str) -> f64 {
        let found = self.0.iter().find(|(n, ..)| n == name);
        found.unwrap_or_else(|| panic!("no kernel {name}")).2
    }

    fn parse(text: &str) -> Option<Readings> {
        let line = |l: &str| {
            let mut f = l.split_whitespace();
            Some((
                f.next()?.to_string(),
                f.next()?.to_string(),
                f.next()?.parse().ok()?,
            ))
        };
        text.lines()
            .map(line)
            .collect::<Option<Vec<_>>>()
            .map(Readings)
    }
}

/// The readings of this build. They do not depend on the workload, so
/// they are measured by the first traced run of a build and kept in a
/// file beside the executable; a file older than the executable is
/// measured again. `fresh` skips the file and measures. A smoke run
/// measures too briefly to be worth keeping.
pub fn of_this_build(fresh: bool, smoke: bool) -> Readings {
    let exe = std::env::current_exe().expect("the executable has a path");
    let kept = exe.with_file_name("snap-benchmark-kernels.txt");
    let modified = |p: &std::path::Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    if !fresh && modified(&kept) >= modified(&exe) {
        if let Some(k) = std::fs::read_to_string(&kept)
            .ok()
            .as_deref()
            .and_then(Readings::parse)
        {
            return k;
        }
    }
    let k = measure(Duration::from_millis(if smoke { 5 } else { 60 }));
    if !smoke {
        let text: String =
            k.0.iter()
                .map(|(n, u, v)| format!("{n} {u} {v}\n"))
                .collect();
        let tmp = kept.with_extension("tmp");
        // A failed write costs the next traced run a measurement, no more.
        let _ = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &kept));
    }
    k
}

fn measure(sample: Duration) -> Readings {
    let mut k = Kernels {
        sample,
        out: Vec::new(),
    };

    // snap-sim: schedule + step of a no-op closure at a fixed heap depth.
    let mut sim = sim_at_depth(64);
    k.ns_per_item("sim.event_ns", 1, || {
        sim.schedule_in(Nanos(64), noop);
        sim.step();
    });
    let mut sim = sim_at_depth(16_384);
    k.ns_per_item("sim.event_deep_ns", 1, || {
        sim.schedule_in(Nanos(16_384), noop);
        sim.step();
    });
    // Arm, cancel and lazily discard one timer under 64 live events.
    let mut sim = Sim::new();
    for _ in 0..64 {
        sim.schedule_at(Nanos(u64::MAX / 2), noop);
    }
    k.ns_per_item("sim.timer_cancel_ns", 1, || {
        let h = sim.schedule_cancellable_in(Nanos(1), noop);
        h.cancel();
        let t = sim.now() + Nanos(1);
        sim.run_until(t);
    });
    let rec = TraceRecorder::new(7, TRACE_SAMPLE_SCALE, 4096);
    let mut now = 0u64;
    k.ns_per_item("sim.trace_op_ns", 1, || {
        now += 100;
        let ctx = rec.begin(Nanos(now), 0).expect("tracing on");
        for (i, stage) in Stage::ALL[1..9].iter().enumerate() {
            rec.record(ctx, *stage, 0, Nanos(now + i as u64));
        }
        rec.finalize(ctx, Nanos(now + 10), 0);
    });

    // snap-shm.
    let (p, c) = SpscRing::with_capacity::<u64>(1024);
    k.ns_per_item("shm.spsc_ns", 1, || {
        p.push(black_box(42)).expect("ring has room");
        black_box(c.pop());
    });
    let mut out = Vec::with_capacity(16);
    k.ns_per_item("shm.spsc_batch_ns_per_item", 16, || {
        p.push_batch(&mut (0..16u64));
        out.clear();
        c.pop_batch(&mut out, 16);
        black_box(out.len());
    });
    let (app, engine) = QueuePair::create::<u64, u64>(1024);
    k.ns_per_item("shm.queue_pair_rt_ns", 1, || {
        app.submit(black_box(7)).expect("queue has room");
        let cmd = engine.poll_command().expect("command queued");
        engine.complete(cmd + 1).expect("queue has room");
        black_box(app.poll_completion());
    });
    let (mb, rx) = Mailbox::<u64>::new();
    let mut state = 0u64;
    k.ns_per_item("shm.mailbox_ns", 1, || {
        mb.post(|s| *s += 1).expect("mailbox empty");
        rx.service(&mut state);
    });
    let pool = BufferPool::new(256, 2048, &MemoryAccountant::new(), "bench");
    k.ns_per_item("shm.pool_ns", 1, || {
        black_box(pool.alloc().expect("pool has buffers").index());
    });

    // snap-nic and snap-topo.
    let kb = vec![0xA5u8; 1024];
    k.ns_per_item("nic.crc_ns_per_kb", 1, || {
        black_box(crc32c(black_box(&kb)));
    });
    for path in [FabricPath::Burst, FabricPath::Single] {
        let mut trains = Trains::new(path);
        k.ns_per_pkt(path.kernel(), TRAIN as u64, || trains.send());
    }
    let topo = ClosSpec::clos(7, 6, 3).compile().expect("valid spec");
    let mut flow = 0u64;
    k.ns_per_item("topo.ecmp_ns", 1, || {
        flow += 1;
        black_box(topo.ecmp_spine(1, 40, black_box(flow), 0, |_, _| false));
    });
    let mut trains = Trains::new(FabricPath::Clos);
    k.ns_per_pkt(FabricPath::Clos.kernel(), TRAIN as u64, || trains.send());

    // snap-sched.
    let mut machine = Machine::new(16, 7);
    machine.set_cstates_enabled(true);
    let mut now = 0u64;
    k.ns_per_item("sched.wakeup_ns", 1, || {
        now += 50_000;
        black_box(machine.interrupt_wakeup(Nanos(now), SchedClass::microquanta_default(), Some(1)));
    });

    // snap-pony.
    let pkt = chunk_packet();
    k.ns_per_item("pony.encode_ns", 1, || {
        black_box(pkt.encode());
    });
    let encoded = pkt.encode();
    k.ns_per_item("pony.decode_ns", 1, || {
        black_box(PonyPacket::decode(black_box(&encoded)).expect("round trip"));
    });
    let mut timely = Timely::new(TimelyConfig::default());
    let mut rtt = 20_000u64;
    k.ns_per_item("pony.timely_ns", 1, || {
        rtt = 20_000 + (rtt * 13) % 10_000;
        timely.on_rtt_sample(Nanos(black_box(rtt)));
        black_box(timely.rate());
    });
    // One data packet through two flows: enqueue, produce, the peer's
    // `on_packet`, and the ack back.
    let mut a = Flow::new(1, 5, TimelyConfig::default());
    let mut b = Flow::new(1, 5, TimelyConfig::default());
    let frame = chunk_packet().frame;
    let mut now = 0u64;
    k.ns_per_pkt("pony.flow_ns_per_pkt", 1, || {
        now += 20_000;
        let t = Nanos(now);
        a.enqueue(frame.clone(), t);
        let data = a.produce(t).expect("pacing allows one packet per 20 us");
        black_box(b.on_packet(&data, t));
        let ack = b.produce(t).expect("an ack is due");
        black_box(a.on_packet(&ack, Nanos(now + 10_000)));
    });

    // snap-telemetry and snap-obs.
    let registry = Registry::new();
    let counter = registry.counter("bench.counter");
    k.ns_per_item("telemetry.counter_ns", 1, || counter.inc());
    let hist = registry.histogram("bench.histogram");
    let mut v = 1u64;
    k.ns_per_item("telemetry.histogram_ns", 1, || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(black_box(v % 10_000_000));
    });
    let mut tb = Testbed::pair();
    let flight = tb.flight_recorder(RecorderConfig::default());
    let tick_ns = k.fastest(1, || {
        tb.run_us(1);
        flight.sample_once(&mut tb.sim);
    });
    k.out.push(("obs.tick_us", "us", tick_ns / 1e3));

    Readings(
        k.out
            .into_iter()
            .map(|(n, u, v)| (n.to_string(), u.to_string(), v))
            .collect(),
    )
}
