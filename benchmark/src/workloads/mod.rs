//! The five workloads. Each builds a fresh `Testbed` per rep, runs a
//! virtual warm-up of 10 % of its window (counted in `setup_s`), then
//! the timed window, then a drain interval, and hands back one
//! [`RepOut`]. Every input is generated from the seed.

use snap_repro::sim::trace::TRACE_SAMPLE_SCALE;

use crate::harness::RepOut;

mod incast_clos;
mod pingpong_pony;
mod rack_a2a;
mod stream_pony;
mod stream_tcp;

/// One more crate watching `stream_pony`: the outside view of the four
/// crates no workload otherwise times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Attach {
    None,
    /// `Testbed::stats_module` polling at 1 ms.
    Telemetry,
    /// `Testbed::flight_recorder` sampling at 1 ms.
    Obs,
    /// `admission: true` with unlimited quotas.
    Isolation,
    /// `Testbed::health_rig` on a healthy pair.
    Health,
}

pub struct RepOpts {
    pub seed: u64,
    /// Trace every op and time the calls inside the timed loop.
    pub traced: bool,
    /// Share of the frozen virtual window to run (1.0 except `--smoke`).
    pub scale: f64,
    /// Honoured by `stream_pony` only.
    pub attach: Attach,
}

fn trace_ppm(o: &RepOpts) -> u32 {
    if o.traced {
        TRACE_SAMPLE_SCALE
    } else {
        0
    }
}

pub struct Workload {
    pub name: &'static str,
    pub run: fn(&RepOpts) -> RepOut,
    /// Spines the topology has; the gate checks all of them carry bytes.
    pub spines: usize,
    /// Paper value the simulated metric is compared to, if there is one:
    /// (what, paper value, whether it is goodput in Gbit/s or p50 in us).
    pub anchor: Option<(&'static str, f64, AnchorKind)>,
}

#[derive(Clone, Copy)]
pub enum AnchorKind {
    GoodputGbps,
    P50Us,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "stream_pony",
        run: stream_pony::run,
        spines: 0,
        anchor: Some(("Table 1 Snap/Pony 1 stream", 38.5, AnchorKind::GoodputGbps)),
    },
    Workload {
        name: "stream_tcp",
        run: stream_tcp::run,
        spines: 0,
        anchor: Some(("Table 1 Linux TCP 1 stream", 22.0, AnchorKind::GoodputGbps)),
    },
    Workload {
        name: "pingpong_pony",
        run: pingpong_pony::run,
        spines: 0,
        anchor: Some((
            "Fig 6(a) Snap/Pony, woken on completion",
            18.0,
            AnchorKind::P50Us,
        )),
    },
    Workload {
        name: "rack_a2a",
        run: rack_a2a::run,
        spines: 3,
        anchor: None,
    },
    Workload {
        name: "incast_clos",
        run: incast_clos::run,
        spines: 2,
        anchor: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
