//! Mixed-fleet scenario: a microservice DAG, a KV cache, and a bulk
//! streamer co-scheduled on the same rack under per-container memory
//! quotas — the paper's picture of many applications sharing one Snap
//! deployment (§2.5, §5). All three workloads run over the Pony
//! backend so every app is a quota-enforced engine container; the
//! driver interleaves their ticks against one simulator, so the
//! contention (engine CPU, NIC, credits, quotas) is real.

use snap_apps::dag::{DagReport, DagSpec, OpenLoop};
use snap_apps::kv::{KvReport, KvSpec, KvWorkload};
use snap_apps::stream::{StreamReport, StreamSpec, StreamWorkload};
use snap_apps::transport::Backend;
use snap_apps::workload::{drive, WorkloadError};
use snap_isolation::QuotaPolicy;
use snap_sim::Nanos;

use crate::testbed::Testbed;

/// The co-scheduled fleet description.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The latency-sensitive microservice DAG (hosts per service are
    /// in the spec).
    pub dag: DagSpec,
    /// Open-loop load on the DAG root.
    pub dag_load: OpenLoop,
    /// The KV cache workload.
    pub kv: KvSpec,
    /// (client host, server host) for the KV cache.
    pub kv_hosts: (usize, usize),
    /// The bulk streaming workload.
    pub stream: StreamSpec,
    /// (producer host, consumer host) for the streamer.
    pub stream_hosts: (usize, usize),
    /// Per-app memory quota applied to every fleet container when the
    /// testbed enforces admission: (soft, hard) bytes.
    pub mem_quota: (u64, u64),
    /// Virtual-time budget for the whole scenario.
    pub budget: Nanos,
}

/// Per-workload outcomes of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// DAG end-to-end latency and critical-path breakdown.
    pub dag: DagReport,
    /// KV verification and latency.
    pub kv: KvReport,
    /// Streamer delivery.
    pub stream: StreamReport,
}

/// Runs the whole fleet to completion on `tb`. Every workload app is
/// a Pony engine container; if the testbed was built with admission
/// enabled, `spec.mem_quota` is applied to each one, so the streamer's
/// buffers and the DAG's bursts contend under real quota enforcement.
/// On a timeout the error names the workload that stalled (the DAG
/// before the KV cache before the streamer).
///
/// # Panics
///
/// Panics if `spec.mem_quota`'s soft limit exceeds its hard limit on
/// a testbed that enforces admission.
pub fn run_mixed_fleet(tb: &mut Testbed, spec: &FleetSpec) -> Result<FleetReport, WorkloadError> {
    // Wire the DAG first (apps fleet-dag-s0..), then KV and streamer.
    let mut dag = tb.dag("fleet-dag", &spec.dag, Backend::Pony)?;

    let (kv_ch, kv_sh) = spec.kv_hosts;
    let (kv_client, kv_server) = tb.app_pair(
        kv_ch,
        "fleet-kv-client",
        kv_sh,
        "fleet-kv-server",
        Backend::Pony,
    )?;
    let seed = 0xf1ee7 ^ spec.dag_load.requests;
    let mut kv = KvWorkload::new(spec.kv.clone(), kv_client, kv_server, seed);

    let (st_ph, st_ch) = spec.stream_hosts;
    let (st_tx, st_rx) = tb.app_pair(
        st_ph,
        "fleet-streamer",
        st_ch,
        "fleet-stream-sink",
        Backend::Pony,
    )?;
    let mut stream = StreamWorkload::new(spec.stream.clone(), st_tx, st_rx, seed ^ 1);

    // Quota every fleet container (no-op unless the testbed enforces
    // admission).
    let (soft, hard) = spec.mem_quota;
    for host in &tb.hosts {
        if let Some(adm) = &host.admission {
            for container in adm.containers() {
                if container.starts_with("fleet-") {
                    adm.set_policy(&container, QuotaPolicy::with_mem(soft, hard))
                        .expect("fleet mem_quota: soft <= hard");
                }
            }
        }
    }

    // Interleave all three workloads against one simulator.
    let start = tb.sim.now();
    dag.begin(start, spec.dag_load);
    kv.begin(start);
    stream.begin(start);
    drive(tb, &mut [&mut dag, &mut kv, &mut stream], spec.budget)?;

    Ok(FleetReport {
        dag: dag.report(),
        kv: kv.summary(),
        stream: stream.summary(),
    })
}
