//! KV cache workloads.
//!
//! Two flavors. [`KvWorkload`] is the facade-level cache: a client
//! issues open-loop GETs with **Zipf hot-key skew** over a
//! [`SnapSocket`] pair, the server answers after a sampled lookup
//! time, and every returned value is byte-verified — over either
//! backend. The [`onesided`] module is the library form of the
//! paper's §3.2/§5.4 one-sided lookup service (pointer-chase vs
//! indirect read vs batched indirect) used directly against a Pony
//! client, shared by the `kv_store` example and tests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use snap_sim::codec::{Reader, Writer};
use snap_sim::dist::{self, Zipf};
use snap_sim::hash::IntMap;
use snap_sim::stats::Histogram;
use snap_sim::{Nanos, Rng, Sim};

use crate::dag::ServiceTime;
use crate::framing::{frame, FrameBuf};
use crate::socket::SnapSocket;
use crate::workload::{Workload, WorkloadError};

/// Deterministic value bytes for `key` — lets any reader verify
/// payload integrity without shared state.
pub fn value_for(key: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (key.wrapping_mul(31).wrapping_add(i as u64) & 0xff) as u8)
        .collect()
}

/// KV workload description.
#[derive(Debug, Clone)]
pub struct KvSpec {
    /// Key-space size.
    pub keys: usize,
    /// Zipf skew exponent (larger = hotter hot keys).
    pub zipf_s: f64,
    /// Value size, bytes.
    pub value_bytes: usize,
    /// Server-side lookup time distribution.
    pub lookup: ServiceTime,
    /// Open-loop GET arrival rate, per second.
    pub rate_per_sec: f64,
    /// Total GETs to issue.
    pub requests: u64,
}

/// Aggregated KV outcome.
#[derive(Debug, Clone)]
pub struct KvReport {
    /// GETs answered and byte-verified.
    pub verified: u64,
    /// Median GET latency.
    pub p50: Nanos,
    /// 99th-percentile GET latency.
    pub p99: Nanos,
    /// Fraction of GETs that hit the single hottest key (Zipf skew
    /// evidence).
    pub hottest_frac: f64,
}

const KIND_GET: u8 = 0;
const KIND_VAL: u8 = 1;

/// A client/server KV cache over one wired facade connection.
pub struct KvWorkload {
    spec: KvSpec,
    client: SnapSocket,
    client_rx: FrameBuf,
    server: SnapSocket,
    server_rx: FrameBuf,
    zipf: Zipf,
    rng: Rng,
    svc_rng: Rng,
    /// Server lookups in flight: (ready at, rid, key).
    lookups: BinaryHeap<Reverse<(Nanos, u64, u64)>>,
    sent_at: IntMap<u64, Nanos>,
    key_counts: IntMap<u64, u64>,
    next_arrival: Option<Nanos>,
    injected: u64,
    verified: u64,
    latency: Histogram,
}

impl KvWorkload {
    /// Builds the workload over a wired pair: `client` is the dialing
    /// socket, `server` the accepted one.
    pub fn new(spec: KvSpec, client: SnapSocket, server: SnapSocket, seed: u64) -> Self {
        let root = Rng::new(seed ^ 0x6b76_0001);
        KvWorkload {
            zipf: Zipf::new(spec.keys.max(1), spec.zipf_s),
            spec,
            client,
            client_rx: FrameBuf::new(),
            server,
            server_rx: FrameBuf::new(),
            rng: root.stream(0),
            svc_rng: root.stream(1),
            lookups: BinaryHeap::new(),
            sent_at: IntMap::default(),
            key_counts: IntMap::default(),
            next_arrival: None,
            injected: 0,
            verified: 0,
            latency: Histogram::new(),
        }
    }

    /// Arms the open-loop arrival process starting at `now`.
    pub fn begin(&mut self, now: Nanos) {
        self.next_arrival = Some(now + dist::poisson_gap(&mut self.rng, self.spec.rate_per_sec));
    }

    /// The report over everything answered so far.
    pub fn summary(&self) -> KvReport {
        let hottest = self.key_counts.values().copied().max().unwrap_or(0);
        KvReport {
            verified: self.verified,
            p50: Nanos(self.latency.median()),
            p99: Nanos(self.latency.p99()),
            hottest_frac: hottest as f64 / self.injected.max(1) as f64,
        }
    }
}

impl Workload for KvWorkload {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn tick(&mut self, sim: &mut Sim) -> Result<(), WorkloadError> {
        let now = sim.now();
        // Client arrivals: Zipf-skewed GETs.
        while self.injected < self.spec.requests {
            let Some(at) = self.next_arrival else { break };
            if at > now {
                break;
            }
            let key = self.zipf.sample(&mut self.rng) as u64;
            *self.key_counts.entry(key).or_insert(0) += 1;
            let rid = self.injected;
            let mut w = Writer::with_capacity(32);
            w.u8(KIND_GET).u64(rid).u64(key);
            self.client.send(sim, &frame(w.finish(), 0))?;
            self.sent_at.insert(rid, at);
            self.injected += 1;
            self.next_arrival = Some(at + dist::poisson_gap(&mut self.rng, self.spec.rate_per_sec));
        }
        // Server: accept GETs, schedule lookups.
        self.server_rx.pull(sim, &self.server)?;
        while let Some(body) = self.server_rx.next_frame() {
            let mut r = Reader::new(&body);
            let (Ok(kind), Ok(rid), Ok(key)) = (r.u8(), r.u64(), r.u64()) else {
                continue;
            };
            if kind != KIND_GET {
                continue;
            }
            let dt = self.spec.lookup.sample(&mut self.svc_rng);
            self.lookups.push(Reverse((now + dt, rid, key)));
        }
        // Server: answer due lookups.
        while let Some(&Reverse((at, rid, key))) = self.lookups.peek() {
            if at > now {
                break;
            }
            self.lookups.pop();
            let mut w = Writer::with_capacity(32 + self.spec.value_bytes);
            w.u8(KIND_VAL).u64(rid).u64(key);
            w.bytes(&value_for(key, self.spec.value_bytes));
            self.server.send(sim, &frame(w.finish(), 0))?;
        }
        // Client: verify answers.
        self.client_rx.pull(sim, &self.client)?;
        while let Some(body) = self.client_rx.next_frame() {
            let mut r = Reader::new(&body);
            let (Ok(kind), Ok(rid), Ok(key)) = (r.u8(), r.u64(), r.u64()) else {
                continue;
            };
            if kind != KIND_VAL {
                continue;
            }
            let value = value_for(key, self.spec.value_bytes);
            if r.bytes().ok() != Some(&value[..]) {
                return Err(WorkloadError::Corrupt { key });
            }
            self.verified += 1;
            if let Some(t0) = self.sent_at.remove(&rid) {
                self.latency.record_nanos(now.saturating_sub(t0));
            }
        }
        Ok(())
    }

    /// GETs answered and verified, of the GETs to issue.
    fn progress(&self) -> (u64, u64) {
        (self.verified, self.spec.requests)
    }
}

/// The one-sided lookup service library (paper §3.2/§5.4): an
/// indirection table + value heap installed in a server's shared
/// regions, resolved from clients entirely with one-sided Pony ops.
pub mod onesided {
    use snap_pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
    use snap_shm::region::{AccessMode, RegionRegistry};
    use snap_sim::Nanos;

    use crate::workload::poll_until;
    use crate::SimPump;

    /// Virtual-time slice between two looks at the completion queue.
    const COMPLETION_POLL_US: u64 = 50;

    /// The server-side data layout handles.
    #[derive(Debug, Clone, Copy)]
    pub struct Layout {
        /// Indirection-table region id (bucket -> packed pointer).
        pub table: u64,
        /// Value-heap region id.
        pub heap: u64,
        /// Bucket count.
        pub buckets: u64,
        /// Value size, bytes.
        pub value_len: u32,
    }

    /// The deterministic fill byte of bucket `b`'s value.
    pub fn expected_byte(bucket: u64) -> u8 {
        (bucket % 251) as u8
    }

    /// Installs the server-side layout in `owner`'s shared regions: a
    /// value heap (value `i` filled with [`expected_byte`]) and a
    /// bucket-indexed indirection table whose entries pack
    /// `(heap_region << 32) | byte_offset`.
    pub fn install(regions: &RegionRegistry, owner: &str, buckets: u64, value_len: u32) -> Layout {
        let mut heap = Vec::with_capacity((buckets * value_len as u64) as usize);
        for i in 0..buckets {
            heap.extend(std::iter::repeat_n(expected_byte(i), value_len as usize));
        }
        let heap_region = regions.register_with(owner, heap, AccessMode::ReadOnly);
        let mut table = Vec::with_capacity((buckets * 8) as usize);
        for i in 0..buckets {
            let packed = (heap_region.0 << 32) | (i * value_len as u64);
            table.extend_from_slice(&packed.to_le_bytes());
        }
        let table_region = regions.register_with(owner, table, AccessMode::ReadOnly);
        Layout {
            table: table_region.0,
            heap: heap_region.0,
            buckets,
            value_len,
        }
    }

    /// Lookup failures.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum LookupError {
        /// The op did not complete within the virtual-time budget.
        Timeout,
        /// The op completed with a non-Ok status.
        Failed(OpStatus),
        /// The returned bytes were malformed.
        Malformed,
    }

    /// Pumps until op `op` completes, up to `budget` of virtual time.
    fn wait_op(
        pump: &mut dyn SimPump,
        client: &mut PonyClient,
        op: u64,
        budget: Nanos,
    ) -> Result<(OpStatus, Vec<u8>), LookupError> {
        poll_until(pump, COMPLETION_POLL_US, budget, |_| {
            let done = client.take_completions().into_iter().find_map(|c| match c {
                PonyCompletion::OpDone {
                    op: o,
                    status,
                    data,
                    ..
                } if o == op => Some((status, data)),
                _ => None,
            });
            Ok::<_, LookupError>(done)
        })?
        .ok_or(LookupError::Timeout)
    }

    /// Strategy 1 — pointer chase: two plain remote reads (pointer,
    /// then value). Two round trips.
    pub fn lookup_ptr_chase(
        pump: &mut dyn SimPump,
        client: &mut PonyClient,
        conn: u64,
        layout: &Layout,
        bucket: u64,
    ) -> Result<Vec<u8>, LookupError> {
        let op = client.submit(
            pump.sim_mut(),
            PonyCommand::Read {
                conn,
                region: layout.table,
                offset: bucket * 8,
                len: 8,
            },
        );
        let (status, data) = wait_op(pump, client, op, Nanos::from_millis(5))?;
        if status != OpStatus::Ok {
            return Err(LookupError::Failed(status));
        }
        let ptr = u64::from_le_bytes(data.try_into().map_err(|_| LookupError::Malformed)?);
        let op = client.submit(
            pump.sim_mut(),
            PonyCommand::Read {
                conn,
                region: ptr >> 32,
                offset: ptr & 0xFFFF_FFFF,
                len: layout.value_len,
            },
        );
        let (status, data) = wait_op(pump, client, op, Nanos::from_millis(5))?;
        if status != OpStatus::Ok {
            return Err(LookupError::Failed(status));
        }
        Ok(data)
    }

    /// Strategy 2 — one custom indirect read: the pointer resolves
    /// server-side, a single round trip (§3.2).
    pub fn lookup_indirect(
        pump: &mut dyn SimPump,
        client: &mut PonyClient,
        conn: u64,
        layout: &Layout,
        bucket: u64,
    ) -> Result<Vec<u8>, LookupError> {
        match lookup_status(pump, client, conn, layout, bucket)? {
            (OpStatus::Ok, data) => Ok(data),
            (status, _) => Err(LookupError::Failed(status)),
        }
    }

    /// Like [`lookup_indirect`] but surfaces the completion status —
    /// for quota/back-pressure experiments where `Busy` is the
    /// expected outcome, not an error.
    pub fn lookup_status(
        pump: &mut dyn SimPump,
        client: &mut PonyClient,
        conn: u64,
        layout: &Layout,
        bucket: u64,
    ) -> Result<(OpStatus, Vec<u8>), LookupError> {
        let op = client.submit(
            pump.sim_mut(),
            PonyCommand::IndirectRead {
                conn,
                table: layout.table,
                indices: vec![bucket as u32],
                len: layout.value_len,
            },
        );
        wait_op(pump, client, op, Nanos::from_millis(5))
    }

    /// Batched-run outcome.
    #[derive(Debug, Clone, Copy)]
    pub struct BatchedReport {
        /// Lookups completed.
        pub lookups: u64,
        /// Virtual time the run took.
        pub elapsed: Nanos,
    }

    /// Strategy 3 — sustained batched indirect reads: keeps `window`
    /// ops of `batch` indirections each in flight for `duration`
    /// (§5.4's "batch of eight indirections").
    pub fn batched_lookups(
        pump: &mut dyn SimPump,
        client: &mut PonyClient,
        conn: u64,
        layout: &Layout,
        duration: Nanos,
        window: u32,
        batch: u64,
    ) -> BatchedReport {
        let start = pump.sim_mut().now();
        let deadline = start + duration;
        let mut looked_up = 0u64;
        let mut outstanding = 0u32;
        let mut next_bucket = 0u64;
        while pump.sim_mut().now() < deadline {
            while outstanding < window {
                let indices: Vec<u32> = (0..batch)
                    .map(|k| ((next_bucket + k) % layout.buckets) as u32)
                    .collect();
                next_bucket += batch;
                client.submit(
                    pump.sim_mut(),
                    PonyCommand::IndirectRead {
                        conn,
                        table: layout.table,
                        indices,
                        len: layout.value_len,
                    },
                );
                outstanding += 1;
            }
            pump.pump_us(COMPLETION_POLL_US);
            for c in client.take_completions() {
                if let PonyCompletion::OpDone { data, .. } = c {
                    debug_assert_eq!(data.len(), (batch * layout.value_len as u64) as usize);
                    looked_up += batch;
                    outstanding -= 1;
                }
            }
        }
        BatchedReport {
            lookups: looked_up,
            elapsed: pump.sim_mut().now().saturating_sub(start),
        }
    }
}
