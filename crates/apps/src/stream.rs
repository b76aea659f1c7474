//! Streaming workload: an open-loop producer pushes fixed-size
//! records down a facade byte stream; the consumer verifies every
//! byte against the deterministic record pattern. Models the
//! bulk-transfer app in the mixed fleet — throughput-bound, latency
//! tolerant, and the first to feel quota back-pressure.

use snap_sim::dist;
use snap_sim::{Nanos, Rng, Sim};

use crate::socket::SnapSocket;
use crate::workload::{Workload, WorkloadError};

/// The expected fill byte at absolute stream offset `off` for
/// `record_bytes`-sized records: every record is filled with its own
/// index mod 251.
pub fn expected_byte(off: u64, record_bytes: usize) -> u8 {
    ((off / record_bytes.max(1) as u64) % 251) as u8
}

/// Streaming workload description.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Record size, bytes.
    pub record_bytes: usize,
    /// Open-loop record arrival rate, per second.
    pub rate_per_sec: f64,
    /// Total records to stream.
    pub records: u64,
}

/// Aggregated streaming outcome.
#[derive(Debug, Clone, Copy)]
pub struct StreamReport {
    /// Records fully received.
    pub records: u64,
    /// Bytes received and verified.
    pub bytes: u64,
    /// Bytes that failed pattern verification (0 on a healthy run).
    pub corrupt_bytes: u64,
}

/// A producer/consumer pair over one wired facade connection.
pub struct StreamWorkload {
    spec: StreamSpec,
    tx: SnapSocket,
    rx: SnapSocket,
    rng: Rng,
    next_arrival: Option<Nanos>,
    sent: u64,
    received_bytes: u64,
    corrupt_bytes: u64,
}

impl StreamWorkload {
    /// Builds the workload over a wired pair: records flow `tx` → `rx`.
    pub fn new(spec: StreamSpec, tx: SnapSocket, rx: SnapSocket, seed: u64) -> Self {
        StreamWorkload {
            spec,
            tx,
            rx,
            rng: Rng::new(seed ^ 0x5742_0001),
            next_arrival: None,
            sent: 0,
            received_bytes: 0,
            corrupt_bytes: 0,
        }
    }

    /// Arms the open-loop arrival process starting at `now`.
    pub fn begin(&mut self, now: Nanos) {
        self.next_arrival = Some(now + dist::poisson_gap(&mut self.rng, self.spec.rate_per_sec));
    }

    /// The report over everything received so far.
    pub fn summary(&self) -> StreamReport {
        StreamReport {
            records: self.received_bytes / self.spec.record_bytes.max(1) as u64,
            bytes: self.received_bytes,
            corrupt_bytes: self.corrupt_bytes,
        }
    }
}

impl Workload for StreamWorkload {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn tick(&mut self, sim: &mut Sim) -> Result<(), WorkloadError> {
        let now = sim.now();
        while self.sent < self.spec.records {
            let Some(at) = self.next_arrival else { break };
            if at > now {
                break;
            }
            let record = vec![(self.sent % 251) as u8; self.spec.record_bytes];
            self.tx.send(sim, &record)?;
            self.sent += 1;
            self.next_arrival = Some(at + dist::poisson_gap(&mut self.rng, self.spec.rate_per_sec));
        }
        self.rx.recv_all(sim, |part| {
            for &b in part {
                if b != expected_byte(self.received_bytes, self.spec.record_bytes) {
                    self.corrupt_bytes += 1;
                }
                self.received_bytes += 1;
            }
        })?;
        Ok(())
    }

    /// Bytes received, of the bytes of every record.
    fn progress(&self) -> (u64, u64) {
        (
            self.received_bytes,
            self.spec.records * self.spec.record_bytes as u64,
        )
    }
}
