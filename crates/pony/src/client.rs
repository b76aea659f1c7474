//! The Pony Express client library (§3.1).
//!
//! "Client applications contact Pony Express over a Unix domain socket
//! at a well-known address through the Pony Express client library API.
//! ... One such shared memory region implements the command and
//! completion queues for asynchronous operations."
//!
//! [`PonyClient`] wraps the application side of a command/completion
//! queue pair. Commands are *asynchronous operation-level* requests —
//! "the application interface to Pony Express is based on asynchronous
//! operation-level commands and completions, as opposed to a
//! packet-level or byte-streaming sockets interface."

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use snap_nic::packet::QosClass;
use snap_shm::queue_pair::AppEndpoint;
use snap_sim::hash::IntMap;
use snap_sim::trace::{TraceContext, TraceRecorder};
use snap_sim::{Nanos, Rng, Sim};

/// The command tuple pushed into the engine's command queue: op id, QoS
/// class, optional causal trace context, and the operation itself.
pub type PonyCommandTuple = (u64, QosClass, Option<TraceContext>, PonyCommand);

/// An application-level operation command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PonyCommand {
    /// Two-sided message send on a stream (§3.3).
    Send {
        /// Connection id (from the connect RPC).
        conn: u64,
        /// Stream id; messages on different streams do not block each
        /// other.
        stream: u32,
        /// Message length in bytes (payload modeled by length).
        len: u64,
    },
    /// One-sided read of a remote region (§3.2).
    Read {
        /// Connection id.
        conn: u64,
        /// Remote region id.
        region: u64,
        /// Byte offset.
        offset: u64,
        /// Bytes to read (must fit one MTU).
        len: u32,
    },
    /// One-sided write of real bytes to a remote region.
    Write {
        /// Connection id.
        conn: u64,
        /// Remote region id.
        region: u64,
        /// Byte offset.
        offset: u64,
        /// Data to write.
        data: Vec<u8>,
    },
    /// Custom indirect read (one or a batch of indices, §3.2).
    IndirectRead {
        /// Connection id.
        conn: u64,
        /// Remote indirection-table region.
        table: u64,
        /// Indices to dereference (1..=16).
        indices: Vec<u32>,
        /// Bytes to read at each target.
        len: u32,
    },
    /// Custom scan-and-read (§3.2).
    ScanRead {
        /// Connection id.
        conn: u64,
        /// Remote region to scan.
        region: u64,
        /// Key to match.
        key: u64,
        /// Bytes to read at the match target.
        len: u32,
    },
    /// Post receive buffers for two-sided messages (receiver-driven
    /// flow control, §3.3).
    PostRecvBuffers {
        /// Connection id.
        conn: u64,
        /// Number of buffers posted.
        count: u32,
    },
}

/// Operation completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// Success.
    Ok,
    /// The remote region rejected the access.
    RemoteAccessError,
    /// Flow-control or protocol failure.
    Error,
    /// The container is under Hard memory pressure: the op was refused
    /// *before* entering the transport, so nothing was sent and the
    /// exactly-once contract is untouched. Back-pressure — retry after
    /// draining completions or freeing quota.
    Busy,
    /// A best-effort op shed under Soft/Hard pressure (§2.5 isolation:
    /// best-effort work goes first). Never applied to transport-class
    /// submissions.
    Shed,
    /// The client-side deadline expired before the engine completed the
    /// op. Synthesized by the client library, never by the engine; a
    /// late real completion for the same op is silently dropped, so the
    /// application sees exactly one outcome per op. The op may still
    /// have executed remotely — a deadline bounds *waiting*, not
    /// side effects (same contract as any RPC timeout).
    DeadlineExceeded,
}

/// A completion written by the engine into the completion queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PonyCompletion {
    /// An initiated operation finished.
    OpDone {
        /// The id returned by the submit call.
        op: u64,
        /// Outcome.
        status: OpStatus,
        /// Read data (empty for sends/writes).
        data: Vec<u8>,
        /// Time the command was accepted by the engine.
        issued_at: Nanos,
    },
    /// A two-sided message arrived (delivered in order per stream).
    RecvMsg {
        /// Connection it arrived on.
        conn: u64,
        /// Stream id.
        stream: u32,
        /// Message id (per-stream sequence).
        msg: u64,
        /// Message length.
        len: u64,
    },
}

/// Hedged-retry and deadline policy for a client (§6: "hedging
/// requests ... to reduce tail latency"). Disabled unless installed via
/// [`PonyClient::enable_hedging`]; a client without it behaves
/// bit-identically to one predating this feature.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Latency quantile of recently observed completions that arms the
    /// hedge timer: an op still outstanding past this quantile is
    /// slower than `quantile` of its peers — hedge it.
    pub quantile: f64,
    /// Hedge delay used until enough samples accumulate.
    pub initial_delay: Nanos,
    /// Floor for the derived delay (don't hedge faster than this even
    /// on a very fast link — duplicates cost engine CPU).
    pub min_delay: Nanos,
    /// Cap for the derived delay (a congested window must not push the
    /// hedge past usefulness).
    pub max_delay: Nanos,
    /// Per-op deadline: an op still outstanding this long after submit
    /// completes locally with [`OpStatus::DeadlineExceeded`]. `None`
    /// waits forever (the pre-existing behavior).
    pub deadline: Option<Nanos>,
    /// Seed for the jitter stream decorrelating concurrent hedgers.
    pub seed: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            quantile: 0.9,
            initial_delay: Nanos::from_micros(200),
            min_delay: Nanos::from_micros(50),
            max_delay: Nanos::from_millis(5),
            deadline: None,
            seed: 0x6865_6467,
        }
    }
}

/// Client-side hedging counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HedgeStats {
    /// Hedge duplicates actually submitted (timer fired while the op
    /// was still outstanding).
    pub hedges_fired: u64,
    /// Ops completed locally with [`OpStatus::DeadlineExceeded`].
    pub deadline_failures: u64,
    /// Real completions dropped because the op already concluded
    /// locally (deadline fired first).
    pub late_dropped: u64,
    /// Latency samples fed into the quantile window.
    pub samples: u64,
}

/// Bookkeeping for one outstanding (not yet completed) op.
struct Outstanding {
    submitted_at: Nanos,
    class: QosClass,
    cmd: PonyCommand,
    hedged: bool,
}

struct HedgeState {
    cfg: HedgeConfig,
    rng: Rng,
    /// Sliding window of completed-op latencies (ns) feeding the
    /// quantile estimate.
    window: VecDeque<u64>,
    outstanding: IntMap<u64, Outstanding>,
    stats: HedgeStats,
}

const HEDGE_WINDOW: usize = 128;
const HEDGE_MIN_SAMPLES: usize = 8;

impl HedgeState {
    /// The delay after which an outstanding op gets its hedge: the
    /// configured quantile of the observed latency window, clamped,
    /// plus a seeded uniform jitter of up to 25% so a fleet of clients
    /// hedging the same slow link doesn't fire in one synchronized
    /// burst.
    fn hedge_delay(&mut self) -> Nanos {
        let base = if self.window.len() >= HEDGE_MIN_SAMPLES {
            let mut v: Vec<u64> = self.window.iter().copied().collect();
            v.sort_unstable();
            // An out-of-range (or NaN) quantile degrades to the nearest
            // valid one rather than indexing out of bounds.
            let idx = ((v.len() - 1) as f64 * self.cfg.quantile) as usize;
            Nanos(v[idx.min(v.len() - 1)])
        } else {
            self.cfg.initial_delay
        };
        let base = base.clamp(self.cfg.min_delay, self.cfg.max_delay);
        base + Nanos(self.rng.below(base.as_nanos() / 4 + 1))
    }

    fn record_sample(&mut self, latency: Nanos) {
        self.window.push_back(latency.as_nanos());
        if self.window.len() > HEDGE_WINDOW {
            self.window.pop_front();
        }
        self.stats.samples += 1;
    }
}

struct ClientInner {
    endpoint: AppEndpoint<PonyCommandTuple, PonyCompletion>,
    /// Wakes the engine after a submit (doorbell / eventfd path).
    wake_engine: Rc<dyn Fn(&mut Sim)>,
    next_op: u64,
    completions: Vec<PonyCompletion>,
    /// Trace recorder: when installed, each submit allocates a trace
    /// context (subject to the recorder's sampling policy) and carries
    /// it through the command tuple.
    recorder: Option<TraceRecorder>,
    /// Host this client lives on, stamped into client-side records.
    host: u32,
    /// Hedged-retry state; `None` keeps the original fast path.
    hedge: Option<HedgeState>,
}

impl ClientInner {
    /// Drains up to one batch of completions into the internal buffer.
    /// With hedging enabled this is also the dedup point: an `OpDone`
    /// whose op already concluded locally (deadline fired) is dropped,
    /// and fresh conclusions feed the latency window when a timestamp
    /// is available.
    fn absorb(&mut self, now: Option<Nanos>) -> usize {
        if self.hedge.is_none() {
            // Original path, bit-identical: append straight into the
            // buffer.
            return self.endpoint.poll_completions(&mut self.completions, 64);
        }
        let mut batch = Vec::new();
        let n = self.endpoint.poll_completions(&mut batch, 64);
        for comp in batch {
            if let PonyCompletion::OpDone { op, .. } = &comp {
                let h = self.hedge.as_mut().expect("checked above");
                match h.outstanding.remove(op) {
                    Some(o) => {
                        if let Some(now) = now {
                            h.record_sample(now.saturating_sub(o.submitted_at));
                        }
                    }
                    None => {
                        // Already concluded locally: exactly one
                        // outcome per op reaches the application.
                        h.stats.late_dropped += 1;
                        continue;
                    }
                }
            }
            self.completions.push(comp);
        }
        n
    }

    /// Hedge timer body: if the op is still outstanding and not yet
    /// hedged, resubmit the same op id. The engine's per-session
    /// watermark recognizes the duplicate — it never re-executes, but
    /// nudges the op's flow into an early retransmit, which is where
    /// the tail-latency win comes from when a gray link swallowed the
    /// first copy.
    fn fire_hedge(rc: &Rc<RefCell<Self>>, sim: &mut Sim, op: u64) {
        let wake = {
            let mut c = rc.borrow_mut();
            let now = sim.now();
            c.absorb(Some(now));
            let Some(h) = c.hedge.as_mut() else { return };
            let Some(o) = h.outstanding.get_mut(&op) else {
                return; // completed in time: hedge cancelled
            };
            if o.hedged {
                return;
            }
            o.hedged = true;
            h.stats.hedges_fired += 1;
            let tuple = (op, o.class, None, o.cmd.clone());
            // A full command queue skips the hedge — it is speculative
            // work, never worth blocking on.
            if c.endpoint.submit(tuple).is_err() {
                return;
            }
            c.wake_engine.clone()
        };
        wake(sim);
    }

    /// Deadline timer body: an op still outstanding concludes locally
    /// with [`OpStatus::DeadlineExceeded`]; the real completion, if it
    /// ever arrives, is dropped by [`ClientInner::absorb`].
    fn fire_deadline(rc: &Rc<RefCell<Self>>, sim: &mut Sim, op: u64) {
        let mut c = rc.borrow_mut();
        let now = sim.now();
        c.absorb(Some(now));
        let expired = match c.hedge.as_mut() {
            Some(h) => {
                let hit = h.outstanding.remove(&op).is_some();
                if hit {
                    h.stats.deadline_failures += 1;
                }
                hit
            }
            None => false,
        };
        if expired {
            c.completions.push(PonyCompletion::OpDone {
                op,
                status: OpStatus::DeadlineExceeded,
                data: vec![],
                issued_at: now,
            });
        }
    }
}

/// The application-side handle: submit commands, reap completions.
pub struct PonyClient {
    inner: Rc<RefCell<ClientInner>>,
}

impl PonyClient {
    /// Builds a client from the bootstrap products: the app endpoint of
    /// the queue pair and the engine wake callback.
    pub fn new(
        endpoint: AppEndpoint<PonyCommandTuple, PonyCompletion>,
        wake_engine: Rc<dyn Fn(&mut Sim)>,
    ) -> Self {
        PonyClient {
            inner: Rc::new(RefCell::new(ClientInner {
                endpoint,
                wake_engine,
                next_op: 1,
                completions: Vec::new(),
                recorder: None,
                host: 0,
                hedge: None,
            })),
        }
    }

    /// Installs the trace recorder ops are traced into, and the host id
    /// stamped on client-side records.
    pub fn set_trace(&mut self, recorder: TraceRecorder, host: u32) {
        let mut c = self.inner.borrow_mut();
        c.recorder = Some(recorder);
        c.host = host;
    }

    /// Enables client-side deadlines and hedged retries. Subsequent
    /// submits are tracked; each arms a hedge timer at a
    /// quantile-derived delay and (optionally) a deadline timer.
    pub fn enable_hedging(&mut self, cfg: HedgeConfig) {
        let rng = Rng::new(cfg.seed).stream(0x6865_6467_6572);
        self.inner.borrow_mut().hedge = Some(HedgeState {
            cfg,
            rng,
            window: VecDeque::new(),
            outstanding: IntMap::default(),
            stats: HedgeStats::default(),
        });
    }

    /// Hedging counters, or `None` if hedging is not enabled.
    pub fn hedge_stats(&self) -> Option<HedgeStats> {
        self.inner.borrow().hedge.as_ref().map(|h| h.stats)
    }

    /// Submits a transport-class command; returns the operation id its
    /// completion will carry. Transport-class work is never shed: under
    /// Hard pressure it completes with [`OpStatus::Busy`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the command queue is full (callers bound their
    /// outstanding ops in all reproduced workloads).
    pub fn submit(&mut self, sim: &mut Sim, cmd: PonyCommand) -> u64 {
        self.submit_with_class(sim, cmd, QosClass::Transport)
    }

    /// Submits a command with an explicit QoS class. Best-effort
    /// submissions are shed first (completing with [`OpStatus::Shed`])
    /// when the container comes under memory pressure.
    ///
    /// # Panics
    ///
    /// Panics if the command queue is full (callers bound their
    /// outstanding ops in all reproduced workloads).
    pub fn submit_with_class(
        &mut self,
        sim: &mut Sim,
        cmd: PonyCommand,
        class: QosClass,
    ) -> u64 {
        let now = sim.now();
        let (op, wake, hedge_at, deadline_at) = {
            let mut c = self.inner.borrow_mut();
            let op = c.next_op;
            c.next_op += 1;
            // Allocate the trace context at submit time — the client
            // enqueue stamp is the root of the op's span tree.
            let trace = c.recorder.as_ref().and_then(|r| r.begin(now, c.host));
            // The command moves into the queue; only a hedging client
            // keeps a copy, the one its hedge would resubmit.
            let kept = c.hedge.is_some().then(|| cmd.clone());
            c.endpoint
                .submit((op, class, trace, cmd))
                .unwrap_or_else(|_| panic!("command queue full (op {op})"));
            let mut hedge_at = None;
            let mut deadline_at = None;
            if let (Some(h), Some(cmd)) = (c.hedge.as_mut(), kept) {
                deadline_at = h.cfg.deadline.map(|d| now + d);
                // Buffer posts are tracked (so dedup stays uniform)
                // but never hedged: duplicating them wins nothing.
                if !matches!(cmd, PonyCommand::PostRecvBuffers { .. }) {
                    hedge_at = Some(now + h.hedge_delay());
                }
                h.outstanding.insert(
                    op,
                    Outstanding {
                        submitted_at: now,
                        class,
                        cmd,
                        hedged: false,
                    },
                );
            }
            (op, c.wake_engine.clone(), hedge_at, deadline_at)
        };
        wake(sim);
        if let Some(at) = hedge_at {
            let rc = self.inner.clone();
            sim.schedule_at(at, move |sim| ClientInner::fire_hedge(&rc, sim, op));
        }
        if let Some(at) = deadline_at {
            let rc = self.inner.clone();
            sim.schedule_at(at, move |sim| ClientInner::fire_deadline(&rc, sim, op));
        }
        op
    }

    /// Polls completions into the internal buffer; returns how many
    /// arrived. Prefer [`PonyClient::take_completions_at`] when
    /// simulation time is at hand — it additionally feeds the hedge
    /// latency window.
    pub fn poll(&mut self) -> usize {
        self.inner.borrow_mut().absorb(None)
    }

    /// Drains all pending completions.
    pub fn take_completions(&mut self) -> Vec<PonyCompletion> {
        let mut c = self.inner.borrow_mut();
        while c.absorb(None) > 0 {}
        std::mem::take(&mut c.completions)
    }

    /// Drains all pending completions, feeding the hedge latency
    /// window with `now`-based samples.
    pub fn take_completions_at(&mut self, now: Nanos) -> Vec<PonyCompletion> {
        let mut c = self.inner.borrow_mut();
        while c.absorb(Some(now)) > 0 {}
        std::mem::take(&mut c.completions)
    }

    /// Completions waiting in the queue (cheap check for spin loops).
    pub fn completions_pending(&self) -> usize {
        self.inner.borrow().endpoint.completions_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_shm::queue_pair::QueuePair;
    use std::cell::Cell;

    #[test]
    fn submit_assigns_op_ids_and_wakes() {
        let (app, engine) = QueuePair::create(16);
        let woke = Rc::new(Cell::new(0u32));
        let w = woke.clone();
        let mut client = PonyClient::new(app, Rc::new(move |_sim| w.set(w.get() + 1)));
        let mut sim = Sim::new();
        let op1 = client.submit(
            &mut sim,
            PonyCommand::Send {
                conn: 1,
                stream: 0,
                len: 100,
            },
        );
        let op2 = client.submit(
            &mut sim,
            PonyCommand::Read {
                conn: 1,
                region: 2,
                offset: 0,
                len: 64,
            },
        );
        assert_ne!(op1, op2);
        assert_eq!(woke.get(), 2);
        let mut cmds = Vec::new();
        assert_eq!(engine.poll_commands(&mut cmds, 16), 2);
        assert_eq!(cmds[0].0, op1);
    }

    #[test]
    fn completions_roundtrip() {
        let (app, engine) = QueuePair::create(16);
        let mut client = PonyClient::new(app, Rc::new(|_| {}));
        engine
            .complete(PonyCompletion::OpDone {
                op: 9,
                status: OpStatus::Ok,
                data: vec![1, 2],
                issued_at: Nanos(5),
            })
            .unwrap();
        let got = client.take_completions();
        assert_eq!(got.len(), 1);
        match &got[0] {
            PonyCompletion::OpDone { op, status, data, .. } => {
                assert_eq!(*op, 9);
                assert_eq!(*status, OpStatus::Ok);
                assert_eq!(data, &vec![1, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hedge_timer_resubmits_same_op_id() {
        let (app, engine) = QueuePair::create(16);
        let mut client = PonyClient::new(app, Rc::new(|_| {}));
        client.enable_hedging(HedgeConfig::default());
        let mut sim = Sim::new();
        let op = client.submit(
            &mut sim,
            PonyCommand::Read {
                conn: 1,
                region: 2,
                offset: 0,
                len: 64,
            },
        );
        // No completion ever arrives: the hedge timer fires once.
        sim.run();
        let mut cmds = Vec::new();
        assert_eq!(engine.poll_commands(&mut cmds, 16), 2, "original + hedge");
        assert_eq!(cmds[0].0, op);
        assert_eq!(cmds[1].0, op, "hedge reuses the op id (engine dedups)");
        let stats = client.hedge_stats().expect("hedging enabled");
        assert_eq!(stats.hedges_fired, 1);
        assert_eq!(client.take_completions(), vec![], "op still unresolved");
    }

    #[test]
    fn out_of_range_hedge_quantile_never_panics() {
        for q in [7.5, -2.0, f64::NAN] {
            let mut h = HedgeState {
                cfg: HedgeConfig {
                    quantile: q,
                    ..HedgeConfig::default()
                },
                rng: Rng::new(1),
                window: VecDeque::new(),
                outstanding: IntMap::default(),
                stats: HedgeStats::default(),
            };
            for i in 0..(HEDGE_MIN_SAMPLES as u64 * 2) {
                h.record_sample(Nanos(60_000 + i));
            }
            let d = h.hedge_delay();
            assert!(d >= h.cfg.min_delay && d <= h.cfg.max_delay + Nanos(h.cfg.max_delay.as_nanos() / 4));
        }
    }

    #[test]
    fn completion_before_hedge_cancels_it() {
        let (app, engine) = QueuePair::create(16);
        let mut client = PonyClient::new(app, Rc::new(|_| {}));
        client.enable_hedging(HedgeConfig::default());
        let mut sim = Sim::new();
        let op = client.submit(
            &mut sim,
            PonyCommand::Read {
                conn: 1,
                region: 2,
                offset: 0,
                len: 64,
            },
        );
        engine
            .complete(PonyCompletion::OpDone {
                op,
                status: OpStatus::Ok,
                data: vec![],
                issued_at: Nanos(10),
            })
            .unwrap();
        sim.run();
        let mut cmds = Vec::new();
        assert_eq!(engine.poll_commands(&mut cmds, 16), 1, "no hedge dup");
        let stats = client.hedge_stats().expect("hedging enabled");
        assert_eq!(stats.hedges_fired, 0);
        assert_eq!(stats.samples, 1, "completion fed the latency window");
        assert_eq!(client.take_completions().len(), 1);
    }

    #[test]
    fn deadline_synthesizes_failure_and_drops_late_completion() {
        let (app, engine) = QueuePair::create(16);
        let mut client = PonyClient::new(app, Rc::new(|_| {}));
        client.enable_hedging(HedgeConfig {
            deadline: Some(Nanos::from_micros(100)),
            ..HedgeConfig::default()
        });
        let mut sim = Sim::new();
        let op = client.submit(
            &mut sim,
            PonyCommand::Read {
                conn: 1,
                region: 2,
                offset: 0,
                len: 64,
            },
        );
        sim.run();
        let got = client.take_completions_at(sim.now());
        assert_eq!(got.len(), 1);
        assert!(
            matches!(
                got[0],
                PonyCompletion::OpDone {
                    op: o,
                    status: OpStatus::DeadlineExceeded,
                    ..
                } if o == op
            ),
            "unexpected {:?}",
            got[0]
        );
        // The real completion limps in afterwards: dropped, so the app
        // sees exactly one outcome per op.
        engine
            .complete(PonyCompletion::OpDone {
                op,
                status: OpStatus::Ok,
                data: vec![],
                issued_at: Nanos(10),
            })
            .unwrap();
        assert!(client.take_completions_at(sim.now()).is_empty());
        let stats = client.hedge_stats().expect("hedging enabled");
        assert_eq!(stats.deadline_failures, 1);
        assert_eq!(stats.late_dropped, 1);
    }

    #[test]
    fn hedge_delay_tracks_observed_quantile() {
        let (app, engine) = QueuePair::create(64);
        let mut client = PonyClient::new(app, Rc::new(|_| {}));
        client.enable_hedging(HedgeConfig::default());
        let mut sim = Sim::new();
        // Feed the window 16 completions of ~1 ms latency; the derived
        // hedge delay for the next op must sit near that, not at the
        // 200 us initial default.
        for _ in 0..16 {
            let op = client.submit(
                &mut sim,
                PonyCommand::Read {
                    conn: 1,
                    region: 2,
                    offset: 0,
                    len: 64,
                },
            );
            engine
                .complete(PonyCompletion::OpDone {
                    op,
                    status: OpStatus::Ok,
                    data: vec![],
                    issued_at: sim.now(),
                })
                .unwrap();
            client.take_completions_at(sim.now() + Nanos::from_millis(1));
        }
        let mut cmds = Vec::new();
        engine.poll_commands(&mut cmds, 64);
        let stats = client.hedge_stats().expect("hedging enabled");
        assert_eq!(stats.samples, 16);
        // The next submit arms its hedge at the ~1 ms quantile: the
        // timer must not fire before 1 ms of virtual time.
        let before = sim.now();
        client.submit(
            &mut sim,
            PonyCommand::Read {
                conn: 1,
                region: 2,
                offset: 0,
                len: 64,
            },
        );
        sim.run();
        assert!(
            sim.now() >= before + Nanos::from_millis(1),
            "hedge fired too early: {} -> {}",
            before,
            sim.now()
        );
        assert_eq!(client.hedge_stats().expect("enabled").hedges_fired, 1);
    }

    #[test]
    fn pending_count_without_drain() {
        let (app, engine) = QueuePair::create(16);
        let client = PonyClient::new(app, Rc::new(|_| {}));
        engine
            .complete(PonyCompletion::RecvMsg {
                conn: 1,
                stream: 0,
                msg: 0,
                len: 10,
            })
            .unwrap();
        assert_eq!(client.completions_pending(), 1);
    }
}
