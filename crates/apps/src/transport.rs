//! The one message-level contract over both stacks, and its ends.
//!
//! A [`Transport`] is an application's end of its connections: it
//! sends a length-modeled message with a `u32` tag on a connection,
//! and its poll reports what arrived ([`TransportEvent::Delivered`],
//! with the tag and length) and how each send went (`SendDone`,
//! `SendBusy`, `SendFailed`). Connections are dialed by the harness and
//! their id is valid at both ends; each end is told of one with
//! [`Transport::open`]. The sockets facade ([`crate::socket`]) runs on
//! it with its chunk sequence as the tag, and so do the §5 rack and
//! pair drivers of the root crate with their own tags.
//!
//! One implementor per stack:
//! - [`PonyEnd`]: an application's `PonyClient`, as the paper's apps
//!   reach Pony Express (§3.1): a send is a two-sided
//!   [`PonyCommand::Send`] whose *stream id is the tag*. The stream id
//!   is the one per-message identifier the engine echoes to the
//!   receiver that the application, not admission, assigns, so a quota
//!   `Busy` refusal (made before a message id is assigned) is retried
//!   under the same tag and delivered once. The one-sided
//!   [`PonyEnd::read`] is Pony's alone.
//! - [`TcpEnd`]: an application's connections on its host's one kernel
//!   stack (`TcpHost`). A message id is a per-end count above the tag,
//!   so ids grow in send order on every connection direction, which is
//!   the order the stack resends in. Each connection reports into the
//!   inbox of the end that opened it: the facade gives every
//!   application its own, the §5 drivers give a whole rack one, so they
//!   see its deliveries in the order the kernel made them. The kernel
//!   stream is reliable: a send is done once handed over, reported at
//!   the next poll, never busy and never failed.
//!
//! [`Loopback`] is a third, in memory, for tests.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::cell::RefCell;
use std::rc::Rc;

use snap_pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_sim::hash::IntMap;
use snap_sim::{Nanos, Sim};
use snap_tcp::stack::{OnMessage, TcpHost};

/// Which stack carries an app's facade traffic. Chosen per app at
/// testbed construction; both ends of a connection must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The kernel-TCP cost model (`snap_tcp`).
    Tcp,
    /// The Pony Express engine client (`snap_pony`).
    Pony,
}

impl Backend {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Tcp => "tcp",
            Backend::Pony => "pony",
        }
    }
}

/// What an end reports at a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// A message fully arrived at this end.
    Delivered {
        /// Connection id.
        conn: u64,
        /// The sender's tag.
        tag: u32,
        /// Message length, bytes.
        len: u64,
    },
    /// The send was accepted end to end.
    SendDone {
        /// Connection id.
        conn: u64,
        /// The send's tag.
        tag: u32,
    },
    /// The local engine refused the send with back-pressure
    /// (`OpStatus::Busy`): nothing entered the transport; send it again
    /// later, under the same tag.
    SendBusy {
        /// Connection id.
        conn: u64,
        /// The send's tag.
        tag: u32,
    },
    /// The transport failed the send terminally.
    SendFailed {
        /// Connection id.
        conn: u64,
        /// The send's tag.
        tag: u32,
    },
}

/// An application's end of its connections. Every send gets exactly
/// one outcome, at a later poll.
pub trait Transport {
    /// Tells this end about a connection it holds, once dialed (an end
    /// that needs no setup ignores it).
    fn open(&mut self, _conn: u64) {}
    /// Sends a `len`-byte message tagged `tag` on `conn`.
    fn send(&mut self, sim: &mut Sim, conn: u64, tag: u32, len: u64);
    /// Appends what happened since the last poll to `out`.
    fn poll(&mut self, now: Nanos, out: &mut Vec<TransportEvent>);
}

/// Snap/Pony: an application's engine session.
pub struct PonyEnd {
    client: PonyClient,
    /// Ops in flight that report: op id -> (conn, tag, a read).
    ops: IntMap<u64, (u64, u32, bool)>,
}

impl PonyEnd {
    /// Wraps an open session (created by the testbed via
    /// `PonyModule::open_session`, which also wires tracing).
    pub fn new(client: PonyClient) -> Self {
        PonyEnd {
            client,
            ops: IntMap::default(),
        }
    }

    /// Posts `count` receive buffers on `conn`: messages above the
    /// engine's small-message bound land in them.
    pub fn post_recv_buffers(&mut self, sim: &mut Sim, conn: u64, count: u32) {
        self.client
            .submit(sim, PonyCommand::PostRecvBuffers { conn, count });
    }

    /// Reads `len` bytes at the start of the peer's `region` over
    /// `conn`, one-sided; the data is reported here as delivered,
    /// tagged `tag` (failed: as a failed send).
    pub fn read(&mut self, sim: &mut Sim, conn: u64, region: u64, len: u32, tag: u32) {
        let read = PonyCommand::Read {
            conn,
            region,
            offset: 0,
            len,
        };
        let op = self.client.submit(sim, read);
        self.ops.insert(op, (conn, tag, true));
    }
}

impl Transport for PonyEnd {
    fn send(&mut self, sim: &mut Sim, conn: u64, stream: u32, len: u64) {
        let op = self
            .client
            .submit(sim, PonyCommand::Send { conn, stream, len });
        self.ops.insert(op, (conn, stream, false));
    }

    fn poll(&mut self, now: Nanos, out: &mut Vec<TransportEvent>) {
        for c in self.client.take_completions_at(now) {
            out.push(match c {
                PonyCompletion::RecvMsg {
                    conn, stream, len, ..
                } => TransportEvent::Delivered {
                    conn,
                    tag: stream,
                    len,
                },
                PonyCompletion::OpDone {
                    op, status, data, ..
                } => {
                    let Some((conn, tag, read)) = self.ops.remove(&op) else {
                        continue;
                    };
                    match status {
                        OpStatus::Ok if read => TransportEvent::Delivered {
                            conn,
                            tag,
                            len: data.len() as u64,
                        },
                        OpStatus::Ok => TransportEvent::SendDone { conn, tag },
                        OpStatus::Busy => TransportEvent::SendBusy { conn, tag },
                        _ => TransportEvent::SendFailed { conn, tag },
                    }
                }
            });
        }
    }
}

/// Kernel TCP: an application's connections on its host's stack.
pub struct TcpEnd {
    tcp: TcpHost,
    /// Where this end reports, in the order things happened.
    inbox: Rc<RefCell<Vec<TransportEvent>>>,
    /// Sends so far: the high half of the next message id.
    sent: u64,
}

impl TcpEnd {
    /// An end on `tcp` that reports into `inbox`, which other ends may
    /// share.
    pub fn new(tcp: TcpHost, inbox: Rc<RefCell<Vec<TransportEvent>>>) -> Self {
        TcpEnd {
            tcp,
            inbox,
            sent: 0,
        }
    }
}

impl Transport for TcpEnd {
    fn open(&mut self, conn: u64) {
        let inbox = self.inbox.clone();
        let deliver: OnMessage = Rc::new(move |_sim, conn, msg, len| {
            // The tag is the message id's low half.
            let tag = msg as u32;
            inbox
                .borrow_mut()
                .push(TransportEvent::Delivered { conn, tag, len });
        });
        self.tcp.on_conn_message(conn, deliver);
    }

    fn send(&mut self, sim: &mut Sim, conn: u64, tag: u32, len: u64) {
        self.sent += 1;
        self.tcp.send(sim, conn, self.sent << 32 | tag as u64, len);
        let done = TransportEvent::SendDone { conn, tag };
        self.inbox.borrow_mut().push(done);
    }

    fn poll(&mut self, _now: Nanos, out: &mut Vec<TransportEvent>) {
        out.append(&mut self.inbox.borrow_mut());
    }
}

/// One direction of a [`Loopback`] pair: what its sending end was
/// handed and told, and the knobs that steer what becomes of a send.
#[derive(Debug, Default)]
pub struct Wire {
    /// Every send, in order: `(conn, tag, len)`.
    pub sent: Vec<(u64, u32, u64)>,
    /// Every outcome the sending end was told, in order.
    pub told: Vec<TransportEvent>,
    /// While set, `SendDone`s are withheld.
    pub hold_acks: bool,
    /// The next this-many sends are refused.
    pub refuse_next: u64,
    /// While set, each receiving poll reports its deliveries last
    /// first.
    pub reverse: bool,
    /// Outcomes not yet told.
    pending: Vec<TransportEvent>,
    arriving: Vec<TransportEvent>,
}

/// A deterministic in-memory transport, for tests: a message sent at
/// one end is delivered at the other's next poll, and its outcome told
/// at the sender's next poll, as its [`Wire`] steers.
pub struct Loopback {
    /// The direction this end sends on.
    pub tx: Rc<RefCell<Wire>>,
    /// The direction it receives from.
    pub rx: Rc<RefCell<Wire>>,
}

impl Transport for Loopback {
    fn send(&mut self, _sim: &mut Sim, conn: u64, tag: u32, len: u64) {
        let mut w = self.tx.borrow_mut();
        w.sent.push((conn, tag, len));
        if w.refuse_next > 0 {
            w.refuse_next -= 1;
            w.pending.push(TransportEvent::SendBusy { conn, tag });
        } else {
            w.pending.push(TransportEvent::SendDone { conn, tag });
            w.arriving
                .push(TransportEvent::Delivered { conn, tag, len });
        }
    }

    fn poll(&mut self, _now: Nanos, out: &mut Vec<TransportEvent>) {
        let mut w = self.tx.borrow_mut();
        let hold = w.hold_acks;
        let (held, told): (Vec<_>, Vec<_>) = (w.pending.drain(..))
            .partition(|event| hold && matches!(event, TransportEvent::SendDone { .. }));
        w.pending = held;
        w.told.extend(&told);
        out.extend(told);
        drop(w);
        let mut r = self.rx.borrow_mut();
        if r.reverse {
            r.arriving.reverse();
        }
        out.append(&mut r.arriving);
    }
}
