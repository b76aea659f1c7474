//! Memory budget of the `snap-apps` byte path.
//!
//! Between `SnapSocket::send` and `FrameBuf::next_frame` a payload byte
//! may only sit in a buffer while it is in flight: waiting for the
//! window, parked in the ledger, queued for `recv`, or part of a frame
//! that has not fully arrived. None of those may grow with how much a
//! connection has carried. The tests run under an allocator that keeps
//! per-thread books (live bytes, their peak, bytes ever requested), so
//! the figures are exact, repeat from run to run, and the tests do not
//! see each other. This needs its own file for the reason
//! `tests/datapath_budget.rs` gives: a process has one allocator hook.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use snap_repro::apps::dag::ServiceTime;
use snap_repro::apps::framing::{frame, FrameBuf};
use snap_repro::apps::pool::{ClientPool, PoolSpec};
use snap_repro::apps::socket::{wire, SocketHost};
use snap_repro::apps::transport::{Backend, Transport, TransportEvent};
use snap_repro::apps::workload::drive;
use snap_repro::sim::{Nanos, Sim};
use snap_repro::testbed::{Testbed, TestbedConfig};

thread_local! {
    // Const-initialised and without destructors, so the allocator can
    // read them without allocating or registering a dtor.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct Bookkeeping;

impl Bookkeeping {
    fn took(bytes: usize) {
        let live = LIVE.with(|l| {
            l.set(l.get() + bytes);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
        REQUESTED.with(|r| r.set(r.get() + bytes));
    }

    /// Saturating: the harness frees on this thread a little it
    /// allocated on another.
    fn gave(bytes: usize) {
        LIVE.with(|l| l.set(l.get().saturating_sub(bytes)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the books touch only
// const-initialised thread-local `Cell`s.
unsafe impl GlobalAlloc for Bookkeeping {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::took(layout.size());
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::took(layout.size());
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::gave(layout.size());
        Self::took(new_size);
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::gave(layout.size());
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Bookkeeping = Bookkeeping;

fn live() -> usize {
    LIVE.with(Cell::get)
}

const REQUEST_BYTES: usize = 64 * 1024;

/// Two closed-loop clients (hosts 1 and 2) against one echo server
/// (host 0) over the Pony backend, four 64 KB requests in flight each:
/// `incast_clos` in miniature. Returns the peak of live heap bytes over
/// the pool's run, above what was live when it began, and the bytes
/// requested from the allocator during it.
fn pool_run(requests_per_client: u64) -> (usize, usize) {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: 3,
        nic_gbps: 10.0,
        seed: 42,
        ..TestbedConfig::default()
    });
    let server = tb.app(0, "srv", Backend::Pony);
    let mut pairs = Vec::new();
    for c in 1..=2 {
        let name = format!("cli{c}");
        tb.app(c, &name, Backend::Pony);
        let dial = tb.app_connect(c, &name, 0, "srv").expect("wires");
        pairs.push((dial, server.listener().accept().expect("peer queued")));
    }
    let mut pool = ClientPool::new(
        PoolSpec {
            request_bytes: REQUEST_BYTES,
            reply_bytes: 128,
            window: 4,
            think: Nanos::ZERO,
            service: ServiceTime::Exponential { mean_us: 2.0 },
            requests_per_client,
        },
        pairs,
        42,
    );
    let (live0, requested0) = (live(), REQUESTED.with(Cell::get));
    PEAK.with(|p| p.set(live0));
    pool.begin(tb.sim.now());
    drive(tb.as_pump(), &mut [&mut pool], Nanos::from_millis(2_000)).expect("pool completes");
    let report = pool.summary(tb.sim.now());
    assert_eq!(report.completed, 2 * requests_per_client);
    (
        PEAK.with(Cell::get) - live0,
        REQUESTED.with(Cell::get) - requested0,
    )
}

#[test]
fn pool_heap_is_bounded_by_what_is_in_flight() {
    let (peak_short, requested_short) = pool_run(100);
    let (peak_long, requested_long) = pool_run(400);
    let per_request = (requested_long - requested_short) / (2 * 300);
    println!("peak live heap: {peak_short} B over 2 x 100 requests, {peak_long} B over 2 x 400");
    println!("{per_request} B requested from the allocator per extra request");

    // Four times the requests over the same two connections: the same
    // eight requests are in flight at any instant, so the peak may not
    // follow. Measured 1.57 MB -> 2.01 MB; the growth is the engines'
    // per-stream maps (every chunk is its own Pony stream) and the
    // latency histogram. While `FrameBuf` kept what it had handed out,
    // every request stayed in the server's buffer: 18.2 MB -> 69.0 MB.
    assert!(
        peak_long <= peak_short + 1024 * 1024,
        "peak heap grew with the request count: {peak_short} -> {peak_long} B"
    );

    // What one more request asks of the allocator, engines and
    // simulator included. Its 64 KB are asked for three times (the
    // frame as built, the ledger chunks cut from it, the body
    // `next_frame` returns: 196 655 B); the waiting and reassembly
    // buffers stopped growing long before; the rest is the Pony
    // datapath's per-packet `Bytes` (see `tests/datapath_budget.rs`).
    // Measured 215 417 B (223 363 B in a debug build, which adds the
    // ready-set cross-check's `Vec`s). It was 516 662 B (524 602 B)
    // while the path moved bytes: three buffers per request built, a
    // `Vec` collected per chunk from a byte deque that grew by pushes,
    // and the regrowth of the unbounded `FrameBuf`.
    const BUDGET_PER_REQUEST: usize = if cfg!(debug_assertions) { 224 } else { 216 } * 1024;
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request} B allocated per request exceeds {BUDGET_PER_REQUEST}"
    );
}

/// The shortest transport there is: a chunk handed to one end is
/// delivered at the other end's next poll and acknowledged at the
/// sender's.
struct Loopback {
    /// Events for this end's next poll.
    inbox: Rc<RefCell<Vec<TransportEvent>>>,
    peer: Rc<RefCell<Vec<TransportEvent>>>,
}

impl Transport for Loopback {
    fn backend(&self) -> Backend {
        Backend::Pony
    }
    fn register_conn(&mut self, _conn: u64) {}
    fn send_chunk(&mut self, _sim: &mut Sim, conn: u64, seq: u64, _len: u64) {
        self.peer
            .borrow_mut()
            .push(TransportEvent::Delivered { conn, seq });
        self.inbox
            .borrow_mut()
            .push(TransportEvent::SendDone { conn, seq });
    }
    fn poll(&mut self, _now: Nanos, out: &mut Vec<TransportEvent>) {
        out.append(&mut self.inbox.borrow_mut());
    }
}

#[test]
fn framebuf_holds_one_partial_frame_not_the_stream() {
    const FRAMES: usize = 1_000;
    const PIECE: usize = 2 * 1024;
    let mut sim = Sim::new();
    let (to_a, to_b) = (Rc::default(), Rc::default());
    let a = SocketHost::new(Box::new(Loopback {
        inbox: Rc::clone(&to_a),
        peer: Rc::clone(&to_b),
    }));
    let b = SocketHost::new(Box::new(Loopback {
        inbox: to_b,
        peer: to_a,
    }));
    let tx = wire(&a, &b, 1).expect("same backend");
    let rx = b.listener().accept().expect("peer queued");

    let wire_frame = frame(vec![0xA5; REQUEST_BYTES], 0);
    let mut frames = FrameBuf::new();
    let live0 = live();
    // The stream, 2 KB at a time. Frames are 64 KB + 4, so from the
    // second on every frame's tail arrives glued to the next one's
    // head: the buffer is never empty after a frame is taken.
    let (mut taken, mut at) = (0, 0);
    let mut piece = Vec::with_capacity(PIECE);
    for _ in 0..FRAMES * wire_frame.len() / PIECE {
        piece.clear();
        while piece.len() < PIECE {
            let n = (PIECE - piece.len()).min(wire_frame.len() - at);
            piece.extend_from_slice(&wire_frame[at..at + n]);
            at = (at + n) % wire_frame.len();
        }
        tx.send(&mut sim, &piece).expect("connected");
        a.poll(&mut sim);
        frames.pull(&mut sim, &rx).expect("connected");
        while let Some(body) = frames.next_frame() {
            assert_eq!(body.len(), REQUEST_BYTES);
            taken += 1;
        }
    }
    assert!(taken >= FRAMES - 1, "{taken} frames reassembled");
    // What is still held is `FrameBuf`'s capacity (131 072 B: a frame
    // and a piece, rounded up by `Vec`'s doubling) plus the sockets'
    // drained queues (5 KB). It used to be the whole stream: 67 MB.
    let held = live() - live0;
    println!("{held} B held after {taken} frames");
    assert!(
        held <= 4 * wire_frame.len(),
        "{held} B held after {taken} frames of {} B",
        wire_frame.len()
    );
}
