//! Allocation budget of the kernel-TCP per-packet datapath.
//!
//! The twin of `tests/datapath_budget.rs` on the shape of the
//! benchmark's `stream_tcp`: two hosts at 100 Gbps, one connection,
//! ~1 MB messages, eight in flight, each delivered message replaced
//! from the receiver's callback. A warm stream is run under a counting
//! allocator and the allocator calls per packet the fabric delivers
//! (data segments and their acks) are held to a budget. It needs its
//! own file because a process has one allocator hook.

mod counting_alloc;

use std::cell::Cell;
use std::rc::Rc;

use snap_repro::tcp::stack::TcpConfig;
use snap_repro::testbed::{Testbed, TestbedConfig};

#[global_allocator]
static ALLOCATOR: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

const MSG_BYTES: u64 = 1_000_000;
const IN_FLIGHT: u64 = 8;

#[test]
fn warm_tcp_stream_allocations_per_delivered_packet() {
    let mut tb = Testbed::new(TestbedConfig {
        nic_gbps: 100.0,
        seed: 42,
        ..TestbedConfig::default()
    });
    let a = tb.tcp_host(0, TcpConfig::default());
    let b = tb.tcp_host(1, TcpConfig::default());
    let conn = a.connect(tb.hosts[1].id);

    // Closed loop: each delivered message is replaced by the next.
    let next_msg = Rc::new(Cell::new(IN_FLIGHT));
    let delivered = Rc::new(Cell::new(0u64));
    {
        let (a, next_msg, delivered) = (a.clone(), next_msg.clone(), delivered.clone());
        b.on_message(Rc::new(move |sim, conn, _msg, len| {
            assert_eq!(len, MSG_BYTES);
            delivered.set(delivered.get() + 1);
            let msg = next_msg.get();
            next_msg.set(msg + 1);
            a.send(sim, conn, msg, MSG_BYTES);
        }));
    }
    for msg in 0..IN_FLIGHT {
        a.send(&mut tb.sim, conn, msg, MSG_BYTES);
    }

    // Warm: connection maps, the in-flight tree and the host's encode
    // scratch reach their steady-state capacity.
    tb.run_ms(5);

    let delivered_before = tb.fabric.stats().delivered;
    let msgs_before = delivered.get();
    let ((), allocs) = counting_alloc::count_calls(|| tb.run_ms(10));
    let packets = tb.fabric.stats().delivered - delivered_before;
    let msgs = delivered.get() - msgs_before;

    assert!(msgs >= 20, "the stream ran: {msgs} messages");
    assert_eq!(a.stats().retransmits, 0);
    println!(
        "{allocs} allocator calls for {packets} delivered packets ({msgs} messages): {:.3} per packet",
        allocs as f64 / packets as f64
    );
    // Per hundred delivered packets. What is left, by call site: the
    // payload `Bytes` of every data segment and every ack, one
    // `Arc<[u8]>` each (1.0), and message-level growth of the
    // receiver's offset sets and the sender's in-flight tree.
    // Measured 1.02 in release and debug builds alike (3.02 while a
    // payload was an `Arc` of a `Vec` and each softirq drained the ring
    // into a fresh `Vec`).
    const BUDGET_PER_100_PACKETS: u64 = 110;
    assert!(
        allocs * 100 <= packets * BUDGET_PER_100_PACKETS,
        "{allocs} allocator calls for {packets} packets exceeds {BUDGET_PER_100_PACKETS} per 100"
    );
    assert_eq!(
        tb.sim.boxed_events(),
        0,
        "a closure on the path no longer fits an event slot"
    );
}
