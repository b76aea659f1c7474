//! A lock-free single-producer single-consumer bounded ring.
//!
//! This is the fast-path primitive of the whole system: "dataplane
//! interaction occurs over custom interfaces that communicate via
//! lock-free shared memory queues" (§1). Engines are single-threaded
//! (§2.2), so every engine↔application, engine↔NIC-queue and
//! engine↔engine link is single-producer single-consumer, which permits
//! the cheapest possible synchronization: one release store per side.
//!
//! The implementation is a classic Lamport ring with cached peer indices
//! (the producer caches the consumer's head and vice versa), so the
//! common case touches only one shared cache line per batch.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::utils::CachePadded;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the producer will write (monotonically increasing).
    tail: CachePadded<AtomicUsize>,
    /// Next slot the consumer will read (monotonically increasing).
    head: CachePadded<AtomicUsize>,
}

// SAFETY: `Inner` is shared between exactly one producer and one
// consumer. All slot accesses are ordered by the acquire/release pairs
// on `head`/`tail`: the producer only writes slots in `[tail, head+cap)`
// and publishes them with a release store of `tail`; the consumer only
// reads slots in `[head, tail)` after an acquire load of `tail`.
// `T: Send` is required because values move across threads.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: See above; the single-producer/single-consumer discipline is
// enforced by the `Producer`/`Consumer` types being neither `Clone` nor
// constructible except as one pair.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Drain any items the consumer never popped.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.buf[i & (self.buf.len() - 1)];
            // SAFETY: slots in [head, tail) were initialized by the
            // producer and never consumed; we have `&mut self`, so no
            // other access is possible.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// The sending half of an SPSC ring. Not clonable; exactly one exists.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Producer's private copy of `tail` (it is the only writer).
    tail: Cell<usize>,
    /// Cached consumer head, refreshed only when the ring looks full.
    cached_head: Cell<usize>,
    mask: usize,
}

/// The receiving half of an SPSC ring. Not clonable; exactly one exists.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Consumer's private copy of `head` (it is the only writer).
    head: Cell<usize>,
    /// Cached producer tail, refreshed only when the ring looks empty.
    cached_tail: Cell<usize>,
    mask: usize,
}

// SAFETY: A `Producer<T>` owns the producing side; moving it to another
// thread is the intended use. Interior `Cell`s are only touched by the
// owning thread.
unsafe impl<T: Send> Send for Producer<T> {}
// SAFETY: Same reasoning for the consuming side.
unsafe impl<T: Send> Send for Consumer<T> {}

/// Handle type used to name the ring in APIs; constructs the two halves.
pub struct SpscRing;

impl SpscRing {
    /// Creates a ring with capacity for `capacity` elements.
    ///
    /// Capacity is rounded up to a power of two (minimum 2) so index
    /// masking stays branch-free.
    pub fn with_capacity<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
        let cap = capacity.max(2).next_power_of_two();
        let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        let inner = Arc::new(Inner {
            buf,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
        });
        (
            Producer {
                inner: inner.clone(),
                tail: Cell::new(0),
                cached_head: Cell::new(0),
                mask: cap - 1,
            },
            Consumer {
                inner,
                head: Cell::new(0),
                cached_tail: Cell::new(0),
                mask: cap - 1,
            },
        )
    }
}

impl<T> Producer<T> {
    /// Ring capacity in elements.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Number of free slots, from the producer's perspective (may
    /// understate if the consumer advanced since the last refresh).
    pub fn free_slots(&self) -> usize {
        let head = self.inner.head.load(Ordering::Acquire);
        self.cached_head.set(head);
        self.capacity() - (self.tail.get() - head)
    }

    /// Attempts to push one value; returns it back if the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.get();
        if tail - self.cached_head.get() == self.capacity() {
            // Looks full; refresh the cached head.
            let head = self.inner.head.load(Ordering::Acquire);
            self.cached_head.set(head);
            if tail - head == self.capacity() {
                return Err(value);
            }
        }
        let slot = &self.inner.buf[tail & self.mask];
        // SAFETY: `tail - head < capacity`, so this slot is not visible
        // to the consumer and was either never written or already
        // consumed; we are the unique producer.
        unsafe { (*slot.get()).write(value) };
        // Release publishes the slot contents to the consumer.
        self.inner.tail.store(tail + 1, Ordering::Release);
        self.tail.set(tail + 1);
        Ok(())
    }

    /// Pushes as many items from the iterator as fit; returns how many.
    ///
    /// Items are only taken from the iterator once a slot is known to
    /// be free, so nothing is lost when the ring fills. The whole batch
    /// is published with ONE release store of `tail` (one acquire load
    /// of the peer head, one shared-cache-line write per batch instead
    /// of per item) — this is the amortization the paper's "lock-free
    /// shared memory queues" rely on for batched engine passes.
    pub fn push_batch(&self, items: &mut impl Iterator<Item = T>) -> usize {
        let tail = self.tail.get();
        // One acquire refresh of the consumer's head bounds the batch.
        let head = self.inner.head.load(Ordering::Acquire);
        self.cached_head.set(head);
        let free = self.capacity() - (tail - head);
        let mut n = 0;
        while n < free {
            match items.next() {
                Some(item) => {
                    let slot = &self.inner.buf[(tail + n) & self.mask];
                    // SAFETY: `tail + n - head < capacity`, so this slot
                    // is not visible to the consumer (it sees only
                    // `[head, published tail)`); we are the unique
                    // producer, so the slot is dead storage.
                    unsafe { (*slot.get()).write(item) };
                    n += 1;
                }
                None => break,
            }
        }
        if n > 0 {
            // Single release store publishes every slot written above.
            self.inner.tail.store(tail + n, Ordering::Release);
            self.tail.set(tail + n);
        }
        n
    }

    /// True if the consumer half has been dropped.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.inner) == 1
    }
}

impl<T> Consumer<T> {
    /// Ring capacity in elements.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Number of items available to pop (may understate if the producer
    /// advanced since the last refresh).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Acquire);
        self.cached_tail.set(tail);
        tail - self.head.get()
    }

    /// True if no items are currently available.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to pop one value.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.get();
        if head == self.cached_tail.get() {
            // Looks empty; refresh the cached tail.
            let tail = self.inner.tail.load(Ordering::Acquire);
            self.cached_tail.set(tail);
            if head == tail {
                return None;
            }
        }
        let slot = &self.inner.buf[head & self.mask];
        // SAFETY: `head < tail` (acquire-loaded), so the producer
        // published this slot with a release store; we are the unique
        // consumer, so the slot is initialized and unread.
        let value = unsafe { (*slot.get()).assume_init_read() };
        // Release hands the slot back to the producer.
        self.inner.head.store(head + 1, Ordering::Release);
        self.head.set(head + 1);
        Some(value)
    }

    /// Pops up to `max` items into `out`; returns how many were popped.
    ///
    /// The whole batch is retired with ONE release store of `head`
    /// (at most one acquire load of the peer tail), mirroring
    /// [`Producer::push_batch`].
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let head = self.head.get();
        // One acquire refresh of the producer's tail bounds the batch
        // (a stale cache would under-drain relative to a single-op
        // loop, which refreshes whenever it looks empty).
        let tail = self.inner.tail.load(Ordering::Acquire);
        self.cached_tail.set(tail);
        let avail = tail - head;
        let n = avail.min(max);
        out.reserve(n);
        for i in 0..n {
            let slot = &self.inner.buf[(head + i) & self.mask];
            // SAFETY: `head + i < tail` (acquire-loaded, possibly on an
            // earlier call — tail only grows), so the producer published
            // this slot; we are the unique consumer and have not retired
            // it yet, so it is initialized and unread.
            out.push(unsafe { (*slot.get()).assume_init_read() });
        }
        if n > 0 {
            // Single release store hands every read slot back at once.
            self.inner.head.store(head + n, Ordering::Release);
            self.head.set(head + n);
        }
        n
    }

    /// True if the producer half has been dropped.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.inner) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = SpscRing::with_capacity::<u32>(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = SpscRing::with_capacity::<u32>(0);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn push_pop_fifo() {
        let (p, c) = SpscRing::with_capacity(8);
        for i in 0..5 {
            p.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let (p, c) = SpscRing::with_capacity(4);
        for i in 0..4 {
            p.push(i).unwrap();
        }
        assert_eq!(p.push(99), Err(99));
        assert_eq!(c.pop(), Some(0));
        assert_eq!(p.push(99), Ok(()));
    }

    #[test]
    fn wraps_many_times() {
        let (p, c) = SpscRing::with_capacity(4);
        for round in 0..1000u64 {
            p.push(round).unwrap();
            assert_eq!(c.pop(), Some(round));
        }
    }

    #[test]
    fn len_and_free_slots_track() {
        let (p, c) = SpscRing::with_capacity(8);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(p.free_slots(), 8);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(p.free_slots(), 6);
        c.pop().unwrap();
        assert_eq!(p.free_slots(), 7);
    }

    #[test]
    fn batch_operations() {
        let (p, c) = SpscRing::with_capacity(8);
        let mut src = 0..20u32;
        let pushed = p.push_batch(&mut src);
        assert_eq!(pushed, 8);
        let mut out = Vec::new();
        assert_eq!(c.pop_batch(&mut out, 5), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.pop_batch(&mut out, 100), 3);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn batch_ops_wrap_repeatedly() {
        // Runs batches across the index wrap many times; FIFO order and
        // counts must be exact at every full/empty boundary.
        let (p, c) = SpscRing::with_capacity(8);
        let mut next = 0u64;
        let mut expect = 0u64;
        let mut out = Vec::new();
        for round in 0..200 {
            let want = (round % 11) + 1;
            let mut src = next..next + want;
            let pushed = p.push_batch(&mut src) as u64;
            assert_eq!(pushed, want.min(8), "round {round}");
            next += pushed;
            out.clear();
            let popped = c.pop_batch(&mut out, usize::MAX) as u64;
            assert_eq!(popped, pushed);
            for v in &out {
                assert_eq!(*v, expect);
                expect += 1;
            }
        }
    }

    mod properties {
        use super::super::*;
        use proptest::collection;
        use proptest::prelude::*;

        proptest! {
            /// Batch push/pop are observationally equivalent to loops of
            /// single-item ops: same accept counts, same FIFO order, no
            /// loss or duplication at wrap-around or full/empty edges.
            #[test]
            fn batch_ops_match_single_op_loops(
                cap in 1usize..9,
                ops in collection::vec(0u8..2, 4..80),
                sizes in collection::vec(0usize..10, 4..80),
            ) {
                let (bp, bc) = SpscRing::with_capacity::<u32>(cap);
                let (sp, sc) = SpscRing::with_capacity::<u32>(cap);
                let mut next = 0u32;
                for (i, op) in ops.iter().enumerate() {
                    let k = sizes[i % sizes.len()];
                    if *op == 0 {
                        let items: Vec<u32> =
                            (next..next + k as u32).collect();
                        next += k as u32;
                        let mut it = items.clone().into_iter();
                        let n_batch = bp.push_batch(&mut it);
                        let mut n_single = 0;
                        for v in items {
                            if sp.push(v).is_err() {
                                break;
                            }
                            n_single += 1;
                        }
                        prop_assert_eq!(n_batch, n_single);
                    } else {
                        let mut out_b = Vec::new();
                        bc.pop_batch(&mut out_b, k);
                        let mut out_s = Vec::new();
                        while out_s.len() < k {
                            match sc.pop() {
                                Some(v) => out_s.push(v),
                                None => break,
                            }
                        }
                        prop_assert_eq!(out_b, out_s);
                    }
                }
                // Drain both rings; remaining contents must agree.
                let mut rest_b = Vec::new();
                bc.pop_batch(&mut rest_b, usize::MAX);
                let mut rest_s = Vec::new();
                while let Some(v) = sc.pop() {
                    rest_s.push(v);
                }
                prop_assert_eq!(rest_b, rest_s);
            }
        }
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (p, c) = SpscRing::with_capacity(8);
        for _ in 0..6 {
            p.push(D).unwrap();
        }
        drop(c.pop()); // one consumed
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn disconnect_detection() {
        let (p, c) = SpscRing::with_capacity::<u8>(4);
        assert!(!p.is_disconnected());
        drop(c);
        assert!(p.is_disconnected());
    }

    #[test]
    fn cross_thread_stress() {
        let (p, c) = SpscRing::with_capacity(64);
        const N: u64 = 20_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let consumer = std::thread::spawn(move || {
            let mut expected = 0u64;
            while expected < N {
                if let Some(v) = c.pop() {
                    assert_eq!(v, expected, "out-of-order or corrupted value");
                    expected += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
    }

    #[test]
    fn cross_thread_boxed_payloads() {
        // Boxes catch double-free / uninitialized-read bugs under ASAN
        // and make misuse loud even without it.
        let (p, c) = SpscRing::with_capacity(16);
        const N: u64 = 10_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = Box::new(i);
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut sum = 0u64;
        let mut got = 0u64;
        while got < N {
            if let Some(v) = c.pop() {
                sum += *v;
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(sum, N * (N - 1) / 2);
    }
}
