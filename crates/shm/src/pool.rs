//! Packet and payload buffer pools.
//!
//! Pony Express "implements custom memory allocators to optimize the
//! dynamic creation and management of state, which includes streams,
//! operations, flows, packet memory, and application buffer pools"
//! (§3.1). This module provides the packet-memory piece: a slab of
//! fixed-size buffers with a lock-free free list, handing out RAII
//! handles. Pool memory is charged to a memory accountant on creation
//! (§2.5 accounting).
//!
//! Engines are single-threaded but buffers flow *between* engines, NIC
//! queues and application libraries, so allocation and free can race —
//! hence the lock-free free list (a crossbeam `ArrayQueue`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::queue::ArrayQueue;
use parking_lot::RwLock;

use crate::account::{ChargeError, MemoryAccountant, MemoryGate};

struct PoolShared {
    /// Backing storage, one boxed slab per buffer.
    ///
    /// An `RwLock<Vec<u8>>` per slot keeps the data race-free when one
    /// thread frees a buffer another just reused; the lock is
    /// uncontended in correct usage (a buffer has one owner at a time).
    slabs: Vec<RwLock<Vec<u8>>>,
    free: ArrayQueue<u32>,
    buf_size: usize,
    outstanding: AtomicUsize,
    /// Gate the backing memory was charged through; released on drop.
    gate: Arc<dyn MemoryGate + Send + Sync>,
    container: String,
    charged: u64,
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        self.gate.release(&self.container, self.charged);
    }
}

/// A fixed-size-buffer pool with lock-free allocation.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

/// An owned buffer checked out of a [`BufferPool`]; returns to the free
/// list on drop.
pub struct PooledBuf {
    shared: Arc<PoolShared>,
    index: u32,
    len: usize,
}

impl BufferPool {
    /// Creates a pool of `count` buffers of `buf_size` bytes each,
    /// charging the backing memory to `accountant` under `container`.
    /// The accountant is observe-only, so the charge always succeeds;
    /// use [`BufferPool::try_new`] to allocate under an enforcing gate.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `buf_size` is zero.
    pub fn new(
        count: usize,
        buf_size: usize,
        accountant: &MemoryAccountant,
        container: &str,
    ) -> Self {
        match Self::try_new(count, buf_size, Arc::new(accountant.clone()), container) {
            Ok(pool) => pool,
            // The observe-only gate admits every charge.
            Err(e) => unreachable!("accountant gate refused a charge: {e}"),
        }
    }

    /// Creates a pool of `count` buffers of `buf_size` bytes each,
    /// charging the backing memory through `gate` under `container`.
    /// Fails without allocating if the gate refuses the charge (the
    /// container is over quota). The charge is released when the last
    /// pool handle (and buffer) drops.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `buf_size` is zero.
    pub fn try_new(
        count: usize,
        buf_size: usize,
        gate: Arc<dyn MemoryGate + Send + Sync>,
        container: &str,
    ) -> Result<Self, ChargeError> {
        assert!(count > 0 && buf_size > 0, "empty pool is useless");
        let charged = (count * buf_size) as u64;
        gate.try_charge(container, charged)?;
        let free = ArrayQueue::new(count);
        for i in 0..count as u32 {
            free.push(i).expect("freshly sized queue cannot be full");
        }
        Ok(BufferPool {
            shared: Arc::new(PoolShared {
                slabs: (0..count).map(|_| RwLock::new(vec![0u8; buf_size])).collect(),
                free,
                buf_size,
                outstanding: AtomicUsize::new(0),
                gate,
                container: container.to_string(),
                charged,
            }),
        })
    }

    /// Allocates one buffer, or `None` if the pool is exhausted.
    pub fn alloc(&self) -> Option<PooledBuf> {
        let index = self.shared.free.pop()?;
        self.shared.outstanding.fetch_add(1, Ordering::Relaxed);
        Some(PooledBuf {
            shared: self.shared.clone(),
            index,
            len: 0,
        })
    }

    /// Size of each buffer in bytes.
    pub fn buf_size(&self) -> usize {
        self.shared.buf_size
    }

    /// Total number of buffers.
    pub fn capacity(&self) -> usize {
        self.shared.slabs.len()
    }

    /// Buffers currently checked out.
    pub fn outstanding(&self) -> usize {
        self.shared.outstanding.load(Ordering::Relaxed)
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.shared.free.len()
    }
}

impl PooledBuf {
    /// Copies `data` into the buffer, setting its logical length.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the buffer size.
    pub fn write(&mut self, data: &[u8]) {
        assert!(
            data.len() <= self.shared.buf_size,
            "payload {} exceeds buffer size {}",
            data.len(),
            self.shared.buf_size
        );
        let mut slab = self.shared.slabs[self.index as usize].write();
        slab[..data.len()].copy_from_slice(data);
        self.len = data.len();
    }

    /// Logical payload length (bytes written).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the logical payload out.
    pub fn to_vec(&self) -> Vec<u8> {
        let slab = self.shared.slabs[self.index as usize].read();
        slab[..self.len].to_vec()
    }

    /// Runs `f` with a read view of the payload, avoiding a copy.
    pub fn with_data<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let slab = self.shared.slabs[self.index as usize].read();
        f(&slab[..self.len])
    }

    /// The slot index; useful as a stable identifier in tests.
    pub fn index(&self) -> u32 {
        self.index
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.shared.outstanding.fetch_sub(1, Ordering::Relaxed);
        // Cannot fail: each index is outstanding exactly once and the
        // queue is sized to hold every index.
        let pushed = self.shared.free.push(self.index).is_ok();
        debug_assert!(pushed, "free list overflow implies double free");
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("index", &self.index)
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(count: usize, size: usize) -> BufferPool {
        BufferPool::new(count, size, &MemoryAccountant::new(), "test")
    }

    #[test]
    fn alloc_free_cycle() {
        let p = pool(2, 64);
        assert_eq!(p.available(), 2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a.index(), b.index());
        assert!(p.alloc().is_none(), "pool should be exhausted");
        assert_eq!(p.outstanding(), 2);
        drop(a);
        assert_eq!(p.available(), 1);
        let c = p.alloc().unwrap();
        drop((b, c));
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn write_and_read_back() {
        let p = pool(1, 16);
        let mut b = p.alloc().unwrap();
        assert!(b.is_empty());
        b.write(b"hello");
        assert_eq!(b.len(), 5);
        assert_eq!(b.to_vec(), b"hello");
        b.with_data(|d| assert_eq!(d, b"hello"));
    }

    #[test]
    fn write_copies_into_an_allocated_buffer() {
        let p = pool(1, 8);
        let mut b = p.alloc().unwrap();
        b.write(b"abc");
        assert_eq!(b.to_vec(), b"abc");
        drop(b);
        assert_eq!(p.available(), 1, "the buffer went back to the pool");
    }

    #[test]
    #[should_panic(expected = "exceeds buffer size")]
    fn oversized_write_panics() {
        let p = pool(1, 4);
        let mut b = p.alloc().unwrap();
        b.write(&[0u8; 5]);
    }

    #[test]
    fn memory_is_charged_and_released() {
        let acct = MemoryAccountant::new();
        let p = BufferPool::new(10, 100, &acct, "ponyd");
        assert_eq!(acct.usage("ponyd"), 1000);
        let held = p.alloc().unwrap();
        drop(p);
        // Outstanding buffers keep the backing slab (and charge) alive.
        assert_eq!(acct.usage("ponyd"), 1000);
        drop(held);
        assert_eq!(acct.usage("ponyd"), 0, "charge released with the pool");
        assert_eq!(acct.accounting_errors(), 0);
    }

    /// A gate that admits at most `cap` bytes per container.
    struct CappedGate {
        acct: MemoryAccountant,
        cap: u64,
    }

    impl MemoryGate for CappedGate {
        fn try_charge(&self, container: &str, bytes: u64) -> Result<(), ChargeError> {
            if self.acct.charge_capped(container, bytes, self.cap) {
                Ok(())
            } else {
                Err(ChargeError::QuotaExceeded {
                    usage: self.acct.usage(container),
                    requested: bytes,
                    limit: self.cap,
                })
            }
        }

        fn release(&self, container: &str, bytes: u64) {
            self.acct.release(container, bytes);
        }
    }

    #[test]
    fn try_new_respects_the_gate() {
        let acct = MemoryAccountant::new();
        let gate = Arc::new(CappedGate {
            acct: acct.clone(),
            cap: 1_500,
        });
        let p = BufferPool::try_new(10, 100, gate.clone(), "gated").unwrap();
        assert_eq!(acct.usage("gated"), 1_000);
        // A second kilobyte pool would exceed the 1500-byte cap.
        let err = match BufferPool::try_new(10, 100, gate.clone(), "gated") {
            Ok(_) => panic!("second pool must be refused"),
            Err(e) => e,
        };
        assert!(matches!(err, ChargeError::QuotaExceeded { limit: 1_500, .. }));
        assert_eq!(acct.usage("gated"), 1_000, "refused pool charges nothing");
        drop(p);
        assert_eq!(acct.usage("gated"), 0);
        // With the charge released, the same request now fits.
        assert!(BufferPool::try_new(10, 100, gate, "gated").is_ok());
    }

    #[test]
    fn concurrent_alloc_free_never_double_allocates() {
        let p = pool(32, 8);
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                let mut held = Vec::new();
                for i in 0..2_000usize {
                    if let Some(mut b) = p.alloc() {
                        b.write(&[t as u8; 4]);
                        held.push(b);
                    }
                    if i % 3 == 0 {
                        held.pop();
                    }
                    // Verify none of our held buffers were corrupted by
                    // another thread (i.e. no double allocation).
                    for b in &held {
                        b.with_data(|d| assert_eq!(d, &[t as u8; 4]));
                    }
                }
                drop(held);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.outstanding(), 0);
        assert_eq!(p.available(), 32);
    }
}
