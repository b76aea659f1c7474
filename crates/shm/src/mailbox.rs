//! The depth-1 engine mailbox (§2.3).
//!
//! "Control components synchronize with engines lock-free through an
//! engine mailbox. This mailbox is a queue of depth 1 on which control
//! components post short sections of work for synchronous execution by
//! an engine, on the thread of the engine, and in a manner that is
//! non-blocking with respect to the engine."
//!
//! [`Mailbox::post`] fails (rather than blocks) while a previous work
//! item is pending, keeping the control plane lock-free; the engine
//! calls [`MailboxReceiver::service`] once per scheduling pass, which
//! is non-blocking. A [`Mailbox::call`] helper spins the *control* side
//! until its work item executes, mirroring the synchronous semantics
//! control operations have in the paper, without ever blocking the
//! engine.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// A work item posted to an engine: a boxed closure run on the engine
/// thread against the engine state `E`.
pub type WorkFn<E> = Box<dyn FnOnce(&mut E) + Send>;

struct Slot<E> {
    work: AtomicPtr<WorkFn<E>>,
}

/// A depth-1 lock-free mailbox carrying work items into an engine.
pub struct Mailbox<E> {
    slot: Arc<Slot<E>>,
}

/// The engine-side endpoint of a [`Mailbox`].
pub struct MailboxReceiver<E> {
    slot: Arc<Slot<E>>,
}

impl<E> Mailbox<E> {
    /// Creates a connected (control side, engine side) pair.
    pub fn new() -> (Mailbox<E>, MailboxReceiver<E>) {
        let slot = Arc::new(Slot {
            work: AtomicPtr::new(std::ptr::null_mut()),
        });
        (
            Mailbox { slot: slot.clone() },
            MailboxReceiver { slot },
        )
    }

    /// Posts a boxed work item; on a full mailbox the item is handed
    /// back so the caller can retry.
    pub fn post_boxed(&self, f: WorkFn<E>) -> Result<(), WorkFn<E>> {
        let ptr = Box::into_raw(Box::new(f));
        match self.slot.work.compare_exchange(
            std::ptr::null_mut(),
            ptr,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(_) => {
                // SAFETY: `ptr` came from `Box::into_raw` above and was
                // never published (the CAS failed), so we still own it.
                Err(*unsafe { Box::from_raw(ptr) })
            }
        }
    }

    /// Posts a work item; fails if one is already pending (depth 1).
    pub fn post<F>(&self, f: F) -> Result<(), PostError>
    where
        F: FnOnce(&mut E) + Send + 'static,
    {
        self.post_boxed(Box::new(f)).map_err(|_| PostError::Busy)
    }

    /// Posts a work item and waits until the engine has executed it,
    /// returning the closure's result.
    ///
    /// This implements the synchronous control-plane call pattern: the
    /// *caller* waits; the engine never does. The engine must be
    /// concurrently calling [`MailboxReceiver::service`], or this will
    /// deadlock the caller.
    pub fn call<F, R>(&self, f: F) -> R
    where
        F: FnOnce(&mut E) -> R + Send + 'static,
        R: Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let mut work: WorkFn<E> = Box::new(move |e| {
            // `call` holds `rx` until we send, so the receiver is alive.
            let _ = tx.send(f(e));
        });
        loop {
            match self.post_boxed(work) {
                Ok(()) => return rx.recv().expect("engine dropped mailbox work"),
                Err(back) => {
                    work = back;
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Error returned when posting to an occupied mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// A previously posted work item has not yet been serviced.
    Busy,
}

impl std::fmt::Display for PostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mailbox busy")
    }
}

impl std::error::Error for PostError {}

impl<E> MailboxReceiver<E> {
    /// Executes the pending work item, if any, against `engine`.
    ///
    /// Non-blocking; intended to be called once per engine scheduling
    /// pass. Returns whether an item ran.
    pub fn service(&self, engine: &mut E) -> bool {
        let ptr = self.slot.work.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if ptr.is_null() {
            return false;
        }
        // SAFETY: a non-null pointer in the slot was published by
        // `post` via `Box::into_raw` and ownership transferred to us by
        // the swap (no other thread can observe it now).
        let work = unsafe { Box::from_raw(ptr) };
        (*work)(engine);
        true
    }

    /// True if a work item is waiting.
    pub fn has_pending(&self) -> bool {
        !self.slot.work.load(Ordering::Acquire).is_null()
    }
}

impl<E> Drop for MailboxReceiver<E> {
    fn drop(&mut self) {
        let ptr = self.slot.work.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !ptr.is_null() {
            // SAFETY: same ownership transfer as in `service`; we drop
            // the un-run closure instead of leaking it.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Engine {
        counter: u64,
    }

    #[test]
    fn post_and_service() {
        let (mb, rx) = Mailbox::<Engine>::new();
        let mut e = Engine { counter: 0 };
        assert!(!rx.has_pending());
        mb.post(|e| e.counter += 5).unwrap();
        assert!(rx.has_pending());
        assert!(rx.service(&mut e));
        assert_eq!(e.counter, 5);
        assert!(!rx.service(&mut e));
    }

    #[test]
    fn depth_one_rejects_second_post() {
        let (mb, rx) = Mailbox::<Engine>::new();
        mb.post(|e| e.counter += 1).unwrap();
        assert_eq!(mb.post(|e| e.counter += 1), Err(PostError::Busy));
        let mut e = Engine { counter: 0 };
        rx.service(&mut e);
        assert_eq!(e.counter, 1);
        // Free again after service.
        mb.post(|e| e.counter += 1).unwrap();
        rx.service(&mut e);
        assert_eq!(e.counter, 2);
    }

    #[test]
    fn dropping_receiver_drops_pending_work() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mb, rx) = Mailbox::<Engine>::new();
        let token = Token;
        mb.post(move |_| {
            let _keep = &token;
        })
        .unwrap();
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn call_returns_result_across_threads() {
        let (mb, rx) = Mailbox::<Engine>::new();
        let engine_thread = std::thread::spawn(move || {
            let mut e = Engine { counter: 7 };
            let start = std::time::Instant::now();
            while start.elapsed() < std::time::Duration::from_secs(5) {
                rx.service(&mut e);
                if e.counter == 0 {
                    return true;
                }
                std::thread::yield_now();
            }
            false
        });
        let observed = mb.call(|e: &mut Engine| {
            let old = e.counter;
            e.counter = 0;
            old
        });
        assert_eq!(observed, 7);
        assert!(engine_thread.join().unwrap());
    }

    #[test]
    fn cross_thread_posting() {
        let (mb, rx) = Mailbox::<Engine>::new();
        let engine_thread = std::thread::spawn(move || {
            let mut e = Engine { counter: 0 };
            // Service until we have executed 100 work items.
            let mut executed = 0;
            while executed < 100 {
                if rx.service(&mut e) {
                    executed += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            e.counter
        });
        for _ in 0..100 {
            loop {
                match mb.post(|e| e.counter += 1) {
                    Ok(()) => break,
                    Err(PostError::Busy) => std::hint::spin_loop(),
                }
            }
        }
        assert_eq!(engine_thread.join().unwrap(), 100);
    }
}
