//! Application↔engine command/completion queue pairs (§3.1).
//!
//! "One such shared memory region implements the command and completion
//! queues for asynchronous operations. When an application wishes to
//! invoke an operation, it writes a command into the command queue.
//! Application threads can then either spin-poll the completion queue,
//! or can request to receive a thread notification when a completion is
//! written."
//!
//! [`QueuePair::create`] yields an application endpoint and an engine
//! endpoint. The notification path is modeled by a [`Doorbell`] — an
//! eventfd-like flag that real threads may park on and simulated ones
//! poll. As in the paper, the notification is paid only when someone
//! asked for it: a ring with no thread parked is two atomic accesses,
//! no lock and no system call.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::spsc::{Consumer, Producer, SpscRing};

/// An eventfd-like notification primitive.
///
/// `ring()` sets the flag and wakes the threads parked in
/// [`wait_timeout`](Self::wait_timeout); `take()` consumes the flag.
/// Simulation code polls `is_rung()` and never parks, so its rings never
/// lock or notify.
///
/// No wakeup is lost. A waiter raises the parked count under the lock
/// and only then tests the flag; a ring stores the flag and only then
/// loads the count, and all four accesses are `SeqCst`, so they fall in
/// one total order. If the ring's load comes first, its store precedes
/// the waiter's test, which sees the flag and does not sleep. Otherwise
/// the ring sees the count and takes the lock, which the waiter holds
/// from raising the count until the condition variable releases it as
/// the waiter sleeps, so the notification reaches it.
#[derive(Clone, Default)]
pub struct Doorbell {
    inner: Arc<DoorbellInner>,
}

#[derive(Default)]
struct DoorbellInner {
    rung: AtomicBool,
    /// Threads inside `wait_timeout`; changed only under `parked`.
    waiters: AtomicUsize,
    parked: parking_lot::Mutex<()>,
    condvar: parking_lot::Condvar,
}

impl Doorbell {
    /// Creates an un-rung doorbell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rings the doorbell, waking any waiter. Takes the lock and
    /// notifies only if a thread is parked.
    pub fn ring(&self) {
        self.inner.rung.store(true, Ordering::SeqCst);
        if self.inner.waiters.load(Ordering::SeqCst) != 0 {
            let _guard = self.inner.parked.lock();
            self.inner.condvar.notify_all();
        }
    }

    /// Consumes the pending ring, if any.
    pub fn take(&self) -> bool {
        self.inner.rung.swap(false, Ordering::AcqRel)
    }

    /// True if rung and not yet taken.
    pub fn is_rung(&self) -> bool {
        self.inner.rung.load(Ordering::Acquire)
    }

    /// Blocks the calling thread until rung (consuming the ring), or
    /// until the timeout elapses. Returns whether it was rung.
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.inner.parked.lock();
        self.inner.waiters.fetch_add(1, Ordering::SeqCst);
        let rung = loop {
            if self.inner.rung.swap(false, Ordering::SeqCst) {
                break true;
            }
            if self
                .inner
                .condvar
                .wait_until(&mut guard, deadline)
                .timed_out()
            {
                break self.inner.rung.swap(false, Ordering::SeqCst);
            }
        };
        self.inner.waiters.fetch_sub(1, Ordering::SeqCst);
        rung
    }
}

/// The application endpoint: submit commands, reap completions.
pub struct AppEndpoint<Cmd, Cpl> {
    commands: Producer<Cmd>,
    completions: Consumer<Cpl>,
    /// Rung by the engine when a completion is written; it notifies a
    /// thread only if the app asked for that by parking on it.
    pub completion_doorbell: Doorbell,
    /// Rung by the app when a command is written while the engine may
    /// be blocked (interrupt-driven engine scheduling, §2.4).
    pub command_doorbell: Doorbell,
}

/// The engine endpoint: poll commands, post completions.
pub struct EngineEndpoint<Cmd, Cpl> {
    commands: Consumer<Cmd>,
    completions: Producer<Cpl>,
    /// See [`AppEndpoint::completion_doorbell`].
    pub completion_doorbell: Doorbell,
    /// See [`AppEndpoint::command_doorbell`].
    pub command_doorbell: Doorbell,
}

/// Factory for connected queue pairs.
pub struct QueuePair;

impl QueuePair {
    /// Creates a connected (application, engine) endpoint pair with the
    /// given ring depth.
    pub fn create<Cmd, Cpl>(depth: usize) -> (AppEndpoint<Cmd, Cpl>, EngineEndpoint<Cmd, Cpl>) {
        let (cmd_tx, cmd_rx) = SpscRing::with_capacity(depth);
        let (cpl_tx, cpl_rx) = SpscRing::with_capacity(depth);
        let completion_doorbell = Doorbell::new();
        let command_doorbell = Doorbell::new();
        (
            AppEndpoint {
                commands: cmd_tx,
                completions: cpl_rx,
                completion_doorbell: completion_doorbell.clone(),
                command_doorbell: command_doorbell.clone(),
            },
            EngineEndpoint {
                commands: cmd_rx,
                completions: cpl_tx,
                completion_doorbell,
                command_doorbell,
            },
        )
    }
}

impl<Cmd, Cpl> AppEndpoint<Cmd, Cpl> {
    /// Submits a command; hands it back if the queue is full.
    pub fn submit(&self, cmd: Cmd) -> Result<(), Cmd> {
        let r = self.commands.push(cmd);
        if r.is_ok() {
            self.command_doorbell.ring();
        }
        r
    }

    /// Submits a batch of commands with a single release store on the
    /// ring and ONE doorbell ring for the whole batch; returns how many
    /// were accepted (leftovers stay in `cmds`, front-aligned).
    pub fn submit_batch(&self, cmds: &mut Vec<Cmd>) -> usize {
        let n = self.commands.push_drain(cmds);
        if n > 0 {
            self.command_doorbell.ring();
        }
        n
    }

    /// Reaps one completion, if available.
    pub fn poll_completion(&self) -> Option<Cpl> {
        self.completions.pop()
    }

    /// Reaps up to `max` completions into `out`; returns the count.
    pub fn poll_completions(&self, out: &mut Vec<Cpl>, max: usize) -> usize {
        self.completions.pop_batch(out, max)
    }

    /// Number of completions waiting.
    pub fn completions_pending(&self) -> usize {
        self.completions.len()
    }

    /// True if the engine endpoint was dropped.
    pub fn is_disconnected(&self) -> bool {
        self.completions.is_disconnected()
    }
}

impl<Cmd, Cpl> EngineEndpoint<Cmd, Cpl> {
    /// Polls up to `max` commands into `out`; returns the count.
    ///
    /// Mirrors the configurable command-queue polling batch of §3.1.
    pub fn poll_commands(&self, out: &mut Vec<Cmd>, max: usize) -> usize {
        self.commands.pop_batch(out, max)
    }

    /// Polls a single command.
    pub fn poll_command(&self) -> Option<Cmd> {
        self.commands.pop()
    }

    /// Number of commands waiting (engine-side queue depth; feeds the
    /// compacting scheduler's queueing-delay estimate).
    pub fn commands_pending(&self) -> usize {
        self.commands.len()
    }

    /// Posts a completion and rings the app's doorbell.
    pub fn complete(&self, cpl: Cpl) -> Result<(), Cpl> {
        let r = self.completions.push(cpl);
        if r.is_ok() {
            self.completion_doorbell.ring();
        }
        r
    }

    /// Posts a batch of completions with a single release store on the
    /// ring and ONE doorbell ring for the whole batch; returns how many
    /// were accepted (leftovers stay in `cpls`, front-aligned).
    pub fn complete_batch(&self, cpls: &mut Vec<Cpl>) -> usize {
        let n = self.completions.push_drain(cpls);
        if n > 0 {
            self.completion_doorbell.ring();
        }
        n
    }

    /// True if the application endpoint was dropped.
    pub fn is_disconnected(&self) -> bool {
        self.commands.is_disconnected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_poll_complete_roundtrip() {
        let (app, engine) = QueuePair::create::<u32, String>(8);
        app.submit(7).unwrap();
        app.submit(8).unwrap();
        assert!(engine.command_doorbell.take());
        let mut cmds = Vec::new();
        assert_eq!(engine.poll_commands(&mut cmds, 16), 2);
        assert_eq!(cmds, vec![7, 8]);
        engine.complete("done-7".to_string()).unwrap();
        assert!(app.completion_doorbell.is_rung());
        assert_eq!(app.poll_completion(), Some("done-7".to_string()));
        assert_eq!(app.poll_completion(), None);
    }

    #[test]
    fn batch_submit_and_complete_ring_once() {
        let (app, engine) = QueuePair::create::<u32, u32>(4);
        let mut cmds = vec![1, 2, 3, 4, 5, 6];
        assert_eq!(app.submit_batch(&mut cmds), 4);
        assert_eq!(cmds, vec![5, 6], "rejected commands stay with caller");
        assert!(engine.command_doorbell.take());
        assert!(!engine.command_doorbell.take(), "one ring per batch");
        let mut got = Vec::new();
        assert_eq!(engine.poll_commands(&mut got, 16), 4);
        assert_eq!(got, vec![1, 2, 3, 4]);
        let mut cpls = vec![10, 20];
        assert_eq!(engine.complete_batch(&mut cpls), 2);
        assert!(app.completion_doorbell.take());
        let mut out = Vec::new();
        assert_eq!(app.poll_completions(&mut out, 16), 2);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn full_command_queue_backpressures() {
        let (app, _engine) = QueuePair::create::<u32, ()>(2);
        app.submit(1).unwrap();
        app.submit(2).unwrap();
        assert_eq!(app.submit(3), Err(3));
    }

    #[test]
    fn pending_counts() {
        let (app, engine) = QueuePair::create::<u32, u32>(8);
        app.submit(1).unwrap();
        app.submit(2).unwrap();
        assert_eq!(engine.commands_pending(), 2);
        engine.complete(10).unwrap();
        assert_eq!(app.completions_pending(), 1);
    }

    #[test]
    fn disconnect_detection() {
        let (app, engine) = QueuePair::create::<u32, u32>(4);
        assert!(!app.is_disconnected());
        drop(engine);
        assert!(app.is_disconnected());
    }

    #[test]
    fn doorbell_take_semantics() {
        let d = Doorbell::new();
        assert!(!d.is_rung());
        d.ring();
        d.ring();
        assert!(d.take());
        assert!(!d.take(), "take consumes the ring");
    }

    #[test]
    fn doorbell_wakes_parked_thread() {
        let d = Doorbell::new();
        let d2 = d.clone();
        let waiter = std::thread::spawn(move || d2.wait_timeout(std::time::Duration::from_secs(5)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        d.ring();
        assert!(waiter.join().unwrap(), "waiter should observe the ring");
    }

    #[test]
    fn doorbell_wait_times_out() {
        let d = Doorbell::new();
        assert!(!d.wait_timeout(std::time::Duration::from_millis(10)));
    }

    #[test]
    fn ring_without_a_parked_waiter_takes_no_lock() {
        use std::sync::mpsc::channel;
        let d = Doorbell::new();
        let (locked_tx, locked) = channel();
        let (release, release_rx) = channel::<()>();
        let (rang_tx, rang) = channel();
        std::thread::scope(|s| {
            let inner = &d.inner;
            s.spawn(move || {
                let _guard = inner.parked.lock();
                locked_tx.send(()).expect("the test is waiting");
                // Until released, or until the test has given up.
                let _ = release_rx.recv();
            });
            locked.recv().expect("the holder took the lock");
            let ringer = d.clone();
            s.spawn(move || {
                ringer.ring();
                let _ = rang_tx.send(());
            });
            let returned = rang.recv_timeout(std::time::Duration::from_secs(1));
            release.send(()).expect("the holder is waiting");
            assert!(
                returned.is_ok(),
                "ring() blocked on the parking mutex with no thread parked"
            );
            assert!(d.is_rung());
        });
    }

    #[test]
    fn doorbell_handoffs_lose_no_wakeup() {
        use std::time::{Duration, Instant};
        const HANDOFFS: u32 = 10_000;
        const TIMEOUT: Duration = Duration::from_secs(5);
        // A lost wakeup sleeps out the whole timeout and then finds the
        // flag set, so the timeout is what a loss looks like.
        let wait = |d: &Doorbell| {
            let start = Instant::now();
            assert!(d.wait_timeout(TIMEOUT), "wait timed out unrung");
            assert!(start.elapsed() < TIMEOUT, "a ring did not wake its waiter");
        };
        let (ping, pong) = (Doorbell::new(), Doorbell::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..HANDOFFS {
                    wait(&ping);
                    pong.ring();
                }
            });
            for _ in 0..HANDOFFS {
                ping.ring();
                wait(&pong);
            }
        });
    }

    #[test]
    fn threaded_request_response_loop() {
        let (app, engine) = QueuePair::create::<u64, u64>(16);
        let server = std::thread::spawn(move || {
            let mut served = 0u64;
            let mut cmds = Vec::new();
            while served < 5_000 {
                cmds.clear();
                let n = engine.poll_commands(&mut cmds, 16);
                for &c in &cmds[..n] {
                    engine.complete(c * 2).expect("completion queue full");
                    served += 1;
                }
                if n == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut next = 0u64;
        let mut inflight = 0usize;
        let mut done = 0u64;
        while done < 5_000 {
            while inflight < 8 && next < 5_000 {
                if app.submit(next).is_ok() {
                    next += 1;
                    inflight += 1;
                } else {
                    break;
                }
            }
            while let Some(c) = app.poll_completion() {
                assert_eq!(c % 2, 0);
                inflight -= 1;
                done += 1;
            }
        }
        server.join().unwrap();
    }
}
