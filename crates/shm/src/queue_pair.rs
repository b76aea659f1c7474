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
//! endpoint joined by two SPSC rings and nothing else. Both wake-ups are
//! modeled where they cost time, not here: the engine learns of a
//! command through `snap_pony::client::PonyClient`'s `wake_engine`
//! hook (a call of the group's `wake`), and an application thread that
//! asked to be notified pays `Machine::interrupt_wakeup` in the §5.1
//! pair driver (`snap_repro::pair::Learn::Notified`).

use crate::spsc::{Consumer, Producer, SpscRing};

/// The application endpoint: submit commands, reap completions.
pub struct AppEndpoint<Cmd, Cpl> {
    commands: Producer<Cmd>,
    completions: Consumer<Cpl>,
}

/// The engine endpoint: poll commands, post completions.
pub struct EngineEndpoint<Cmd, Cpl> {
    commands: Consumer<Cmd>,
    completions: Producer<Cpl>,
}

/// Factory for connected queue pairs.
pub struct QueuePair;

impl QueuePair {
    /// Creates a connected (application, engine) endpoint pair with the
    /// given ring depth.
    pub fn create<Cmd, Cpl>(depth: usize) -> (AppEndpoint<Cmd, Cpl>, EngineEndpoint<Cmd, Cpl>) {
        let (cmd_tx, cmd_rx) = SpscRing::with_capacity(depth);
        let (cpl_tx, cpl_rx) = SpscRing::with_capacity(depth);
        (
            AppEndpoint {
                commands: cmd_tx,
                completions: cpl_rx,
            },
            EngineEndpoint {
                commands: cmd_rx,
                completions: cpl_tx,
            },
        )
    }
}

impl<Cmd, Cpl> AppEndpoint<Cmd, Cpl> {
    /// Submits a command; hands it back if the queue is full.
    pub fn submit(&self, cmd: Cmd) -> Result<(), Cmd> {
        self.commands.push(cmd)
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

    /// Posts a completion; hands it back if the queue is full.
    pub fn complete(&self, cpl: Cpl) -> Result<(), Cpl> {
        self.completions.push(cpl)
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
        let mut cmds = Vec::new();
        assert_eq!(engine.poll_commands(&mut cmds, 16), 2);
        assert_eq!(cmds, vec![7, 8]);
        engine.complete("done-7".to_string()).unwrap();
        assert_eq!(app.poll_completion(), Some("done-7".to_string()));
        assert_eq!(app.poll_completion(), None);
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
