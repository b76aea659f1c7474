//! Lock-free shared-memory substrate for the Snap reproduction.
//!
//! In the paper, applications communicate with Snap "through library
//! calls that transfer data either asynchronously over shared memory
//! queues (fast path) or synchronously over a Unix domain sockets
//! interface (slow path)" (§2), and control components synchronize with
//! engines through a depth-1 *engine mailbox* (§2.3). This crate
//! implements those primitives as real, thread-safe data structures:
//!
//! * [`spsc::SpscRing`] — the lock-free single-producer single-consumer
//!   ring underlying command/completion queues and packet rings.
//! * [`queue_pair::QueuePair`] — a command + completion queue pair as
//!   bootstrapped between an application and a Pony Express engine.
//! * [`mailbox::Mailbox`] — the depth-1 control-to-engine mailbox that
//!   posts "short sections of work for synchronous execution by an
//!   engine, on the thread of the engine".
//! * [`pool::BufferPool`] — packet/payload buffer slabs with lock-free
//!   allocation, as used by Pony Express's custom allocators (§3.1).
//! * [`region::RegionRegistry`] — registered application memory regions
//!   that one-sided operations execute against (§3.2).
//! * [`account::MemoryAccountant`] — per-container memory accounting
//!   (§2.5).
//!
//! These structures run on real OS threads in the test suite and inside
//! the single-threaded simulator in the benchmark harness; both uses
//! share this one implementation.

pub mod account;
pub mod mailbox;
pub mod pool;
pub mod queue_pair;
pub mod region;
pub mod spsc;

pub use account::MemoryAccountant;
pub use mailbox::Mailbox;
pub use pool::BufferPool;
pub use queue_pair::QueuePair;
pub use region::{AccessMode, RegionId, RegionRegistry};
pub use spsc::SpscRing;
