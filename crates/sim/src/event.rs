//! The event loop: a virtual clock, a binary heap of small keys and a
//! slab of closures stored inline.
//!
//! Events are closures that receive `&mut Sim` so they can schedule
//! further events. Shared mutable world state (hosts, NICs, engines)
//! lives in `Rc<RefCell<..>>` captured by the closures; the simulation
//! is strictly single-threaded so this is both safe and cheap.
//!
//! Scheduling an event allocates nothing once the store is warm:
//!
//! - the closure is written into a reusable slab slot (64 bytes of
//!   storage, 8-byte aligned, and one `&'static` table of its
//!   `fire`/`drop` functions). A closure that is larger than the slot
//!   or aligned more strictly is boxed first and the box is what the
//!   slot holds, so there is one code path; [`Sim::boxed_events`]
//!   counts those;
//! - the heap orders 24-byte `Copy` keys `(at, seq, slot, timer)`, not
//!   the closures;
//! - a cancellable event takes an entry in one generation table shared
//!   by the `Sim` and its [`EventHandle`]s. Cancellation is lazy: the
//!   key stays in the heap and its closure is dropped, not run, when
//!   the key is popped. The entry's generation is bumped when its
//!   event leaves the heap, so a handle kept past that point cannot
//!   cancel the entry's next tenant.
//!
//! Events fire in `(at, seq)` order, where `seq` counts calls to
//! `schedule_*`: two events scheduled for the same instant fire in
//! scheduling order (FIFO), which keeps runs deterministic.
//!
//! A slot is vacated before its closure runs, so the closure may
//! schedule into the very slot it came from, and a closure that panics
//! leaves nothing behind. Dropping the `Sim` drops every closure still
//! pending, once.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::rc::Rc;

use crate::time::Nanos;

/// Bytes of closure captures a slab slot stores inline.
const INLINE_BYTES: usize = 64;

/// A slot's storage: [`INLINE_BYTES`] bytes, 8-byte aligned.
type Storage = MaybeUninit<[u64; INLINE_BYTES / 8]>;

/// The two things that can happen to a stored closure, for its erased
/// type.
struct VTable {
    /// Moves the closure out of slot `idx` of the simulator's slab,
    /// frees the slot and runs the closure.
    fire: unsafe fn(&mut Sim, u32),
    /// Drops the closure where it lies.
    drop: unsafe fn(*mut u8),
}

/// # Safety
///
/// Slot `idx` of `sim.slots` must hold an `F`: its `vtable` must be
/// the one [`Slot::fill`] made for `F`.
unsafe fn fire_erased<F: FnOnce(&mut Sim)>(sim: &mut Sim, idx: u32) {
    let slot = &mut sim.slots[idx as usize];
    slot.vtable = None;
    // SAFETY: the caller guarantees the storage holds an `F`. The slot
    // was marked vacant first, so the `F` now has one owner, `f`.
    let f = unsafe { slot.storage.as_ptr().cast::<F>().read() };
    // The slot is free before the closure runs: the closure may
    // schedule into it, and may unwind.
    sim.free_slots.push(idx);
    f(sim);
}

/// # Safety
///
/// `p` must point to an initialised `F` that the caller owns and will
/// neither read nor drop afterwards.
unsafe fn drop_erased<F>(p: *mut u8) {
    // SAFETY: the caller passes a valid, owned `F` and gives it up.
    unsafe { p.cast::<F>().drop_in_place() };
}

/// One slab slot: vacant, or an owned `FnOnce(&mut Sim)` of erased type
/// stored by value. The only `unsafe` code of this crate is this type's
/// and its two vtable functions'.
///
/// Invariant: while `vtable` is `Some`, `storage` holds an initialised
/// value of the type that vtable was made for, and the slot owns it.
struct Slot {
    vtable: Option<&'static VTable>,
    storage: Storage,
    /// The closure inside may be neither `Send` nor `Sync`, so the slot
    /// is neither.
    _closure: PhantomData<*mut ()>,
}

impl Slot {
    const VACANT: Slot = Slot {
        vtable: None,
        storage: Storage::uninit(),
        _closure: PhantomData,
    };

    /// Whether an `F` can be stored inline.
    const fn fits<F>() -> bool {
        size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<Storage>()
    }

    /// Stores `f`, written where it will lie: the caller's captures go
    /// straight into the slab, never through a temporary that would
    /// have to be copied (and, freshly written, would stall the copy).
    #[inline]
    fn fill<F: FnOnce(&mut Sim) + 'static>(&mut self, f: F) {
        // The write below relies on this; it folds to a constant.
        assert!(Self::fits::<F>(), "closure does not fit an event slot");
        self.clear();
        // SAFETY: `fits` was just asserted, so the storage is large
        // enough and aligned for an `F`; the slot is vacant, so nothing
        // is overwritten without being dropped.
        unsafe { self.storage.as_mut_ptr().cast::<F>().write(f) };
        self.vtable = Some(
            const {
                &VTable {
                    fire: fire_erased::<F>,
                    drop: drop_erased::<F>,
                }
            },
        );
    }

    /// Drops the closure, if there is one, leaving the slot vacant.
    fn clear(&mut self) {
        if let Some(vtable) = self.vtable.take() {
            // SAFETY: by the type's invariant the storage held a value
            // of the vtable's type; `take` marked the slot vacant, so
            // nothing reads or drops that value again.
            unsafe { (vtable.drop)(self.storage.as_mut_ptr().cast()) }
        }
    }

    /// Runs the closure in slot `idx` of `sim`, which is free again by
    /// the time the closure is entered.
    fn fire(sim: &mut Sim, idx: u32) {
        let vtable = sim.slots[idx as usize]
            .vtable
            .expect("a key in the heap names a filled slot");
        // SAFETY: `vtable` is the slot's own, so by the type's
        // invariant the slot holds a value of the type it was made for.
        unsafe { (vtable.fire)(sim, idx) }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.clear();
    }
}

/// What the heap orders: `(at, seq)`, earliest first. `seq` is unique,
/// so `slot` and `timer` never decide a comparison.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: Nanos,
    seq: u64,
    /// Index of the closure in `Sim::slots`.
    slot: u32,
    /// Index into the timer table, or [`NO_TIMER`].
    timer: u32,
}

impl Key {
    /// `(at, seq)` as one integer, which compares without a branch
    /// (the tuple's comparison has one, taken at random).
    fn order(&self) -> u128 {
        u128::from(self.at.as_nanos()) << 64 | u128::from(self.seq)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; inverted so the earliest pops
        // first.
        other.order().cmp(&self.order())
    }
}

const NO_TIMER: u32 = u32::MAX;

/// Cancellation state of the cancellable events, one entry per event
/// in the heap; entries are reused.
#[derive(Default)]
struct Timers {
    entries: Vec<Timer>,
    free: Vec<u32>,
}

#[derive(Default)]
struct Timer {
    /// Bumped each time the entry changes tenant.
    gen: u32,
    cancelled: bool,
}

impl Timers {
    /// Takes an entry for a new event; returns its index and
    /// generation.
    fn arm(&mut self) -> (u32, u32) {
        match self.free.pop() {
            Some(idx) => (idx, self.entries[idx as usize].gen),
            None => {
                assert!(self.entries.len() < NO_TIMER as usize, "timer table full");
                self.entries.push(Timer::default());
                (self.entries.len() as u32 - 1, 0)
            }
        }
    }

    fn cancel(&mut self, idx: u32, gen: u32) {
        let timer = &mut self.entries[idx as usize];
        if timer.gen == gen {
            timer.cancelled = true;
        }
    }

    fn is_cancelled(&self, idx: u32) -> bool {
        self.entries[idx as usize].cancelled
    }

    /// Ends the tenancy of the event that held `idx`: handles to it go
    /// stale.
    fn release(&mut self, idx: u32) {
        let timer = &mut self.entries[idx as usize];
        timer.gen = timer.gen.wrapping_add(1);
        timer.cancelled = false;
        self.free.push(idx);
    }
}

/// A handle to a scheduled event that allows cancelling it.
///
/// Cancellation is lazy: the key stays in the heap and the closure is
/// dropped when it is popped. Handles are cheap to clone and may
/// outlive both the event and the `Sim`.
#[derive(Clone)]
pub struct EventHandle {
    table: Rc<RefCell<Timers>>,
    idx: u32,
    gen: u32,
}

impl EventHandle {
    /// Cancels the event. Idempotent; harmless after the event fired,
    /// even if another event has since taken its place in the table.
    pub fn cancel(&self) {
        self.table.borrow_mut().cancel(self.idx, self.gen);
    }
}

/// The discrete-event simulator: a virtual clock plus an event store.
pub struct Sim {
    now: Nanos,
    heap: BinaryHeap<Key>,
    /// The pending closures, at the indices the keys name.
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    timers: Rc<RefCell<Timers>>,
    seq: u64,
    executed: u64,
    boxed: u64,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Sim {
            now: Nanos::ZERO,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            timers: Rc::default(),
            seq: 0,
            executed: 0,
            boxed: 0,
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Returns the number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Returns the number of events still pending (including lazily
    /// cancelled ones).
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Returns how many events scheduled so far had a closure too large
    /// (over 64 bytes of captures) or too strictly aligned (over 8) for
    /// an event slot and were boxed: each cost an allocation.
    pub fn boxed_events(&self) -> u64 {
        self.boxed
    }

    /// Checked with nothing taken yet, so a panic here leaves no slot,
    /// key or timer entry behind. Not generic, and kept out of the
    /// generic `schedule_at`: a copy of the check and its panic path in
    /// every closure type's instance cost `stream_tcp` 6 % of its
    /// packets per host second.
    fn assert_not_past(&self, at: Nanos) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
    }

    /// Queues a key for a new event and returns the vacant slot the
    /// key names, which the caller fills at once. Not generic, so one
    /// copy serves every closure type.
    fn reserve(&mut self, at: Nanos, timer: u32) -> &mut Slot {
        self.assert_not_past(at);
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab full");
                self.slots.push(Slot::VACANT);
                slot
            }
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Key {
            at,
            seq,
            slot,
            timer,
        });
        &mut self.slots[slot as usize]
    }

    /// The one way in: `f` goes into a slot as it is if it fits, else
    /// as a `Box` of it, which does.
    #[inline]
    fn push<F: FnOnce(&mut Sim) + 'static>(&mut self, at: Nanos, timer: u32, f: F) {
        if Slot::fits::<F>() {
            self.reserve(at, timer).fill(f);
        } else {
            let f = Box::new(f);
            self.boxed += 1;
            self.reserve(at, timer).fill(f);
        }
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: Nanos, f: F) {
        self.push(at, NO_TIMER, f);
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in<F: FnOnce(&mut Sim) + 'static>(&mut self, delay: Nanos, f: F) {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedules a cancellable event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_cancellable_at<F: FnOnce(&mut Sim) + 'static>(
        &mut self,
        at: Nanos,
        f: F,
    ) -> EventHandle {
        // `reserve` checks again, but only after the entry is taken.
        self.assert_not_past(at);
        let (idx, gen) = self.timers.borrow_mut().arm();
        self.push(at, idx, f);
        EventHandle {
            table: self.timers.clone(),
            idx,
            gen,
        }
    }

    /// Schedules a cancellable event `delay` after the current time.
    pub fn schedule_cancellable_in<F: FnOnce(&mut Sim) + 'static>(
        &mut self,
        delay: Nanos,
        f: F,
    ) -> EventHandle {
        self.schedule_cancellable_at(self.now + delay, f)
    }

    /// Pops the earliest live event if it is due by `deadline` and
    /// runs it. Lazily cancelled events met at the head on the way are
    /// popped and their closures dropped, whatever their time.
    fn fire_due(&mut self, deadline: Nanos) -> bool {
        loop {
            let Some(&key) = self.heap.peek() else {
                return false;
            };
            let cancelled = key.timer != NO_TIMER && self.timers.borrow().is_cancelled(key.timer);
            if !cancelled && key.at > deadline {
                return false;
            }
            self.heap.pop();
            if key.timer != NO_TIMER {
                self.timers.borrow_mut().release(key.timer);
            }
            if cancelled {
                self.slots[key.slot as usize].clear();
                self.free_slots.push(key.slot);
            } else {
                debug_assert!(key.at >= self.now, "event heap ordering violated");
                self.now = key.at;
                self.executed += 1;
                Slot::fire(self, key.slot);
                return true;
            }
        }
    }

    /// Runs a single event if one is pending; returns whether it did.
    pub fn step(&mut self) -> bool {
        self.fire_due(Nanos::MAX)
    }

    /// Runs until the event heap drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with timestamps `<= deadline`, then advances the
    /// clock to `deadline` (even if the heap drained earlier).
    pub fn run_until(&mut self, deadline: Nanos) {
        while self.fire_due(deadline) {}
        self.now = self.now.max(deadline);
    }

    /// Runs at most `limit` events; returns how many actually ran.
    ///
    /// Useful as a watchdog against runaway event cascades in tests.
    pub fn run_limit(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }
}

/// Repeatedly schedules `f` every `period` until it returns `false`.
///
/// The first invocation happens at `start`.
pub fn every<F>(sim: &mut Sim, start: Nanos, period: Nanos, f: F)
where
    F: FnMut(&mut Sim) -> bool + 'static,
{
    assert!(!period.is_zero(), "periodic event with zero period");
    type PeriodicFn = Rc<RefCell<dyn FnMut(&mut Sim) -> bool>>;
    let f: PeriodicFn = Rc::new(RefCell::new(f));
    fn tick(sim: &mut Sim, period: Nanos, f: PeriodicFn) {
        let keep = (f.borrow_mut())(sim);
        if keep {
            let next = sim.now() + period;
            sim.schedule_at(next, move |sim| tick(sim, period, f));
        }
    }
    sim.schedule_at(start, move |sim| tick(sim, period, f));
}

/// A periodic loop that is never doubled, over [`every`]. `start` while
/// a loop is live only marks it running again, so `start(); start();`
/// and `stop(); start();` before the pending tick fires both leave one
/// loop on its original grid. `stop` lets the pending tick lapse, which
/// ends the loop; a `start` after that begins a new one a period out.
/// Clones share the loop.
#[derive(Clone, Default)]
pub struct Ticker(Rc<Cell<TickerState>>);

#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum TickerState {
    /// No tick pending.
    #[default]
    Idle,
    /// A tick is pending and will run.
    Running,
    /// A tick is pending and will lapse.
    Stopping,
}

impl Ticker {
    /// Runs `tick` every `period`, the first one a period from now,
    /// unless a loop is live; see the [type docs](Ticker).
    pub fn start(&self, sim: &mut Sim, period: Nanos, mut tick: impl FnMut(&mut Sim) + 'static) {
        if self.0.replace(TickerState::Running) != TickerState::Idle {
            return;
        }
        let state = self.0.clone();
        every(sim, sim.now() + period, period, move |sim| {
            if state.get() == TickerState::Stopping {
                state.set(TickerState::Idle);
                return false;
            }
            tick(sim);
            true
        });
    }

    /// Stops the loop: its pending tick lapses.
    pub fn stop(&self) {
        if self.0.get() == TickerState::Running {
            self.0.set(TickerState::Stopping);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::mem::size_of_val;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for &t in &[30u64, 10, 20] {
            let log = log.clone();
            sim.schedule_at(Nanos(t), move |sim| {
                log.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            sim.schedule_at(Nanos(100), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new();
        let count = Rc::new(Cell::new(0));
        let c = count.clone();
        sim.schedule_at(Nanos(1), move |sim| {
            c.set(c.get() + 1);
            let c2 = c.clone();
            sim.schedule_in(Nanos(1), move |_| c2.set(c2.get() + 1));
        });
        sim.run();
        assert_eq!(count.get(), 2);
        assert_eq!(sim.now(), Nanos(2));
    }

    #[test]
    fn cancellation_skips_event() {
        let mut sim = Sim::new();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let h = sim.schedule_cancellable_at(Nanos(5), move |_| f.set(true));
        h.cancel();
        sim.run();
        assert!(!fired.get());
        // Clock does not advance to a cancelled event's time under run().
        assert_eq!(sim.now(), Nanos::ZERO);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new();
        let fired = Rc::new(Cell::new(0));
        for t in [10u64, 20, 30] {
            let f = fired.clone();
            sim.schedule_at(Nanos(t), move |_| f.set(f.get() + 1));
        }
        sim.run_until(Nanos(20));
        assert_eq!(fired.get(), 2);
        assert_eq!(sim.now(), Nanos(20));
        sim.run_until(Nanos(100));
        assert_eq!(fired.get(), 3);
        assert_eq!(sim.now(), Nanos(100));
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let mut sim = Sim::new();
        let h = sim.schedule_cancellable_at(Nanos(5), |_| panic!("cancelled event ran"));
        h.cancel();
        sim.run_until(Nanos(10));
        assert_eq!(sim.now(), Nanos(10));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Sim::new();
        sim.schedule_at(Nanos(10), |sim| {
            sim.schedule_at(Nanos(5), |_| {});
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_a_timer_into_past_panics() {
        let mut sim = Sim::new();
        sim.run_until(Nanos(10));
        sim.schedule_cancellable_at(Nanos(5), |_| {});
    }

    #[test]
    fn timer_into_past_takes_no_table_entry() {
        let mut sim = Sim::new();
        sim.run_until(Nanos(10));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            sim.schedule_cancellable_at(Nanos(5), |_| {});
        }));
        assert!(unwound.is_err());
        assert_eq!(sim.pending(), 0);
        let next = sim.schedule_cancellable_at(Nanos(10), |_| {});
        assert_eq!(
            (next.idx, next.gen),
            (0, 0),
            "the first entry was never taken"
        );
        assert_eq!(sim.timers.borrow().entries.len(), 1);
    }

    #[test]
    fn periodic_event_runs_until_false() {
        let mut sim = Sim::new();
        let count = Rc::new(Cell::new(0));
        let c = count.clone();
        every(&mut sim, Nanos(0), Nanos(10), move |_| {
            c.set(c.get() + 1);
            c.get() < 4
        });
        sim.run();
        assert_eq!(count.get(), 4);
        assert_eq!(sim.now(), Nanos(30));
    }

    #[test]
    fn ticker_keeps_one_loop_however_it_is_started() {
        let mut sim = Sim::new();
        let ticker = Ticker::default();
        let count = Rc::new(Cell::new(0));
        let start = |sim: &mut Sim| {
            let c = count.clone();
            ticker.start(sim, Nanos(10), move |_| c.set(c.get() + 1));
        };
        start(&mut sim);
        start(&mut sim);
        ticker.stop();
        start(&mut sim);
        sim.run_until(Nanos(50));
        assert_eq!(count.get(), 5, "one loop, on its first grid");
        ticker.stop();
        sim.run();
        assert_eq!(count.get(), 5, "the pending tick lapsed");
        assert_eq!(sim.now(), Nanos(60));
        start(&mut sim);
        sim.run_until(Nanos(85));
        assert_eq!(count.get(), 7, "a new loop, a period out: 70, 80");
    }

    #[test]
    fn run_limit_bounds_execution() {
        let mut sim = Sim::new();
        // A self-perpetuating event chain.
        fn chain(sim: &mut Sim) {
            sim.schedule_in(Nanos(1), chain);
        }
        sim.schedule_at(Nanos(0), chain);
        let ran = sim.run_limit(50);
        assert_eq!(ran, 50);
        assert!(sim.pending() > 0);
    }

    /// A capture that counts how often it is dropped.
    struct Drops(Rc<Cell<u32>>);

    impl Drop for Drops {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    fn drops() -> (Drops, Rc<Cell<u32>>) {
        let count = Rc::new(Cell::new(0));
        (Drops(count.clone()), count)
    }

    #[test]
    fn fired_closure_is_dropped_once() {
        let mut sim = Sim::new();
        let (d, count) = drops();
        let ran = Rc::new(Cell::new(false));
        let r = ran.clone();
        sim.schedule_at(Nanos(1), move |_| {
            let _d = &d;
            r.set(true);
        });
        assert_eq!(count.get(), 0);
        sim.run();
        assert!(ran.get());
        assert_eq!(count.get(), 1);
        drop(sim);
        assert_eq!(count.get(), 1);
    }

    #[test]
    fn cancelled_closure_is_dropped_when_step_pops_it() {
        let mut sim = Sim::new();
        let (d, count) = drops();
        let h = sim.schedule_cancellable_at(Nanos(1), move |_| {
            let _d = &d;
            panic!("cancelled event ran");
        });
        sim.schedule_at(Nanos(2), |_| {});
        h.cancel();
        h.cancel();
        assert_eq!((count.get(), sim.pending()), (0, 2), "cancellation is lazy");
        assert!(sim.step());
        assert_eq!((count.get(), sim.pending()), (1, 0));
        assert_eq!(sim.events_executed(), 1);
        drop(sim);
        assert_eq!(count.get(), 1);
    }

    #[test]
    fn cancelled_closure_is_dropped_by_run_until_head_skip() {
        let mut sim = Sim::new();
        let (d, count) = drops();
        // Beyond the deadline: only the head-skip can reach it.
        let h = sim.schedule_cancellable_at(Nanos(50), move |_| {
            let _d = &d;
            panic!("cancelled event ran");
        });
        h.cancel();
        sim.run_until(Nanos(10));
        assert_eq!((count.get(), sim.pending()), (1, 0));
        assert_eq!((sim.now(), sim.events_executed()), (Nanos(10), 0));
    }

    #[test]
    fn dropping_the_sim_drops_each_pending_closure_once() {
        let mut sim = Sim::new();
        let counts: Vec<_> = (0..5u64)
            .map(|i| {
                let (d, count) = drops();
                if i % 2 == 0 {
                    sim.schedule_at(Nanos(10 + i), move |_| drop(d));
                } else {
                    let h = sim.schedule_cancellable_at(Nanos(10 + i), move |_| drop(d));
                    if i == 1 {
                        h.cancel();
                    }
                }
                count
            })
            .collect();
        // One fired, one oversize (boxed), the rest pending.
        let (d, boxed_count) = drops();
        let pad = [0u8; 100];
        sim.schedule_at(Nanos(99), move |_| drop((d, pad)));
        assert!(sim.step());
        assert_eq!(counts[0].get(), 1);
        drop(sim);
        for count in counts.iter().chain([&boxed_count]) {
            assert_eq!(count.get(), 1);
        }
    }

    #[test]
    fn closures_of_every_size_and_alignment_run_and_drop() {
        #[repr(align(32))]
        struct Wide(u8);

        let mut sim = Sim::new();
        let sum = Rc::new(Cell::new(0u64));
        let mut counts = Vec::new();
        let mut capture = || {
            let (d, count) = drops();
            counts.push(count);
            (d, sum.clone())
        };

        // Zero-sized: a `fn` item.
        fn bare(_: &mut Sim) {}
        assert_eq!(size_of_val(&bare), 0);
        sim.schedule_at(Nanos(1), bare);

        // Exactly the slot: two pointers and 48 bytes.
        let (d, s) = capture();
        let fill = [1u64; 6];
        let exact = move |_: &mut Sim| {
            let _d = &d;
            s.set(s.get() + fill.iter().sum::<u64>());
        };
        assert_eq!(size_of_val(&exact), INLINE_BYTES);
        sim.schedule_at(Nanos(2), exact);
        assert_eq!(sim.boxed_events(), 0);

        // Small but aligned beyond the slot.
        let (d, s) = capture();
        let wide = Wide(7);
        let aligned = move |_: &mut Sim| {
            let _d = &d;
            assert_eq!(&wide as *const Wide as usize % 32, 0);
            s.set(s.get() + u64::from(wide.0));
        };
        assert!(size_of_val(&aligned) <= INLINE_BYTES);
        sim.schedule_cancellable_at(Nanos(3), aligned);
        assert_eq!(sim.boxed_events(), 1);

        sim.run();
        assert_eq!(sim.events_executed(), 3);
        assert_eq!(sum.get(), 6 + 7);
        assert!(counts.iter().all(|c| c.get() == 1));
        assert_eq!(sim.boxed_events(), 1);
    }

    #[test]
    fn packed_closure_just_over_the_slot_is_boxed() {
        // 65 bytes with alignment 1: no padding hides the extra byte.
        let mut sim = Sim::new();
        let hit = Rc::new(Cell::new(0u64));
        let fill = [3u8; INLINE_BYTES + 1];
        let over = move |sim: &mut Sim| {
            let total: u64 = fill.iter().map(|&b| u64::from(b)).sum();
            sim.schedule_in(Nanos(total), |_| {});
        };
        assert_eq!(size_of_val(&over), INLINE_BYTES + 1);
        sim.schedule_at(Nanos(0), over);
        let h = hit.clone();
        sim.schedule_at(Nanos(1), move |_| h.set(1));
        sim.run();
        assert_eq!((sim.boxed_events(), hit.get()), (1, 1));
        assert_eq!(sim.now(), Nanos(3 * (INLINE_BYTES as u64 + 1)));
    }

    #[test]
    fn closure_scheduling_from_inside_reuses_its_own_slot() {
        let mut sim = Sim::new();
        let left = Rc::new(Cell::new(100u32));
        fn hop(sim: &mut Sim, left: Rc<Cell<u32>>) {
            if left.get() > 0 {
                left.set(left.get() - 1);
                sim.schedule_in(Nanos(1), move |sim| hop(sim, left));
            }
        }
        let l = left.clone();
        sim.schedule_at(Nanos(0), move |sim| hop(sim, l));
        sim.run();
        assert_eq!((left.get(), sim.events_executed()), (0, 101));
        assert_eq!(sim.slots.len(), 1, "every hop was stored in the one slot");
        assert_eq!(Rc::strong_count(&left), 1);
    }

    #[test]
    fn stale_handle_does_not_cancel_the_next_tenant() {
        let mut sim = Sim::new();
        // Fired, then its table entry is taken by a new event.
        let fired = sim.schedule_cancellable_at(Nanos(1), |_| {});
        sim.run();
        let ran = Rc::new(Cell::new(0));
        let r = ran.clone();
        let tenant = sim.schedule_cancellable_at(Nanos(2), move |_| r.set(r.get() + 1));
        assert_eq!(tenant.idx, fired.idx);
        assert_ne!(tenant.gen, fired.gen);
        fired.cancel();
        sim.run();
        assert_eq!(ran.get(), 1);

        // Cancelled and popped, then likewise.
        let cancelled = sim.schedule_cancellable_at(Nanos(3), |_| panic!("cancelled event ran"));
        cancelled.cancel();
        sim.run();
        let r = ran.clone();
        let tenant = sim.schedule_cancellable_at(Nanos(4), move |_| r.set(r.get() + 1));
        assert_eq!(tenant.idx, cancelled.idx);
        cancelled.cancel();
        cancelled.clone().cancel();
        sim.run();
        assert_eq!(ran.get(), 2);

        // A handle may cancel its own event from inside it, and may
        // outlive the simulator.
        let own: Rc<RefCell<Option<EventHandle>>> = Rc::default();
        let o = own.clone();
        let h = sim.schedule_cancellable_at(Nanos(5), move |_| {
            o.borrow().as_ref().expect("set below").cancel();
        });
        *own.borrow_mut() = Some(h.clone());
        sim.run();
        assert_eq!(sim.events_executed(), 4);
        drop(sim);
        h.cancel();
    }

    #[test]
    fn panicking_closure_has_already_vacated_its_slot() {
        let mut sim = Sim::new();
        let (d, count) = drops();
        sim.schedule_at(Nanos(1), move |_| {
            let _d = &d;
            panic!("boom");
        });
        let ran = Rc::new(Cell::new(false));
        let r = ran.clone();
        sim.schedule_at(Nanos(2), move |_| r.set(true));
        let unwound = catch_unwind(AssertUnwindSafe(|| sim.step())).is_err();
        assert!(unwound);
        assert_eq!(count.get(), 1, "the unwinding call consumed the closure");
        assert!(sim.slots[0].vtable.is_none() && sim.free_slots.contains(&0));
        assert_eq!((sim.pending(), sim.events_executed()), (1, 1));
        // The simulator carries on, into the vacated slot too.
        sim.schedule_at(Nanos(3), |_| {});
        assert_eq!(sim.slots.len(), 2);
        sim.run();
        assert!(ran.get());
        drop(sim);
        assert_eq!(count.get(), 1);
    }
}
