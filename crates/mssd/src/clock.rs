//! Virtual nanosecond clock shared by the device model and the measurement
//! harness.
//!
//! The ByteFS evaluation reports throughput (operations per second) and
//! latencies measured on real hardware. In this reproduction every simulated
//! component charges its cost to a [`Clock`], and the harness converts the
//! elapsed virtual nanoseconds back into throughput and latency numbers. The
//! clock is monotonic and shared (`Arc<Clock>`) between the device, the file
//! systems and the workload driver.
//!
//! # Client clocks
//!
//! A host client that runs beside others — a thread with its own
//! [`crate::HostQueue`] made ambient — carries its own causal time: while a
//! [`ClientClock`] is live on a thread, [`Clock::now_ns`], [`Clock::advance`]
//! and [`Clock::advance_to`] on that thread read and move only that client.
//! Off a client clock they work on the *plain sum* as they always did, and
//! `now_ns` reports the *frontier*: the largest of the plain sum and every
//! running client's time. A client starts at the frontier and, when it ends,
//! leaves its time in the plain sum, so a report taken after the clients
//! ended reads the end of the latest one. A run that never starts a client
//! clock is the plain sum throughout, exactly as before.
//!
//! The device's shared timelines (the link, the NAND array) are single
//! scalars, so commands that touch them run in virtual-time order: a client
//! first takes a *turn* ([`Clock::take_turn`]), waiting in wall time until no
//! other client is behind it. A client blocked on a host lock
//! [`parks`](Clock::park) and holds nobody back meanwhile; one whose time does
//! not move for [`STALLED_CLIENT_WALL`] (blocked on something the clock cannot
//! see) is skipped until it moves. `DESIGN-time.md` has the rules.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::CachePadded;

/// Client clocks one [`Clock`] runs at once. A client started while every
/// slot is taken runs off the clock, on the plain sum.
const CLIENT_SLOTS: usize = 64;

/// Wall time a turn waits for a client whose virtual time does not move
/// before it skips that client. Such a client is blocked outside the model —
/// at an application barrier, descheduled by the host OS — and would
/// otherwise hold every other client back for as long as it stays blocked.
/// It is skipped only until its time moves again.
pub const STALLED_CLIENT_WALL: Duration = Duration::from_micros(500);

thread_local! {
    /// The client clock the calling thread runs on: the address of its
    /// [`Clock`] (0: none) and its slot.
    static CLIENT: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// One client clock's slot, on a cache line of its own: the client writes
/// only here.
#[derive(Debug)]
#[repr(align(64))]
struct ClientSlot {
    /// Held by a running client (the slot registry).
    taken: AtomicBool,
    /// The client's virtual ns. Written by its own thread only.
    now_ns: AtomicU64,
    /// Set while the client blocks on a host lock: it is out of the turn
    /// order.
    parked: AtomicBool,
    /// The time at which a turn gave up waiting for this client; it is
    /// skipped while its time still reads this. `u64::MAX`: never skipped.
    skipped_at: AtomicU64,
}

impl ClientSlot {
    fn new() -> Self {
        Self {
            taken: AtomicBool::new(false),
            now_ns: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            skipped_at: AtomicU64::new(u64::MAX),
        }
    }

    fn advance_to(&self, target_ns: u64) -> u64 {
        let now = self.now_ns.load(Ordering::Relaxed);
        if target_ns <= now {
            return 0;
        }
        // `Release`: a turn that sees the new time also sees the timeline
        // bookings this client made before it moved.
        self.now_ns.store(target_ns, Ordering::Release);
        target_ns - now
    }
}

/// A monotonically increasing virtual clock measured in nanoseconds.
///
/// ```
/// use mssd::Clock;
/// let clock = Clock::new();
/// clock.advance(1_500);
/// assert_eq!(clock.now_ns(), 1_500);
/// assert!((clock.now_secs() - 1.5e-6).abs() < 1e-12);
/// ```
pub struct Clock {
    /// The plain sum: every charge made off a client clock, and the time of
    /// each client clock that ended.
    now_ns: CachePadded<AtomicU64>,
    /// Bit `i` is set while slot `i` runs a client clock.
    active: CachePadded<AtomicU64>,
    clients: [ClientSlot; CLIENT_SLOTS],
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Clock")
            .field("now_ns", &self.now_ns())
            .field("clients", &self.active.0.load(Ordering::Relaxed).count_ones())
            .finish()
    }
}

impl Clock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            now_ns: CachePadded::default(),
            active: CachePadded::default(),
            clients: std::array::from_fn(|_| ClientSlot::new()),
        })
    }

    /// Current virtual time in nanoseconds: the calling client's, or off a
    /// client clock the frontier.
    pub fn now_ns(&self) -> u64 {
        match self.client() {
            Some(c) => c.now_ns.load(Ordering::Relaxed),
            None => self.frontier(),
        }
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Advances the clock by `delta_ns` nanoseconds and returns the new time:
    /// the calling client's, or off a client clock the plain sum.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        match self.client() {
            Some(c) => {
                let now = c.now_ns.load(Ordering::Relaxed) + delta_ns;
                c.advance_to(now);
                now
            }
            None => self.now_ns.0.fetch_add(delta_ns, Ordering::Relaxed) + delta_ns,
        }
    }

    /// Moves the clock forward to `target_ns` unless it is already there or
    /// past it, and returns by how much it moved: the wait for something that
    /// completes at `target_ns` on this clock. Moves the calling client, or
    /// off a client clock the plain sum.
    pub fn advance_to(&self, target_ns: u64) -> u64 {
        if let Some(c) = self.client() {
            return c.advance_to(target_ns);
        }
        // The clock never runs backwards: a target it has passed — most
        // waits find one — needs no read-modify-write of the shared atomic.
        if target_ns <= self.now_ns.0.load(Ordering::Relaxed) {
            return 0;
        }
        target_ns.saturating_sub(self.now_ns.0.fetch_max(target_ns, Ordering::Relaxed))
    }

    /// Returns the elapsed nanoseconds since `start_ns`.
    ///
    /// Saturates at zero if `start_ns` is in the future (which can only happen
    /// if the caller mixes timestamps from different clocks).
    pub fn elapsed_since(&self, start_ns: u64) -> u64 {
        self.now_ns().saturating_sub(start_ns)
    }

    /// Starts a client clock on the calling thread at the frontier. Until the
    /// returned guard drops, this thread's reads and charges on this clock
    /// are the client's own; the guard then leaves the client's time in the
    /// plain sum and restores whatever client the thread ran before.
    pub fn start_client(self: &Arc<Self>) -> ClientClock {
        let prev = CLIENT.with(Cell::get);
        let slot = self.clients.iter().position(|c| !c.taken.swap(true, Ordering::Acquire));
        if let Some(i) = slot {
            let c = &self.clients[i];
            c.now_ns.store(self.frontier(), Ordering::Relaxed);
            c.parked.store(false, Ordering::Relaxed);
            c.skipped_at.store(u64::MAX, Ordering::Relaxed);
            // `Release`: whoever sees the bit sees the slot's start time.
            self.active.0.fetch_or(1 << i, Ordering::Release);
            CLIENT.with(|t| t.set((self.addr(), i)));
        }
        ClientClock { clock: Arc::clone(self), slot, prev, not_send: PhantomData }
    }

    /// Takes the calling client out of the turn order until the guard drops:
    /// for a client about to block on a host lock, so that a holder of the
    /// lock waiting for its turn is not waiting for it. Off a client clock it
    /// does nothing.
    pub fn park(&self) -> Parked<'_> {
        let slot = self.client();
        let prev = slot.is_some_and(|c| c.parked.swap(true, Ordering::Release));
        Parked { slot, prev }
    }

    /// Waits, in wall time, until no other running client is behind the
    /// calling one in virtual time (ties go to the lower slot); parked
    /// clients do not count, and a client whose time stands still for
    /// [`STALLED_CLIENT_WALL`] is skipped until it moves. Returns how many
    /// clients this turn skipped. A caller off a client clock, or alone on
    /// this one, has nobody to wait for.
    ///
    /// Commands that book a shared timeline take a turn first, so bookings
    /// are made in virtual-time order: a client that had fallen behind would
    /// otherwise find the timeline already booked into its future by a
    /// client ahead of it.
    pub fn take_turn(&self) -> u64 {
        let active = self.active.0.load(Ordering::Relaxed);
        if active & active.wrapping_sub(1) == 0 {
            return 0; // fewer than two clients
        }
        let (clock, me) = CLIENT.with(Cell::get);
        if clock != self.addr() {
            return 0;
        }
        let mine = self.clients[me].now_ns.load(Ordering::Relaxed);
        let mut skips = 0;
        let mut spins = 0u32;
        // The client waited for, its time, and since when it stands still.
        let mut waiting: Option<(usize, u64, Instant)> = None;
        while let Some((j, t)) = self.behind(me, mine) {
            match waiting {
                Some((wj, wt, since)) if (wj, wt) == (j, t) => {
                    if since.elapsed() >= STALLED_CLIENT_WALL {
                        if self.clients[j].skipped_at.swap(t, Ordering::Relaxed) != t {
                            skips += 1;
                        }
                        waiting = None;
                        continue;
                    }
                }
                _ => waiting = Some((j, t, Instant::now())),
            }
            // Spin briefly — the client waited for is usually running on
            // another core — then give the core away.
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        skips
    }

    /// The first other client that holds the caller (slot `me`, at `mine`)
    /// back, with its time.
    fn behind(&self, me: usize, mine: u64) -> Option<(usize, u64)> {
        let mut others = self.active.0.load(Ordering::Acquire) & !(1 << me);
        while others != 0 {
            let j = others.trailing_zeros() as usize;
            others &= others - 1;
            let c = &self.clients[j];
            if c.parked.load(Ordering::Acquire) {
                continue;
            }
            let t = c.now_ns.load(Ordering::Acquire);
            if c.skipped_at.load(Ordering::Relaxed) == t {
                continue;
            }
            if (t, j) < (mine, me) {
                return Some((j, t));
            }
        }
        None
    }

    /// The calling thread's client slot on this clock, if it runs one.
    fn client(&self) -> Option<&ClientSlot> {
        // No client runs on this clock: the thread cannot be one of them.
        if self.active.0.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let (clock, slot) = CLIENT.with(Cell::get);
        (clock == self.addr()).then(|| &self.clients[slot])
    }

    /// The largest of the plain sum and every running client's time.
    fn frontier(&self) -> u64 {
        let mut active = self.active.0.load(Ordering::Acquire);
        let mut now = self.now_ns.0.load(Ordering::Relaxed);
        while active != 0 {
            let i = active.trailing_zeros() as usize;
            active &= active - 1;
            now = now.max(self.clients[i].now_ns.load(Ordering::Relaxed));
        }
        now
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }
}

/// A running client clock (see [`Clock::start_client`]). Bound to the thread
/// that started it.
#[derive(Debug)]
pub struct ClientClock {
    clock: Arc<Clock>,
    /// `None` when every slot was taken: the client runs off the clock.
    slot: Option<usize>,
    /// The thread's client before this one.
    prev: (usize, usize),
    not_send: PhantomData<*const ()>,
}

impl Drop for ClientClock {
    fn drop(&mut self) {
        let Some(i) = self.slot else { return };
        let clock = &self.clock;
        let c = &clock.clients[i];
        clock.now_ns.0.fetch_max(c.now_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        // `Release`: whoever no longer sees the bit sees the time it left in
        // the plain sum.
        clock.active.0.fetch_and(!(1 << i), Ordering::Release);
        c.taken.store(false, Ordering::Release);
        CLIENT.with(|t| t.set(self.prev));
    }
}

/// A client out of the turn order (see [`Clock::park`]).
#[derive(Debug)]
pub struct Parked<'a> {
    slot: Option<&'a ClientSlot>,
    prev: bool,
}

impl Drop for Parked<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.slot {
            c.parked.store(self.prev, Ordering::Release);
        }
    }
}

/// A scoped latency probe: records the start time on construction and reports
/// the elapsed virtual time when asked.
///
/// ```
/// use mssd::clock::{Clock, Stopwatch};
/// let clock = Clock::new();
/// let sw = Stopwatch::start(&clock);
/// clock.advance(42);
/// assert_eq!(sw.elapsed_ns(&clock), 42);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Starts a stopwatch at the clock's current time.
    pub fn start(clock: &Clock) -> Self {
        Self { start_ns: clock.now_ns() }
    }

    /// Virtual nanoseconds elapsed since the stopwatch was started.
    pub fn elapsed_ns(&self, clock: &Clock) -> u64 {
        clock.elapsed_since(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = Clock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_secs(), 0.0);
    }

    #[test]
    fn advance_accumulates() {
        let c = Clock::new();
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now_ns(), 15);
    }

    #[test]
    fn advance_to_moves_forward_only() {
        let c = Clock::new();
        c.advance(100);
        assert_eq!(c.advance_to(130), 30);
        assert_eq!(c.advance_to(120), 0, "already past it");
        assert_eq!(c.now_ns(), 130);
    }

    #[test]
    fn elapsed_since_saturates() {
        let c = Clock::new();
        c.advance(100);
        assert_eq!(c.elapsed_since(40), 60);
        assert_eq!(c.elapsed_since(1_000), 0);
    }

    #[test]
    fn stopwatch_measures_interval() {
        let c = Clock::new();
        c.advance(7);
        let sw = Stopwatch::start(&c);
        c.advance(13);
        assert_eq!(sw.elapsed_ns(&c), 13);
    }

    #[test]
    fn shared_between_threads() {
        let c = Clock::new();
        let c2 = c.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..1000 {
                c2.advance(1);
            }
        });
        for _ in 0..1000 {
            c.advance(1);
        }
        h.join().unwrap();
        assert_eq!(c.now_ns(), 2000);
    }
}
