//! Virtual nanosecond clock shared by the device model and the measurement
//! harness.
//!
//! The ByteFS evaluation reports throughput (operations per second) and
//! latencies measured on real hardware. In this reproduction every simulated
//! component charges its cost to a [`Clock`], and the harness converts the
//! elapsed virtual nanoseconds back into throughput and latency numbers. The
//! clock is monotonic and shared (`Arc<Clock>`) between the device, the file
//! systems and the workload driver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing virtual clock measured in nanoseconds.
///
/// ```
/// use mssd::Clock;
/// let clock = Clock::new();
/// clock.advance(1_500);
/// assert_eq!(clock.now_ns(), 1_500);
/// assert!((clock.now_secs() - 1.5e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct Clock {
    now_ns: AtomicU64,
}

impl Clock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Self { now_ns: AtomicU64::new(0) })
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Advances the clock by `delta_ns` nanoseconds and returns the new time.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.now_ns.fetch_add(delta_ns, Ordering::Relaxed) + delta_ns
    }

    /// Moves the clock forward to `target_ns` unless it is already there or
    /// past it, and returns by how much it moved: the wait for something that
    /// completes at `target_ns` on this clock.
    pub fn advance_to(&self, target_ns: u64) -> u64 {
        // The clock never runs backwards: a target it has passed — most
        // waits find one — needs no read-modify-write of the shared atomic.
        if target_ns <= self.now_ns() {
            return 0;
        }
        target_ns.saturating_sub(self.now_ns.fetch_max(target_ns, Ordering::Relaxed))
    }

    /// Returns the elapsed nanoseconds since `start_ns`.
    ///
    /// Saturates at zero if `start_ns` is in the future (which can only happen
    /// if the caller mixes timestamps from different clocks).
    pub fn elapsed_since(&self, start_ns: u64) -> u64 {
        self.now_ns().saturating_sub(start_ns)
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
