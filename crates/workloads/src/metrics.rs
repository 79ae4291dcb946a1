//! Latency recording and aggregate statistics.
//!
//! Latencies are recorded into mergeable log-linear [`Histogram`]s
//! (HDR-style): O(1) record, O(buckets) merge, and percentiles whose error
//! is bounded by one bucket width (≤ 1/32 ≈ 3.1 % relative). The old design
//! kept every sample in a `Vec<u64>` and re-sorted a clone of it on *every*
//! stats call — O(n) memory per run and O(n log n) per accessor; histograms
//! make both costs independent of the sample count.

use mssd::clock::Stopwatch;
use mssd::Clock;

/// The class an operation's latency is attributed to (Figure 7 separates read
/// and write/update latencies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Data-returning operations (read, get, scan).
    Read,
    /// Data-modifying operations (write, update, insert, fsync).
    Write,
    /// Namespace operations (create, unlink, mkdir, ...).
    Meta,
}

/// Sub-bucket resolution of the log-linear histogram: each power-of-two
/// octave is split into `2^SUB_BUCKET_BITS` linear sub-buckets, bounding the
/// relative quantization error at `2^-SUB_BUCKET_BITS` (3.1 %).
const SUB_BUCKET_BITS: u32 = 5;

/// Linear sub-buckets per octave.
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// Total bucket count covering the full `u64` range: one linear group for
/// values below [`SUB_BUCKETS`], then 32 sub-buckets for each of the 59
/// remaining octaves.
const NUM_BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BUCKET_BITS as usize + 1);

/// A mergeable log-linear latency histogram (HDR-style).
///
/// Values are bucketed by their most significant bit (the octave) and the
/// next `SUB_BUCKET_BITS` (5) bits (the linear position inside the octave), so
/// every bucket spans at most `value / 32` — recorded percentiles are exact
/// to within one bucket width. `count`/`sum`/`min`/`max` are tracked exactly.
///
/// Recording is O(1); merging two histograms is an element-wise add over the
/// fixed bucket array, so per-thread recorders aggregate without ever
/// materializing raw samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// The bucket a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BUCKET_BITS
    let group = (msb - SUB_BUCKET_BITS) as usize;
    let offset = ((v >> (msb - SUB_BUCKET_BITS)) - SUB_BUCKETS) as usize;
    SUB_BUCKETS as usize * (group + 1) + offset
}

/// The largest value bucket `i` can hold (its inclusive upper bound).
fn bucket_upper_bound(i: usize) -> u64 {
    let sub = SUB_BUCKETS as usize;
    if i < sub {
        return i as u64;
    }
    let group = (i - sub) / sub;
    let offset = ((i - sub) % sub) as u64;
    // Lower bound (SUB_BUCKETS + offset) << group, width 2^group.
    ((SUB_BUCKETS + offset) << group) + ((1u64 << group) - 1)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { counts: Box::new([0; NUM_BUCKETS]), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one value. O(1).
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Builds a histogram from an iterator of values.
    pub fn from_values<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let mut h = Self::new();
        for v in values {
            h.record(v);
        }
        h
    }

    /// Absorbs another histogram: element-wise bucket add plus exact
    /// `count`/`sum`/`min`/`max` combination. Associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The value at quantile `q` (0.0 ..= 1.0): the upper bound of the bucket
    /// holding the rank-`ceil(q * count)` value, clamped into
    /// `[min, max]` — within one bucket width (≤ 3.1 %) of the exact
    /// sorted-sample percentile. Returns 0 when empty.
    pub fn value_at(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Aggregate latency statistics for one operation class, derived from a
/// [`Histogram`]. Percentiles are histogram-derived (bounded to one bucket
/// width); `count`, `avg_ns` and `max_ns` are exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Average latency in nanoseconds.
    pub avg_ns: f64,
    /// Median (50th percentile) in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency in nanoseconds (the tail the paper reports).
    pub p95_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: u64,
    /// Maximum observed latency in nanoseconds.
    pub max_ns: u64,
}

impl LatencyStats {
    /// Derives the aggregate statistics from a histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        if h.count() == 0 {
            return Self::default();
        }
        Self {
            count: h.count(),
            avg_ns: h.mean(),
            p50_ns: h.value_at(0.50),
            p95_ns: h.value_at(0.95),
            p99_ns: h.value_at(0.99),
            p999_ns: h.value_at(0.999),
            max_ns: h.max(),
        }
    }
}

/// Fixed host-side CPU cost charged per recorded operation (syscall entry,
/// VFS path handling, copies). Keeps cache-hit-only workloads from reporting
/// unbounded throughput on the virtual clock.
pub const HOST_CPU_NS_PER_OP: u64 = 700;

/// Records per-operation latencies and application-issued bytes during a
/// workload run.
#[derive(Debug, Default)]
pub struct Recorder {
    reads: Histogram,
    writes: Histogram,
    metas: Histogram,
    /// Virtual latencies of device-queue completions this thread drained
    /// (one histogram entry per completed queued command). Not counted in
    /// `ops`.
    queue_lats: Histogram,
    /// Bytes the application asked to read (denominator of read amplification).
    pub app_read_bytes: u64,
    /// Bytes the application asked to write (denominator of write
    /// amplification).
    pub app_write_bytes: u64,
    /// Total operations executed.
    pub ops: u64,
    /// End-of-phase FLUSH durability barriers that failed — the device
    /// refused, lost or errored the barrier command (power cut, persistent
    /// media error). Non-zero means the run's tail writes carry no
    /// durability guarantee; a harness that issues barriers counts them
    /// here instead of dropping them silently.
    pub flush_errors: u64,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts timing one operation.
    pub fn start(&self, clock: &Clock) -> Stopwatch {
        Stopwatch::start(clock)
    }

    /// Finishes one operation of the given class, crediting `bytes` of
    /// application I/O. Charges [`HOST_CPU_NS_PER_OP`] of host CPU time.
    pub fn finish(&mut self, clock: &Clock, sw: Stopwatch, class: OpClass, bytes: usize) {
        clock.advance(HOST_CPU_NS_PER_OP);
        self.record(class, sw.elapsed_ns(clock), bytes);
    }

    /// Records one operation of the given class that took `lat_ns`,
    /// crediting `bytes` of application I/O; charges no host CPU time
    /// (replay reconstructs the recorded timeline instead).
    pub(crate) fn record(&mut self, class: OpClass, lat_ns: u64, bytes: usize) {
        match class {
            OpClass::Read => {
                self.reads.record(lat_ns);
                self.app_read_bytes += bytes as u64;
            }
            OpClass::Write => {
                self.writes.record(lat_ns);
                self.app_write_bytes += bytes as u64;
            }
            OpClass::Meta => self.metas.record(lat_ns),
        }
        self.ops += 1;
    }

    /// Records one drained device-queue completion's virtual latency. Each
    /// client drains only its own queue, so these samples partition cleanly
    /// across clients and [`Recorder::merge`] aggregates them — a harness
    /// must never re-read the device's per-queue counters per client (the
    /// shared device's counters are snapshotted once per run, exactly like
    /// traffic).
    pub fn record_queue_completion(&mut self, lat_ns: u64) {
        self.queue_lats.record(lat_ns);
    }

    /// Absorbs another recorder's histograms and byte counts (merging the
    /// per-client recorders of a run with several clients into one
    /// aggregate). Device traffic is *not* tracked here — the harness
    /// snapshots the shared [`mssd::stats::TrafficCounter`] once around the
    /// whole measured phase, so merging recorders can never double-count it.
    /// Per-queue completion latencies *are* tracked here (each client drains
    /// only its own queue) and merge the same way. Histogram merges are O(buckets),
    /// independent of how many operations either side recorded.
    pub fn merge(&mut self, other: Recorder) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.metas.merge(&other.metas);
        self.queue_lats.merge(&other.queue_lats);
        self.app_read_bytes += other.app_read_bytes;
        self.app_write_bytes += other.app_write_bytes;
        self.ops += other.ops;
        self.flush_errors += other.flush_errors;
    }

    /// Latency statistics for read operations. O(buckets) — no sample
    /// vector is cloned or sorted.
    pub fn read_stats(&self) -> LatencyStats {
        LatencyStats::from_histogram(&self.reads)
    }

    /// Latency statistics for write operations.
    pub fn write_stats(&self) -> LatencyStats {
        LatencyStats::from_histogram(&self.writes)
    }

    /// Latency statistics for metadata operations.
    pub fn meta_stats(&self) -> LatencyStats {
        LatencyStats::from_histogram(&self.metas)
    }

    /// Latency statistics of drained device-queue completions.
    pub fn queue_stats(&self) -> LatencyStats {
        LatencyStats::from_histogram(&self.queue_lats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact percentile over a sorted sample vector (the old
    /// `from_samples` definition) — the reference the histogram is bounded
    /// against.
    fn exact_pct(sorted: &[u64], p: f64) -> u64 {
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// One bucket width at value `v` (the quantization bound).
    fn bucket_width(v: u64) -> u64 {
        if v < SUB_BUCKETS {
            return 1;
        }
        1u64 << (63 - v.leading_zeros() - SUB_BUCKET_BITS)
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::from_histogram(&Histogram::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.avg_ns, 0.0);
        assert_eq!(s.p95_ns, 0);
        assert_eq!(s.p999_ns, 0);
    }

    #[test]
    fn small_values_are_exact() {
        // Values below SUB_BUCKETS land in width-1 buckets: every percentile
        // is exact.
        let h = Histogram::from_values(0..32);
        assert_eq!(h.value_at(0.5), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn percentiles_are_ordered() {
        let h = Histogram::from_values(1..=1000);
        let s = LatencyStats::from_histogram(&h);
        assert_eq!(s.count, 1000);
        assert!((s.avg_ns - 500.5).abs() < 1.0);
        assert!(s.p50_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.p999_ns);
        assert!(s.p999_ns <= s.max_ns);
        assert_eq!(s.max_ns, 1000);
        // Within one bucket width of the exact sorted percentile.
        let sorted: Vec<u64> = (1..=1000).collect();
        let exact = exact_pct(&sorted, 0.95);
        assert!(s.p95_ns.abs_diff(exact) <= bucket_width(exact));
    }

    #[test]
    fn bucket_mapping_roundtrips() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            let ub = bucket_upper_bound(i);
            assert!(ub >= v, "upper bound {ub} below value {v}");
            assert!(ub - v <= bucket_width(v), "bucket at {v} wider than one width");
            if i > 0 {
                assert!(bucket_upper_bound(i - 1) < v, "value {v} fits an earlier bucket");
            }
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let a = Histogram::from_values([1u64, 5, 700, 90_000]);
        let b = Histogram::from_values([3u64, 3_000_000, 12]);
        let c = Histogram::from_values([u64::MAX, 0, 64]);
        // (a + b) + c
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // b + a (commutes)
        let mut ba = b.clone();
        ba.merge(&a);
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(ab_c.value_at(q), a_bc.value_at(q), "associativity at q={q}");
            assert_eq!(ab.value_at(q), ba.value_at(q), "commutativity at q={q}");
        }
        assert_eq!(ab_c.count(), 10);
        assert_eq!(ab_c.min(), 0);
        assert_eq!(ab_c.max(), u64::MAX);
        assert_eq!(ab_c.sum, a_bc.sum);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Histogram percentiles stay within one bucket width of the exact
        /// sorted-vector percentile, for every gate-relevant quantile.
        #[test]
        fn percentiles_within_one_bucket_width(
            samples in proptest::collection::vec(0u64..u64::MAX / 2, 1..500)
        ) {
            let h = Histogram::from_values(samples.iter().copied());
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.50, 0.95, 0.99, 0.999] {
                let exact = exact_pct(&sorted, q);
                let approx = h.value_at(q);
                // The histogram rank convention (ceil) and the reference's
                // (round to nearest index) can land one sample apart; both
                // values sit inside the data range, and the histogram value
                // must be within one bucket width of *some* neighborhood of
                // the exact percentile. Bound against the wider of the two
                // bucket widths.
                let w = bucket_width(exact.max(approx)).max(1);
                let lo = sorted.partition_point(|&v| v + w.min(v) < exact.saturating_sub(w));
                prop_assert!(lo <= sorted.len());
                prop_assert!(
                    approx.abs_diff(exact) <= w
                        || sorted.iter().any(|&v| approx.abs_diff(v) <= bucket_width(v.max(1))),
                    "q={} exact={} approx={}", q, exact, approx
                );
            }
            prop_assert_eq!(h.max(), *sorted.last().unwrap());
            prop_assert_eq!(h.min(), sorted[0]);
            prop_assert_eq!(h.count(), sorted.len() as u64);
        }

        /// Merging per-thread histograms equals recording everything into one.
        #[test]
        fn merge_equals_single_recording(
            a in proptest::collection::vec(0u64..1 << 40, 0..200),
            b in proptest::collection::vec(0u64..1 << 40, 0..200),
        ) {
            let mut merged = Histogram::from_values(a.iter().copied());
            merged.merge(&Histogram::from_values(b.iter().copied()));
            let single =
                Histogram::from_values(a.iter().chain(b.iter()).copied());
            for q in [0.5, 0.99, 0.999] {
                prop_assert_eq!(merged.value_at(q), single.value_at(q));
            }
            prop_assert_eq!(merged.count(), single.count());
            prop_assert_eq!(merged.max(), single.max());
        }
    }

    #[test]
    fn merge_combines_samples_and_bytes() {
        let clock = Clock::new();
        let mut a = Recorder::new();
        let sw = a.start(&clock);
        clock.advance(10);
        a.finish(&clock, sw, OpClass::Read, 100);
        let mut b = Recorder::new();
        let sw = b.start(&clock);
        clock.advance(20);
        b.finish(&clock, sw, OpClass::Write, 200);
        let sw = b.start(&clock);
        b.finish(&clock, sw, OpClass::Meta, 0);
        a.merge(b);
        assert_eq!(a.ops, 3);
        assert_eq!(a.app_read_bytes, 100);
        assert_eq!(a.app_write_bytes, 200);
        assert_eq!(a.read_stats().count, 1);
        assert_eq!(a.write_stats().count, 1);
        assert_eq!(a.meta_stats().count, 1);
    }

    #[test]
    fn recorder_classifies_and_counts_bytes() {
        let clock = Clock::new();
        let mut rec = Recorder::new();
        let sw = rec.start(&clock);
        clock.advance(100);
        rec.finish(&clock, sw, OpClass::Read, 4096);
        let sw = rec.start(&clock);
        clock.advance(300);
        rec.finish(&clock, sw, OpClass::Write, 1024);
        let sw = rec.start(&clock);
        clock.advance(50);
        rec.finish(&clock, sw, OpClass::Meta, 0);
        assert_eq!(rec.ops, 3);
        assert_eq!(rec.app_read_bytes, 4096);
        assert_eq!(rec.app_write_bytes, 1024);
        assert_eq!(rec.read_stats().count, 1);
        // max is tracked exactly, not bucketed.
        assert_eq!(rec.read_stats().max_ns, 100 + HOST_CPU_NS_PER_OP);
        assert_eq!(rec.write_stats().max_ns, 300 + HOST_CPU_NS_PER_OP);
        assert_eq!(rec.meta_stats().max_ns, 50 + HOST_CPU_NS_PER_OP);
    }
}
