//! Seeded input generation: the benchmark's own PRNG, zipfian sampler,
//! payload pool and op-list digest.
//!
//! Nothing here depends on the repository's `rand` stand-in or on the
//! `workloads` generators, so a change to either cannot change what the
//! benchmark feeds the system: the same `--seed` gives the same op lists and
//! the same payload bytes on every commit.

/// SplitMix64 (Steele, Lea, Flood 2014): one multiply-xorshift round per
/// output, full 2^64 period, passes BigCrush — ample for choosing files,
/// offsets and payload bytes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that the pool,
    /// the populate phase and each client draw from unrelated sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias of at most n/2^64 is far
    /// below anything a workload could observe).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The SplitMix64 finalizer, also used as the digest's mixing step.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive 64-bit digest of a stream of words; identifies an op list
/// (and the model fingerprint) without keeping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x6279_7465_6673_2131)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        self.0 = mix(self.0.rotate_left(5) ^ word);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Zipfian ranks over `[0, n)` with the YCSB constant 0.99 (Gray et al.,
/// "Quickly generating billion-record synthetic databases"): rank 0 is the
/// hottest key.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "zipfian needs a non-empty domain");
        let theta = 0.99;
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2.min(n)) / zetan);
        Self { n, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Payloads are handed out in units of this many bytes (one cacheline), so a
/// `u32` line index addresses any payload start.
pub const LINE: usize = 64;

/// Longest payload any workload asks for (a 16 KB file body).
pub const MAX_PAYLOAD: usize = 16 << 10;

/// Seeded random bytes that every payload is a slice of.
///
/// Generating fresh random bytes per write would put the generator inside
/// the measured phase; slicing a pool costs nothing and the bytes are just
/// as incompressible. A write's payload starts at a seeded random line, so
/// an overwrite virtually never repeats the bytes it replaces — which is
/// what keeps ByteFS's XOR dirty-chunk writeback (paper §4.6) from eliding
/// the write, as it does for the constant payloads of `workloads::*`.
#[derive(Debug)]
pub struct Pool {
    bytes: Vec<u8>,
    lines: u32,
}

impl Pool {
    /// Bytes of distinct payload starts; the allocation is `MAX_PAYLOAD`
    /// longer so that every start can serve the longest payload.
    pub const SPAN: usize = 4 << 20;

    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0x706F_6F6C);
        let mut bytes = Vec::with_capacity(Self::SPAN + MAX_PAYLOAD);
        while bytes.len() < Self::SPAN + MAX_PAYLOAD {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Self { bytes, lines: (Self::SPAN / LINE) as u32 }
    }

    /// A seeded random payload start.
    pub fn pick(&self, rng: &mut Rng) -> u32 {
        rng.below(u64::from(self.lines)) as u32
    }

    /// The `len` payload bytes that start at line `line`.
    pub fn slice(&self, line: u32, len: usize) -> &[u8] {
        let start = line as usize * LINE;
        &self.bytes[start..start + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds_and_streams() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(13, 1), draw(13, 1));
        assert_ne!(draw(13, 1), draw(14, 1));
        assert_ne!(draw(13, 1), draw(13, 2));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(7, 0);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks_and_in_range() {
        let z = Zipf::new(1_000);
        let mut r = Rng::new(3, 0);
        let mut low = 0;
        for _ in 0..10_000 {
            let k = z.next(&mut r);
            assert!(k < 1_000);
            low += u32::from(k < 10);
        }
        // Ranks 0..10 of 1000 carry ~39 % of a theta = 0.99 distribution.
        assert!((3_000..5_000).contains(&low), "low-rank draws: {low}");
        assert_eq!(Zipf::new(1).next(&mut r), 0);
    }

    #[test]
    fn pool_is_seeded_and_not_constant() {
        let a = Pool::new(13);
        let b = Pool::new(13);
        let c = Pool::new(14);
        assert_eq!(a.slice(5, MAX_PAYLOAD), b.slice(5, MAX_PAYLOAD));
        assert_ne!(a.slice(5, 256), c.slice(5, 256));
        assert_ne!(a.slice(5, 256), a.slice(6, 256));
        let last = (Pool::SPAN / LINE - 1) as u32;
        assert_eq!(a.slice(last, MAX_PAYLOAD).len(), MAX_PAYLOAD);
        // Incompressible: every byte value occurs in the first 64 KB.
        let mut seen = [false; 256];
        for b in a.slice(0, MAX_PAYLOAD).iter().chain(a.slice(256, MAX_PAYLOAD)) {
            seen[*b as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let of = |ws: &[u64]| {
            let mut d = Digest::default();
            ws.iter().for_each(|w| d.push(*w));
            d.value()
        };
        assert_eq!(of(&[1, 2, 3]), of(&[1, 2, 3]));
        assert_ne!(of(&[1, 2, 3]), of(&[3, 2, 1]));
        assert_ne!(of(&[1, 2, 3]), of(&[1, 2]));
    }
}
