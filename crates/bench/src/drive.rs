//! What the benches share: the deterministic generator behind their op
//! streams and the rounding of the committed artifacts.

/// xorshift64: every bench's op stream is a pure function of its seed.
pub(crate) struct XorShift(pub(crate) u64);

impl XorShift {
    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Rounds to the three decimals the committed artifacts carry.
pub(crate) fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}
