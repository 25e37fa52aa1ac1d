//! SplitMix64 hashing for the simulator's stateless pseudo-random draws.
//!
//! Fault decisions, workload jitter, invalidation-ack delays and
//! predictor pattern keys all derive their bits from the same SplitMix64
//! finalizer, so each draw is a pure function of its coordinates.

/// The SplitMix64 increment, `2^64 / φ` rounded to odd.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective 64-bit diffusion round.
#[must_use]
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Absorbs `words` into a hash seeded by `seed`: each word is offset by
/// [`GOLDEN_GAMMA`], xored in and finalized with [`splitmix64`].
#[must_use]
#[inline]
pub fn splitmix_fold(seed: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(seed ^ GOLDEN_GAMMA, |h, t| {
        splitmix64(h ^ t.wrapping_add(GOLDEN_GAMMA))
    })
}
