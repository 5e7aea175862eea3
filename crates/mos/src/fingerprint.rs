//! Shared fingerprint helper for content-addressed memoization.
//!
//! The estimation graph's memo keys and the farm's content-addressed job
//! keys both use this one encoding, so a key built in one crate is
//! bit-for-bit the key built in the other for the same logical inputs.
//!
//! [`Fingerprint`] is a tiny FNV-1a builder over explicitly-typed tokens.
//! Every `f64` is folded in **bit-exactly** via [`f64::to_bits`]: two
//! inputs collide only when they are the same IEEE-754 value, which is
//! what makes graph memo lookups history-independent (a warm lookup
//! returns exactly what a cold recompute would produce).

/// Incremental FNV-1a (64-bit) fingerprint builder.
///
/// The builder is consumed and returned by every fold method so keys read
/// as a single chained expression:
///
/// ```
/// use ape_mos::fingerprint::Fingerprint;
///
/// let a = Fingerprint::new().u8(1).f64(3.5e-6).finish();
/// let b = Fingerprint::new().u8(1).f64(3.5e-6).finish();
/// let c = Fingerprint::new().u8(2).f64(3.5e-6).finish();
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Fingerprint {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// Starts a fresh fingerprint at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds in one raw byte.
    pub fn u8(mut self, v: u8) -> Self {
        self.state ^= u64::from(v);
        self.state = self.state.wrapping_mul(FNV_PRIME);
        self
    }

    /// Folds in a `u64` as eight little-endian bytes.
    pub fn u64(mut self, v: u64) -> Self {
        for byte in v.to_le_bytes() {
            self = self.u8(byte);
        }
        self
    }

    /// Folds in a `bool` as a single tag byte.
    pub fn bool(self, v: bool) -> Self {
        self.u8(u8::from(v))
    }

    /// Folds in an `f64` **bit-exactly** (via [`f64::to_bits`]).
    ///
    /// `-0.0` and `0.0` hash differently, and every NaN payload is its own
    /// key — deliberate, because memoized results must be pure functions
    /// of their bit-level inputs.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Folds in a string as its UTF-8 bytes followed by a length token
    /// (so `("ab", "c")` and `("a", "bc")` cannot collide).
    pub fn str(mut self, s: &str) -> Self {
        for &b in s.as_bytes() {
            self = self.u8(b);
        }
        self.u64(s.len() as u64)
    }

    /// Returns the finished 64-bit fingerprint.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.state
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_deterministic_and_order_sensitive() {
        let a = Fingerprint::new().f64(1.0).f64(2.0).finish();
        let b = Fingerprint::new().f64(1.0).f64(2.0).finish();
        let swapped = Fingerprint::new().f64(2.0).f64(1.0).finish();
        assert_eq!(a, b);
        assert_ne!(a, swapped);
    }

    #[test]
    fn f64_is_bit_exact() {
        let x: f64 = 1.0e-6;
        let y: f64 = x * (1.0 + 1e-15); // adjacent representable value
        assert_ne!(x.to_bits(), y.to_bits());
        assert_ne!(
            Fingerprint::new().f64(x).finish(),
            Fingerprint::new().f64(y).finish()
        );
        assert_ne!(
            Fingerprint::new().f64(0.0).finish(),
            Fingerprint::new().f64(-0.0).finish()
        );
    }

    #[test]
    fn str_length_token_prevents_concatenation_collisions() {
        let a = Fingerprint::new().str("ab").str("c").finish();
        let b = Fingerprint::new().str("a").str("bc").finish();
        assert_ne!(a, b);
    }
}
