//! A multiply-xor hasher for integer-keyed maps on simulator hot paths.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` keyed by integers (or integer newtypes and tuples of
/// them), hashed with [`IntHasher`] instead of SipHash.
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

/// One multiply-xor fold per integer written (cf. FxHash).
///
/// Hash quality only affects bucket spread: the map still stores and
/// compares full keys, so lookups stay exact. Keys are simulator
/// addresses and ids, never attacker-controlled, so SipHash's flooding
/// resistance buys nothing and its cost shows on per-record paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("integer keys hash via write_u32/write_u64 only");
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`IntHasher`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildIntHasher;

impl BuildHasher for BuildIntHasher {
    type Hasher = IntHasher;
    #[inline]
    fn build_hasher(&self) -> IntHasher {
        IntHasher(0)
    }
}
