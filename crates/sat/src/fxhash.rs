//! A small, fixed-seed hasher for maps keyed by program-internal ids.
//!
//! The encoder's maps are keyed by compiler-assigned event ids, literals
//! and model relation names. Std's default `RandomState` protects against
//! keys crafted to collide, which these keys cannot be, and it seeds every
//! map differently per process, so iterating a map visits entries in a
//! different order on every run. Clause order decides the solver's search,
//! so the encoding's size and the solver's conflict counts would not repeat
//! between runs. [`FxBuildHasher`] hashes with a fixed multiply-rotate
//! step (the "Fx" hash of the Rust compiler): it is cheaper per lookup
//! and the same on every run.
//!
//! Keep the default hasher for keys that come from outside the program
//! (request bytes, file contents).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` with the fixed-seed [`FxBuildHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Builds the fixed-seed hasher; every map using it hashes and iterates
/// alike on every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: 0 }
    }
}

/// The multiply-rotate hasher behind [`FxBuildHasher`].
#[derive(Debug, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_keys_hash_and_iterate_alike_in_every_map() {
        let build = || {
            let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
            for a in 0..64u32 {
                for b in 0..16u32 {
                    m.insert((a * 7 % 64, b), a ^ b);
                }
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
        assert_eq!(
            FxBuildHasher.hash_one("rf"),
            FxBuildHasher.hash_one(String::from("rf"))
        );
    }

    #[test]
    fn nearby_keys_spread_over_buckets() {
        // Low bits pick the bucket: small consecutive ids must not collide
        // into a handful of them.
        let low: std::collections::HashSet<u64> = (0..1024u32)
            .map(|i| FxBuildHasher.hash_one((i, i + 1)) & 1023)
            .collect();
        assert!(low.len() > 512, "{} distinct buckets", low.len());
    }
}
