//! Stable, dependency-free hashing.
//!
//! `std::collections::HashMap`'s default hasher is randomized per process,
//! which would make simulation runs non-reproducible wherever hashes feed
//! placement decisions. Everything that influences placement (the consistent
//! hash ring, chunk spreading) therefore uses the deterministic functions
//! here: 64-bit FNV-1a followed by a SplitMix64 finalizer for avalanche.
//!
//! [`hash_debug`] is the odd one out: it feeds a value's `Debug` text into
//! any [`Hasher`], for the model checker's state fingerprints.

use std::fmt;
use std::hash::Hasher;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with FNV-1a (64-bit).
///
/// # Example
///
/// ```
/// use ic_common::hash::fnv1a;
/// assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: a fast, well-mixed bijection on `u64`.
///
/// Used to derive independent-looking streams from a hash plus a counter
/// (e.g. the virtual nodes of one proxy on the consistent-hash ring).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a string key to a well-mixed 64-bit value (FNV-1a + SplitMix64).
pub fn hash_str(s: &str) -> u64 {
    splitmix64(fnv1a(s.as_bytes()))
}

/// Hashes a `(key, index)` pair, used for virtual ring nodes and for
/// deriving per-chunk randomness from an object key.
pub fn hash_with_index(s: &str, index: u64) -> u64 {
    splitmix64(fnv1a(s.as_bytes()) ^ splitmix64(index))
}

/// Feeds `v`'s `Debug` text into `h` exactly as
/// `format!("{v:?}").hash(h)` would, without building the string: the
/// text streams into [`Hasher::write`] piece by piece, then gets the
/// `0xff` terminator that `str`'s `Hash` impl appends.
///
/// The result is bit-identical for any hasher whose `write` is
/// streaming (split writes hash like one concatenated write), which
/// includes std's `DefaultHasher`.
///
/// # Example
///
/// ```
/// use std::collections::hash_map::DefaultHasher;
/// use std::hash::{Hash, Hasher};
/// use ic_common::hash::hash_debug;
///
/// let v = (Some(3u8), "k0", [1.5f64]);
/// let (mut a, mut b) = (DefaultHasher::new(), DefaultHasher::new());
/// hash_debug(&v, &mut a);
/// format!("{v:?}").hash(&mut b);
/// assert_eq!(a.finish(), b.finish());
/// ```
pub fn hash_debug<T: fmt::Debug + ?Sized, H: Hasher>(v: &T, h: &mut H) {
    struct Feed<'a, H>(&'a mut H);
    impl<H: Hasher> fmt::Write for Feed<'_, H> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    fmt::write(&mut Feed(h), format_args!("{v:?}")).expect("Debug formatting into a hasher");
    h.write_u8(0xff);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        let mut outs = HashSet::new();
        for i in 0..10_000u64 {
            assert!(outs.insert(splitmix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn hash_str_spreads_sequential_keys() {
        // Sequential keys must not land in the same 1/16 of the space too
        // often — a crude avalanche check.
        let mut buckets = [0u32; 16];
        for i in 0..16_000 {
            let h = hash_str(&format!("key-{i}"));
            buckets[(h >> 60) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "skewed bucket: {b}");
        }
    }

    #[test]
    fn hash_debug_equals_hashing_the_formatted_string() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::BTreeMap;
        use std::hash::Hash;

        #[derive(Debug)]
        #[allow(dead_code)] // read only through Debug
        struct Nested {
            key: String,
            parts: Vec<Option<(u32, f64)>>,
            map: BTreeMap<u8, &'static str>,
        }
        fn both(v: &dyn fmt::Debug) -> (u64, u64) {
            let (mut a, mut b) = (DefaultHasher::new(), DefaultHasher::new());
            hash_debug(v, &mut a);
            format!("{v:?}").hash(&mut b);
            (a.finish(), b.finish())
        }
        let nested = Nested {
            key: "object-κλειδί-0001".repeat(3),
            parts: vec![Some((7, 0.25)), None, Some((u32::MAX, -1e300))],
            map: [(1, "a"), (2, "longer than one sip block")].into(),
        };
        let values: [&dyn fmt::Debug; 6] = [&"", &0u8, &nested, &[0u64; 40], &(), &'\u{ff}'];
        for v in values {
            let (streamed, formatted) = both(v);
            assert_eq!(streamed, formatted, "diverged on {v:?}");
        }
        // A hash prefix followed by the Debug text: streaming must also
        // line up with whatever the hasher has buffered so far.
        let (mut a, mut b) = (DefaultHasher::new(), DefaultHasher::new());
        for h in [&mut a, &mut b] {
            42u16.hash(h);
            "abc".hash(h);
        }
        hash_debug(&nested, &mut a);
        format!("{nested:?}").hash(&mut b);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn hash_with_index_differs_by_index() {
        let a = hash_with_index("obj", 0);
        let b = hash_with_index("obj", 1);
        assert_ne!(a, b);
        assert_eq!(a, hash_with_index("obj", 0));
    }
}
