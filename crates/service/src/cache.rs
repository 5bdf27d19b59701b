//! Content-addressed LRU cache of compilation results.
//!
//! Keyed by [`CacheKey`] — the stable circuit content hash plus the
//! (machine, config) fingerprint — so a hit is only possible when the
//! compilation would be bit-identical anyway (the whole pipeline is
//! deterministic per seed). Values are the canonical encoded result
//! payloads, served verbatim on repeat submissions without recompiling.
//!
//! The budget is **bytes of payload**, not entry count — a 4096-site
//! schedule and a 9-qubit toy differ by orders of magnitude in size, and
//! charging each one slot would let a handful of giants blow the memory
//! envelope while thousands of small results were evicted to make room.
//! Each entry is charged `payload.len().max(1)`; an entry larger than the
//! whole budget warns once per process and is not cached.
//!
//! The cache is `parallax-core`'s [`WeightedLru`], the one eviction policy
//! the layout and template caches use too; this module keeps only the key,
//! the byte charge and the warning.

use parallax_core::layout_cache::{Oversized, WeightedLru};

/// Content address of one compilation: (circuit, machine+config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Stable hash of the canonical QASM of the compiled circuit
    /// ([`crate::protocol::circuit_content_hash`]).
    pub circuit: u64,
    /// `ParallaxCompiler::fingerprint()` — machine and every config knob.
    pub compiler: u64,
}

/// Bounded LRU map from [`CacheKey`] to encoded result payloads, budgeted
/// in payload bytes.
pub type ResultCache = WeightedLru<CacheKey, String>;

/// Insert (or refresh) a payload, charged its bytes (empty payloads still
/// occupy an entry). A payload outweighing the whole budget is not cached
/// and warns once per process.
pub fn insert_payload(cache: &mut ResultCache, key: CacheKey, payload: String) {
    let weight = payload.len().max(1);
    if let Err(Oversized { weight, capacity }) = cache.insert(key, payload, weight) {
        static OVERSIZED: std::sync::Once = std::sync::Once::new();
        OVERSIZED.call_once(|| {
            eprintln!(
                "warning: a {weight}-byte result payload exceeds the whole result-cache \
                 budget ({capacity} bytes) and will not be cached; raise the service \
                 cache capacity to at least the largest expected payload"
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey { circuit: n, compiler: 1 }
    }

    #[test]
    fn payloads_are_charged_their_bytes() {
        let mut c = ResultCache::new(8);
        insert_payload(&mut c, key(1), "abc".into());
        insert_payload(&mut c, key(2), String::new());
        assert_eq!((c.stats().len, c.stats().weight), (2, 4), "3 bytes + 1 for the empty one");
        insert_payload(&mut c, key(3), "six_by".into()); // 4 + 6 > 8: evicts key 1
        assert_eq!(c.get(&key(1)), None);
        assert_eq!((c.stats().weight, c.stats().evictions), (7, 1));
        insert_payload(&mut c, key(4), "nine_byte".into()); // outweighs the budget
        assert_eq!(c.get(&key(4)), None);
        assert_eq!(c.stats().len, 2);
    }

    #[test]
    fn distinct_compiler_fingerprints_do_not_collide() {
        let mut c = ResultCache::new(64);
        insert_payload(&mut c, CacheKey { circuit: 1, compiler: 1 }, "m1".into());
        insert_payload(&mut c, CacheKey { circuit: 1, compiler: 2 }, "m2".into());
        assert_eq!(c.get(&CacheKey { circuit: 1, compiler: 1 }).unwrap(), "m1");
        assert_eq!(c.get(&CacheKey { circuit: 1, compiler: 2 }).unwrap(), "m2");
    }
}
