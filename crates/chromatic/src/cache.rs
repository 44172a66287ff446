//! Cross-query subdivision cache: `Chr^m` complexes keyed by
//! (base-complex id, round count) and shared across solvability queries.
//!
//! Every GACT-style query subdivides its protocol complex — `chr_iter`
//! grows as `fubini(n+1)^m` facets, so rebuilding `Chr^m` per query is the
//! dominant cost of any sweep over rounds `m`, over tasks on the same
//! input complex, or over model parameters. The cache removes that
//! redundancy twice over:
//!
//! * **across queries** — the first query for a given `(complex, m)` pays
//!   for the subdivision; every later query on the same base complex gets
//!   the shared [`Arc`] back;
//! * **across rounds** — a miss at round `m` does *not* start from
//!   scratch: the deepest cached `Chr^j` (`j < m`) of the same base is
//!   extended stepwise with [`crate::chr::chr_step`], and each intermediate stage is
//!   cached too; the per-stage [`StageLineage`] (the carrier of every
//!   new vertex in the stage that was subdivided) is derived on demand
//!   from a cached stage's key index — see
//!   [`SubdivisionCache::stage_lineage`]. Because
//!   [`crate::chr::chr_iter`] itself is `m` applications of `chr_step`
//!   from [`chr_identity`], the extension is structurally identical to a
//!   cold construction — same vertex ids, same facet tables, bit-identical
//!   coordinates (pinned by the cache regression tests).
//!
//! ## Bounded memory
//!
//! A long sweep over many base complexes would otherwise grow the entry
//! map without limit, so the cache is capacity-bounded with
//! least-recently-used eviction: construct with
//! [`SubdivisionCache::with_capacity`] (entries per cache; the default
//! cache is unbounded).
//! Eviction only ever discards *shared, reconstructible* state — a later
//! query for an evicted stage rebuilds it (structurally identically) from
//! the deepest surviving stage — and is surfaced by the `evictions`
//! counter of [`CacheStats`]. The stage table is an [`LruMap`].
//!
//! ## Concurrency
//!
//! No lock is held while a stage is built. Two threads that miss the same
//! stage at once may both build it; the first insert wins, every caller
//! gets that one [`Arc`], and each build counts as a miss. At one thread
//! nothing is ever built twice, so the counters are exact.
//!
//! Base complexes are identified by a structural digest
//! ([`complex_cache_key`]) of facets, colors, and coordinate bits — two
//! independent 64-bit FNV-1a streams, so a collision would need both
//! halves of a 128-bit fingerprint to agree on structurally different
//! complexes.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use gact_topology::Geometry;

use crate::chr::{chr_identity, chr_step, ChromaticSubdivision, StageLineage};
use crate::complex::ChromaticComplex;

/// Structural identity of a base (protocol) complex, as used by
/// [`SubdivisionCache`] keys: a 128-bit digest of the facet tables, the
/// coloring, and the geometry's coordinate bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComplexKey(u64, u64);

/// One 64-bit FNV-1a stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new(offset: u64) -> Self {
        Fnv(offset)
    }
    fn write_u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Computes the structural cache key of a chromatic complex with geometry.
///
/// The digest covers, in deterministic order: the ambient dimension, every
/// facet's vertex ids (facet tables are canonically ordered), every
/// vertex's color, and every vertex's coordinate bits. Two calls on
/// structurally equal inputs always agree; structurally different inputs
/// collide only if two independent 64-bit FNV-1a streams both collide.
pub fn complex_cache_key(c: &ChromaticComplex, g: &Geometry) -> ComplexKey {
    let mut a = Fnv::new(0xcbf2_9ce4_8422_2325);
    let mut b = Fnv::new(0x6c62_272e_07bb_0142);
    let mut write = |x: u64| {
        a.write_u64(x);
        b.write_u64(x);
    };
    write(g.ambient_dim() as u64);
    for facet in c.complex().facets() {
        write(0xface_7000 | facet.card() as u64);
        for v in facet.iter() {
            write(v.0 as u64);
        }
    }
    for v in c.complex().vertex_set() {
        write(0xc0_1000 | c.color(v).0 as u64);
        if let Some(p) = g.get(v) {
            for &x in p {
                write(x.to_bits());
            }
        }
    }
    ComplexKey(a.0, b.0)
}

/// Hit/miss/eviction counters of an [`LruMap`] (every bounded cache
/// layer: subdivision stages, domain tables, propagation plans).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to build (or extend to) a new entry.
    pub misses: u64,
    /// Entries discarded by the capacity bound (least-recently-used
    /// first); zero for unbounded caches.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; zero when nothing was queried.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A capacity-bounded map with least-recently-used eviction and
/// hit/miss/eviction counters — the one cache primitive behind every
/// bounded layer of the workspace (this crate's [`SubdivisionCache`]
/// stages and `gact-core`'s domain-table and propagation-plan layers).
///
/// Values are cheap handles (typically [`Arc`]s). The mutex is held only
/// to probe or insert, never while a value is built: two threads that
/// miss the same key concurrently may both build it, the first insert
/// wins, and both get the winner back (each build counts as a miss).
///
/// # Examples
///
/// ```
/// use gact_chromatic::cache::LruMap;
///
/// let map = LruMap::new(1);
/// assert_eq!(map.get_or_build(&"a", || 1), 1);
/// assert_eq!(map.get_or_build(&"a", || 2), 1); // hit: not rebuilt
/// assert_eq!(map.get_or_build(&"b", || 3), 3); // evicts "a"
/// assert_eq!(map.probe(&"a"), None);
/// let stats = map.stats();
/// assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 1));
/// ```
#[derive(Debug)]
pub struct LruMap<K, V> {
    /// Value and recency stamp per key.
    entries: Mutex<HashMap<K, (V, u64)>>,
    capacity: usize,
    /// Monotone recency clock (bumped on every probe and insert).
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruMap<K, V> {
    /// Creates an empty map holding at most `capacity` entries
    /// (`usize::MAX` means unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        LruMap {
            entries: Mutex::new(HashMap::new()),
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, (V, u64)>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The cached value for `key`, refreshing its recency (no counters).
    pub fn probe(&self, key: &K) -> Option<V> {
        let mut entries = self.lock();
        let stamp = self.tick();
        entries.get_mut(key).map(|(v, s)| {
            *s = stamp;
            v.clone()
        })
    }

    /// Inserts `value` unless `key` is already cached, and returns the
    /// value that ends up cached (first insert wins, so racing builders
    /// share one value). Evicts least-recently-used entries other than
    /// `key` beyond the capacity bound.
    pub fn insert(&self, key: K, value: V) -> V {
        let mut entries = self.lock();
        let stamp = self.tick();
        let shared = entries
            .entry(key.clone())
            .or_insert((value, stamp))
            .0
            .clone();
        while entries.len() > self.capacity {
            let victim = entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, (_, s))| *s)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shared
    }

    /// The cached value for `key` (a hit), or `build()` inserted with
    /// [`LruMap::insert`] (a miss). No lock is held while `build` runs.
    pub fn get_or_build(&self, key: &K, build: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.probe(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.insert(key.clone(), build())
    }

    /// The configured capacity (entries; `usize::MAX` means unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Hit/miss/eviction counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A shared, capacity-bounded cache of iterated chromatic subdivisions,
/// keyed by `(base-complex digest, round count)`.
///
/// Thread-safe: no lock is held while a stage is built (see the module
/// docs on concurrency).
///
/// # Examples
///
/// ```
/// use gact_chromatic::{standard_simplex, SubdivisionCache};
///
/// let (s, g) = standard_simplex(2);
/// let cache = SubdivisionCache::new();
/// let sd2 = cache.chr_iter(&s, &g, 2);     // builds Chr^1 and Chr^2
/// let again = cache.chr_iter(&s, &g, 2);   // shared, no rebuild
/// assert!(std::sync::Arc::ptr_eq(&sd2, &again));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct SubdivisionCache {
    stages: LruMap<(ComplexKey, usize), Arc<ChromaticSubdivision>>,
}

impl Default for SubdivisionCache {
    fn default() -> Self {
        SubdivisionCache::with_capacity(usize::MAX)
    }
}

impl SubdivisionCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        SubdivisionCache::default()
    }

    /// Creates an empty cache holding at most `capacity` stages, evicting
    /// least-recently-used entries beyond that.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        SubdivisionCache {
            stages: LruMap::new(capacity),
        }
    }

    /// The configured capacity (entries; `usize::MAX` means unbounded).
    pub fn capacity(&self) -> usize {
        self.stages.capacity()
    }

    /// `Chr^m` of `(c, g)`, shared: returns the cached subdivision when the
    /// key is present, otherwise extends the deepest cached stage of the
    /// same base (or `Chr^0`) with [`chr_step`],
    /// caching every intermediate stage along the way. The result is
    /// structurally identical to [`crate::chr::chr_iter`]`(c, g, m)` for
    /// every `m`.
    pub fn chr_iter(
        &self,
        c: &ChromaticComplex,
        g: &Geometry,
        m: usize,
    ) -> Arc<ChromaticSubdivision> {
        let key = complex_cache_key(c, g);
        self.chr_iter_keyed(key, c, g, m)
    }

    /// [`SubdivisionCache::chr_iter`] with a precomputed [`ComplexKey`]
    /// (callers sweeping many rounds of the same base complex can hash it
    /// once).
    pub fn chr_iter_keyed(
        &self,
        key: ComplexKey,
        c: &ChromaticComplex,
        g: &Geometry,
        m: usize,
    ) -> Arc<ChromaticSubdivision> {
        self.stages.get_or_build(&(key, m), || {
            // Extend the deepest cached stage strictly below m.
            let (mut stage, mut current) = (0..m)
                .rev()
                .find_map(|j| self.stages.probe(&(key, j)).map(|sd| (j, sd)))
                .unwrap_or_else(|| (0, Arc::new(chr_identity(c, g))));
            while stage < m {
                // Caches every stage below m (the found one is a no-op).
                current = self.stages.insert((key, stage), current);
                current = Arc::new(chr_step(&current));
                stage += 1;
            }
            current
        })
    }

    /// The carrier lineage of stage `m` relative to stage `m − 1`: for
    /// every vertex of `Chr^m`, its carrier in the `Chr^{m−1}` complex
    /// that was subdivided (persisted vertices carry their own
    /// singleton). Derived on demand from the cached stage's `key_index`
    /// — a subdivision vertex keyed `(p, seen)` sits in the interior of
    /// `seen`, its carrier before [`crate::chr::chr_step`] composes it back
    /// to the base — so nothing extra is stored per stage. `None` for
    /// `m = 0` (nothing was subdivided) or for stages not currently
    /// cached (evicted or never built).
    pub fn stage_lineage(&self, key: ComplexKey, m: usize) -> Option<Arc<StageLineage>> {
        if m == 0 {
            return None;
        }
        let sd = self.stages.probe(&(key, m))?;
        Some(Arc::new(
            sd.key_index
                .iter()
                .map(|((_, seen), &v)| (v, seen.clone()))
                .collect(),
        ))
    }

    /// Number of cached `(complex, round)` entries.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stages.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chr::chr_iter;
    use crate::standard::standard_simplex;

    #[test]
    fn cache_key_is_structural() {
        let (s, g) = standard_simplex(2);
        let (s2, g2) = standard_simplex(2);
        assert_eq!(complex_cache_key(&s, &g), complex_cache_key(&s2, &g2));
        let (s1, g1) = standard_simplex(1);
        assert_ne!(complex_cache_key(&s, &g), complex_cache_key(&s1, &g1));
    }

    #[test]
    fn cached_matches_direct_construction() {
        let (s, g) = standard_simplex(2);
        let cache = SubdivisionCache::new();
        for m in 0..=2 {
            let cached = cache.chr_iter(&s, &g, m);
            let direct = chr_iter(&s, &g, m);
            assert_eq!(cached.complex.complex(), direct.complex.complex());
            assert_eq!(cached.vertex_carrier, direct.vertex_carrier);
            assert_eq!(cached.key_index, direct.key_index);
        }
    }

    #[test]
    fn incremental_extension_hits_lower_stages() {
        let (s, g) = standard_simplex(2);
        let cache = SubdivisionCache::new();
        let _ = cache.chr_iter(&s, &g, 1);
        assert_eq!(cache.stats().misses, 1);
        // Extending to m=2 reuses the cached Chr^1 (one miss, no rebuild of
        // stage 1), and re-asking for m∈{1,2} is pure hits.
        let _ = cache.chr_iter(&s, &g, 2);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
        let _ = cache.chr_iter(&s, &g, 1);
        let _ = cache.chr_iter(&s, &g, 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 2, 0));
        // Entries: Chr^0, Chr^1, Chr^2.
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn stage_lineage_composes_to_base_carriers() {
        // The lineage of stage m (carriers in Chr^{m−1}) composed with
        // stage m−1's base carriers must reproduce stage m's base
        // carriers — the identity the incremental consumers rely on.
        let (s, g) = standard_simplex(2);
        let cache = SubdivisionCache::new();
        let key = complex_cache_key(&s, &g);
        let sd1 = cache.chr_iter(&s, &g, 1);
        let sd2 = cache.chr_iter(&s, &g, 2);
        let lineage = cache.stage_lineage(key, 2).expect("stage 2 lineage");
        assert!(cache.stage_lineage(key, 0).is_none());
        // Every vertex of Chr^2 has a lineage, and the key index names one
        // `seen` per vertex: the lineage is exactly that `seen`.
        assert_eq!(lineage.len(), sd2.complex.complex().vertex_set().len());
        for ((_, seen), v) in &sd2.key_index {
            assert_eq!(&lineage[v], seen, "vertex {v:?}");
        }
        for (v, mid) in lineage.iter() {
            let composed = {
                let mut it = mid.iter();
                let mut acc = sd1.vertex_carrier[&it.next().unwrap()].clone();
                for w in it {
                    acc = acc.union(&sd1.vertex_carrier[&w]);
                }
                acc
            };
            assert_eq!(composed, sd2.vertex_carrier[v], "vertex {v:?}");
        }
        // Persisted vertices (all of Chr^1's) have singleton lineage.
        for v in sd1.complex.complex().vertex_set() {
            assert_eq!(lineage[&v], gact_topology::Simplex::vertex(v));
        }
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let (s, g) = standard_simplex(1);
        let cache = SubdivisionCache::with_capacity(2);
        let _ = cache.chr_iter(&s, &g, 2); // builds Chr^0, Chr^1, Chr^2
        assert!(cache.len() <= 2, "capacity bound enforced");
        assert!(cache.stats().evictions >= 1);
        // Evicted stages rebuild structurally identically.
        let direct = chr_iter(&s, &g, 1);
        let again = cache.chr_iter(&s, &g, 1);
        assert_eq!(again.complex.complex(), direct.complex.complex());
        assert_eq!(again.vertex_carrier, direct.vertex_carrier);
    }
}
