//! Cross-query cache handle for solver entry points: shared `Chr^m`
//! subdivisions plus the task-independent solver state layered on top of
//! them — interned-carrier domain tables *and* propagation plans.
//!
//! A solvability sweep — many `(task, model, parameter)` cells — keeps
//! re-deciding map existence over the *same* iterated subdivisions: every
//! affine task over `n + 1` processes subdivides the standard simplex,
//! every pseudosphere task over the same value set subdivides the same
//! pseudosphere, and a sweep over rounds `m` revisits every stage below
//! `m`. A [`QueryCache`] makes that sharing explicit:
//!
//! * the [`SubdivisionCache`] half caches `Chr^m` complexes keyed by
//!   `(protocol-complex digest, round count)`, extending cached lower
//!   stages instead of rebuilding (see [`gact_chromatic::cache`]);
//! * the [`DomainTables`] half caches, under the same key, the solver's
//!   task-independent setup — dense renumbering, interned carrier table,
//!   constraint lists — so a query against a cached domain only compiles
//!   its per-task `Δ` tables, propagates, and searches;
//! * the [`PropagationPlan`] half caches, still under the same key, the
//!   propagate layer's constraint-class schedule (see
//!   [`crate::solver::propagate`]), so the class grouping of a domain is
//!   computed once per `(complex, round)` for the whole sweep.
//!
//! All three layers are [`LruMap`]s, bounded with least-recently-used
//! eviction — construct with [`QueryCache::with_capacity`] (entries per
//! layer; the default cache is unbounded) — that
//! surface hit/miss/eviction counters ([`QueryCache::table_stats`],
//! [`QueryCache::plan_stats`], [`SubdivisionCache::stats`]) that the
//! `scenarios --json` report exports.
//!
//! ## Concurrency
//!
//! Only the Proposition 9.2 witness slot ([`QueryCache::lt_showcase`]) is
//! held across a build: its per-key [`OnceLock`] builds each witness at
//! most once, and a concurrent caller blocks until it is ready. The three
//! bounded layers hold no lock while they build, so when more than one
//! thread runs, two cold misses on one key may both build it; the first
//! insert wins and each extra build counts as a miss. At one thread the
//! counters are unchanged.
//!
//! [`crate::act::act_solve_controlled`] is the cache-aware solvability
//! entry point; its verdicts against a shared warm cache are
//! byte-identical to the one-shot [`crate::act::act_solve`] (which runs
//! it on a throwaway cache) for every input and thread count (pinned by
//! the cache regression tests).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use gact_chromatic::cache::LruMap;
use gact_chromatic::{
    complex_cache_key, CacheStats, ChromaticComplex, ChromaticSubdivision, ComplexKey,
    SubdivisionCache,
};
use gact_topology::Geometry;

use crate::lt::{build_lt_showcase, LtShowcase};
use crate::solver::{prepare_domain, prepare_plan, DomainTables, PropagationPlan};

/// Memo key of a Proposition 9.2 witness: `(n, t, extra_stages)`.
type ShowcaseKey = (usize, usize, usize);
/// Memoized witness (or its deterministic construction error).
type ShowcaseResult = Result<Arc<LtShowcase>, String>;
/// A witness slot, filled at most once.
type ShowcaseSlot = Arc<OnceLock<ShowcaseResult>>;

/// A shared cache handle threaded through solvability queries in a sweep.
///
/// Thread-safe; a single instance is meant to be shared by every query of
/// a batch (the scenario-matrix driver passes one to all its cells).
///
/// # Examples
///
/// ```
/// use gact::cache::QueryCache;
/// use gact::{act_solve_controlled, SolveControl};
/// use gact_tasks::affine::full_subdivision_task;
///
/// let cache = QueryCache::new();
/// let at = full_subdivision_task(1, 1);
/// let solvable = |cache: &QueryCache| {
///     act_solve_controlled(&at.task, 1, cache, &SolveControl::new())
///         .verdict()
///         .is_some_and(|v| v.is_solvable())
/// };
/// // First query builds Chr^0 and Chr^1 of the edge; a repeat is all hits.
/// assert!(solvable(&cache));
/// assert!(solvable(&cache));
/// assert!(cache.subdivisions().stats().hits > 0);
/// ```
#[derive(Debug)]
pub struct QueryCache {
    subdivisions: SubdivisionCache,
    tables: LruMap<(ComplexKey, usize), Arc<DomainTables>>,
    plans: LruMap<(ComplexKey, usize), Arc<PropagationPlan>>,
    /// Memoized Proposition 9.2 witnesses keyed by `(n, t, extra_stages)`
    /// — the single most expensive construction a sweep runs, shared by
    /// every certificate cell that needs the same witness. (Unbounded:
    /// the witness grid the scenarios exercise is tiny.)
    showcases: Mutex<HashMap<ShowcaseKey, ShowcaseSlot>>,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::with_capacity(usize::MAX)
    }
}

impl QueryCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        QueryCache::default()
    }

    /// Creates an empty cache whose subdivision, domain-table and
    /// propagation-plan layers each hold at most `capacity` entries,
    /// evicting least-recently-used entries beyond that.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        QueryCache {
            subdivisions: SubdivisionCache::with_capacity(capacity),
            tables: LruMap::new(capacity),
            plans: LruMap::new(capacity),
            showcases: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying subdivision cache (for stats or direct `Chr^m`
    /// queries).
    pub fn subdivisions(&self) -> &SubdivisionCache {
        &self.subdivisions
    }

    /// Structural key of a base complex — hash once when sweeping many
    /// rounds of the same complex.
    pub fn key_of(&self, c: &ChromaticComplex, g: &Geometry) -> ComplexKey {
        complex_cache_key(c, g)
    }

    /// `Chr^m` of `(c, g)`, shared across queries (see
    /// [`SubdivisionCache::chr_iter`]).
    pub fn subdivision(
        &self,
        c: &ChromaticComplex,
        g: &Geometry,
        m: usize,
    ) -> Arc<ChromaticSubdivision> {
        self.subdivisions.chr_iter(c, g, m)
    }

    /// [`QueryCache::subdivision`] with a precomputed key.
    pub fn subdivision_keyed(
        &self,
        key: ComplexKey,
        c: &ChromaticComplex,
        g: &Geometry,
        m: usize,
    ) -> Arc<ChromaticSubdivision> {
        self.subdivisions.chr_iter_keyed(key, c, g, m)
    }

    /// The task-independent [`DomainTables`] of `Chr^m` of the keyed base
    /// complex, cached per `(key, m)` and shared by every task queried
    /// against that domain.
    pub fn domain_tables(
        &self,
        key: ComplexKey,
        m: usize,
        sd: &ChromaticSubdivision,
    ) -> Arc<DomainTables> {
        self.tables.get_or_build(&(key, m), || {
            Arc::new(prepare_domain(&sd.complex, &sd.vertex_carrier))
        })
    }

    /// The task-independent [`PropagationPlan`] of `Chr^m` of the keyed
    /// base complex — the propagate layer's constraint-class schedule —
    /// cached per `(key, m)` alongside the domain tables and shared by
    /// every task queried against that domain.
    pub fn propagation_plan(
        &self,
        key: ComplexKey,
        m: usize,
        tables: &DomainTables,
        sd: &ChromaticSubdivision,
    ) -> Arc<PropagationPlan> {
        self.plans
            .get_or_build(&(key, m), || Arc::new(prepare_plan(tables, &sd.complex)))
    }

    /// The Proposition 9.2 witness for `(n, t)` with `extra_stages`
    /// stabilization bands (see [`build_lt_showcase`]), built at most once
    /// per cache and shared — a scenario sweep typically verifies the same
    /// certificate against several models (combinatorial and geometric
    /// `Res_t`), and this construction dominates the sweep's wall time.
    ///
    /// # Errors
    ///
    /// Propagates (and memoizes) [`build_lt_showcase`]'s error, which is
    /// deterministic for given parameters.
    pub fn lt_showcase(&self, n: usize, t: usize, extra_stages: usize) -> ShowcaseResult {
        let slot = self
            .showcases
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry((n, t, extra_stages))
            .or_default()
            .clone();
        slot.get_or_init(|| build_lt_showcase(n, t, extra_stages).map(Arc::new))
            .clone()
    }

    /// Hit/miss/eviction counters of the domain-tables layer (the
    /// subdivision layer reports its own via [`SubdivisionCache::stats`]).
    pub fn table_stats(&self) -> CacheStats {
        self.tables.stats()
    }

    /// Hit/miss/eviction counters of the propagation-plan layer.
    pub fn plan_stats(&self) -> CacheStats {
        self.plans.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gact_chromatic::{chr_iter, standard_simplex};
    use std::sync::Barrier;

    #[test]
    fn domain_tables_are_shared_per_key() {
        let (s, g) = standard_simplex(1);
        let cache = QueryCache::new();
        let key = cache.key_of(&s, &g);
        let sd = cache.subdivision_keyed(key, &s, &g, 1);
        let t1 = cache.domain_tables(key, 1, &sd);
        let t2 = cache.domain_tables(key, 1, &sd);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(
            cache.table_stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn propagation_plans_are_shared_per_key() {
        let (s, g) = standard_simplex(1);
        let cache = QueryCache::new();
        let key = cache.key_of(&s, &g);
        let sd = cache.subdivision_keyed(key, &s, &g, 1);
        let t = cache.domain_tables(key, 1, &sd);
        let p1 = cache.propagation_plan(key, 1, &t, &sd);
        let p2 = cache.propagation_plan(key, 1, &t, &sd);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.plan_stats().hits, 1);
        assert_eq!(cache.plan_stats().misses, 1);
    }

    #[test]
    fn lru_capacity_bounds_solver_layers() {
        let (s, g) = standard_simplex(1);
        let cache = QueryCache::with_capacity(1);
        let key = cache.key_of(&s, &g);
        for m in 0..3usize {
            let sd = cache.subdivision_keyed(key, &s, &g, m);
            let _ = cache.domain_tables(key, m, &sd);
        }
        // Three distinct (key, m) entries through a capacity-1 layer:
        // at least two evictions, and re-asking for an evicted entry is a
        // rebuild (miss), not corruption.
        assert!(cache.table_stats().evictions >= 2);
        let sd = cache.subdivision_keyed(key, &s, &g, 0);
        let t = cache.domain_tables(key, 0, &sd);
        assert_eq!(t.vertex_count(), 2);
    }

    #[test]
    fn racing_builders_share_one_value_per_key() {
        // Two threads ask for the same cold keys at once. The witness slot
        // makes the second caller wait for the first build; the bounded
        // layers may build twice, but the first insert wins.
        let (s, g) = standard_simplex(2);
        let cache = QueryCache::with_capacity(16);
        let key = cache.key_of(&s, &g);
        let barrier = Barrier::new(2);
        let ask = || {
            barrier.wait();
            let witness = cache.lt_showcase(1, 1, 0).expect("witness");
            let sd = cache.subdivision_keyed(key, &s, &g, 2);
            let tables = cache.domain_tables(key, 2, &sd);
            let plan = cache.propagation_plan(key, 2, &tables, &sd);
            (witness, sd, tables, plan)
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(ask);
            let b = scope.spawn(ask);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert!(Arc::ptr_eq(&a.1, &b.1));
        assert!(Arc::ptr_eq(&a.2, &b.2));
        assert!(Arc::ptr_eq(&a.3, &b.3));
        let cold = chr_iter(&s, &g, 2);
        assert_eq!(a.1.complex.complex(), cold.complex.complex());
        assert_eq!(a.1.vertex_carrier, cold.vertex_carrier);
        assert_eq!(a.1.key_index, cold.key_index);
    }
}
