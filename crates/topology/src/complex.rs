//! Simplicial complexes, stored by their *facets* (maximal simplices).
//!
//! This matches the paper's §3.1 definition — a collection `C` of finite
//! non-empty vertex sets closed under taking non-empty subsets — but the
//! representation no longer materializes the closure eagerly. A complex
//! keeps:
//!
//! * **dimension-indexed facet tables**: for each dimension `d`, the ids of
//!   the current facets of dimension `d`, sorted by vertex sequence;
//! * an **interned-id store**: every facet is interned in an append-only
//!   store, so a facet inside the complex is a `u32` key and the tables
//!   and indexes below hold integers, not simplices;
//! * a **coface adjacency index**: for each vertex, the ids of the live
//!   facets containing it — general membership (`σ ∈ C` iff `σ ⊆ f` for
//!   some facet `f`) probes the shortest adjacency list of `σ`'s vertices
//!   instead of hashing into a materialized closure;
//! * a **lazily built closure cache** for the operations that genuinely
//!   enumerate all simplices (`iter`, `simplex_count`, Euler
//!   characteristic, …). The cache is built at most once per mutation
//!   epoch and invalidated by `insert`.
//!
//! ## Building
//!
//! Every constructor that starts from a list of simplices
//! ([`Complex::from_facets`], and through it `skeleton`, `induced`,
//! `union`, `link`, …) is one bulk pass: the list is sorted largest
//! cardinality first, and a simplex is appended as a facet unless the
//! membership probe finds it inside one already kept. A simplex can only
//! be a face of a larger (or equal) one, which is always considered
//! first, so no kept facet is ever absorbed later: the pass never removes
//! a facet, never merges cofacet lists and never shifts a sorted table.
//! [`Complex::insert`] remains the incremental single addition (it may
//! absorb existing facets); both reach the same complex.
//!
//! ## Invariants
//!
//! * The facet tables contain exactly the maximal simplices: `insert`
//!   drops an incoming simplex that is already a face of a facet and
//!   removes previous facets absorbed by the newcomer, and the bulk pass
//!   keeps only simplices not covered by a kept facet, so no table entry
//!   is a face of another.
//! * Each per-dimension table is sorted by the simplex's vertex sequence;
//!   equality of complexes is equality of facet tables (facets determine
//!   the closure, so this coincides with the old closure-set equality).
//! * The adjacency index covers exactly the live facets, and its key set is
//!   exactly the vertex set of the complex (absorbing a facet cannot
//!   orphan a vertex: the absorbed facet's vertices are vertices of the
//!   absorbing simplex).
//!
//! The deepest iterated chromatic subdivisions used by the benchmarks have
//! on the order of `10^4` facets and `10^5` closure simplices; facet
//! queries (`facets`, `count_of_dim` at top dimension, `chr`'s facet loop)
//! are now O(facets) instead of O(closure²).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

use crate::simplex::{Simplex, VertexId};

/// Lazily materialized face closure, grouped and sorted per dimension.
#[derive(Debug, Default)]
struct Closure {
    by_dim: Vec<Vec<Simplex>>,
    total: usize,
}

/// A finite simplicial complex: a face-closed set of simplices, stored by
/// its facets.
///
/// ```
/// use gact_topology::{Complex, Simplex};
/// let c = Complex::from_facets([Simplex::from_iter([0u32, 1, 2])]);
/// assert_eq!(c.dim(), Some(2));
/// assert_eq!(c.simplex_count(), 7);
/// assert!(c.is_pure());
/// ```
#[derive(Default)]
pub struct Complex {
    /// Interning store: facet id -> simplex. Append-only; entries of
    /// absorbed facets stay behind (they are rare and tiny) so ids are
    /// stable.
    store: Vec<Simplex>,
    /// `tables[d]`: ids of the live facets of dimension `d`, sorted by
    /// vertex sequence.
    tables: Vec<Vec<u32>>,
    /// `cofacets[v.0]`: ids of the live facets containing `v` — the
    /// membership index. A vertex belongs to the complex iff its list is
    /// non-empty.
    cofacets: Vec<Vec<u32>>,
    /// Number of vertices (non-empty cofacet lists).
    n_vertices: usize,
    /// Lazily built face closure (reset on mutation).
    closure: OnceLock<Closure>,
}

impl Clone for Complex {
    fn clone(&self) -> Self {
        Complex {
            store: self.store.clone(),
            tables: self.tables.clone(),
            cofacets: self.cofacets.clone(),
            n_vertices: self.n_vertices,
            // The closure cache is cheap to rebuild and often unneeded by
            // the clone; start it empty.
            closure: OnceLock::new(),
        }
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Complex")
            .field("dim", &self.dim())
            .field("facets", &self.facets())
            .finish()
    }
}

impl PartialEq for Complex {
    fn eq(&self, other: &Self) -> bool {
        // Facets determine the closure, and the per-dimension tables are
        // sorted, so elementwise comparison decides equality.
        let d = self.tables.iter().rposition(|t| !t.is_empty());
        if d != other.tables.iter().rposition(|t| !t.is_empty()) {
            return false;
        }
        let Some(d) = d else { return true };
        for k in 0..=d {
            let a = self.tables.get(k).map(Vec::as_slice).unwrap_or(&[]);
            let b = other.tables.get(k).map(Vec::as_slice).unwrap_or(&[]);
            if a.len() != b.len() {
                return false;
            }
            for (&x, &y) in a.iter().zip(b) {
                if self.store[x as usize] != other.store[y as usize] {
                    return false;
                }
            }
        }
        true
    }
}
impl Eq for Complex {}

impl Complex {
    /// Largest accepted vertex id. The coface membership index is a
    /// vertex-indexed table, so its size is proportional to the largest id
    /// (~24 bytes per slot: 16M ids ≈ 384 MB worst case); ids in this
    /// workspace are allocated densely from zero, far below this. Inserting
    /// a larger id panics with a clear message instead of attempting a
    /// multi-gigabyte allocation.
    pub const MAX_VERTEX_ID: u32 = (1 << 24) - 1;

    /// The empty complex.
    pub fn new() -> Self {
        Complex::default()
    }

    /// Builds the complex generated by the given simplices (their face
    /// closure) in one bulk pass.
    ///
    /// The input may contain duplicates and faces of other input simplices,
    /// in any order; the result is the same complex a left fold of
    /// [`Complex::insert`] builds. The input is ordered largest cardinality
    /// first, so a simplex can only be a face of one already kept: it is
    /// skipped when the membership probe finds it covered and appended
    /// otherwise, and no kept facet is ever absorbed later.
    ///
    /// # Panics
    ///
    /// As [`Complex::insert`].
    pub fn from_facets<I: IntoIterator<Item = Simplex>>(facets: I) -> Self {
        let mut input: Vec<Simplex> = facets.into_iter().collect();
        input.iter().for_each(Self::check_insertable);
        // Largest first; within one cardinality the canonical order, so each
        // dimension table is appended already sorted.
        input.sort_unstable_by(|a, b| b.card().cmp(&a.card()).then_with(|| a.cmp(b)));
        input.dedup();
        let mut c = Complex::new();
        for s in input {
            if !c.contains(&s) {
                c.append_facet(s);
            }
        }
        debug_assert!(c
            .tables
            .iter()
            .all(|t| t.windows(2).all(|w| c.resolve(w[0]) < c.resolve(w[1]))));
        c
    }

    #[inline]
    fn resolve(&self, id: u32) -> &Simplex {
        &self.store[id as usize]
    }

    /// Inserts a simplex together with all its faces (implicitly: the
    /// closure is represented by the facet set).
    ///
    /// # Panics
    ///
    /// Panics if the simplex has more than 28 vertices (its face closure
    /// would not be enumerable — the same bound `Simplex::faces` enforces)
    /// or if a vertex id exceeds [`Complex::MAX_VERTEX_ID`]. The membership
    /// index is a vertex-indexed table, so memory is proportional to the
    /// *largest* vertex id, not the number of vertices; every complex in
    /// this workspace allocates ids densely from zero (see `VertexAlloc`),
    /// and the bound turns a pathological sparse id into a clear panic
    /// instead of a giant allocation.
    pub fn insert(&mut self, s: Simplex) {
        Self::check_insertable(&s);
        // Candidate facets sharing a vertex with `s`, deduplicated.
        let mut candidates: Vec<u32> = Vec::new();
        for v in s.iter() {
            candidates.extend_from_slice(self.cofacet_ids(v));
        }
        candidates.sort_unstable();
        candidates.dedup();
        // Already present? (`s ⊆ f` for some facet `f`.)
        for &fid in &candidates {
            if s.is_face_of(self.resolve(fid)) {
                return;
            }
        }
        // Remove facets absorbed by `s` (`f ⊊ s`; their vertices are all
        // vertices of `s`, so every such facet is among the candidates).
        for &fid in &candidates {
            if self.resolve(fid).is_face_of(&s) {
                self.remove_facet(fid);
            }
        }
        let d = s.dim();
        let pos = self
            .tables
            .get(d)
            .map_or(0, |t| t.partition_point(|&x| self.store[x as usize] < s));
        self.append_facet(s);
        self.tables[d][pos..].rotate_right(1);
        self.closure.take();
    }

    /// The size limits [`Complex::insert`] documents.
    fn check_insertable(s: &Simplex) {
        assert!(
            s.card() <= 28,
            "face enumeration only supported for small simplices"
        );
        let max_v = s.vertices().last().expect("non-empty").0;
        assert!(
            max_v <= Self::MAX_VERTEX_ID,
            "vertex ids must be (near-)densely allocated: id {max_v} exceeds \
             MAX_VERTEX_ID ({}) for the vertex-indexed membership tables",
            Self::MAX_VERTEX_ID
        );
    }

    /// Registers `s` as a live facet: interns it, appends its id to the end
    /// of its dimension table and to its vertices' cofacet lists. The
    /// caller keeps the table sorted and the facet set maximal.
    fn append_facet(&mut self, s: Simplex) {
        let id = u32::try_from(self.store.len()).expect("complex store overflow");
        let d = s.dim();
        if self.tables.len() <= d {
            self.tables.resize_with(d + 1, Vec::new);
        }
        self.tables[d].push(id);
        let max_v = s.vertices().last().expect("non-empty").0 as usize;
        if self.cofacets.len() <= max_v {
            self.cofacets.resize_with(max_v + 1, Vec::new);
        }
        for v in s.iter() {
            let list = &mut self.cofacets[v.0 as usize];
            if list.is_empty() {
                self.n_vertices += 1;
            }
            list.push(id);
        }
        self.store.push(s);
    }

    fn remove_facet(&mut self, fid: u32) {
        let s = self.resolve(fid).clone();
        let d = s.dim();
        let table = &mut self.tables[d];
        let pos = table.partition_point(|&x| self.store[x as usize] < s);
        debug_assert_eq!(table.get(pos), Some(&fid));
        table.remove(pos);
        for v in s.iter() {
            let list = &mut self.cofacets[v.0 as usize];
            list.retain(|&x| x != fid);
            if list.is_empty() {
                self.n_vertices -= 1;
            }
        }
        self.closure.take();
    }

    /// Whether the complex contains no simplex.
    pub fn is_empty(&self) -> bool {
        self.n_vertices == 0
    }

    /// The ids of the live facets containing `v` (coface adjacency), empty
    /// when `v` is not a vertex of the complex.
    #[inline]
    fn cofacet_ids(&self, v: VertexId) -> &[u32] {
        self.cofacets
            .get(v.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The live facets having `s` as a face, as ids. Probes the shortest
    /// adjacency list among `s`'s vertices.
    fn facets_containing<'a>(&'a self, s: &'a Simplex) -> impl Iterator<Item = u32> + 'a {
        let probe = s
            .iter()
            .min_by_key(|&v| self.cofacet_ids(v).len())
            .expect("simplices are non-empty");
        self.cofacet_ids(probe)
            .iter()
            .copied()
            .filter(move |&fid| s.is_face_of(self.resolve(fid)))
    }

    /// Membership test: `σ ∈ C` iff `σ` is a face of some facet.
    pub fn contains(&self, s: &Simplex) -> bool {
        self.facets_containing(s).next().is_some()
    }

    /// Whether `v` is a vertex of the complex.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        !self.cofacet_ids(v).is_empty()
    }

    /// The lazily built face closure.
    fn closure(&self) -> &Closure {
        self.closure.get_or_init(|| {
            let dim = match self.tables.iter().rposition(|t| !t.is_empty()) {
                Some(d) => d,
                None => return Closure::default(),
            };
            let mut by_dim: Vec<Vec<Simplex>> = (0..=dim).map(|_| Vec::new()).collect();
            for table in &self.tables {
                for &fid in table {
                    let f = self.resolve(fid);
                    for (d, out) in by_dim.iter_mut().enumerate().take(f.card()) {
                        f.faces_of_dim_into(d, out);
                    }
                }
            }
            for v in &mut by_dim {
                v.sort_unstable();
                v.dedup();
            }
            debug_assert_eq!(by_dim[dim].len(), self.tables[dim].len());
            let total = by_dim.iter().map(Vec::len).sum();
            Closure { by_dim, total }
        })
    }

    /// Total number of simplices (all dimensions).
    pub fn simplex_count(&self) -> usize {
        self.closure().total
    }

    /// Number of simplices of dimension `d`.
    pub fn count_of_dim(&self, d: usize) -> usize {
        // Fast path: every top-dimensional simplex is a facet, so the facet
        // table answers without materializing the closure.
        match self.dim() {
            None => 0,
            Some(top) if d == top => self.tables[d].len(),
            Some(top) if d > top => 0,
            Some(_) => self.closure().by_dim.get(d).map(Vec::len).unwrap_or(0),
        }
    }

    /// Iterates over every simplex (sorted by dimension, then vertex
    /// sequence).
    pub fn iter(&self) -> impl Iterator<Item = &Simplex> {
        self.closure().by_dim.iter().flat_map(|v| v.iter())
    }

    /// Iterates over the simplices of dimension `d`.
    pub fn iter_dim(&self, d: usize) -> impl Iterator<Item = &Simplex> {
        self.closure()
            .by_dim
            .get(d)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
    }

    /// The vertex set, sorted.
    pub fn vertex_set(&self) -> BTreeSet<VertexId> {
        self.cofacets
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, _)| VertexId(i as u32))
            .collect()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n_vertices
    }

    /// Dimension of the complex (`None` when empty).
    pub fn dim(&self) -> Option<usize> {
        self.tables.iter().rposition(|t| !t.is_empty())
    }

    /// The maximal simplices (those that are not proper faces of another
    /// simplex of the complex), sorted for determinism.
    pub fn facets(&self) -> Vec<Simplex> {
        let mut out: Vec<Simplex> = self
            .tables
            .iter()
            .flatten()
            .map(|&id| self.resolve(id).clone())
            .collect();
        out.sort_unstable();
        out
    }

    /// Iterates the facets (maximal simplices) in dimension-table order,
    /// borrowing them — no face-closure materialization, no clones. The
    /// order is deterministic (ascending dimension, then the canonical
    /// sorted order of each table).
    pub fn iter_facets(&self) -> impl Iterator<Item = &Simplex> {
        self.tables
            .iter()
            .flat_map(move |t| t.iter().map(move |&id| self.resolve(id)))
    }

    /// Number of facets (maximal simplices), without materializing them.
    pub fn facet_count(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// Whether the complex is *pure of dimension `n`*: every maximal simplex
    /// has dimension exactly `n` (§3.1).
    pub fn is_pure_of_dim(&self, n: usize) -> bool {
        !self.is_empty()
            && self
                .tables
                .iter()
                .enumerate()
                .all(|(d, t)| d == n || t.is_empty())
    }

    /// Whether the complex is pure of its own dimension. The empty complex
    /// counts as pure (it has no offending facet).
    pub fn is_pure(&self) -> bool {
        match self.dim() {
            None => true,
            Some(n) => self.is_pure_of_dim(n),
        }
    }

    /// The `k`-skeleton: all simplices of dimension ≤ `k` (§3.1).
    pub fn skeleton(&self, k: usize) -> Complex {
        let mut gen = Vec::new();
        for f in self.iter_facets() {
            if f.dim() <= k {
                gen.push(f.clone());
            } else {
                f.faces_of_dim_into(k, &mut gen);
            }
        }
        Complex::from_facets(gen)
    }

    /// The open star of `s`: every simplex having `s` as a face (§3.1).
    /// This is generally *not* a complex.
    pub fn open_star(&self, s: &Simplex) -> Vec<Simplex> {
        let mut out: HashSet<Simplex> = HashSet::new();
        for fid in self.facets_containing(s) {
            let f = self.resolve(fid);
            // Faces of `f` containing `s`: `s ∪ (subset of f \ s)`.
            let rest: Vec<VertexId> = f.iter().filter(|v| !s.contains(*v)).collect();
            assert!(
                rest.len() <= 28,
                "open star only supported for small cofaces"
            );
            for mask in 0u32..(1u32 << rest.len()) {
                let t = Simplex::new(
                    s.iter().chain(
                        rest.iter()
                            .enumerate()
                            .filter_map(|(i, v)| (mask & (1 << i) != 0).then_some(*v)),
                    ),
                );
                out.insert(t);
            }
        }
        out.into_iter().collect()
    }

    /// The closed star of `s`: the smallest subcomplex containing the open
    /// star (§3.1).
    pub fn closed_star(&self, s: &Simplex) -> Complex {
        Complex::from_facets(
            self.facets_containing(s)
                .map(|fid| self.resolve(fid).clone()),
        )
    }

    /// The link of `s` in the standard sense used by Herlihy–Shavit
    /// (Def. 4.14 there, Def. 8.3 in the paper): simplices `t` disjoint from
    /// `s` with `t ∪ s` in the complex.
    ///
    /// For a vertex this coincides with the paper's set-difference
    /// formulation `St(s) \ st(s)`; see [`Complex::deleted_star`] for that
    /// variant on higher-dimensional simplices.
    pub fn link(&self, s: &Simplex) -> Complex {
        // t ∪ s ∈ C iff t ∪ s ⊆ f for a facet f ⊇ s, and then t ⊆ f \ s:
        // the link is generated by the facet differences.
        Complex::from_facets(
            self.facets_containing(s)
                .filter_map(|fid| self.resolve(fid).difference(s)),
        )
    }

    /// The paper's literal `(St s) \ (st s)`: the closed star minus the open
    /// star. Coincides with [`Complex::link`] when `s` is a vertex.
    pub fn deleted_star(&self, s: &Simplex) -> Complex {
        // Maximal simplices of the closed star missing at least one vertex
        // of `s`: each facet `f ⊇ s` minus one vertex of `s`.
        let mut gen: Vec<Simplex> = Vec::new();
        for fid in self.facets_containing(s) {
            let f = self.resolve(fid);
            if f.card() < 2 {
                continue;
            }
            for v in s.iter() {
                gen.push(f.difference(&Simplex::vertex(v)).expect("card ≥ 2"));
            }
        }
        Complex::from_facets(gen)
    }

    /// The subcomplex induced by a set of vertices: all simplices whose
    /// vertices lie in `keep`.
    pub fn induced(&self, keep: &BTreeSet<VertexId>) -> Complex {
        Complex::from_facets(self.iter_facets().filter_map(|f| {
            let kept: Vec<VertexId> = f.iter().filter(|v| keep.contains(v)).collect();
            (!kept.is_empty()).then(|| Simplex::new(kept))
        }))
    }

    /// Union of two complexes.
    pub fn union(&self, other: &Complex) -> Complex {
        Complex::from_facets(self.iter_facets().chain(other.iter_facets()).cloned())
    }

    /// Intersection of two complexes (always a complex): generated by the
    /// pairwise intersections of facets.
    pub fn intersection(&self, other: &Complex) -> Complex {
        Complex::from_facets(
            self.iter_facets()
                .flat_map(|a| other.iter_facets().filter_map(|b| a.intersection(b))),
        )
    }

    /// Whether `self ⊆ other` as sets of simplices.
    pub fn is_subcomplex_of(&self, other: &Complex) -> bool {
        self.tables
            .iter()
            .flatten()
            .all(|&fid| other.contains(self.resolve(fid)))
    }

    /// Euler characteristic `Σ (−1)^d · #{d-simplices}`.
    pub fn euler_characteristic(&self) -> i64 {
        self.closure()
            .by_dim
            .iter()
            .enumerate()
            .map(|(d, v)| {
                if d % 2 == 0 {
                    v.len() as i64
                } else {
                    -(v.len() as i64)
                }
            })
            .sum()
    }

    /// Connected components of the 1-skeleton, as vertex sets. Isolated
    /// vertices form their own components.
    pub fn connected_components(&self) -> Vec<BTreeSet<VertexId>> {
        let vertices: Vec<VertexId> = self.vertex_set().into_iter().collect();
        let mut index = vec![usize::MAX; self.cofacets.len()];
        for (i, v) in vertices.iter().enumerate() {
            index[v.0 as usize] = i;
        }
        let mut uf = UnionFind::new(vertices.len());
        for table in &self.tables {
            for &fid in table {
                let vs = self.resolve(fid).vertices();
                for w in vs.windows(2) {
                    uf.union(index[w[0].0 as usize], index[w[1].0 as usize]);
                }
            }
        }
        let mut comps: HashMap<usize, BTreeSet<VertexId>> = HashMap::new();
        for (i, v) in vertices.iter().enumerate() {
            comps.entry(uf.find(i)).or_default().insert(*v);
        }
        let mut out: Vec<BTreeSet<VertexId>> = comps.into_values().collect();
        out.sort();
        out
    }

    /// Whether the complex is non-empty and path-connected (0-connected in
    /// the weak sense of having one component; see
    /// [`crate::connectivity::is_k_connected`] for the full story).
    pub fn is_connected(&self) -> bool {
        !self.is_empty() && self.connected_components().len() == 1
    }

    /// Whether every vertex belongs to only finitely many simplices. All our
    /// complexes are finite, so this is trivially true; provided for parity
    /// with the paper's "locally finite" hypothesis.
    pub fn is_locally_finite(&self) -> bool {
        true
    }

    /// Relabels every vertex through `f`, which must be injective on the
    /// vertex set.
    ///
    /// # Panics
    ///
    /// Panics if `f` identifies two distinct vertices of some simplex.
    pub fn relabel(&self, f: impl Fn(VertexId) -> VertexId) -> Complex {
        Complex::from_facets(self.iter_facets().map(|s| {
            let t = Simplex::new(s.iter().map(&f));
            assert_eq!(t.card(), s.card(), "relabeling must be injective");
            t
        }))
    }
}

impl FromIterator<Simplex> for Complex {
    fn from_iter<I: IntoIterator<Item = Simplex>>(iter: I) -> Self {
        Complex::from_facets(iter)
    }
}

impl Extend<Simplex> for Complex {
    fn extend<I: IntoIterator<Item = Simplex>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

/// Plain union-find with path compression, used for component labelling.
#[derive(Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// Creates `n` singleton classes.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `x`'s class.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the classes of `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(vs: &[u32]) -> Simplex {
        Simplex::from_iter(vs.iter().copied())
    }

    fn triangle() -> Complex {
        Complex::from_facets([s(&[0, 1, 2])])
    }

    #[test]
    fn closure_is_maintained() {
        let c = triangle();
        assert_eq!(c.simplex_count(), 7);
        assert!(c.contains(&s(&[0, 1])));
        assert!(c.contains(&s(&[2])));
        assert!(!c.contains(&s(&[0, 3])));
    }

    #[test]
    fn facets_and_purity() {
        let mut c = triangle();
        assert_eq!(c.facets(), vec![s(&[0, 1, 2])]);
        assert!(c.is_pure_of_dim(2));
        c.insert(s(&[3, 4]));
        let f = c.facets();
        assert_eq!(f.len(), 2);
        assert!(!c.is_pure());
        assert!(!c.is_pure_of_dim(2));
    }

    #[test]
    fn insert_absorbs_faces_and_is_absorbed() {
        let mut c = Complex::new();
        c.insert(s(&[0, 1]));
        c.insert(s(&[1]));
        assert_eq!(c.facet_count(), 1, "face of a facet is absorbed");
        c.insert(s(&[0, 1, 2]));
        assert_eq!(c.facets(), vec![s(&[0, 1, 2])]);
        // Re-inserting an absorbed facet is a no-op.
        c.insert(s(&[0, 1]));
        assert_eq!(c.facets(), vec![s(&[0, 1, 2])]);
        assert_eq!(c.simplex_count(), 7);
    }

    #[test]
    fn skeleton_counts() {
        let c = triangle();
        let sk1 = c.skeleton(1);
        assert_eq!(sk1.dim(), Some(1));
        assert_eq!(sk1.simplex_count(), 6);
        assert_eq!(c.skeleton(0).simplex_count(), 3);
    }

    #[test]
    fn stars_and_links_of_vertex() {
        let c = triangle();
        let v = s(&[0]);
        let star = c.open_star(&v);
        assert_eq!(star.len(), 4); // {0},{01},{02},{012}
        let cs = c.closed_star(&v);
        assert_eq!(cs.simplex_count(), 7); // whole triangle
        let lk = c.link(&v);
        assert_eq!(lk.facets(), vec![s(&[1, 2])]);
        // For vertices, link == deleted star (paper's formulation).
        assert_eq!(lk, c.deleted_star(&v));
    }

    #[test]
    fn link_of_edge() {
        let c = Complex::from_facets([s(&[0, 1, 2]), s(&[0, 1, 3])]);
        let lk = c.link(&s(&[0, 1]));
        let mut vs: Vec<Simplex> = lk.iter().cloned().collect();
        vs.sort();
        assert_eq!(vs, vec![s(&[2]), s(&[3])]);
        assert!(!lk.is_connected());
    }

    #[test]
    fn components_and_connectivity() {
        let mut c = triangle();
        assert!(c.is_connected());
        c.insert(s(&[7]));
        assert_eq!(c.connected_components().len(), 2);
        assert!(!c.is_connected());
        assert!(!Complex::new().is_connected());
    }

    #[test]
    fn euler_characteristic_of_disk_and_circle() {
        let disk = triangle();
        assert_eq!(disk.euler_characteristic(), 1);
        let circle = Complex::from_facets([s(&[0, 1]), s(&[1, 2]), s(&[0, 2])]);
        assert_eq!(circle.euler_characteristic(), 0);
    }

    #[test]
    fn induced_subcomplex() {
        let c = triangle();
        let keep: BTreeSet<VertexId> = [VertexId(0), VertexId(1)].into_iter().collect();
        let ind = c.induced(&keep);
        assert_eq!(ind.facets(), vec![s(&[0, 1])]);
    }

    #[test]
    fn union_intersection_subcomplex() {
        let a = Complex::from_facets([s(&[0, 1])]);
        let b = Complex::from_facets([s(&[1, 2])]);
        let u = a.union(&b);
        assert_eq!(u.count_of_dim(1), 2);
        let i = a.intersection(&b);
        assert_eq!(i.facets(), vec![s(&[1])]);
        assert!(a.is_subcomplex_of(&u));
        assert!(!u.is_subcomplex_of(&a));
    }

    #[test]
    fn relabel_shifts_vertices() {
        let c = triangle().relabel(|v| VertexId(v.0 + 10));
        assert!(c.contains(&s(&[10, 11, 12])));
        assert!(!c.contains(&s(&[0])));
    }

    #[test]
    fn deleted_star_of_edge_is_larger_than_link() {
        let c = triangle();
        let e = s(&[0, 1]);
        let del = c.deleted_star(&e);
        let lk = c.link(&e);
        assert!(lk.is_subcomplex_of(&del));
        assert!(del.contains(&s(&[0])));
        assert!(!lk.contains(&s(&[0])));
    }

    #[test]
    fn equality_is_representation_independent() {
        // Same closure reached by different insertion orders and absorbed
        // intermediates.
        let a = Complex::from_facets([s(&[0, 1, 2]), s(&[2, 3])]);
        let mut b = Complex::new();
        b.insert(s(&[2, 3]));
        b.insert(s(&[0, 1]));
        b.insert(s(&[0, 1, 2]));
        assert_eq!(a, b);
        let c = Complex::from_facets([s(&[0, 1, 2])]);
        assert_ne!(a, c);
    }

    #[test]
    fn iteration_is_sorted_by_dim_then_lex() {
        let c = Complex::from_facets([s(&[0, 1, 2]), s(&[2, 3])]);
        let all: Vec<&Simplex> = c.iter().collect();
        assert_eq!(all.len(), c.simplex_count());
        for w in all.windows(2) {
            assert!(
                w[0].dim() < w[1].dim() || (w[0].dim() == w[1].dim() && w[0] < w[1]),
                "iteration must be sorted"
            );
        }
    }
}
