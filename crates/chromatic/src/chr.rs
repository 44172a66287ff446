//! The standard chromatic subdivision `Chr` (paper §3.2) and its relative
//! ("partial") variant used by terminating subdivisions (§6.1).
//!
//! ## Construction
//!
//! The top simplices of `Chr(σ)` are in bijection with *ordered partitions*
//! of the vertex set of `σ` — exactly the schedules of one immediate
//! snapshot: the vertex contributed by process `p` in block `B_j` is the
//! pair `(p, U_j)` where `U_j = B_1 ∪ … ∪ B_j` is everything `p` saw.
//! Condition (a)/(b) of §3.2 is automatic in this form. The number of top
//! simplices of `Chr` of an `n`-simplex is the ordered Bell number of
//! `n + 1` (13 for a triangle, 75 for a tetrahedron).
//!
//! ## Relative (terminating) variant
//!
//! `chr_relative(C, Σ)` leaves simplices of the subcomplex `Σ` un-subdivided
//! ("terminated", §6.1): whenever a prefix union `U_j` is a simplex of `Σ`,
//! the processes of that prefix keep their *original* vertices instead of
//! moving to `(p, U_j)`. With `Σ = ∅` this is exactly `Chr(C)`; with
//! `Σ = C` it returns `C` unchanged.
//!
//! ## Identity of vertices
//!
//! A vertex `(p, {p})` is identified with the original vertex `p` — the
//! subdivision contains its base complex's vertices, with the same ids. This
//! gives terminating subdivisions stable vertex identities across stages, so
//! the stable complex `K(T)` accumulates across rounds without relabeling.

use std::collections::HashMap;

use gact_topology::{Complex, Geometry, Simplex, VertexId};

use crate::complex::ChromaticComplex;

/// Allocates fresh vertex ids above everything used so far.
#[derive(Clone, Debug)]
pub struct VertexAlloc {
    next: u32,
}

impl VertexAlloc {
    /// Starts allocating strictly above the vertices of `c`.
    pub fn above(c: &Complex) -> Self {
        let next = c
            .vertex_set()
            .into_iter()
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0);
        VertexAlloc { next }
    }

    /// Returns a fresh vertex id.
    pub fn fresh(&mut self) -> VertexId {
        let v = VertexId(self.next);
        self.next += 1;
        v
    }
}

/// One subdivision step: the subdivided chromatic complex, its geometry, and
/// carriers into the complex that was subdivided.
#[derive(Clone, Debug)]
pub struct ChromaticSubdivision {
    /// The subdivided complex.
    pub complex: ChromaticComplex,
    /// Geometry of the subdivided complex (inherited coordinates).
    pub geometry: Geometry,
    /// For each vertex, the smallest simplex of the *input* complex whose
    /// realization contains it. Original vertices carry themselves.
    pub vertex_carrier: HashMap<VertexId, Simplex>,
    /// Lookup from `(p, seen)` — a vertex `p` of the input complex together
    /// with the simplex of input vertices it "saw" in the immediate
    /// snapshot — to the subdivision vertex `(p, seen)`. Collapsed keys
    /// (singletons and stable prefixes) resolve to the original vertex.
    /// This is the bridge between operational IIS views and subdivision
    /// vertices (paper §4.3 and the proof of Theorem 6.1).
    pub key_index: HashMap<(VertexId, Simplex), VertexId>,
}

impl ChromaticSubdivision {
    /// Carrier of a subdivided simplex: union of its vertices' carriers.
    pub fn simplex_carrier(&self, s: &Simplex) -> Simplex {
        let mut it = s.iter();
        let mut acc = self.vertex_carrier[&it.next().expect("non-empty")].clone();
        for v in it {
            acc = acc.union(&self.vertex_carrier[&v]);
        }
        acc
    }

    /// The subcomplex of simplices carried by (contained in) the face `t`
    /// of the base complex — i.e. `Chr(C) ∩ Chr(t)`.
    pub fn restriction_to_face(&self, t: &Simplex) -> Complex {
        FaceCarriers::new(self, t).restrict(self.complex.complex(), t)
    }
}

/// The vertex carriers of a subdivision, each encoded once as a bitmask over
/// the vertices of one base simplex `s`, for restricting subcomplexes to the
/// faces of `s`.
///
/// A simplex lies in `Chr t` iff every vertex's carrier is a face of `t`,
/// so for `K` a subcomplex of the subdivision, `K ∩ Chr t` is generated by
/// the restrictions `f|_t` of the facets `f` of `K` to their `t`-carried
/// vertices: [`FaceCarriers::restrict`] is one pass over `K`'s facets, with
/// no face-closure enumeration and no carrier unions.
#[derive(Clone, Debug)]
pub struct FaceCarriers {
    base: Simplex,
    /// `masks[v]`: bit `i` set iff the `i`-th vertex of `base` is in the
    /// carrier of `v`; [`FaceCarriers::OUTSIDE`] for vertices whose carrier
    /// is not a face of `base` (and for ids that are not vertices).
    masks: Vec<u64>,
}

impl FaceCarriers {
    /// Mask of a vertex carried by no face of the base. Its top bit is never
    /// part of a face mask (the base has at most 63 vertices), so no face
    /// carries it.
    const OUTSIDE: u64 = u64::MAX;

    /// Encodes the vertex carriers of `sd` over the vertices of `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` has more than 63 vertices.
    pub fn new(sd: &ChromaticSubdivision, base: &Simplex) -> Self {
        assert!(base.card() < 64, "face masks hold at most 63 base vertices");
        let len = sd
            .vertex_carrier
            .keys()
            .map(|v| v.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut masks = vec![Self::OUTSIDE; len];
        let base_vertices = base.vertices();
        for (v, carrier) in &sd.vertex_carrier {
            let mut mask = 0u64;
            for w in carrier.iter() {
                match base_vertices.binary_search(&w) {
                    Ok(i) => mask |= 1 << i,
                    Err(_) => {
                        mask = Self::OUTSIDE;
                        break;
                    }
                }
            }
            masks[v.0 as usize] = mask;
        }
        FaceCarriers {
            base: base.clone(),
            masks,
        }
    }

    /// `K ∩ Chr t`: the simplices of `k` whose carrier is a face of `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a face of the base simplex.
    pub fn restrict(&self, k: &Complex, t: &Simplex) -> Complex {
        let base_vertices = self.base.vertices();
        let face_mask = t.iter().fold(0u64, |acc, w| {
            let i = base_vertices
                .binary_search(&w)
                .expect("restriction face must be a face of the base simplex");
            acc | 1 << i
        });
        let carried = |v: &VertexId| {
            let mask = self
                .masks
                .get(v.0 as usize)
                .copied()
                .unwrap_or(Self::OUTSIDE);
            mask & !face_mask == 0
        };
        Complex::from_facets(k.iter_facets().filter_map(|f| {
            let kept: Vec<VertexId> = f.iter().filter(carried).collect();
            (!kept.is_empty()).then(|| Simplex::new(kept))
        }))
    }
}

/// Enumerates the ordered partitions of `items` (all ways to split into a
/// sequence of disjoint non-empty blocks). The count is the ordered Bell
/// (Fubini) number of `items.len()`.
pub fn ordered_partitions<T: Copy>(items: &[T]) -> Vec<Vec<Vec<T>>> {
    let n = items.len();
    assert!(n <= 16, "ordered partition enumeration limited to 16 items");
    let mut out = Vec::new();
    let mut current: Vec<Vec<T>> = Vec::new();
    fn rec<T: Copy>(remaining: &[T], current: &mut Vec<Vec<T>>, out: &mut Vec<Vec<Vec<T>>>) {
        if remaining.is_empty() {
            out.push(current.clone());
            return;
        }
        let n = remaining.len();
        // Choose a non-empty subset of `remaining` as the next block. To
        // avoid double counting, enumerate subsets by bitmask.
        for mask in 1u32..(1u32 << n) {
            let mut block = Vec::with_capacity(mask.count_ones() as usize);
            let mut rest = Vec::with_capacity(n);
            for (i, &x) in remaining.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    block.push(x);
                } else {
                    rest.push(x);
                }
            }
            current.push(block);
            rec(&rest, current, out);
            current.pop();
        }
    }
    rec(items, &mut current, &mut out);
    out
}

/// The ordered Bell (Fubini) numbers — facet counts of `Chr` of an
/// `(n−1)`-simplex.
pub fn fubini(n: usize) -> u64 {
    // a(n) = Σ_{k=1}^{n} C(n,k) a(n−k), a(0)=1.
    let mut a = vec![0u64; n + 1];
    a[0] = 1;
    for m in 1..=n {
        let mut total = 0u64;
        let mut binom = 1u64; // C(m, k)
        for k in 1..=m {
            binom = binom * (m as u64 - k as u64 + 1) / k as u64;
            total += binom * a[m - k];
        }
        a[m] = total;
    }
    a[n]
}

/// Standard chromatic subdivision of a chromatic complex, with geometry.
///
/// The coordinates of a subdivision vertex `(p, t)` follow the paper's
/// formula: `1/(2k−1) · x_p + 2/(2k−1) · Σ_{q ∈ t, q ≠ p} x_q` with
/// `k = |t|`.
pub fn chr(c: &ChromaticComplex, g: &Geometry) -> ChromaticSubdivision {
    let mut alloc = VertexAlloc::above(c.complex());
    chr_relative(c, g, &Complex::new(), &mut alloc)
}

/// Partial chromatic subdivision relative to a stable subcomplex (§6.1).
///
/// # Panics
///
/// Panics if `stable` is not a subcomplex of `c`.
pub fn chr_relative(
    c: &ChromaticComplex,
    g: &Geometry,
    stable: &Complex,
    alloc: &mut VertexAlloc,
) -> ChromaticSubdivision {
    assert!(
        stable.is_subcomplex_of(c.complex()),
        "stable set must be a subcomplex of the complex being subdivided"
    );
    // Sequential mode takes the original single-pass construction — no
    // per-facet buffering, no merge pass — so `GACT_THREADS=1` is the old
    // code path, byte for byte. The equivalence proptests pin the two
    // paths against each other.
    if gact_parallel::current_threads() <= 1 {
        return chr_relative_sequential(c, g, stable, alloc);
    }

    // A subdivision vertex produced while expanding one facet, before
    // global vertex ids exist: the key `(p, seen)`, whether it collapses to
    // the original vertex `p`, and (for live keys) its coordinates.
    struct LocalKey {
        p: VertexId,
        seen: Simplex,
        collapsed: bool,
        coord: Vec<f64>,
    }
    /// One facet's expansion: its local keys in first-encounter order, and
    /// its subdivision facets as indices into that key list.
    struct FacetExpansion {
        keys: Vec<LocalKey>,
        facets: Vec<Vec<u32>>,
    }

    // Phase 1 — parallel per-facet expansion. Each facet enumerates its
    // ordered partitions independently; keys are recorded in exactly the
    // order the sequential single-pass interning would first meet them
    // (partition order, then block order, then process order), so the
    // sequential merge below allocates identical vertex ids regardless of
    // the thread count.
    let facet_list = c.complex().facets();
    let expansions: Vec<FacetExpansion> = gact_parallel::par_map(&facet_list, |facet| {
        let verts: Vec<VertexId> = facet.iter().collect();
        let mut keys: Vec<LocalKey> = Vec::new();
        let mut local: HashMap<(VertexId, Simplex), u32> = HashMap::new();
        let mut facets: Vec<Vec<u32>> = Vec::new();
        for partition in ordered_partitions(&verts) {
            let mut new_facet: Vec<u32> = Vec::with_capacity(verts.len());
            let mut prefix: Vec<VertexId> = Vec::new();
            for block in &partition {
                prefix.extend_from_slice(block);
                let seen = Simplex::new(prefix.iter().copied());
                for &p in block {
                    let idx = *local.entry((p, seen.clone())).or_insert_with(|| {
                        let collapsed = seen.card() == 1 || stable.contains(&seen);
                        let coord = if collapsed {
                            Vec::new()
                        } else {
                            let k = seen.card() as f64;
                            let w_self = 1.0 / (2.0 * k - 1.0);
                            let w_other = 2.0 / (2.0 * k - 1.0);
                            let mut coord = vec![0.0; g.ambient_dim()];
                            for q in seen.iter() {
                                let w = if q == p { w_self } else { w_other };
                                for (acc, x) in coord.iter_mut().zip(g.coord(q)) {
                                    *acc += w * x;
                                }
                            }
                            coord
                        };
                        keys.push(LocalKey {
                            p,
                            seen: seen.clone(),
                            collapsed,
                            coord,
                        });
                        keys.len() as u32 - 1
                    });
                    new_facet.push(idx);
                }
            }
            facets.push(new_facet);
        }
        FacetExpansion { keys, facets }
    });

    // Phase 2 — sequential merge in canonical facet order: intern keys
    // globally (allocating fresh ids in first-encounter order) and map the
    // local facet lists to vertex ids.
    let mut key_to_id: HashMap<(VertexId, Simplex), VertexId> = HashMap::new();
    let mut colors: HashMap<VertexId, crate::color::Color> = HashMap::new();
    let mut geometry = Geometry::new(g.ambient_dim());
    let mut vertex_carrier: HashMap<VertexId, Simplex> = HashMap::new();
    let mut facets: Vec<Simplex> = Vec::new();
    for expansion in expansions {
        let mut local_to_global: Vec<VertexId> = Vec::with_capacity(expansion.keys.len());
        for key in expansion.keys {
            // `expansions` is consumed: `seen`/`coord` move into the
            // global tables instead of being re-cloned per key.
            let LocalKey {
                p,
                seen,
                collapsed,
                coord,
            } = key;
            let id = match key_to_id.entry((p, seen)) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    if collapsed {
                        // Identified with the original vertex p.
                        e.insert(p);
                        colors.insert(p, c.color(p));
                        geometry.set(p, g.coord(p).clone());
                        vertex_carrier.insert(p, Simplex::vertex(p));
                        p
                    } else {
                        let id = alloc.fresh();
                        let seen = e.key().1.clone();
                        e.insert(id);
                        colors.insert(id, c.color(p));
                        geometry.set(id, coord);
                        vertex_carrier.insert(id, seen);
                        id
                    }
                }
            };
            local_to_global.push(id);
        }
        for local_facet in &expansion.facets {
            facets.push(Simplex::new(
                local_facet.iter().map(|&i| local_to_global[i as usize]),
            ));
        }
    }

    let complex = Complex::from_facets(facets);
    let colors: Vec<(VertexId, crate::color::Color)> = complex
        .vertex_set()
        .into_iter()
        .map(|v| (v, colors[&v]))
        .collect();
    ChromaticSubdivision {
        complex: ChromaticComplex::new(complex, colors)
            .expect("chromatic subdivision preserves rainbow coloring"),
        geometry,
        vertex_carrier,
        key_index: key_to_id,
    }
}

/// The original single-pass sequential construction of [`chr_relative`]:
/// one global interning pass over facets × partitions × blocks, with no
/// intermediate per-facet buffers. The parallel path above allocates the
/// exact same vertex ids (its merge interns keys in this pass's
/// first-encounter order), which the equivalence proptests pin.
fn chr_relative_sequential(
    c: &ChromaticComplex,
    g: &Geometry,
    stable: &Complex,
    alloc: &mut VertexAlloc,
) -> ChromaticSubdivision {
    let mut key_to_id: HashMap<(VertexId, Simplex), VertexId> = HashMap::new();
    let mut colors: HashMap<VertexId, crate::color::Color> = HashMap::new();
    let mut geometry = Geometry::new(g.ambient_dim());
    let mut vertex_carrier: HashMap<VertexId, Simplex> = HashMap::new();
    let mut facets: Vec<Simplex> = Vec::new();

    let intern = |p: VertexId,
                  seen: &Simplex,
                  key_to_id: &mut HashMap<(VertexId, Simplex), VertexId>,
                  colors: &mut HashMap<VertexId, crate::color::Color>,
                  geometry: &mut Geometry,
                  vertex_carrier: &mut HashMap<VertexId, Simplex>,
                  alloc: &mut VertexAlloc|
     -> VertexId {
        let key = (p, seen.clone());
        if let Some(&id) = key_to_id.get(&key) {
            return id;
        }
        let collapsed = seen.card() == 1 || stable.contains(seen);
        if collapsed {
            // Identified with the original vertex p.
            key_to_id.insert(key, p);
            colors.insert(p, c.color(p));
            geometry.set(p, g.coord(p).clone());
            vertex_carrier.insert(p, Simplex::vertex(p));
            return p;
        }
        let id = alloc.fresh();
        key_to_id.insert(key, id);
        colors.insert(id, c.color(p));
        let k = seen.card() as f64;
        let w_self = 1.0 / (2.0 * k - 1.0);
        let w_other = 2.0 / (2.0 * k - 1.0);
        let mut coord = vec![0.0; g.ambient_dim()];
        for q in seen.iter() {
            let w = if q == p { w_self } else { w_other };
            for (acc, x) in coord.iter_mut().zip(g.coord(q)) {
                *acc += w * x;
            }
        }
        geometry.set(id, coord);
        vertex_carrier.insert(id, seen.clone());
        id
    };

    for facet in c.complex().facets() {
        let verts: Vec<VertexId> = facet.iter().collect();
        for partition in ordered_partitions(&verts) {
            let mut new_facet: Vec<VertexId> = Vec::with_capacity(verts.len());
            let mut prefix: Vec<VertexId> = Vec::new();
            for block in &partition {
                prefix.extend_from_slice(block);
                let seen = Simplex::new(prefix.iter().copied());
                for &p in block {
                    new_facet.push(intern(
                        p,
                        &seen,
                        &mut key_to_id,
                        &mut colors,
                        &mut geometry,
                        &mut vertex_carrier,
                        alloc,
                    ));
                }
            }
            facets.push(Simplex::new(new_facet));
        }
    }

    let complex = Complex::from_facets(facets);
    let colors: Vec<(VertexId, crate::color::Color)> = complex
        .vertex_set()
        .into_iter()
        .map(|v| (v, colors[&v]))
        .collect();
    ChromaticSubdivision {
        complex: ChromaticComplex::new(complex, colors)
            .expect("chromatic subdivision preserves rainbow coloring"),
        geometry,
        vertex_carrier,
        key_index: key_to_id,
    }
}

/// The identity subdivision `Chr^0 C = C`: every vertex carries itself and
/// the key index is empty. This is both `chr_iter(c, g, 0)` and the seed
/// from which [`chr_step`] iterates.
pub fn chr_identity(c: &ChromaticComplex, g: &Geometry) -> ChromaticSubdivision {
    ChromaticSubdivision {
        complex: c.clone(),
        geometry: g.clone(),
        vertex_carrier: c
            .complex()
            .vertex_set()
            .into_iter()
            .map(|v| (v, Simplex::vertex(v)))
            .collect(),
        key_index: HashMap::new(),
    }
}

/// One further chromatic subdivision of an already-iterated subdivision:
/// `Chr^{m+1}` from `Chr^m`, with carriers composed back to the original
/// base. [`chr_iter`] is exactly `m` applications of this step starting
/// from [`chr_identity`], so extending a cached `Chr^m` with `chr_step`
/// yields a structure identical to computing `Chr^{m+1}` from scratch —
/// same vertex ids, same facet tables, bit-identical coordinates (the
/// [`crate::cache::SubdivisionCache`] relies on this, and the cache
/// regression tests pin it).
pub fn chr_step(prev: &ChromaticSubdivision) -> ChromaticSubdivision {
    let next = chr(&prev.complex, &prev.geometry);
    compose_carriers_into(&prev.vertex_carrier, next)
}

/// The per-stage carrier lineage of one subdivision step: for every
/// vertex of `Chr^{m+1}`, its carrier **in `Chr^m`** (the stage that was
/// subdivided), before composition back to the base. Persisted vertices
/// (every vertex of `Chr^m` survives into `Chr^{m+1}` with the same id)
/// carry their own singleton.
pub type StageLineage = HashMap<VertexId, Simplex>;

/// [`chr_step`] that also returns the [`StageLineage`] — the carrier of
/// each new-stage vertex in the *previous* stage, which composition back
/// to the base otherwise discards. Incremental consumers (the
/// [`crate::cache::SubdivisionCache`] rounds-extension, the solver's
/// incremental sweep) use the lineage to tell persisted vertices
/// (singleton lineage, identical ids and base carriers across stages)
/// from genuinely new ones.
pub fn chr_step_with_lineage(prev: &ChromaticSubdivision) -> (ChromaticSubdivision, StageLineage) {
    let next = chr(&prev.complex, &prev.geometry);
    let lineage = next.vertex_carrier.clone();
    (compose_carriers_into(&prev.vertex_carrier, next), lineage)
}

/// Iterated standard chromatic subdivision `Chr^m`, composing carriers back
/// to the base complex.
pub fn chr_iter(c: &ChromaticComplex, g: &Geometry, m: usize) -> ChromaticSubdivision {
    let mut current = chr_identity(c, g);
    for _ in 0..m {
        current = chr_step(&current);
    }
    current
}

/// Composes a subdivision-of-a-subdivision so that carriers refer to the
/// base of the first subdivision.
pub fn compose_carriers(
    base: ChromaticSubdivision,
    next: ChromaticSubdivision,
) -> ChromaticSubdivision {
    compose_carriers_into(&base.vertex_carrier, next)
}

/// Carrier composition against a borrowed base carrier table (so callers
/// holding a shared `Chr^m` — e.g. the subdivision cache — can extend it
/// without cloning the whole base subdivision).
fn compose_carriers_into(
    base_carrier: &HashMap<VertexId, Simplex>,
    next: ChromaticSubdivision,
) -> ChromaticSubdivision {
    let vertex_carrier = next
        .vertex_carrier
        .iter()
        .map(|(v, mid)| {
            let mut it = mid.iter();
            let mut acc = base_carrier[&it.next().expect("non-empty")].clone();
            for w in it {
                acc = acc.union(&base_carrier[&w]);
            }
            (*v, acc)
        })
        .collect();
    ChromaticSubdivision {
        complex: next.complex,
        geometry: next.geometry,
        vertex_carrier,
        key_index: next.key_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::{standard_simplex, top_simplex};
    use gact_topology::standard_simplex_geometry;

    #[test]
    fn fubini_numbers() {
        assert_eq!(fubini(0), 1);
        assert_eq!(fubini(1), 1);
        assert_eq!(fubini(2), 3);
        assert_eq!(fubini(3), 13);
        assert_eq!(fubini(4), 75);
        assert_eq!(fubini(5), 541);
    }

    #[test]
    fn ordered_partitions_count_matches_fubini() {
        for n in 1..=5usize {
            let items: Vec<u32> = (0..n as u32).collect();
            assert_eq!(ordered_partitions(&items).len() as u64, fubini(n));
        }
    }

    #[test]
    fn ordered_partitions_are_partitions() {
        let items = [0u32, 1, 2];
        for p in ordered_partitions(&items) {
            let mut all: Vec<u32> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2]);
            assert!(p.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn chr_of_edge() {
        let (s, g) = standard_simplex(1);
        let sd = chr(&s, &g);
        // Chr of an edge: 4 vertices, 3 edges.
        assert_eq!(sd.complex.complex().count_of_dim(0), 4);
        assert_eq!(sd.complex.complex().count_of_dim(1), 3);
        // Original endpoints keep their ids.
        assert!(sd.complex.complex().contains_vertex(VertexId(0)));
        assert!(sd.complex.complex().contains_vertex(VertexId(1)));
    }

    #[test]
    fn chr_of_triangle_counts() {
        let (s, g) = standard_simplex(2);
        let sd = chr(&s, &g);
        let c = sd.complex.complex();
        assert_eq!(c.count_of_dim(2), 13); // Fubini(3)
        assert_eq!(c.count_of_dim(0), 12); // 3 corners + 6 edge-interior + 3 central
        assert!(c.is_pure_of_dim(2));
        // Boundary edges each subdivide into Chr of an edge: the whole
        // 1-skeleton has 3*3 boundary + interior edges; just check Euler.
        assert_eq!(c.euler_characteristic(), 1);
    }

    #[test]
    fn chr_of_tetrahedron_counts() {
        let (s, g) = standard_simplex(3);
        let sd = chr(&s, &g);
        assert_eq!(sd.complex.complex().count_of_dim(3), 75); // Fubini(4)
        assert_eq!(sd.complex.complex().euler_characteristic(), 1);
    }

    #[test]
    fn chr_vertex_coordinates_follow_formula() {
        let (s, g) = standard_simplex(2);
        let sd = chr(&s, &g);
        // The central vertex of color 0, i.e. (0, {0,1,2}): coordinates
        // 1/5 x_0 + 2/5 x_1 + 2/5 x_2 = (0.2, 0.4, 0.4).
        let central: Vec<VertexId> = sd
            .vertex_carrier
            .iter()
            .filter(|(_, car)| car.card() == 3)
            .map(|(v, _)| *v)
            .collect();
        assert_eq!(central.len(), 3);
        let v0 = *central
            .iter()
            .find(|&&v| sd.complex.color(v) == crate::color::Color(0))
            .unwrap();
        let p = sd.geometry.coord(v0);
        assert!((p[0] - 0.2).abs() < 1e-12);
        assert!((p[1] - 0.4).abs() < 1e-12);
        assert!((p[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn chr_vertices_lie_in_their_carriers() {
        let (s, g) = standard_simplex(2);
        let sd = chr(&s, &g);
        for (v, car) in &sd.vertex_carrier {
            assert!(g.point_in_simplex(sd.geometry.coord(*v), car));
        }
    }

    #[test]
    fn chr_restriction_to_face_is_chr_of_face() {
        let (s, g) = standard_simplex(2);
        let sd = chr(&s, &g);
        let t = Simplex::from_iter([0u32, 1]);
        let restr = sd.restriction_to_face(&t);
        // Chr of an edge: 3 edges.
        assert_eq!(restr.count_of_dim(1), 3);
        assert_eq!(restr.count_of_dim(0), 4);
    }

    #[test]
    fn chr_iter_facet_growth() {
        let (s, g) = standard_simplex(2);
        let sd2 = chr_iter(&s, &g, 2);
        assert_eq!(sd2.complex.complex().count_of_dim(2), 13 * 13);
        assert_eq!(sd2.complex.complex().euler_characteristic(), 1);
        // Carriers point to the base complex.
        for car in sd2.vertex_carrier.values() {
            assert!(car.is_face_of(&top_simplex(2)));
        }
    }

    #[test]
    fn chr_iter_mesh_shrinks() {
        let (s, g) = standard_simplex(2);
        let sd1 = chr_iter(&s, &g, 1);
        let sd2 = chr_iter(&s, &g, 2);
        let m0 = g.mesh(s.complex());
        let m1 = sd1.geometry.mesh(sd1.complex.complex());
        let m2 = sd2.geometry.mesh(sd2.complex.complex());
        assert!(m1 < m0 && m2 < m1);
    }

    #[test]
    fn chr_step_lineage_matches_key_index() {
        // The lineage of a step — each new vertex's carrier in the stage
        // that was subdivided — is exactly the `seen` half of its key
        // (the cache's on-demand derivation relies on this).
        let (s, g) = standard_simplex(2);
        let stage1 = chr_iter(&s, &g, 1);
        let (stage2, lineage) = chr_step_with_lineage(&stage1);
        assert_eq!(lineage.len(), stage2.complex.complex().vertex_set().len());
        for ((_, seen), v) in &stage2.key_index {
            assert_eq!(&lineage[v], seen, "vertex {v:?}");
        }
        // Persisted vertices (all of stage 1) carry their own singleton.
        for v in stage1.complex.complex().vertex_set() {
            assert_eq!(lineage[&v], Simplex::vertex(v));
        }
        // Composing the lineage with stage 1's base carriers reproduces
        // stage 2's base carriers.
        for (v, mid) in &lineage {
            let mut it = mid.iter();
            let mut acc = stage1.vertex_carrier[&it.next().unwrap()].clone();
            for w in it {
                acc = acc.union(&stage1.vertex_carrier[&w]);
            }
            assert_eq!(acc, stage2.vertex_carrier[v], "vertex {v:?}");
        }
    }

    #[test]
    fn chr_relative_with_full_stable_is_identity() {
        let (s, g) = standard_simplex(2);
        let mut alloc = VertexAlloc::above(s.complex());
        let sd = chr_relative(&s, &g, s.complex(), &mut alloc);
        assert_eq!(sd.complex.complex(), s.complex());
    }

    #[test]
    fn chr_relative_terminated_edge_matches_paper_figure() {
        // §6.1 figure: triangle with one stable (terminated) edge {0,1}.
        let (s, g) = standard_simplex(2);
        let stable = Complex::from_facets([Simplex::from_iter([0u32, 1])]);
        let mut alloc = VertexAlloc::above(s.complex());
        let sd = chr_relative(&s, &g, &stable, &mut alloc);
        let c = sd.complex.complex();
        // 10 vertices: 3 corners, 2 on each of the two live edges, 3 central.
        assert_eq!(c.count_of_dim(0), 10);
        // 11 triangles: 13 standard minus the two merged with the stable
        // edge's region.
        assert_eq!(c.count_of_dim(2), 11);
        // The stable edge survives un-subdivided.
        assert!(c.contains(&Simplex::from_iter([0u32, 1])));
        // Still a subdivided disk.
        assert_eq!(c.euler_characteristic(), 1);
        assert!(c.is_pure_of_dim(2));
    }

    #[test]
    fn chr_relative_stable_vertex_only() {
        // Σ zero-dimensional => full chromatic subdivision (paper §6.1:
        // "if Σ_k is zero-dimensional, then C_{k+1} = Chr C_k").
        let (s, g) = standard_simplex(2);
        let stable = Complex::from_facets([Simplex::from_iter([0u32])]);
        let mut alloc = VertexAlloc::above(s.complex());
        let sd = chr_relative(&s, &g, &stable, &mut alloc);
        assert_eq!(sd.complex.complex().count_of_dim(2), 13);
    }

    #[test]
    fn chr_preserves_colors_of_carriers() {
        let (s, g) = standard_simplex(2);
        let sd = chr(&s, &g);
        for (v, car) in &sd.vertex_carrier {
            // A vertex's color appears among its carrier's colors.
            let col = sd.complex.color(*v);
            assert!(car.iter().any(|w| s.color(w) == col));
        }
    }

    #[test]
    fn chr_geometry_tiles_the_simplex() {
        // Sample random points in |s| and check each lies in some facet of
        // the subdivision.
        let (s, g) = standard_simplex(2);
        let sd = chr(&s, &g);
        let pts = [
            vec![0.31, 0.22, 0.47],
            vec![0.05, 0.9, 0.05],
            vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            vec![0.0, 0.5, 0.5],
        ];
        for p in &pts {
            assert!(
                sd.complex
                    .complex()
                    .iter_dim(2)
                    .any(|f| sd.geometry.point_in_simplex(p, f)),
                "point {p:?} not covered"
            );
        }
        let _ = standard_simplex_geometry(2);
    }
}
