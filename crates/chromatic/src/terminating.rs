//! Terminating subdivisions (paper §6.1): iterated partial chromatic
//! subdivisions in which "stable" simplices stop being subdivided.
//!
//! A terminating subdivision `T` of a chromatic complex `C` is a sequence
//! `C_0 = C, C_1, C_2, …` with nested stable subcomplexes
//! `Σ_0 ⊆ Σ_1 ⊆ …`, where `C_{k+1}` is obtained from `C_k` by the partial
//! chromatic subdivision that leaves `Σ_k` un-subdivided
//! ([`crate::chr::chr_relative`]). The union `K(T) = ∪_k Σ_k` of stable
//! simplices is itself a chromatic complex; GACT asks for a chromatic map
//! `δ : K(T) → O` (Theorem 6.1).
//!
//! Stable simplices keep their vertex ids across stages (a collapsed vertex
//! `(p, {p})` *is* `p`), so `K(T)` accumulates without relabeling and its
//! geometry is a restriction of the current stage's geometry.

use std::collections::HashMap;

use gact_topology::{Complex, Geometry, Simplex, VertexId};

use crate::chr::{chr_relative, ChromaticSubdivision, VertexAlloc};
use crate::complex::ChromaticComplex;

/// A terminating subdivision under construction: the current stage `C_k`,
/// the cumulative stable complex, and carriers back to the base complex.
#[derive(Clone, Debug)]
pub struct TerminatingSubdivision {
    base: ChromaticComplex,
    current: ChromaticComplex,
    geometry: Geometry,
    carrier_to_base: HashMap<VertexId, Simplex>,
    stable: Complex,
    stabilized_at: HashMap<Simplex, usize>,
    alloc: VertexAlloc,
    stage: usize,
}

impl TerminatingSubdivision {
    /// Starts a terminating subdivision at `C_0 = base`.
    pub fn new(base: &ChromaticComplex, geometry: &Geometry) -> Self {
        let carrier_to_base = base
            .complex()
            .vertex_set()
            .into_iter()
            .map(|v| (v, Simplex::vertex(v)))
            .collect();
        TerminatingSubdivision {
            base: base.clone(),
            current: base.clone(),
            geometry: geometry.clone(),
            carrier_to_base,
            stable: Complex::new(),
            stabilized_at: HashMap::new(),
            alloc: VertexAlloc::above(base.complex()),
            stage: 0,
        }
    }

    /// The base complex `C_0`.
    pub fn base(&self) -> &ChromaticComplex {
        &self.base
    }

    /// The current stage complex `C_k`.
    pub fn current(&self) -> &ChromaticComplex {
        &self.current
    }

    /// Geometry of the current stage (contains coordinates for all stable
    /// vertices as well).
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The cumulative stable complex `∪_{j ≤ k} Σ_j` — the portion of
    /// `K(T)` built so far.
    pub fn stable_complex(&self) -> &Complex {
        &self.stable
    }

    /// The stable complex with its inherited coloring.
    pub fn stable_chromatic(&self) -> ChromaticComplex {
        self.current.restrict(&self.stable)
    }

    /// Number of [`TerminatingSubdivision::advance`] calls so far (the `k`
    /// in `C_k`).
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Carrier of a current-stage vertex in the *base* complex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the current stage.
    pub fn carrier(&self, v: VertexId) -> &Simplex {
        &self.carrier_to_base[&v]
    }

    /// Carrier of a current-stage simplex in the base complex (union of its
    /// vertices' carriers).
    pub fn simplex_carrier(&self, s: &Simplex) -> Simplex {
        let mut it = s.iter();
        let mut acc = self.carrier_to_base[&it.next().expect("non-empty")].clone();
        for v in it {
            acc = acc.union(&self.carrier_to_base[&v]);
        }
        acc
    }

    /// Marks the given simplices (and their faces) stable in the current
    /// stage. Returns the number of simplices that became newly stable.
    ///
    /// # Panics
    ///
    /// Panics if some simplex is not in the current stage complex.
    pub fn stabilize<I: IntoIterator<Item = Simplex>>(&mut self, simplices: I) -> usize {
        let before = self.stable.simplex_count();
        for s in simplices {
            assert!(
                self.current.complex().contains(&s),
                "cannot stabilize {s:?}: not in the current stage"
            );
            self.stable.insert(s);
        }
        // Record the stage for everything that just became stable
        // (including the faces added by closure): a stable simplex of Σ_k
        // can justify outputs only from round k onwards (Theorem 6.1's
        // proof terminates Σ_k at step k).
        let stage = self.stage;
        for s in self.stable.iter() {
            self.stabilized_at.entry(s.clone()).or_insert(stage);
        }
        self.stable.simplex_count() - before
    }

    /// The stage at which a simplex became stable, if it is stable.
    pub fn stage_of(&self, s: &Simplex) -> Option<usize> {
        self.stabilized_at.get(s).copied()
    }

    /// Marks stable every current-stage simplex satisfying the predicate
    /// (face closure is taken automatically). Returns the count of newly
    /// stable simplices.
    pub fn stabilize_where(&mut self, mut pred: impl FnMut(&Simplex) -> bool) -> usize {
        let selected: Vec<Simplex> = self
            .current
            .complex()
            .iter()
            .filter(|s| pred(s))
            .cloned()
            .collect();
        self.stabilize(selected)
    }

    /// Computes `C_{k+1}` by partially subdividing the current stage,
    /// leaving stable simplices untouched.
    pub fn advance(&mut self) {
        let sd: ChromaticSubdivision =
            chr_relative(&self.current, &self.geometry, &self.stable, &mut self.alloc);
        // Compose carriers through the previous stage.
        let carrier_to_base: HashMap<VertexId, Simplex> = sd
            .vertex_carrier
            .iter()
            .map(|(v, prev)| {
                let mut it = prev.iter();
                let mut acc = self.carrier_to_base[&it.next().expect("non-empty")].clone();
                for w in it {
                    acc = acc.union(&self.carrier_to_base[&w]);
                }
                (*v, acc)
            })
            .collect();
        debug_assert!(
            self.stable.is_subcomplex_of(sd.complex.complex()),
            "stable simplices must persist across stages"
        );
        self.current = sd.complex;
        self.geometry = sd.geometry;
        self.carrier_to_base = carrier_to_base;
        self.stage += 1;
    }

    /// Runs `advance` `k` times with no new stabilization: the result of
    /// starting with `Σ_0 = … = Σ_{k-1}` as currently set.
    pub fn advance_by(&mut self, k: usize) {
        for _ in 0..k {
            self.advance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chr::{chr_iter, fubini};
    use crate::standard::standard_simplex;

    fn s(vs: &[u32]) -> Simplex {
        Simplex::from_iter(vs.iter().copied())
    }

    #[test]
    fn no_stabilization_gives_iterated_chr() {
        let (base, g) = standard_simplex(2);
        let mut t = TerminatingSubdivision::new(&base, &g);
        t.advance_by(2);
        let reference = chr_iter(&base, &g, 2);
        assert_eq!(
            t.current().complex().count_of_dim(2),
            reference.complex.complex().count_of_dim(2)
        );
        assert_eq!(t.current().complex().count_of_dim(2), 13 * 13);
        assert!(t.stable_complex().is_empty());
    }

    #[test]
    fn fully_stable_complex_freezes() {
        let (base, g) = standard_simplex(2);
        let mut t = TerminatingSubdivision::new(&base, &g);
        let facets = base.complex().facets();
        t.stabilize(facets);
        t.advance_by(3);
        assert_eq!(t.current().complex(), base.complex());
        assert_eq!(t.stable_complex(), base.complex());
        // |K(T)| = |C| in this degenerate case (paper §6.1).
    }

    #[test]
    fn paper_figure_terminated_edge() {
        // §6.1 figure: Σ_k = a single edge of the triangle.
        let (base, g) = standard_simplex(2);
        let mut t = TerminatingSubdivision::new(&base, &g);
        t.stabilize([s(&[0, 1])]);
        t.advance();
        assert_eq!(t.current().complex().count_of_dim(0), 10);
        assert_eq!(t.current().complex().count_of_dim(2), 11);
        assert!(t.stable_complex().contains(&s(&[0, 1])));
        assert!(t.current().complex().contains(&s(&[0, 1])));
        // Advancing again keeps the stable edge whole.
        t.advance();
        assert!(t.current().complex().contains(&s(&[0, 1])));
    }

    #[test]
    fn stable_simplices_persist_and_accumulate() {
        let (base, g) = standard_simplex(2);
        let mut t = TerminatingSubdivision::new(&base, &g);
        t.advance(); // C_1 = Chr s
                     // Stabilize the central triangle (carrier = whole simplex, all of
                     // whose vertices are interior).
        let central: Vec<Simplex> = t
            .current()
            .complex()
            .iter_dim(2)
            .filter(|f| f.iter().all(|v| t.carrier(v).card() == 3))
            .cloned()
            .collect();
        assert_eq!(central.len(), 1);
        let newly = t.stabilize(central.clone());
        assert_eq!(newly, 7); // triangle + 3 edges + 3 vertices
        t.advance();
        assert!(t.stable_complex().contains(&central[0]));
        assert!(t.current().complex().contains(&central[0]));
        // The stable triangle was not subdivided; the rest was.
        assert!(t.current().complex().count_of_dim(2) > 13);
    }

    #[test]
    fn carriers_compose_to_base() {
        let (base, g) = standard_simplex(2);
        let mut t = TerminatingSubdivision::new(&base, &g);
        t.stabilize([s(&[0, 1])]);
        t.advance();
        t.advance();
        for v in t.current().complex().vertex_set() {
            let car = t.carrier(v).clone();
            assert!(base.complex().contains(&car));
            // Geometric consistency: the vertex lies inside its carrier.
            assert!(g.point_in_simplex(t.geometry().coord(v), &car));
        }
    }

    #[test]
    fn stabilize_where_with_geometry_predicate() {
        let (base, g) = standard_simplex(2);
        let mut t = TerminatingSubdivision::new(&base, &g);
        t.advance();
        // Stabilize everything with all barycentric coordinates >= 0.2
        // (a neighbourhood of the center).
        let geom = t.geometry().clone();
        let n =
            t.stabilize_where(|sim| sim.iter().all(|v| geom.coord(v).iter().all(|&x| x >= 0.2)));
        assert!(n > 0);
        let before = t.stable_complex().simplex_count();
        t.advance();
        assert_eq!(t.stable_complex().simplex_count(), before);
        assert!(t.stable_complex().is_subcomplex_of(t.current().complex()));
    }

    #[test]
    fn growth_is_slower_than_full_subdivision() {
        // Terminating part of the complex stops contributing Fubini-factor
        // growth.
        let (base, g) = standard_simplex(2);
        let mut t = TerminatingSubdivision::new(&base, &g);
        t.advance();
        let geom = t.geometry().clone();
        t.stabilize_where(|sim| sim.iter().all(|v| geom.coord(v).iter().all(|&x| x >= 0.15)));
        t.advance();
        let full = fubini(3) * fubini(3);
        assert!((t.current().complex().count_of_dim(2) as u64) < full);
    }
}
