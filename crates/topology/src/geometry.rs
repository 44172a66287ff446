//! Geometric realizations: coordinates for vertices, the L1 metric of §3.1,
//! barycenters, and point location inside realized simplices.
//!
//! Every geometric complex in this workspace lives inside the realization of
//! a standard `n`-simplex: points are vectors of `n+1` barycentric
//! coordinates that are non-negative and sum to one (paper §3.2). The
//! ambient dimension is the coordinate length.

#![allow(clippy::needless_range_loop)] // dense linear algebra reads naturally with indices
use std::collections::HashMap;

use crate::complex::Complex;
use crate::simplex::{Simplex, VertexId};

/// Numerical slack used by the containment predicates.
pub const EPS: f64 = 1e-9;

/// A point of a geometric realization, as a coordinate vector.
pub type Point = Vec<f64>;

/// L1 distance `Σ |a_i − b_i|` — the metric the paper puts on `|C|` (§3.1).
///
/// # Panics
///
/// Panics if the two points have different lengths.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "points must share ambient dimension");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Vertex coordinates for a realized complex.
///
/// ```
/// use gact_topology::{Geometry, Simplex, VertexId};
/// let mut g = Geometry::new(3);
/// g.set(VertexId(0), vec![1.0, 0.0, 0.0]);
/// g.set(VertexId(1), vec![0.0, 1.0, 0.0]);
/// let e = Simplex::from_iter([0u32, 1]);
/// let mid = g.barycenter(&e);
/// assert!((mid[0] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Geometry {
    ambient: usize,
    coords: HashMap<VertexId, Point>,
}

impl Geometry {
    /// Creates an empty geometry with the given ambient coordinate length.
    pub fn new(ambient: usize) -> Self {
        Geometry {
            ambient,
            coords: HashMap::new(),
        }
    }

    /// Ambient coordinate length.
    pub fn ambient_dim(&self) -> usize {
        self.ambient
    }

    /// Number of vertices with coordinates.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether no vertex has coordinates.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Assigns coordinates to a vertex.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate length differs from the ambient dimension.
    pub fn set(&mut self, v: VertexId, p: Point) {
        assert_eq!(p.len(), self.ambient, "coordinate length mismatch");
        self.coords.insert(v, p);
    }

    /// Coordinates of `v`, if assigned.
    pub fn get(&self, v: VertexId) -> Option<&Point> {
        self.coords.get(&v)
    }

    /// Coordinates of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no coordinates.
    pub fn coord(&self, v: VertexId) -> &Point {
        self.coords
            .get(&v)
            .unwrap_or_else(|| panic!("no coordinates for {v:?}"))
    }

    /// Iterates over `(vertex, point)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &Point)> {
        self.coords.iter().map(|(v, p)| (*v, p))
    }

    /// The barycenter (average of vertex coordinates) of a simplex.
    pub fn barycenter(&self, s: &Simplex) -> Point {
        let mut acc = vec![0.0; self.ambient];
        for v in s.iter() {
            for (a, x) in acc.iter_mut().zip(self.coord(v)) {
                *a += x;
            }
        }
        let k = s.card() as f64;
        for a in &mut acc {
            *a /= k;
        }
        acc
    }

    /// Barycentric coordinates of `p` with respect to the realized simplex
    /// `s`, obtained by least-squares solve. Returns `None` when the vertex
    /// coordinates are affinely dependent (degenerate realization).
    pub fn barycentric_in(&self, p: &[f64], s: &Simplex) -> Option<Vec<f64>> {
        let verts: Vec<&Point> = s.iter().map(|v| self.coord(v)).collect();
        barycentric_coordinates(p, &verts)
    }

    /// Whether `p` lies in the (closed) realized simplex `|s|`, up to
    /// [`EPS`] slack.
    pub fn point_in_simplex(&self, p: &[f64], s: &Simplex) -> bool {
        match self.barycentric_in(p, s) {
            None => false,
            Some(lambda) => lambda.iter().all(|&l| l >= -EPS),
        }
    }

    /// The smallest simplex of `c` whose realization contains `p`
    /// (the *carrier* of `p`), or `None` if no simplex contains it.
    pub fn carrier_of_point(&self, p: &[f64], c: &Complex) -> Option<Simplex> {
        let mut best: Option<Simplex> = None;
        for s in c.iter() {
            if self.point_in_simplex(p, s) {
                match &best {
                    Some(b) if b.card() <= s.card() => {}
                    _ => best = Some(s.clone()),
                }
            }
        }
        best
    }

    /// L1 diameter of the realized simplex (max pairwise vertex distance).
    pub fn diameter(&self, s: &Simplex) -> f64 {
        let vs: Vec<VertexId> = s.iter().collect();
        let mut d: f64 = 0.0;
        for i in 0..vs.len() {
            for j in i + 1..vs.len() {
                d = d.max(l1_distance(self.coord(vs[i]), self.coord(vs[j])));
            }
        }
        d
    }

    /// Largest simplex diameter over the whole complex (the subdivision
    /// *mesh*).
    pub fn mesh(&self, c: &Complex) -> f64 {
        c.iter().fold(0.0f64, |m, s| m.max(self.diameter(s)))
    }
}

/// Barycentric coordinates of `p` in the affine span of `verts`: solves
/// `Σ λ_i v_i = p`, `Σ λ_i = 1` in the least-squares sense and validates the
/// residual. Returns `None` for affinely dependent vertex sets or when the
/// residual exceeds the tolerance (point outside the affine span).
pub fn barycentric_coordinates(p: &[f64], verts: &[&Point]) -> Option<Vec<f64>> {
    let k = verts.len();
    let d = p.len();
    // Normal equations for the (d+1) x k system [V; 1] λ = [p; 1].
    let mut a = vec![vec![0.0; k]; k];
    let mut b = vec![0.0; k];
    for i in 0..k {
        for j in 0..k {
            let mut dot = 1.0; // the Σλ=1 row contributes 1·1
            for t in 0..d {
                dot += verts[i][t] * verts[j][t];
            }
            a[i][j] = dot;
        }
        let mut dot = 1.0;
        for t in 0..d {
            dot += verts[i][t] * p[t];
        }
        b[i] = dot;
    }
    let lambda = solve_linear(&mut a, &mut b)?;
    // Validate the residual of the original system.
    let mut residual = 0.0f64;
    for t in 0..d {
        let mut x = 0.0;
        for i in 0..k {
            x += lambda[i] * verts[i][t];
        }
        residual = residual.max((x - p[t]).abs());
    }
    let sum: f64 = lambda.iter().sum();
    residual = residual.max((sum - 1.0).abs());
    if residual > 1e-7 {
        return None;
    }
    Some(lambda)
}

/// Gaussian elimination with partial pivoting on a dense square system.
/// Returns `None` when the matrix is (numerically) singular.
pub fn solve_linear(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let (pivot, pivot_val) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))?;
        if pivot_val < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    Some((0..n).map(|i| b[i] / a[i][i]).collect())
}

/// Geometry of the standard `n`-simplex: vertex `i` gets the `i`-th unit
/// coordinate vector in `R^{n+1}` (paper §3.2).
pub fn standard_simplex_geometry(n: usize) -> Geometry {
    let mut g = Geometry::new(n + 1);
    for i in 0..=n {
        let mut p = vec![0.0; n + 1];
        p[i] = 1.0;
        g.set(VertexId(i as u32), p);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri_geometry() -> Geometry {
        standard_simplex_geometry(2)
    }

    #[test]
    fn l1_metric_axioms_on_samples() {
        let a = vec![1.0, 0.0, 0.0];
        let b = vec![0.0, 1.0, 0.0];
        let c = vec![0.25, 0.25, 0.5];
        assert_eq!(l1_distance(&a, &a), 0.0);
        assert!((l1_distance(&a, &b) - 2.0).abs() < 1e-12);
        assert!(l1_distance(&a, &c) <= l1_distance(&a, &b) + l1_distance(&b, &c) + 1e-12);
        assert_eq!(l1_distance(&a, &b), l1_distance(&b, &a));
    }

    #[test]
    fn barycenter_of_triangle() {
        let g = tri_geometry();
        let t = Simplex::from_iter([0u32, 1, 2]);
        let b = g.barycenter(&t);
        for x in &b {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn barycentric_solve_recovers_weights() {
        let g = tri_geometry();
        let t = Simplex::from_iter([0u32, 1, 2]);
        let p = vec![0.2, 0.3, 0.5];
        let lambda = g.barycentric_in(&p, &t).unwrap();
        assert!((lambda[0] - 0.2).abs() < 1e-9);
        assert!((lambda[1] - 0.3).abs() < 1e-9);
        assert!((lambda[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn point_location_and_carrier() {
        let g = tri_geometry();
        let c = Complex::from_facets([Simplex::from_iter([0u32, 1, 2])]);
        // Interior point -> carrier is the whole triangle.
        let p = vec![0.2, 0.3, 0.5];
        assert_eq!(
            g.carrier_of_point(&p, &c),
            Some(Simplex::from_iter([0u32, 1, 2]))
        );
        // Point on edge 01 -> carrier is that edge.
        let q = vec![0.5, 0.5, 0.0];
        assert_eq!(
            g.carrier_of_point(&q, &c),
            Some(Simplex::from_iter([0u32, 1]))
        );
        // A vertex -> carrier is the vertex.
        let r = vec![0.0, 0.0, 1.0];
        assert_eq!(g.carrier_of_point(&r, &c), Some(Simplex::from_iter([2u32])));
        // Outside.
        let far = vec![-0.5, 0.5, 1.0];
        assert_eq!(g.carrier_of_point(&far, &c), None);
    }

    #[test]
    fn point_outside_affine_span_rejected() {
        let g = tri_geometry();
        let e = Simplex::from_iter([0u32, 1]);
        // This point has a z-component, so it is off the edge's span.
        let p = vec![0.4, 0.4, 0.2];
        assert!(!g.point_in_simplex(&p, &e));
    }

    #[test]
    fn diameter_and_mesh() {
        let g = tri_geometry();
        let t = Simplex::from_iter([0u32, 1, 2]);
        assert!((g.diameter(&t) - 2.0).abs() < 1e-12);
        let c = Complex::from_facets([t]);
        assert!((g.mesh(&c) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_returns_none() {
        let mut a = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let mut b = vec![1.0, 2.0];
        assert!(solve_linear(&mut a, &mut b).is_none());
    }
}

/// A prepared point-location structure for one realized simplex: the
/// normal-equation matrix of the barycentric solve is inverted once, so
/// queries cost one matrix–vector product instead of a fresh elimination,
/// and a padded bounding box rejects far-away query points before any
/// linear algebra runs.
#[derive(Clone, Debug)]
pub struct SimplexLocator {
    verts: Vec<Point>,
    inv: Vec<Vec<f64>>, // inverse of the (k×k) normal matrix
    /// Componentwise min/max of the vertex coordinates, padded by
    /// `BBOX_PAD`. Any point the exact predicate accepts lies inside the
    /// padded box (see `contains`), so the box is a pure pre-filter:
    /// rejecting outside it can never change a containment answer.
    bbox_min: Point,
    bbox_max: Point,
}

/// Base padding of the [`SimplexLocator`] bounding box. The exact
/// containment predicate accepts points whose barycentric coordinates
/// dip to `−EPS` and whose reconstruction residual reaches `1e-7`; both
/// excursions move a point at most `≈ 1e-7 · (1 + max |v|)` per
/// coordinate outside the convex hull, so the effective pad scales with
/// the locator's coordinate magnitude (see `SimplexLocator::new`) and
/// strictly contains every acceptable point at any geometry scale.
const BBOX_PAD: f64 = 1e-6;

impl SimplexLocator {
    /// Prepares the locator for the simplex `s` realized by `g`. Returns
    /// `None` when the realization is affinely degenerate.
    pub fn new(g: &Geometry, s: &Simplex) -> Option<Self> {
        let verts: Vec<Point> = s.iter().map(|v| g.coord(v).clone()).collect();
        let k = verts.len();
        let d = verts[0].len();
        let mut a = vec![vec![0.0; k]; k];
        for i in 0..k {
            for j in 0..k {
                let mut dot = 1.0;
                for t in 0..d {
                    dot += verts[i][t] * verts[j][t];
                }
                a[i][j] = dot;
            }
        }
        let inv = invert(&a)?;
        // Pad scaled by the coordinate magnitude so the pre-filter stays
        // a strict superset of the exact predicate for geometries of any
        // scale, not just the unit simplices this workspace realizes.
        let scale = verts
            .iter()
            .flat_map(|v| v.iter())
            .fold(1.0f64, |m, &x| m.max(x.abs()));
        let pad = BBOX_PAD * scale;
        let mut bbox_min = vec![f64::INFINITY; d];
        let mut bbox_max = vec![f64::NEG_INFINITY; d];
        for v in &verts {
            for t in 0..d {
                bbox_min[t] = bbox_min[t].min(v[t] - pad);
                bbox_max[t] = bbox_max[t].max(v[t] + pad);
            }
        }
        Some(SimplexLocator {
            verts,
            inv,
            bbox_min,
            bbox_max,
        })
    }

    /// Whether `p` lies inside the padded bounding box (the cheap
    /// pre-filter `contains` runs before the barycentric solve).
    #[inline]
    fn in_bbox(&self, p: &[f64]) -> bool {
        p.iter()
            .zip(self.bbox_min.iter().zip(&self.bbox_max))
            .all(|(&x, (&lo, &hi))| x >= lo && x <= hi)
    }

    /// Barycentric coordinates of `p`, or `None` if `p` is off the affine
    /// span (residual above tolerance).
    pub fn barycentric(&self, p: &[f64]) -> Option<Vec<f64>> {
        let k = self.verts.len();
        let d = p.len();
        let mut b = vec![0.0; k];
        for i in 0..k {
            let mut dot = 1.0;
            for t in 0..d {
                dot += self.verts[i][t] * p[t];
            }
            b[i] = dot;
        }
        let lambda: Vec<f64> = (0..k)
            .map(|i| (0..k).map(|j| self.inv[i][j] * b[j]).sum())
            .collect();
        // Residual check against the original system.
        let mut residual: f64 = (lambda.iter().sum::<f64>() - 1.0).abs();
        for t in 0..d {
            let mut x = 0.0;
            for i in 0..k {
                x += lambda[i] * self.verts[i][t];
            }
            residual = residual.max((x - p[t]).abs());
        }
        if residual > 1e-7 {
            None
        } else {
            Some(lambda)
        }
    }

    /// Whether `p` lies in the closed realized simplex, up to [`EPS`].
    ///
    /// The padded bounding box is checked first: a point the exact
    /// predicate would accept reconstructs (residual ≤ 1e-7) from
    /// barycentric weights in `[−EPS, 1 + k·EPS]`, which keeps it well
    /// inside the `BBOX_PAD`-padded box, so the pre-filter never flips
    /// an answer — it only skips the matrix–vector solve for the bulk of
    /// far-away queries.
    pub fn contains(&self, p: &[f64]) -> bool {
        if !self.in_bbox(p) {
            return false;
        }
        self.barycentric(p)
            .map(|l| l.iter().all(|&x| x >= -EPS))
            .unwrap_or(false)
    }
}

/// Point location over a family of facets, with prepared per-facet
/// locators.
#[derive(Clone, Debug)]
pub struct ComplexLocator {
    facets: Vec<(Simplex, SimplexLocator)>,
}

impl ComplexLocator {
    /// Prepares locators for the given facets (degenerate ones skipped).
    pub fn new<'a, I: IntoIterator<Item = &'a Simplex>>(g: &Geometry, facets: I) -> Self {
        let facets = facets
            .into_iter()
            .filter_map(|s| SimplexLocator::new(g, s).map(|l| (s.clone(), l)))
            .collect();
        ComplexLocator { facets }
    }

    /// The prepared facets.
    pub fn facets(&self) -> impl Iterator<Item = &Simplex> {
        self.facets.iter().map(|(s, _)| s)
    }

    /// Iterates over `(facet, prepared locator)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (&Simplex, &SimplexLocator)> {
        self.facets.iter().map(|(s, l)| (s, l))
    }

    /// Number of prepared facets.
    pub fn len(&self) -> usize {
        self.facets.len()
    }

    /// Whether no facet is prepared.
    pub fn is_empty(&self) -> bool {
        self.facets.is_empty()
    }

    /// Whether any facet contains `p`.
    pub fn contains(&self, p: &[f64]) -> bool {
        self.facets.iter().any(|(_, l)| l.contains(p))
    }

    /// Iterates over `(facet, barycentric coordinates)` for every facet
    /// containing `p`.
    pub fn containing<'a>(
        &'a self,
        p: &'a [f64],
    ) -> impl Iterator<Item = (&'a Simplex, Vec<f64>)> + 'a {
        self.facets.iter().filter_map(move |(s, l)| {
            if !l.in_bbox(p) {
                // Same soundness argument as `SimplexLocator::contains`:
                // any accepted point lies inside the padded box.
                return None;
            }
            l.barycentric(p)
                .filter(|lam| lam.iter().all(|&x| x >= -EPS))
                .map(|lam| (s, lam))
        })
    }
}

/// Inverse of a small dense matrix by Gauss–Jordan elimination; `None` if
/// singular.
pub fn invert(a: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = a.len();
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = row.clone();
            r.extend((0..n).map(|j| if i == j { 1.0 } else { 0.0 }));
            r
        })
        .collect();
    for col in 0..n {
        let (pivot, val) = (col..n)
            .map(|r| (r, m[r][col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))?;
        if val < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        let div = m[col][col];
        for x in m[col].iter_mut() {
            *x /= div;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = m[r][col];
            if f == 0.0 {
                continue;
            }
            let src = m[col].clone();
            for (x, s) in m[r].iter_mut().zip(&src) {
                *x -= f * s;
            }
        }
    }
    Some(m.into_iter().map(|row| row[n..].to_vec()).collect())
}

#[cfg(test)]
mod locator_tests {
    use super::*;

    #[test]
    fn locator_agrees_with_direct_solve() {
        let g = standard_simplex_geometry(2);
        let t = Simplex::from_iter([0u32, 1, 2]);
        let loc = SimplexLocator::new(&g, &t).unwrap();
        for p in [
            vec![0.2, 0.3, 0.5],
            vec![1.0, 0.0, 0.0],
            vec![0.5, 0.5, 0.0],
        ] {
            let a = loc.barycentric(&p).unwrap();
            let b = g.barycentric_in(&p, &t).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-8);
            }
            assert!(loc.contains(&p));
        }
        assert!(!loc.contains(&[-0.2, 0.6, 0.6]));
    }

    #[test]
    fn complex_locator_finds_containing_facets() {
        let g = standard_simplex_geometry(2);
        let t = Simplex::from_iter([0u32, 1, 2]);
        let c = Complex::from_facets([t.clone()]);
        let loc = ComplexLocator::new(&g, c.iter_dim(2));
        assert_eq!(loc.len(), 1);
        assert!(loc.contains(&[0.3, 0.3, 0.4]));
        let hits: Vec<_> = loc.containing(&[0.5, 0.5, 0.0]).collect();
        assert_eq!(hits.len(), 1);
        // Zero barycentric coordinate on the off-edge vertex.
        assert!(hits[0].1[2].abs() < 1e-9);
    }

    #[test]
    fn invert_round_trip() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let inv = invert(&a).unwrap();
        // a * inv = I
        for i in 0..2 {
            for j in 0..2 {
                let x: f64 = (0..2).map(|k| a[i][k] * inv[k][j]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((x - expect).abs() < 1e-10);
            }
        }
        assert!(invert(&[vec![1.0, 2.0], vec![2.0, 4.0]]).is_none());
    }
}
