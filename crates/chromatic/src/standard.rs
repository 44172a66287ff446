//! The standard `n`-simplex `s` as a chromatic complex (paper §3.2).
//!
//! Vertex `i` carries color `i` and is realized at the `i`-th unit vector of
//! `R^{n+1}`, so `|s| = {x ∈ [0,1]^{n+1} : Σ x_i = 1}`.

use gact_topology::{standard_simplex_geometry, Complex, Geometry, Simplex, VertexId};

use crate::color::Color;
use crate::complex::ChromaticComplex;

/// The standard `n`-simplex with identity coloring and its geometry.
pub fn standard_simplex(n: usize) -> (ChromaticComplex, Geometry) {
    assert!(n < 64, "at most 64 colors supported");
    let top = Simplex::new((0..=n as u32).map(VertexId));
    let complex = Complex::from_facets([top]);
    let colors = (0..=n as u32).map(|i| (VertexId(i), Color(i as u8)));
    let cc = ChromaticComplex::new(complex, colors).expect("identity coloring is chromatic");
    (cc, standard_simplex_geometry(n))
}

/// The top-dimensional simplex of the standard `n`-simplex.
pub fn top_simplex(n: usize) -> Simplex {
    Simplex::new((0..=n as u32).map(VertexId))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_simplex_shape() {
        let (s, g) = standard_simplex(2);
        assert_eq!(s.dim(), Some(2));
        assert_eq!(s.complex().simplex_count(), 7);
        assert!(s.is_pure_of_dim(2));
        assert_eq!(s.color(VertexId(1)), Color(1));
        assert_eq!(g.coord(VertexId(1)), &vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn closed_star_of_face_is_the_simplex() {
        // Paper §3.2: the closed star of any face of the standard simplex
        // is the whole simplex.
        let (s, _) = standard_simplex(2);
        let t = Simplex::from_iter([0u32, 1]);
        assert_eq!(s.complex().closed_star(&t), *s.complex());
    }
}
