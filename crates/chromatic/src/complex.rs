//! Chromatic complexes: simplicial complexes with a noncollapsing coloring.
//!
//! Paper §3.2: a chromatic complex is a complex `C` together with a
//! noncollapsing simplicial map `χ : C → s` to the standard simplex; i.e.
//! every simplex is *rainbow* (its vertices carry pairwise distinct colors).

use std::collections::HashMap;
use std::fmt;

use gact_topology::{Complex, Simplex, VertexId};

use crate::color::{Color, ColorSet};

/// Error raised when a coloring fails to be chromatic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChromaticError {
    /// A vertex of the complex has no color assigned.
    MissingColor(VertexId),
    /// A simplex carries a repeated color.
    NotRainbow(Simplex),
}

impl fmt::Display for ChromaticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChromaticError::MissingColor(v) => write!(f, "vertex {v:?} has no color"),
            ChromaticError::NotRainbow(s) => {
                write!(f, "simplex {s:?} repeats a color (χ collapses it)")
            }
        }
    }
}

impl std::error::Error for ChromaticError {}

/// A simplicial complex together with a rainbow coloring of its vertices.
///
/// ```
/// use gact_chromatic::{ChromaticComplex, Color};
/// use gact_topology::{Complex, Simplex, VertexId};
///
/// let c = Complex::from_facets([Simplex::from_iter([0u32, 1])]);
/// let colored = ChromaticComplex::new(
///     c,
///     [(VertexId(0), Color(0)), (VertexId(1), Color(1))],
/// ).unwrap();
/// assert_eq!(colored.color(VertexId(1)), Color(1));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ChromaticComplex {
    complex: Complex,
    colors: HashMap<VertexId, Color>,
}

impl fmt::Debug for ChromaticComplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChromaticComplex")
            .field("complex", &self.complex)
            .field("vertices", &self.complex.vertex_count())
            .finish()
    }
}

impl ChromaticComplex {
    /// Wraps a complex with a coloring, validating the chromatic condition.
    ///
    /// # Errors
    ///
    /// Returns [`ChromaticError::MissingColor`] if some vertex lacks a color
    /// and [`ChromaticError::NotRainbow`] if some simplex repeats a color.
    pub fn new<I: IntoIterator<Item = (VertexId, Color)>>(
        complex: Complex,
        colors: I,
    ) -> Result<Self, ChromaticError> {
        let colors: HashMap<VertexId, Color> = colors.into_iter().collect();
        for v in complex.vertex_set() {
            if !colors.contains_key(&v) {
                return Err(ChromaticError::MissingColor(v));
            }
        }
        let cc = ChromaticComplex { complex, colors };
        // Rainbow check on facets suffices (faces inherit injectivity).
        for facet in cc.complex.facets() {
            if cc.chi(&facet).len() != facet.card() {
                return Err(ChromaticError::NotRainbow(facet));
            }
        }
        Ok(cc)
    }

    /// The underlying uncolored complex.
    pub fn complex(&self) -> &Complex {
        &self.complex
    }

    /// The color of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if the vertex does not belong to the complex.
    pub fn color(&self, v: VertexId) -> Color {
        *self
            .colors
            .get(&v)
            .unwrap_or_else(|| panic!("vertex {v:?} not in complex"))
    }

    /// The coloring map as a reference.
    pub fn colors(&self) -> &HashMap<VertexId, Color> {
        &self.colors
    }

    /// `χ(σ)`: the set of colors appearing on a simplex.
    pub fn chi(&self, s: &Simplex) -> ColorSet {
        s.iter().map(|v| self.color(v)).collect()
    }

    /// The vertex of `s` carrying color `c`, if any.
    pub fn vertex_of_color(&self, s: &Simplex, c: Color) -> Option<VertexId> {
        s.iter().find(|&v| self.color(v) == c)
    }

    /// Restricts to a subcomplex (which inherits the coloring, §3.2).
    ///
    /// # Panics
    ///
    /// Panics if `sub` is not a subcomplex of this complex.
    pub fn restrict(&self, sub: &Complex) -> ChromaticComplex {
        assert!(
            sub.is_subcomplex_of(&self.complex),
            "restriction target is not a subcomplex"
        );
        ChromaticComplex {
            complex: sub.clone(),
            colors: sub
                .vertex_set()
                .into_iter()
                .map(|v| (v, self.color(v)))
                .collect(),
        }
    }

    /// Dimension of the underlying complex.
    pub fn dim(&self) -> Option<usize> {
        self.complex.dim()
    }

    /// Whether the underlying complex is pure of dimension `n`.
    pub fn is_pure_of_dim(&self, n: usize) -> bool {
        self.complex.is_pure_of_dim(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(vs: &[u32]) -> Simplex {
        Simplex::from_iter(vs.iter().copied())
    }

    fn tri() -> ChromaticComplex {
        ChromaticComplex::new(
            Complex::from_facets([s(&[0, 1, 2])]),
            [
                (VertexId(0), Color(0)),
                (VertexId(1), Color(1)),
                (VertexId(2), Color(2)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_coloring_accepted() {
        let c = tri();
        assert_eq!(c.color(VertexId(2)), Color(2));
        assert_eq!(c.chi(&s(&[0, 2])).len(), 2);
    }

    #[test]
    fn missing_color_rejected() {
        let err = ChromaticComplex::new(
            Complex::from_facets([s(&[0, 1])]),
            [(VertexId(0), Color(0))],
        )
        .unwrap_err();
        assert_eq!(err, ChromaticError::MissingColor(VertexId(1)));
    }

    #[test]
    fn non_rainbow_rejected() {
        let err = ChromaticComplex::new(
            Complex::from_facets([s(&[0, 1])]),
            [(VertexId(0), Color(0)), (VertexId(1), Color(0))],
        )
        .unwrap_err();
        assert_eq!(err, ChromaticError::NotRainbow(s(&[0, 1])));
    }

    #[test]
    fn vertex_of_color_lookup() {
        let c = tri();
        assert_eq!(
            c.vertex_of_color(&s(&[0, 1, 2]), Color(1)),
            Some(VertexId(1))
        );
        assert_eq!(c.vertex_of_color(&s(&[0, 2]), Color(1)), None);
    }

    #[test]
    fn restrict_inherits_colors() {
        let c = tri();
        let sub = Complex::from_facets([s(&[1, 2])]);
        let r = c.restrict(&sub);
        assert_eq!(r.color(VertexId(1)), Color(1));
        assert_eq!(r.complex().simplex_count(), 3);
    }
}
