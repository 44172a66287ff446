//! Chromatic simplicial maps and chromatic multi-maps (carrier maps).
//!
//! Paper §3.2: a simplicial map `f : A → B` between chromatic complexes is
//! *chromatic* when it preserves colors (and is then automatically
//! noncollapsing). A *chromatic multi-map* `Δ : A → 2^B` sends every
//! `m`-simplex to a pure `m`-dimensional subcomplex with matching colors,
//! monotonically (`Δ(σ ∩ τ) ⊆ Δ(σ) ∩ Δ(τ)`). Tasks (§4.1) are specified by
//! carrier maps.

use std::collections::HashMap;
use std::fmt;

use gact_topology::{Complex, Simplex, VertexId};

use crate::complex::ChromaticComplex;

/// Error raised when a vertex map fails to be a chromatic simplicial map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapError {
    /// A vertex of the source has no image.
    Unmapped(VertexId),
    /// The image of a vertex is not a vertex of the target.
    ImageNotInTarget(VertexId, VertexId),
    /// The image of a simplex is not a simplex of the target.
    NotSimplicial(Simplex),
    /// Colors are not preserved on some vertex.
    NotChromatic(VertexId),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Unmapped(v) => write!(f, "vertex {v:?} has no image"),
            MapError::ImageNotInTarget(v, w) => {
                write!(f, "image {w:?} of {v:?} is not a target vertex")
            }
            MapError::NotSimplicial(s) => write!(f, "image of {s:?} is not a target simplex"),
            MapError::NotChromatic(v) => write!(f, "map changes the color of {v:?}"),
        }
    }
}

impl std::error::Error for MapError {}

/// A vertex-induced simplicial map between two complexes.
///
/// Use [`SimplicialMap::validate`] / [`SimplicialMap::validate_chromatic`]
/// to certify it against concrete source and target complexes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimplicialMap {
    map: HashMap<VertexId, VertexId>,
}

impl SimplicialMap {
    /// Builds a map from explicit vertex pairs.
    pub fn new<I: IntoIterator<Item = (VertexId, VertexId)>>(pairs: I) -> Self {
        SimplicialMap {
            map: pairs.into_iter().collect(),
        }
    }

    /// The identity on the vertex set of `c`.
    pub fn identity(c: &Complex) -> Self {
        SimplicialMap {
            map: c.vertex_set().into_iter().map(|v| (v, v)).collect(),
        }
    }

    /// Number of mapped vertices.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no vertex is mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Adds or replaces a vertex assignment.
    pub fn insert(&mut self, from: VertexId, to: VertexId) {
        self.map.insert(from, to);
    }

    /// Image of a vertex, if assigned.
    pub fn get(&self, v: VertexId) -> Option<VertexId> {
        self.map.get(&v).copied()
    }

    /// Image of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if the vertex is unmapped.
    pub fn apply(&self, v: VertexId) -> VertexId {
        self.map[&v]
    }

    /// Image of a simplex: `f(σ) = ∪_{v ∈ σ} {f(v)}`.
    ///
    /// # Panics
    ///
    /// Panics if some vertex of `s` is unmapped.
    pub fn apply_simplex(&self, s: &Simplex) -> Simplex {
        Simplex::new(s.iter().map(|v| self.apply(v)))
    }

    /// Iterates over `(source, image)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.map.iter().map(|(a, b)| (*a, *b))
    }

    /// Composition `other ∘ self` (apply `self` first).
    ///
    /// # Panics
    ///
    /// Panics if some image of `self` is unmapped by `other`.
    pub fn then(&self, other: &SimplicialMap) -> SimplicialMap {
        SimplicialMap {
            map: self
                .map
                .iter()
                .map(|(v, w)| (*v, other.apply(*w)))
                .collect(),
        }
    }

    /// Checks that the map is simplicial from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, from: &Complex, to: &Complex) -> Result<(), MapError> {
        for v in from.vertex_set() {
            let Some(w) = self.get(v) else {
                return Err(MapError::Unmapped(v));
            };
            if !to.contains_vertex(w) {
                return Err(MapError::ImageNotInTarget(v, w));
            }
        }
        for s in from.facets() {
            let image = self.apply_simplex(&s);
            if !to.contains(&image) {
                return Err(MapError::NotSimplicial(s));
            }
        }
        Ok(())
    }

    /// Checks that the map is simplicial *and* chromatic from `from` to
    /// `to`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate_chromatic(
        &self,
        from: &ChromaticComplex,
        to: &ChromaticComplex,
    ) -> Result<(), MapError> {
        self.validate(from.complex(), to.complex())?;
        for v in from.complex().vertex_set() {
            if from.color(v) != to.color(self.apply(v)) {
                return Err(MapError::NotChromatic(v));
            }
        }
        Ok(())
    }
}

/// Error raised when a multi-map fails the carrier-map conditions of §3.2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CarrierError {
    /// A simplex of the source has no image subcomplex.
    Unmapped(Simplex),
    /// The image of an `m`-simplex is non-empty but not pure of dimension
    /// `m`.
    NotPure(Simplex),
    /// `χ(Δ(σ)) ⊄ χ(σ)` — image uses colors outside the source simplex.
    ColorMismatch(Simplex),
    /// `Δ(σ') ⊄ Δ(σ)` for a face `σ' ⊆ σ` (monotonicity failure).
    NotMonotone(Simplex, Simplex),
    /// The image is not a subcomplex of the target.
    ImageNotInTarget(Simplex),
}

impl fmt::Display for CarrierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CarrierError::Unmapped(s) => write!(f, "simplex {s:?} has no image"),
            CarrierError::NotPure(s) => write!(f, "image of {s:?} is not pure of its dimension"),
            CarrierError::ColorMismatch(s) => write!(f, "image of {s:?} uses foreign colors"),
            CarrierError::NotMonotone(a, b) => {
                write!(f, "Δ({a:?}) ⊄ Δ({b:?}) despite {a:?} ⊆ {b:?}")
            }
            CarrierError::ImageNotInTarget(s) => {
                write!(f, "image of {s:?} is not a subcomplex of the target")
            }
        }
    }
}

impl std::error::Error for CarrierError {}

/// A chromatic multi-map `Δ : A → 2^B` (§3.2), stored extensionally on the
/// simplices of the source.
///
/// Following the paper (footnote 2), images are allowed to be empty.
#[derive(Clone, Debug, Default)]
pub struct CarrierMap {
    map: HashMap<Simplex, Complex>,
}

impl CarrierMap {
    /// Builds a carrier map from explicit images.
    pub fn new<I: IntoIterator<Item = (Simplex, Complex)>>(images: I) -> Self {
        CarrierMap {
            map: images.into_iter().collect(),
        }
    }

    /// The image subcomplex of a simplex (empty complex if unassigned).
    pub fn image(&self, s: &Simplex) -> Complex {
        self.map.get(s).cloned().unwrap_or_default()
    }

    /// Borrowed variant of [`CarrierMap::image`]: the stored image
    /// subcomplex, or `None` if the simplex has no assigned image. The hot
    /// paths (solver `Δ`-cache fills, obstruction scans) use this to avoid
    /// cloning a complex per query.
    pub fn image_ref(&self, s: &Simplex) -> Option<&Complex> {
        self.map.get(s)
    }

    /// Sets the image of a simplex.
    pub fn set(&mut self, s: Simplex, image: Complex) {
        self.map.insert(s, image);
    }

    /// Iterates over `(simplex, image)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Simplex, &Complex)> {
        self.map.iter()
    }

    /// Validates the carrier-map conditions of §3.2 with respect to colored
    /// source and target.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(
        &self,
        from: &ChromaticComplex,
        to: &ChromaticComplex,
    ) -> Result<(), CarrierError> {
        for s in from.complex().iter() {
            let Some(img) = self.map.get(s) else {
                return Err(CarrierError::Unmapped(s.clone()));
            };
            if !img.is_subcomplex_of(to.complex()) {
                return Err(CarrierError::ImageNotInTarget(s.clone()));
            }
            if !img.is_empty() {
                if !img.is_pure_of_dim(s.dim()) {
                    return Err(CarrierError::NotPure(s.clone()));
                }
                // Colors: every facet of the image uses exactly χ(σ).
                let chi_s = from.chi(s);
                for facet in img.facets() {
                    if to.chi(&facet) != chi_s {
                        return Err(CarrierError::ColorMismatch(s.clone()));
                    }
                }
            }
        }
        // Monotonicity on faces.
        for s in from.complex().iter() {
            let img_s = self.image(s);
            for f in s.faces() {
                if &f == s {
                    continue;
                }
                let img_f = self.image(&f);
                if !img_f.is_subcomplex_of(&img_s) {
                    return Err(CarrierError::NotMonotone(f, s.clone()));
                }
            }
        }
        Ok(())
    }

    /// Whether `simplex ∈ Δ(carrier)` — the acceptance test used by task
    /// specifications.
    pub fn allows(&self, carrier: &Simplex, simplex: &Simplex) -> bool {
        self.image(carrier).contains(simplex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::standard::standard_simplex;

    fn s(vs: &[u32]) -> Simplex {
        Simplex::from_iter(vs.iter().copied())
    }

    fn colored_pair() -> (ChromaticComplex, ChromaticComplex) {
        let (a, _) = standard_simplex(1);
        let b = ChromaticComplex::new(
            Complex::from_facets([s(&[10, 11])]),
            [(VertexId(10), Color(0)), (VertexId(11), Color(1))],
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn identity_is_chromatic() {
        let (a, _) = standard_simplex(2);
        let id = SimplicialMap::identity(a.complex());
        assert!(id.validate_chromatic(&a, &a).is_ok());
    }

    #[test]
    fn valid_chromatic_map() {
        let (a, b) = colored_pair();
        let f = SimplicialMap::new([(VertexId(0), VertexId(10)), (VertexId(1), VertexId(11))]);
        assert!(f.validate_chromatic(&a, &b).is_ok());
        assert_eq!(f.apply_simplex(&s(&[0, 1])), s(&[10, 11]));
    }

    #[test]
    fn color_swap_rejected() {
        let (a, b) = colored_pair();
        let f = SimplicialMap::new([(VertexId(0), VertexId(11)), (VertexId(1), VertexId(10))]);
        assert_eq!(
            f.validate_chromatic(&a, &b),
            Err(MapError::NotChromatic(VertexId(0)))
        );
    }

    #[test]
    fn unmapped_vertex_rejected() {
        let (a, b) = colored_pair();
        let f = SimplicialMap::new([(VertexId(0), VertexId(10))]);
        assert_eq!(
            f.validate(a.complex(), b.complex()),
            Err(MapError::Unmapped(VertexId(1)))
        );
    }

    #[test]
    fn non_simplicial_rejected() {
        let (a, _) = colored_pair();
        // Target has two disconnected vertices but no edge.
        let b = ChromaticComplex::new(
            Complex::from_facets([s(&[10]), s(&[11])]),
            [(VertexId(10), Color(0)), (VertexId(11), Color(1))],
        )
        .unwrap();
        let f = SimplicialMap::new([(VertexId(0), VertexId(10)), (VertexId(1), VertexId(11))]);
        assert_eq!(
            f.validate(a.complex(), b.complex()),
            Err(MapError::NotSimplicial(s(&[0, 1])))
        );
    }

    #[test]
    fn composition() {
        let f = SimplicialMap::new([(VertexId(0), VertexId(1))]);
        let g = SimplicialMap::new([(VertexId(1), VertexId(2))]);
        assert_eq!(f.then(&g).apply(VertexId(0)), VertexId(2));
    }

    #[test]
    fn carrier_map_identity_on_standard_simplex() {
        let (a, _) = standard_simplex(1);
        let mut cm = CarrierMap::default();
        for simplex in a.complex().iter() {
            cm.set(simplex.clone(), Complex::from_facets([simplex.clone()]));
        }
        assert!(cm.validate(&a, &a).is_ok());
        assert!(cm.allows(&s(&[0, 1]), &s(&[0])));
        assert!(!cm.allows(&s(&[0]), &s(&[1])));
    }

    #[test]
    fn carrier_map_monotonicity_violation() {
        let (a, _) = standard_simplex(1);
        let mut cm = CarrierMap::default();
        // Edge maps to edge, but vertex 0 maps elsewhere (not inside).
        cm.set(s(&[0, 1]), Complex::from_facets([s(&[0, 1])]));
        cm.set(s(&[0]), Complex::from_facets([s(&[5])]));
        cm.set(s(&[1]), Complex::from_facets([s(&[1])]));
        // Image of {0} is not a subcomplex of the edge image -> monotonicity
        // error (or target membership, checked first).
        assert!(cm.validate(&a, &a).is_err());
    }

    #[test]
    fn carrier_map_purity_violation() {
        let (a, _) = standard_simplex(1);
        let mut cm = CarrierMap::default();
        // The edge's image is 0-dimensional: not pure of dimension 1.
        cm.set(s(&[0, 1]), Complex::from_facets([s(&[0]), s(&[1])]));
        cm.set(s(&[0]), Complex::from_facets([s(&[0])]));
        cm.set(s(&[1]), Complex::from_facets([s(&[1])]));
        assert_eq!(cm.validate(&a, &a), Err(CarrierError::NotPure(s(&[0, 1]))));
    }

    #[test]
    fn empty_images_allowed() {
        let (a, _) = standard_simplex(1);
        let mut cm = CarrierMap::default();
        cm.set(s(&[0, 1]), Complex::from_facets([s(&[0, 1])]));
        cm.set(s(&[0]), Complex::new());
        cm.set(s(&[1]), Complex::from_facets([s(&[1])]));
        assert!(cm.validate(&a, &a).is_ok());
    }
}
