//! # gact-topology
//!
//! Combinatorial-topology substrate for the reproduction of
//! *"A Generalized Asynchronous Computability Theorem"* (Gafni, Kuznetsov,
//! Manolescu; PODC 2014). Implements the material of the paper's §3.1:
//!
//! * [`Simplex`] / [`Complex`] — abstract simplicial complexes with stars,
//!   links, skeleta and purity checks;
//! * [`Geometry`] — geometric realizations with the L1 metric
//!   `d(α, β) = Σ_v |α(v) − β(v)|`, barycentric point location and carriers;
//! * [`homology`] — GF(2) simplicial homology (Betti numbers);
//! * [`connectivity`] — `k`-connectivity verdicts with explicit certainty.
//!
//! Chromatic structure (colors, the standard chromatic subdivision,
//! terminating subdivisions) lives one level up, in `gact-chromatic`.
//!
//! ## Example
//!
//! ```
//! use gact_topology::{Complex, Simplex, connectivity::is_k_connected};
//!
//! // The hollow triangle (a circle) is connected but not 1-connected.
//! let circle = Complex::from_facets([
//!     Simplex::from_iter([0u32, 1]),
//!     Simplex::from_iter([1u32, 2]),
//!     Simplex::from_iter([0u32, 2]),
//! ]);
//! assert!(is_k_connected(&circle, 0).holds());
//! assert!(!is_k_connected(&circle, 1).holds());
//! ```

#![deny(missing_docs)]

pub mod arena;
pub mod complex;
pub mod connectivity;
pub mod geometry;
pub mod homology;
pub mod simplex;

pub use arena::{SimplexArena, SimplexId};
pub use complex::{Complex, UnionFind};
pub use geometry::{
    l1_distance, standard_simplex_geometry, ComplexLocator, Geometry, Point, SimplexLocator,
};
pub use simplex::{Simplex, VertexId, INLINE_CAP};
