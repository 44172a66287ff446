//! # gact-chromatic
//!
//! Chromatic combinatorial topology for the reproduction of *"A Generalized
//! Asynchronous Computability Theorem"* (Gafni, Kuznetsov, Manolescu;
//! PODC 2014): the material of the paper's §3.2 and §6.1.
//!
//! * [`Color`] / [`ColorSet`] — process identifiers as colors;
//! * [`ChromaticComplex`] — complexes with rainbow colorings `χ`;
//! * [`standard::standard_simplex`] — the standard simplex `s`;
//! * [`chr`](mod@chr) — the standard chromatic subdivision `Chr` and `Chr^m`,
//!   realized geometrically with the paper's `1/(2k−1)` vertex formula
//!   ([`snapshot_point`], shared with the IIS run dynamics) and carrier
//!   tracking;
//! * [`maps`] — chromatic simplicial maps and carrier maps (multi-maps);
//! * [`link`] — link-connectivity (Def. 8.3);
//! * [`terminating`] — terminating subdivisions and the stable complex
//!   `K(T)` (§6.1), the combinatorial core of GACT.
//!
//! ## Example
//!
//! ```
//! use gact_chromatic::{chr::chr, standard::standard_simplex};
//!
//! let (s, g) = standard_simplex(2);
//! let sd = chr(&s, &g);
//! // Chr of a triangle has 13 triangles (the ordered Bell number of 3).
//! assert_eq!(sd.complex.complex().count_of_dim(2), 13);
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod chr;
pub mod color;
pub mod complex;
pub mod link;
pub mod maps;
pub mod standard;
pub mod terminating;

pub use cache::{complex_cache_key, CacheStats, ComplexKey, SubdivisionCache};
pub use chr::{
    chr, chr_identity, chr_iter, chr_relative, chr_step, compose_carriers, fubini,
    ordered_partitions, snapshot_point, ChromaticSubdivision, FaceCarriers, StageLineage,
    VertexAlloc,
};
pub use color::{Color, ColorSet};
pub use complex::{ChromaticComplex, ChromaticError};
pub use link::{is_link_connected, link_connectivity_report, LinkReport};
pub use maps::{CarrierError, CarrierMap, MapError, SimplicialMap};
pub use standard::{standard_simplex, top_simplex};
pub use terminating::TerminatingSubdivision;
