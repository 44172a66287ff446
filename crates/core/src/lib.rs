//! # gact
//!
//! Core library of the reproduction of *"A Generalized Asynchronous
//! Computability Theorem"* (Gafni, Kuznetsov, Manolescu; PODC 2014).
//!
//! * [`solver`] — carrier-constrained chromatic-map existence (the finite
//!   decision procedure both ACT and GACT checks reduce to).

#![deny(missing_docs)]

pub mod act;
pub mod cache;
pub mod control;
pub mod gact;
pub mod lt;
pub mod protocol;
pub mod render;
pub mod solver;

pub use act::{
    act_solve, act_solve_controlled, connectivity_obstruction, ActOutcome, ActVerdict, Obstruction,
};
pub use cache::QueryCache;
pub use control::{Budget, CancelToken, Interrupt, SolveControl};
pub use gact::{certificate_from_act_map, GactCertificate};
pub use lt::{build_lt_showcase, radial_projection, LtShowcase};
pub use protocol::{verify_protocol_on_runs, CertificateProtocol, RunVerification};
pub use render::Scene;
pub use solver::{
    prepare_domain, prepare_plan, solve, solve_compiled_with, validate_solution, DomainTables,
    MapProblem, PropagationPlan, SolveOutcome, SolveStats,
};
