//! # gact-scenarios
//!
//! The scenario-matrix engine: declarative `(task × model × parameter)`
//! sweeps through the GACT decision pipeline, with cross-query caching.
//!
//! The GACT characterization (Gafni–Kuznetsov–Manolescu, PODC 2014) is a
//! decision procedure over a *space* of queries — which task, under which
//! sub-IIS model, at which subdivision depth. This crate treats that space
//! as a first-class object:
//!
//! * [`spec::TaskSpec`] and [`gact_models::ModelSpec`] name the two axes
//!   declaratively (every task constructor in `gact-tasks` × every model
//!   family in `gact-models`);
//! * [`matrix::Cell`] is one concrete query;
//!   [`matrix::run_matrix_controlled`] fans a batch of cells across the
//!   [`gact_parallel`] pool under a [`gact::control::SolveControl`] and
//!   returns sound, deterministic per-cell [`matrix::CellOutcome`]s in
//!   cell order;
//! * [`registry`] holds the named families (`wf-classic`, `rounds-sweep`,
//!   `resilient`, …; `all` spans every family);
//! * [`report`] serializes sweep reports as schema-2 JSON.
//!
//! All cells of a sweep share one [`gact::cache::QueryCache`], so
//! chromatic subdivisions `Chr^m` and the solver's interned-carrier
//! domain tables are built once per `(protocol complex, round count)` for
//! the whole matrix instead of once per cell —
//! [`matrix::run_matrix_cold`] is the per-cell cold reference the bench
//! harness and the equivalence tests compare against.
//!
//! ## Example
//!
//! ```
//! use gact::cache::QueryCache;
//! use gact::control::SolveControl;
//! use gact_scenarios::{cells_for, run_matrix_controlled};
//!
//! let cells = cells_for("smoke").expect("registered family");
//! let cache = QueryCache::new();
//! let report = run_matrix_controlled(&cells, &cache, &SolveControl::new());
//! assert_eq!(report.results.len(), cells.len());
//! // An inert control decides every smoke cell deterministically.
//! assert_eq!(report.interrupted, 0);
//! assert!(report.results.iter().all(|r| r.outcome.verdict().is_some()));
//! ```
//!
//! The `scenarios` binary exposes the same engine on the command line:
//! `scenarios --family all --json sweep.json`.

#![deny(missing_docs)]

pub mod matrix;
pub mod registry;
pub mod report;
pub mod spec;

pub use matrix::{
    evaluate_cell_controlled, run_matrix_cold, run_matrix_controlled, Cell, CellOutcome,
    ControlledCellResult, ControlledMatrixReport, SolvableBy, Verdict,
};
pub use registry::{cells_for, families, Family};
pub use report::{cache_stats_json, count_cells, solve_stats_json, to_json_controlled};
pub use spec::TaskSpec;
