//! # gact-engine
//!
//! The service-grade facade of the GACT reproduction: one long-lived
//! [`Engine`] session object in front of the whole decision pipeline.
//!
//! The research-shaped entry points (`gact::act_solve_controlled`,
//! `gact_scenarios::run_matrix_controlled`) hand-thread caches through
//! free functions and panic on invalid input. The engine wraps them in the
//! front-door shape a production decision service needs:
//!
//! * **one session object** — an [`Engine`] owns every cache layer
//!   (iterated subdivisions, solver domain tables, propagation plans,
//!   and the Proposition 9.2 certificate memo) behind one handle, shared
//!   by every request; concurrent submission fans out over the
//!   `gact-parallel` pool, and only the certificate memo is held across
//!   a build (the other layers may build a value twice at more than one
//!   thread; the first insert wins and each build counts as a miss);
//! * **typed requests** — [`SolveRequest`], [`MatrixRequest`],
//!   [`VerifyRequest`] builders validate *at construction*: a request
//!   that builds cannot make the engine panic;
//! * **structured errors** — every failure is an [`EngineError`]
//!   (invalid spec naming the offending field, budget exceeded,
//!   cancelled, internal), never a panic;
//! * **deadlines & cancellation** — requests optionally carry a
//!   [`Budget`] (deadline, search-node cap, subdivision-round cap) and a
//!   [`CancelToken`], checked at round boundaries and search-split
//!   points; a tripped query returns a partial, honest `Interrupted`
//!   outcome and never poisons the shared caches;
//! * **observability** — [`Engine::stats`] returns a consolidated
//!   [`EngineStats`] snapshot (queries by kind, interruptions, aggregate
//!   solver effort, per-layer cache counters), exported by
//!   `scenarios --json` under the schema-2 `"engine"` key.
//!
//! Completed answers are **byte-identical** to the direct pipeline entry
//! points for every input and thread count — the engine is a facade, not
//! a fork; the equivalence proptests in `tests/` pin verdicts *and* maps
//! at 1 and 8 threads.
//!
//! ## Example
//!
//! ```
//! use gact_engine::{Engine, MatrixRequest, SolveRequest};
//! use gact_scenarios::TaskSpec;
//!
//! let engine = Engine::new();
//!
//! // Single query: binary consensus is impossible at every depth.
//! let solve = SolveRequest::new(TaskSpec::Consensus { n: 1, n_values: 2 }, 2).unwrap();
//! assert_eq!(engine.solve(&solve).unwrap().outcome.kind(), "unsolvable");
//!
//! // Batch sweep: the CI smoke family, sharing the same caches.
//! let matrix = MatrixRequest::family("smoke").unwrap();
//! let reply = engine.matrix(&matrix).unwrap();
//! assert_eq!(reply.report.interrupted, 0);
//!
//! // One snapshot covers both requests.
//! let stats = engine.stats();
//! assert_eq!(stats.queries(), 2);
//! ```
//!
//! The request lifecycle, budget/cancellation semantics, and the error
//! taxonomy are documented in `docs/engine.md`.

#![deny(missing_docs)]

mod engine;
mod error;
mod request;

pub use engine::{
    Engine, EngineBuilder, EngineStats, MatrixReply, SolveReply, SolveVerdict, VerifyReply,
};
pub use error::EngineError;
pub use request::{
    MatrixRequest, SolveRequest, VerifyRequest, MAX_REQUEST_DEPTH, MAX_VERIFY_ROUNDS,
};

// Re-exported governance types: requests are built from these.
pub use gact::control::{Budget, CancelToken, Interrupt};
