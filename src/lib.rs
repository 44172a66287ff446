//! Facade crate for the GACT reproduction workspace.
//!
//! The actual implementation lives in the `crates/` workspace members; this
//! root package exists to host the workspace-level integration tests
//! (`tests/`) and the runnable examples (`examples/`). It re-exports the
//! pipeline crates (topology, chromatic, iis, tasks, models, `gact` and
//! engine) so downstream experiments can depend on a single crate; the
//! scenario matrix, the worker pool and the bench harness are not
//! re-exported.
//!
//! **The documented entry point is [`engine`]** — a long-lived
//! [`engine::Engine`] session object owning every cache, serving typed,
//! validated requests with structured errors, budgets, and cancellation
//! (see `docs/engine.md` and the README quickstart). The lower-level
//! re-exports remain available for direct pipeline access; their answers
//! are byte-identical to the engine's.

pub use gact; // gact-core's library target is named `gact`
pub use gact_chromatic as chromatic;
pub use gact_engine as engine;
pub use gact_iis as iis;
pub use gact_models as models;
pub use gact_tasks as tasks;
pub use gact_topology as topology;
