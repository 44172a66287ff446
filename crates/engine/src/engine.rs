//! The [`Engine`] session object and its reply / stats types.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gact::cache::QueryCache;
use gact::control::Interrupt;
use gact::lt::LtShowcase;
use gact::solver::SolveStats;
use gact::{act_solve_controlled, verify_protocol_on_runs, ActOutcome, ActVerdict};
use gact_chromatic::{CacheStats, ChromaticSubdivision, SimplicialMap};
use gact_scenarios::{run_matrix_controlled, ControlledMatrixReport};

use crate::error::EngineError;
use crate::request::{MatrixRequest, SolveRequest, VerifyRequest};

/// Builder for a configured [`Engine`].
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    cache_capacity: Option<usize>,
    threads: Option<usize>,
}

impl EngineBuilder {
    /// Caps each cache layer (subdivisions, domain tables, propagation
    /// plans) at `capacity` entries with least-recently-used eviction.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] for a zero capacity.
    pub fn cache_capacity(mut self, capacity: usize) -> Result<Self, EngineError> {
        if capacity == 0 {
            return Err(EngineError::invalid(
                "cache_capacity",
                "the cache needs room for at least one entry",
            ));
        }
        self.cache_capacity = Some(capacity);
        Ok(self)
    }

    /// Runs every request of this engine on an `n`-worker pool (the
    /// per-call-tree override of `gact-parallel`; results are identical
    /// for every `n`, only wall times change).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] for zero workers or more than
    /// [`gact_parallel::MAX_THREADS`] (each worker is an OS thread kept
    /// for the process lifetime).
    pub fn threads(mut self, n: usize) -> Result<Self, EngineError> {
        if !(1..=gact_parallel::MAX_THREADS).contains(&n) {
            return Err(EngineError::invalid(
                "threads",
                format!(
                    "the worker pool takes 1 to {} threads, got {n}",
                    gact_parallel::MAX_THREADS
                ),
            ));
        }
        self.threads = Some(n);
        Ok(self)
    }

    /// Builds the engine.
    pub fn build(self) -> Engine {
        Engine {
            cache: match self.cache_capacity {
                Some(cap) => QueryCache::with_capacity(cap),
                None => QueryCache::new(),
            },
            threads: self.threads,
            counters: Counters::default(),
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    solves: AtomicU64,
    matrices: AtomicU64,
    verifies: AtomicU64,
    cells: AtomicU64,
    interrupted: AtomicU64,
    assignments: AtomicU64,
    backtracks: AtomicU64,
    prunes: AtomicU64,
    component_prunes: AtomicU64,
}

impl Counters {
    fn add_solver(&self, s: SolveStats) {
        self.assignments.fetch_add(s.assignments, Ordering::Relaxed);
        self.backtracks.fetch_add(s.backtracks, Ordering::Relaxed);
        self.prunes.fetch_add(s.prunes, Ordering::Relaxed);
        self.component_prunes
            .fetch_add(s.component_prunes, Ordering::Relaxed);
    }
}

/// The long-lived session object of the GACT decision service.
///
/// One `Engine` owns every cache of the pipeline behind a single handle —
/// iterated subdivisions, solver domain tables, propagation plans, and
/// the Proposition 9.2 certificate memo — and serves typed requests
/// against them: [`Engine::solve`] for single solvability queries,
/// [`Engine::matrix`] for batch sweeps (fanned across the worker pool),
/// and [`Engine::verify`] for certificate verification. All methods take
/// `&self`; an `Engine` is meant to be shared across threads for
/// concurrent submission.
///
/// Completed answers are byte-identical to the direct pipeline entry
/// points (`gact::act_solve`, `gact_scenarios::run_matrix_cold`) for
/// every input and thread count; requests carrying a budget or cancel
/// token come back
/// with honest `Interrupted` outcomes when governance trips, and an
/// interrupted request never poisons the caches — the same engine answers
/// the repeated query in full.
///
/// # Examples
///
/// ```
/// use gact_engine::{Engine, SolveRequest};
/// use gact_scenarios::TaskSpec;
///
/// let engine = Engine::new();
/// // Consensus is impossible at every depth (connectivity obstruction).
/// let request = SolveRequest::new(TaskSpec::Consensus { n: 1, n_values: 2 }, 2).unwrap();
/// let reply = engine.solve(&request).unwrap();
/// assert_eq!(reply.outcome.kind(), "unsolvable");
/// assert_eq!(engine.stats().solves, 1);
/// ```
#[derive(Debug)]
pub struct Engine {
    cache: QueryCache,
    threads: Option<usize>,
    counters: Counters,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// The outcome of a completed [`Engine::solve`] request.
#[derive(Debug)]
pub enum SolveVerdict {
    /// Solvable: a chromatic map from `Chr^depth I` was found.
    Solvable {
        /// The subdivision depth of the found map.
        depth: usize,
        /// The chromatic map `η : Chr^depth I → O`.
        map: SimplicialMap,
        /// The subdivision the map is defined on (shared with the
        /// engine's cache).
        subdivision: Arc<ChromaticSubdivision>,
    },
    /// Unsolvable at *every* depth: a connectivity obstruction.
    Unsolvable {
        /// Human-readable obstruction witness.
        obstruction: String,
    },
    /// No map up to the requested depth (inconclusive beyond it).
    NoMapUpTo(usize),
    /// The query stopped early (budget or cancellation); depths
    /// `0 .. completed_depths` were fully searched without finding a map.
    Interrupted {
        /// Why the query stopped.
        reason: Interrupt,
        /// Depths fully searched before stopping.
        completed_depths: usize,
    },
}

impl SolveVerdict {
    /// Machine-readable outcome class (`"solvable"`, `"unsolvable"`,
    /// `"unknown"`, `"interrupted"` — aligned with the matrix verdict
    /// kinds).
    pub fn kind(&self) -> &'static str {
        match self {
            SolveVerdict::Solvable { .. } => "solvable",
            SolveVerdict::Unsolvable { .. } => "unsolvable",
            SolveVerdict::NoMapUpTo(_) => "unknown",
            SolveVerdict::Interrupted { .. } => "interrupted",
        }
    }
}

/// Reply to [`Engine::solve`].
#[derive(Debug)]
pub struct SolveReply {
    /// The (possibly interrupted) outcome.
    pub outcome: SolveVerdict,
    /// Solver effort accumulated across every searched depth.
    pub stats: SolveStats,
    /// Wall time of the request (non-deterministic).
    pub wall: Duration,
}

impl SolveReply {
    /// The depth of the found map, if the outcome is solvable.
    pub fn solvable_depth(&self) -> Option<usize> {
        match &self.outcome {
            SolveVerdict::Solvable { depth, .. } => Some(*depth),
            _ => None,
        }
    }
}

/// Reply to [`Engine::matrix`].
#[derive(Debug)]
pub struct MatrixReply {
    /// The request's label (family name or caller-given).
    pub label: String,
    /// Per-cell outcomes, cache deltas, aggregate solver effort.
    pub report: ControlledMatrixReport,
    /// Wall time of the request (non-deterministic).
    pub wall: Duration,
}

/// Reply to [`Engine::verify`].
#[derive(Debug)]
pub struct VerifyReply {
    /// Stabilization-band sizes of the certificate's terminating
    /// subdivision.
    pub bands: Vec<usize>,
    /// Number of runs the extracted protocol was executed on.
    pub runs: usize,
    /// Total property violations across all runs (zero for a verified
    /// certificate).
    pub violations: usize,
    /// Wall time of the request (non-deterministic).
    pub wall: Duration,
}

/// A consolidated snapshot of an engine's counters: queries served by
/// kind, interruptions, aggregate solver effort, and the hit/miss/eviction
/// counters of every cache layer. Returned by [`Engine::stats`]; exported
/// by `scenarios --json` under the schema-2 `"engine"` key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Completed [`Engine::solve`] requests.
    pub solves: u64,
    /// Completed [`Engine::matrix`] requests.
    pub matrices: u64,
    /// Completed [`Engine::verify`] requests.
    pub verifies: u64,
    /// Matrix cells evaluated across all matrix requests.
    pub cells: u64,
    /// Interrupted queries (solve requests plus matrix cells).
    pub interrupted: u64,
    /// Aggregate solver effort across every query.
    pub solver: SolveStats,
    /// Subdivision-cache counters.
    pub subdivision_cache: CacheStats,
    /// Domain-table-cache counters.
    pub domain_table_cache: CacheStats,
    /// Propagation-plan-cache counters.
    pub propagation_plan_cache: CacheStats,
}

impl EngineStats {
    /// Total requests served, all kinds.
    pub fn queries(&self) -> u64 {
        self.solves + self.matrices + self.verifies
    }

    /// Serializes the snapshot as a JSON object (the schema-2 `"engine"`
    /// value of the scenarios report). The cache and solver fragments
    /// come from `gact_scenarios::report`'s canonical serializers, so
    /// the engine section and the report totals always agree on layout.
    pub fn to_json_object(&self) -> String {
        format!(
            "{{\"queries\": {}, \"solves\": {}, \"matrices\": {}, \"verifies\": {}, \
             \"cells\": {}, \"interrupted\": {}, \"solver\": {}, \
             \"subdivision_cache\": {}, \"domain_table_cache\": {}, \
             \"propagation_plan_cache\": {}}}",
            self.queries(),
            self.solves,
            self.matrices,
            self.verifies,
            self.cells,
            self.interrupted,
            gact_scenarios::solve_stats_json(self.solver),
            gact_scenarios::cache_stats_json(self.subdivision_cache),
            gact_scenarios::cache_stats_json(self.domain_table_cache),
            gact_scenarios::cache_stats_json(self.propagation_plan_cache),
        )
    }
}

impl Engine {
    /// An engine with unbounded caches and the ambient thread pool.
    pub fn new() -> Self {
        EngineBuilder::default().build()
    }

    /// A configuration builder (cache capacity, worker-pool size).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Runs `f` under this engine's thread configuration.
    fn scoped<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.threads {
            Some(n) => gact_parallel::with_threads(n, f),
            None => f(),
        }
    }

    /// Serves a single solvability query.
    ///
    /// The verdict of a completed query is byte-identical to the one-shot
    /// `gact::act_solve` (the engine runs `gact::act_solve_controlled`
    /// against its shared cache); a governed query whose budget or token
    /// trips returns
    /// [`SolveVerdict::Interrupted`] with the depths completed so far.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] when the request's token is already
    /// cancelled at submission.
    pub fn solve(&self, request: &SolveRequest) -> Result<SolveReply, EngineError> {
        let control = &request.control;
        if let Some(token) = &control.token {
            if token.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
        }
        let t0 = Instant::now();
        // Governance checkpoint *before* task construction: building the
        // ambient `Chr^depth` complex can dominate a request's cost, and
        // an already-tripped control must not start it. (The build itself
        // is monolithic — see the granularity note in docs/engine.md.)
        if let Err(reason) = control.check(0) {
            self.counters.solves.fetch_add(1, Ordering::Relaxed);
            self.counters.interrupted.fetch_add(1, Ordering::Relaxed);
            return Ok(SolveReply {
                outcome: SolveVerdict::Interrupted {
                    reason,
                    completed_depths: 0,
                },
                stats: SolveStats::default(),
                wall: t0.elapsed(),
            });
        }
        let task = request
            .task()
            .build_task(&self.cache)
            .expect("validated non-protocol specs build tasks");
        let outcome =
            self.scoped(|| act_solve_controlled(&task, request.max_depth(), &self.cache, control));
        let stats = outcome.stats();
        self.counters.solves.fetch_add(1, Ordering::Relaxed);
        self.counters.add_solver(stats);
        let outcome = match outcome {
            ActOutcome::Interrupted {
                reason,
                completed_depths,
                ..
            } => {
                self.counters.interrupted.fetch_add(1, Ordering::Relaxed);
                SolveVerdict::Interrupted {
                    reason,
                    completed_depths,
                }
            }
            ActOutcome::Done { verdict, .. } => match verdict {
                ActVerdict::Solvable {
                    depth,
                    map,
                    subdivision,
                    ..
                } => SolveVerdict::Solvable {
                    depth,
                    map,
                    subdivision,
                },
                ActVerdict::ImpossibleByObstruction(o) => SolveVerdict::Unsolvable {
                    obstruction: o.to_string(),
                },
                ActVerdict::NoMapUpTo(d) => SolveVerdict::NoMapUpTo(d),
            },
        };
        Ok(SolveReply {
            outcome,
            stats,
            wall: t0.elapsed(),
        })
    }

    /// Serves a batch sweep: every cell evaluated against this engine's
    /// shared caches through `gact_scenarios::run_matrix_controlled`,
    /// fanned across the worker pool, with per-cell verdicts
    /// byte-identical to the per-cell cold reference
    /// `gact_scenarios::run_matrix_cold` for completed cells.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] when the request's token is already
    /// cancelled at submission.
    pub fn matrix(&self, request: &MatrixRequest) -> Result<MatrixReply, EngineError> {
        let control = &request.control;
        if let Some(token) = &control.token {
            if token.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
        }
        let t0 = Instant::now();
        let report = self.scoped(|| run_matrix_controlled(request.cells(), &self.cache, control));
        self.counters.matrices.fetch_add(1, Ordering::Relaxed);
        self.counters
            .cells
            .fetch_add(report.results.len() as u64, Ordering::Relaxed);
        self.counters
            .interrupted
            .fetch_add(report.interrupted as u64, Ordering::Relaxed);
        self.counters.add_solver(report.solver);
        Ok(MatrixReply {
            label: request.label().to_string(),
            report,
            wall: t0.elapsed(),
        })
    }

    /// Serves a certificate verification query: the Proposition 9.2
    /// witness for `(n, t)` comes from the engine's certificate memo
    /// (built at most once per shape), its extracted protocol is executed
    /// on every enumerated run of the request's model — or the request's
    /// own runs — and the property violations are counted.
    ///
    /// Verification has no meaningful partial outcome, so a tripped
    /// budget or token surfaces as a structured error instead of an
    /// `Interrupted` reply.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Cancelled`] / [`EngineError::BudgetExceeded`] —
    ///   governance tripped at a checkpoint;
    /// * [`EngineError::Internal`] — the certificate construction
    ///   rejected its parameters (deterministic).
    pub fn verify(&self, request: &VerifyRequest) -> Result<VerifyReply, EngineError> {
        let control = &request.control;
        let t0 = Instant::now();
        control.check(0).map_err(EngineError::from_interrupt)?;
        let show = self
            .cache
            .lt_showcase(request.n(), request.t(), request.extra_stages())
            .map_err(EngineError::Internal)?;
        control.check(0).map_err(EngineError::from_interrupt)?;
        let runs = match request.runs() {
            Some(runs) => runs.to_vec(),
            None => {
                let built = request.model().build(request.n() + 1);
                built.filter_batch(gact_models::enumerate_runs(request.n() + 1, 0))
            }
        };
        let reports = self.scoped(|| {
            verify_protocol_on_runs(
                &show.certificate,
                &show.affine.task,
                &runs,
                request.rounds(),
            )
        });
        let violations = reports.iter().map(|r| r.violations.len()).sum();
        self.counters.verifies.fetch_add(1, Ordering::Relaxed);
        Ok(VerifyReply {
            bands: show.band_sizes.clone(),
            runs: runs.len(),
            violations,
            wall: t0.elapsed(),
        })
    }

    /// The engine's Proposition 9.2 witness for `(n, t)` with
    /// `extra_stages` stabilization bands, from the certificate memo —
    /// the same object [`Engine::verify`] uses, exposed for callers that
    /// need the certificate itself (rendering, custom verification).
    ///
    /// # Errors
    ///
    /// * [`EngineError::InvalidSpec`] — parameters out of range (as
    ///   [`VerifyRequest::new`]);
    /// * [`EngineError::Internal`] — deterministic construction failure.
    pub fn lt_showcase(
        &self,
        n: usize,
        t: usize,
        extra_stages: usize,
    ) -> Result<Arc<LtShowcase>, EngineError> {
        gact_scenarios::TaskSpec::Lt { n, t }.validate()?;
        if t == 0 {
            return Err(EngineError::invalid(
                "t",
                "the Proposition 9.2 witness needs t >= 1",
            ));
        }
        self.cache
            .lt_showcase(n, t, extra_stages)
            .map_err(EngineError::Internal)
    }

    /// A consolidated snapshot of this engine's counters and cache
    /// statistics. Cheap (atomic loads); safe to poll concurrently with
    /// in-flight requests.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            solves: self.counters.solves.load(Ordering::Relaxed),
            matrices: self.counters.matrices.load(Ordering::Relaxed),
            verifies: self.counters.verifies.load(Ordering::Relaxed),
            cells: self.counters.cells.load(Ordering::Relaxed),
            interrupted: self.counters.interrupted.load(Ordering::Relaxed),
            solver: SolveStats {
                assignments: self.counters.assignments.load(Ordering::Relaxed),
                backtracks: self.counters.backtracks.load(Ordering::Relaxed),
                prunes: self.counters.prunes.load(Ordering::Relaxed),
                component_prunes: self.counters.component_prunes.load(Ordering::Relaxed),
            },
            subdivision_cache: self.cache.subdivisions().stats(),
            domain_table_cache: self.cache.table_stats(),
            propagation_plan_cache: self.cache.plan_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SolveRequest;
    use gact::control::{Budget, CancelToken};
    use gact_scenarios::TaskSpec;

    #[test]
    fn solve_and_stats_roundtrip() {
        let engine = Engine::new();
        let req = SolveRequest::new(TaskSpec::FullSubdivision { n: 1, depth: 1 }, 2).unwrap();
        let reply = engine.solve(&req).unwrap();
        assert_eq!(reply.solvable_depth(), Some(1));
        assert_eq!(reply.outcome.kind(), "solvable");
        let stats = engine.stats();
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.queries(), 1);
        assert_eq!(stats.interrupted, 0);
        // The JSON fragment is balanced and carries the cache counters.
        let json = stats.to_json_object();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"subdivision_cache\""));
    }

    #[test]
    fn thread_counts_above_the_cap_are_rejected() {
        // Validation only: no engine is built, so no pool is started.
        for n in [gact_parallel::MAX_THREADS + 1, usize::MAX] {
            match Engine::builder().threads(n) {
                Err(EngineError::InvalidSpec { field, .. }) => assert_eq!(field, "threads"),
                other => panic!("threads({n}) must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn pre_cancelled_requests_fail_fast() {
        let engine = Engine::new();
        let token = CancelToken::new();
        token.cancel();
        let req = SolveRequest::new(TaskSpec::FullSubdivision { n: 1, depth: 1 }, 1)
            .unwrap()
            .with_cancel(token);
        assert_eq!(engine.solve(&req).unwrap_err(), EngineError::Cancelled);
        assert_eq!(engine.stats().solves, 0);
    }

    #[test]
    fn round_budget_interrupts_honestly() {
        let engine = Engine::new();
        // L_1 (wait-free): unsatisfiable at every depth, so a rounds
        // budget of 0 interrupts after fully searching depth 0.
        let req = SolveRequest::new(TaskSpec::Lt { n: 2, t: 1 }, 3)
            .unwrap()
            .with_budget(Budget::unlimited().with_max_rounds(0))
            .unwrap();
        let reply = engine.solve(&req).unwrap();
        match reply.outcome {
            SolveVerdict::Interrupted {
                reason: Interrupt::RoundBudgetExhausted,
                completed_depths,
            } => assert_eq!(completed_depths, 1),
            o => panic!("expected a rounds interrupt, got {o:?}"),
        }
        assert_eq!(engine.stats().interrupted, 1);
    }
}
