//! The matrix driver: evaluates (task × model × parameter) cells through
//! the GACT pipeline, in parallel, with deterministic per-cell verdicts.
//!
//! A [`Cell`] is one concrete solvability (or protocol-conformance) query;
//! [`run_matrix_controlled`] fans a batch of cells across the
//! [`gact_parallel`] pool and reports outcomes in cell order. All cells of
//! a run share one [`QueryCache`], so iterated subdivisions and solver
//! domain tables are built once per `(protocol complex, round)` for the
//! whole sweep instead of once per cell; [`run_matrix_cold`] is the
//! per-cell cold reference it is compared against.
//!
//! ## Verdict semantics
//!
//! Verdicts are *sound by construction* — each one states exactly what the
//! pipeline established, and nothing more:
//!
//! * [`Verdict::Solvable`] with [`SolvableBy::WaitFreeMap`] — a chromatic
//!   map from `Chr^depth I` exists (Corollary 7.1); a wait-free protocol
//!   runs unchanged in every sub-IIS model, so this verdict is valid for
//!   the cell's model whatever it is.
//! * [`Verdict::Solvable`] with [`SolvableBy::ResilientCertificate`] — a
//!   GACT certificate (Theorem 6.1 / Proposition 9.2) was *constructed*
//!   (terminating subdivision + chromatic map, carrier condition checked)
//!   and its extracted protocol verified on every enumerated run of the
//!   model.
//! * [`Verdict::Unsolvable`] — a depth-independent connectivity
//!   obstruction; reported only for the full wait-free model, where it is
//!   conclusive.
//! * [`Verdict::ProtocolVerified`] — commit–adopt cells: the protocol's
//!   properties checked over every enumerated run of the model.
//! * [`Verdict::Unknown`] — the bounded search was inconclusive for this
//!   model (e.g. no wait-free map up to the bound, and no certificate
//!   constructor applies). Honest inconclusiveness, not impossibility.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gact::cache::QueryCache;
use gact::control::{Interrupt, SolveControl};
use gact::solver::SolveStats;
use gact::{
    act_solve_controlled, verify_protocol_on_runs, ActOutcome, ActVerdict, LtShowcase,
    RunVerification,
};
use gact_chromatic::CacheStats;
use gact_iis::{execute, InputAssignment, ProcessId, Run};
use gact_models::{enumerate_runs, ModelSpec};
use gact_tasks::commit_adopt::{check_commit_adopt, CaOutput, CommitAdopt};

use crate::spec::TaskSpec;

/// Extra stabilization stages built for certificate cells (matches the
/// Proposition 9.2 showcase used by the `L_t` tests).
pub const CERT_EXTRA_STAGES: usize = 3;
/// Round bound when verifying certificate protocols on enumerated runs.
pub const CERT_VERIFY_ROUNDS: usize = 14;
/// Runs verified per governance checkpoint in the certificate path (the
/// batch is chunked so a tripped control stops mid-verification).
const CERT_VERIFY_CHUNK: usize = 8;
/// Fixed proposal values for commit–adopt cells (per process id).
const CA_PROPOSALS: [u32; 8] = [4, 9, 4, 7, 2, 9, 1, 4];

/// One concrete scenario cell: a task constructor crossed with a model
/// constructor and a round/depth bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// The scenario family this cell belongs to.
    pub family: &'static str,
    /// The task axis.
    pub task: TaskSpec,
    /// The model axis.
    pub model: ModelSpec,
    /// Bound on the subdivision depth searched (the rounds `m` of
    /// `Chr^m`).
    pub max_depth: usize,
}

impl Cell {
    /// Display label, `task × model`.
    pub fn label(&self) -> String {
        format!(
            "{} × {}",
            self.task.label(),
            self.model.label(self.task.process_count())
        )
    }
}

/// How a solvable verdict was established.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolvableBy {
    /// A wait-free chromatic map from `Chr^depth I` (valid in every
    /// sub-IIS model).
    WaitFreeMap {
        /// The subdivision depth of the found map.
        depth: usize,
    },
    /// A GACT certificate built for the resilient model and verified
    /// operationally on every enumerated model run.
    ResilientCertificate {
        /// Number of stabilization bands built.
        bands: usize,
        /// Number of enumerated model runs the extracted protocol was
        /// verified on.
        runs_verified: usize,
    },
}

/// The deterministic outcome of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The task is solvable in the cell's model (see [`SolvableBy`]).
    Solvable(SolvableBy),
    /// Provably unsolvable in the cell's model (wait-free cells with a
    /// depth-independent connectivity obstruction).
    Unsolvable {
        /// Human-readable obstruction witness.
        obstruction: String,
    },
    /// Commit–adopt cells: property check over enumerated model runs.
    ProtocolVerified {
        /// Number of runs executed and checked.
        runs: usize,
        /// Total property violations found (zero for a correct protocol).
        violations: usize,
    },
    /// The bounded pipeline could not decide this cell.
    Unknown {
        /// What was tried and why it is inconclusive.
        detail: String,
    },
}

impl Verdict {
    /// Machine-readable verdict class (stable across releases; the JSON
    /// report's `verdict` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Verdict::Solvable(_) => "solvable",
            Verdict::Unsolvable { .. } => "unsolvable",
            Verdict::ProtocolVerified { .. } => "protocol-verified",
            Verdict::Unknown { .. } => "unknown",
        }
    }

    /// Human-readable one-line explanation.
    pub fn detail(&self) -> String {
        match self {
            Verdict::Solvable(SolvableBy::WaitFreeMap { depth }) => {
                format!("wait-free map at depth {depth}")
            }
            Verdict::Solvable(SolvableBy::ResilientCertificate {
                bands,
                runs_verified,
            }) => format!(
                "GACT certificate ({bands} bands), protocol verified on {runs_verified} model runs"
            ),
            Verdict::Unsolvable { obstruction } => format!("obstruction: {obstruction}"),
            Verdict::ProtocolVerified { runs, violations } => {
                format!("{violations} violations over {runs} model runs")
            }
            Verdict::Unknown { detail } => detail.clone(),
        }
    }
}

/// The Proposition 9.2 path: build the banded terminating subdivision and
/// the chromatic approximation for `L_t` (memoized in the sweep cache —
/// several models typically verify the same witness), then verify the
/// extracted protocol on every enumerated run of the (t-resilient) model.
///
/// The witness build is one cached construction (never stored partially);
/// the runs are verified by [`verify_lt_runs`], so a tripped control stops
/// mid-batch.
fn evaluate_lt_certificate(
    n: usize,
    t: usize,
    model: &ModelSpec,
    cache: &QueryCache,
    control: &SolveControl,
) -> Result<Verdict, Interrupt> {
    control.check(0)?;
    let show = match cache.lt_showcase(n, t, CERT_EXTRA_STAGES) {
        Ok(show) => show,
        Err(e) => {
            return Ok(Verdict::Unknown {
                detail: format!("certificate construction failed: {e}"),
            })
        }
    };
    let built = model.build(n + 1);
    let runs = built.filter_batch(enumerate_runs(n + 1, 0));
    let reports = verify_lt_runs(&show, &runs, CERT_VERIFY_ROUNDS, control)?;
    let bad = reports.iter().filter(|r| !r.violations.is_empty()).count();
    Ok(if bad == 0 {
        Verdict::Solvable(SolvableBy::ResilientCertificate {
            bands: show.band_sizes.len(),
            runs_verified: runs.len(),
        })
    } else {
        Verdict::Unknown {
            detail: format!(
                "certificate built but {bad}/{} model runs violated it",
                runs.len()
            ),
        }
    })
}

/// Verifies the extracted protocol of a Proposition 9.2 witness on `runs`,
/// `rounds` rounds per run, in chunks of `CERT_VERIFY_CHUNK` runs with a
/// control check before each chunk, so a tripped control stops mid-batch.
/// Chunking does not change the result: every run is verified
/// independently, and the reports come back in run order exactly as one
/// whole-batch [`verify_protocol_on_runs`] call returns them.
///
/// # Errors
///
/// The [`Interrupt`] of the first checkpoint at which `control` trips.
pub fn verify_lt_runs(
    show: &LtShowcase,
    runs: &[Run],
    rounds: usize,
    control: &SolveControl,
) -> Result<Vec<RunVerification>, Interrupt> {
    let mut reports = Vec::with_capacity(runs.len());
    for chunk in runs.chunks(CERT_VERIFY_CHUNK) {
        control.check(0)?;
        reports.extend(verify_protocol_on_runs(
            &show.certificate,
            &show.affine.task,
            chunk,
            rounds,
        ));
    }
    Ok(reports)
}

/// The outcome of one cell under a *controlled* sweep: a completed
/// verdict, or an honest interruption marker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell ran to completion with this verdict.
    Decided(Verdict),
    /// The sweep's [`SolveControl`] tripped before (or while) this cell
    /// was evaluated; no verdict is claimed for it.
    Interrupted(Interrupt),
}

impl CellOutcome {
    /// Machine-readable outcome class: the verdict's
    /// [`Verdict::kind`], or `"interrupted"`.
    pub fn kind(&self) -> &'static str {
        match self {
            CellOutcome::Decided(v) => v.kind(),
            CellOutcome::Interrupted(_) => "interrupted",
        }
    }

    /// Human-readable one-line explanation.
    pub fn detail(&self) -> String {
        match self {
            CellOutcome::Decided(v) => v.detail(),
            CellOutcome::Interrupted(reason) => format!("interrupted: {reason}"),
        }
    }

    /// The completed verdict, if any.
    pub fn verdict(&self) -> Option<&Verdict> {
        match self {
            CellOutcome::Decided(v) => Some(v),
            CellOutcome::Interrupted(_) => None,
        }
    }
}

/// One evaluated cell of a controlled sweep.
#[derive(Clone, Debug)]
pub struct ControlledCellResult {
    /// The cell evaluated.
    pub cell: Cell,
    /// Its outcome (verdict or interruption).
    pub outcome: CellOutcome,
    /// Wall time of the evaluation (non-deterministic).
    pub wall: Duration,
}

/// A matrix run: per-cell outcomes in cell order, cache counter deltas
/// (zero for the per-cell cold reference, which shares no cache),
/// aggregate solver effort, and the interruption count.
#[derive(Clone, Debug)]
pub struct ControlledMatrixReport {
    /// Outcomes, in the order the cells were given.
    pub results: Vec<ControlledCellResult>,
    /// Total wall time of the batch.
    pub total_wall: Duration,
    /// Subdivision-cache counters accumulated over the sweep.
    pub subdivision_stats: CacheStats,
    /// Domain-table-cache counters accumulated over the sweep.
    pub table_stats: CacheStats,
    /// Propagation-plan-cache counters accumulated over the sweep.
    pub plan_stats: CacheStats,
    /// Solver effort accumulated over every solvability cell (search
    /// nodes, backtracks, propagation prunes); the same at every thread
    /// count except `speculative_assignments`.
    pub solver: SolveStats,
    /// Number of cells whose outcome is [`CellOutcome::Interrupted`].
    pub interrupted: usize,
}

impl ControlledMatrixReport {
    /// Count of results whose outcome kind equals `kind` (verdict kinds
    /// plus `"interrupted"`).
    pub fn count_kind(&self, kind: &str) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.kind() == kind)
            .count()
    }
}

/// Evaluates one cell against a (shared) cache under a [`SolveControl`],
/// returning its outcome and the solver effort it consumed.
/// Deterministic for every thread count: the underlying solver,
/// certificate, and protocol checks are all order-pinned, and cached
/// subdivisions are structurally identical to cold ones.
///
/// The control is checked before the cell starts, at every `act` round
/// boundary / search-split point, and between protocol-verification
/// runs, so a tripped control returns [`CellOutcome::Interrupted`]
/// promptly instead of running the cell to completion; with an inert
/// control the outcome is always `Decided`. An interrupted cell never
/// poisons `cache` — only fully built artifacts are stored, so re-running
/// the cell afterwards yields the full verdict.
pub fn evaluate_cell_controlled(
    cell: &Cell,
    cache: &QueryCache,
    control: &SolveControl,
) -> (CellOutcome, SolveStats) {
    if let Err(reason) = control.check(0) {
        return (CellOutcome::Interrupted(reason), SolveStats::default());
    }
    if let TaskSpec::CommitAdopt { n } = cell.task {
        return (
            evaluate_commit_adopt_controlled(n, &cell.model, control),
            SolveStats::default(),
        );
    }
    let task = cell
        .task
        .build_task(cache)
        .expect("non-protocol specs build tasks");
    let outcome = act_solve_controlled(&task, cell.max_depth, cache, control);
    let stats = outcome.stats();
    let verdict = match outcome {
        ActOutcome::Interrupted { reason, .. } => return (CellOutcome::Interrupted(reason), stats),
        ActOutcome::Done { verdict, .. } => verdict,
    };
    match verdict {
        ActVerdict::Solvable { depth, .. } => (
            CellOutcome::Decided(Verdict::Solvable(SolvableBy::WaitFreeMap { depth })),
            stats,
        ),
        ActVerdict::ImpossibleByObstruction(o) if cell.model.is_full() => (
            CellOutcome::Decided(Verdict::Unsolvable {
                obstruction: o.to_string(),
            }),
            stats,
        ),
        other => {
            if let (Some(model_t), TaskSpec::Lt { n, t }) = (cell.model.resilience(), cell.task) {
                if model_t == t && t >= 1 && t <= n {
                    return match evaluate_lt_certificate(n, t, &cell.model, cache, control) {
                        Ok(verdict) => (CellOutcome::Decided(verdict), stats),
                        Err(reason) => (CellOutcome::Interrupted(reason), stats),
                    };
                }
            }
            let tried = match other {
                ActVerdict::ImpossibleByObstruction(o) => {
                    format!("wait-free obstruction ({o}); no decision procedure for this model")
                }
                _ => format!(
                    "no wait-free map up to depth {}; no certificate constructor for this model",
                    cell.max_depth
                ),
            };
            (
                CellOutcome::Decided(Verdict::Unknown { detail: tried }),
                stats,
            )
        }
    }
}

/// Commit–adopt under control: the per-run loop checks the control
/// between runs, so a tripped control stops mid-batch.
fn evaluate_commit_adopt_controlled(
    n: usize,
    model: &ModelSpec,
    control: &SolveControl,
) -> CellOutcome {
    let n_procs = n + 1;
    let built = model.build(n_procs);
    let runs = built.filter_batch(enumerate_runs(n_procs, 0));
    let mut checked = 0usize;
    let mut violations = 0usize;
    for run in &runs {
        if let Err(reason) = control.check(0) {
            return CellOutcome::Interrupted(reason);
        }
        let schedule = run.rounds_prefix(2);
        let mut ia = InputAssignment::standard_corners(n);
        for p in run.part().iter() {
            ia.values.insert(p, CA_PROPOSALS[p.0 as usize]);
        }
        let exec = execute(&CommitAdopt, &ia, schedule, 4);
        let proposals: HashMap<ProcessId, u32> = run
            .round(0)
            .participants()
            .iter()
            .map(|p| (p, CA_PROPOSALS[p.0 as usize]))
            .collect();
        let outputs: HashMap<ProcessId, CaOutput> =
            exec.outputs.iter().map(|(p, d)| (*p, d.value)).collect();
        checked += 1;
        violations += check_commit_adopt(&proposals, &outputs).len();
    }
    CellOutcome::Decided(Verdict::ProtocolVerified {
        runs: checked,
        violations,
    })
}

/// Runs a batch of cells against one shared cache under a
/// [`SolveControl`], fanning cells across the worker pool and checking the
/// control per cell (and inside each cell's solver rounds). Results come
/// back in cell order and are deterministic for every thread count; only
/// the wall times vary. Cells reached after the control trips come back
/// [`CellOutcome::Interrupted`]. The report's cache counters are this
/// sweep's deltas on `cache`.
pub fn run_matrix_controlled(
    cells: &[Cell],
    cache: &QueryCache,
    control: &SolveControl,
) -> ControlledMatrixReport {
    let diff = |after: CacheStats, before: CacheStats| CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    };
    let sub_before = cache.subdivisions().stats();
    let tab_before = cache.table_stats();
    let plan_before = cache.plan_stats();
    let mut report = sweep(cells, |cell| evaluate_cell_controlled(cell, cache, control));
    report.subdivision_stats = diff(cache.subdivisions().stats(), sub_before);
    report.table_stats = diff(cache.table_stats(), tab_before);
    report.plan_stats = diff(cache.plan_stats(), plan_before);
    report
}

/// The per-cell cold reference: every cell is evaluated under an inert
/// control against its own fresh [`QueryCache`], so nothing is shared
/// across cells. This is the baseline the cross-query cache is
/// benchmarked against and the oracle the equivalence tests compare
/// cached and engine-routed sweeps with; its cache counters are zero.
pub fn run_matrix_cold(cells: &[Cell]) -> ControlledMatrixReport {
    sweep(cells, |cell| {
        evaluate_cell_controlled(cell, &QueryCache::new(), &SolveControl::new())
    })
}

/// Fans `cells` across the worker pool through `evaluate` and assembles
/// the report in cell order: per-cell wall times, summed solver effort,
/// and the interruption count (cache counters left zero for the caller).
fn sweep(
    cells: &[Cell],
    evaluate: impl Fn(&Cell) -> (CellOutcome, SolveStats) + Sync,
) -> ControlledMatrixReport {
    let t0 = Instant::now();
    let results = gact_parallel::par_map(cells, |cell| {
        let t = Instant::now();
        let (outcome, stats) = evaluate(cell);
        (
            ControlledCellResult {
                cell: cell.clone(),
                outcome,
                wall: t.elapsed(),
            },
            stats,
        )
    });
    let mut solver = SolveStats::default();
    let mut interrupted = 0usize;
    let results: Vec<ControlledCellResult> = results
        .into_iter()
        .map(|(r, s)| {
            solver.add(s);
            if matches!(r.outcome, CellOutcome::Interrupted(_)) {
                interrupted += 1;
            }
            r
        })
        .collect();
    ControlledMatrixReport {
        results,
        total_wall: t0.elapsed(),
        subdivision_stats: CacheStats::default(),
        table_stats: CacheStats::default(),
        plan_stats: CacheStats::default(),
        solver,
        interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(task: TaskSpec, model: ModelSpec, max_depth: usize) -> Cell {
        Cell {
            family: "test",
            task,
            model,
            max_depth,
        }
    }

    /// The verdict of `cell` under an inert control.
    fn verdict_of(cell: &Cell, cache: &QueryCache) -> Verdict {
        let (outcome, _) = evaluate_cell_controlled(cell, cache, &SolveControl::new());
        outcome
            .verdict()
            .cloned()
            .expect("an inert control decides")
    }

    #[test]
    fn wait_free_verdicts() {
        let cache = QueryCache::new();
        // Solvable control.
        let v = verdict_of(
            &cell(
                TaskSpec::FullSubdivision { n: 1, depth: 1 },
                ModelSpec::WaitFree,
                1,
            ),
            &cache,
        );
        assert_eq!(v, Verdict::Solvable(SolvableBy::WaitFreeMap { depth: 1 }));
        // Consensus is obstructed at every depth.
        let v = verdict_of(
            &cell(
                TaskSpec::Consensus { n: 1, n_values: 2 },
                ModelSpec::WaitFree,
                2,
            ),
            &cache,
        );
        assert_eq!(v.kind(), "unsolvable");
        // 2-set agreement for 3 processes: inconclusive at depth 0.
        let v = verdict_of(
            &cell(
                TaskSpec::SetAgreement {
                    n: 2,
                    n_values: 3,
                    k: 2,
                },
                ModelSpec::WaitFree,
                0,
            ),
            &cache,
        );
        assert_eq!(v.kind(), "unknown");
    }

    #[test]
    fn wait_free_solvability_transfers_to_submodels() {
        let cache = QueryCache::new();
        let v = verdict_of(
            &cell(
                TaskSpec::FullSubdivision { n: 1, depth: 1 },
                ModelSpec::TResilient { t: 1 },
                1,
            ),
            &cache,
        );
        assert_eq!(v, Verdict::Solvable(SolvableBy::WaitFreeMap { depth: 1 }));
        // But an obstruction is NOT exported to submodels.
        let v = verdict_of(
            &cell(
                TaskSpec::Consensus { n: 1, n_values: 2 },
                ModelSpec::TResilient { t: 1 },
                1,
            ),
            &cache,
        );
        assert_eq!(v.kind(), "unknown");
    }

    #[test]
    fn commit_adopt_cells_verify_cleanly() {
        let cache = QueryCache::new();
        for model in [
            ModelSpec::WaitFree,
            ModelSpec::TResilient { t: 1 },
            ModelSpec::ObstructionFree { k: 1 },
        ] {
            let v = verdict_of(&cell(TaskSpec::CommitAdopt { n: 2 }, model, 0), &cache);
            let Verdict::ProtocolVerified { runs, violations } = v else {
                panic!("expected protocol verdict, got {v:?}");
            };
            assert!(runs > 0);
            assert_eq!(violations, 0, "commit–adopt must be clean under {model:?}");
        }
    }

    #[test]
    fn matrix_results_keep_cell_order() {
        let cells = vec![
            cell(
                TaskSpec::FullSubdivision { n: 1, depth: 0 },
                ModelSpec::WaitFree,
                0,
            ),
            cell(
                TaskSpec::Consensus { n: 1, n_values: 2 },
                ModelSpec::WaitFree,
                1,
            ),
            cell(
                TaskSpec::FullSubdivision { n: 1, depth: 1 },
                ModelSpec::WaitFree,
                1,
            ),
        ];
        let cache = QueryCache::new();
        let report = run_matrix_controlled(&cells, &cache, &SolveControl::new());
        assert_eq!(report.results.len(), 3);
        for (given, got) in cells.iter().zip(&report.results) {
            assert_eq!(given, &got.cell);
        }
        assert_eq!(report.count_kind("solvable"), 2);
        assert_eq!(report.count_kind("unsolvable"), 1);
    }
}
