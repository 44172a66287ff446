//! Typed, validated request objects.
//!
//! Every request is **validated at construction**: a successfully built
//! request cannot make the engine panic, and every rejected parameter
//! comes back as an [`EngineError::InvalidSpec`] (or
//! [`EngineError::BudgetExceeded`] for limit overruns) naming the
//! offending field. Requests optionally carry a [`Budget`] and a
//! [`CancelToken`]; the engine checks both at round boundaries and
//! search-split points.

use gact::control::{Budget, CancelToken, SolveControl};
use gact_iis::Run;
use gact_models::ModelSpec;
use gact_scenarios::matrix::CERT_VERIFY_ROUNDS;
use gact_scenarios::{cells_for, Cell, TaskSpec};

use crate::error::EngineError;

/// Hard ceiling on the subdivision depth any request may ask for. `Chr^m`
/// grows super-exponentially in `m`; depths beyond this are far outside
/// anything the pipeline can complete and are rejected up front as
/// [`EngineError::BudgetExceeded`].
pub const MAX_REQUEST_DEPTH: usize = 12;

/// Hard ceiling on a verify request's per-run round bound
/// ([`VerifyRequest::with_rounds`]). Every round of every run is executed,
/// and a process that never decides costs a landing search per round, so
/// the bound sets how long one chunk of runs takes between two control
/// checks. At this cap the slowest shape the engine can build — wait-free
/// runs against the `n = 2, t = 1` witness — takes about 0.22 s per run
/// at one thread in a release build (2-vCPU x86-64 VM), 5.6 s for all 25
/// enumerated runs; the default is [`CERT_VERIFY_ROUNDS`].
pub const MAX_VERIFY_ROUNDS: usize = 256;

/// Validates a budget's statically checkable fields.
fn check_budget(budget: &Budget) -> Result<(), EngineError> {
    if budget.max_nodes == Some(0) {
        return Err(EngineError::invalid(
            "budget.max_nodes",
            "a zero search-node budget can never admit a query; use a cancel token instead",
        ));
    }
    Ok(())
}

fn check_depth(max_depth: usize) -> Result<(), EngineError> {
    if max_depth > MAX_REQUEST_DEPTH {
        return Err(EngineError::BudgetExceeded {
            resource: "depth",
            message: format!(
                "max_depth = {max_depth} exceeds the engine ceiling of {MAX_REQUEST_DEPTH}"
            ),
        });
    }
    Ok(())
}

/// The `FullSubdivision` spec carries its own subdivision depth (the
/// selected `Chr^depth s`), which must respect the same ceiling — the
/// complex is *built* at that depth regardless of the search bound.
fn check_task_depth(task: &TaskSpec) -> Result<(), EngineError> {
    if let TaskSpec::FullSubdivision { depth, .. } = *task {
        if depth > MAX_REQUEST_DEPTH {
            return Err(EngineError::BudgetExceeded {
                resource: "depth",
                message: format!(
                    "task depth = {depth} exceeds the engine ceiling of {MAX_REQUEST_DEPTH}"
                ),
            });
        }
    }
    Ok(())
}

/// A single solvability query: one task spec searched up to a subdivision
/// depth, optionally governed by a budget and a cancel token.
///
/// # Examples
///
/// ```
/// use gact_engine::{Engine, SolveRequest};
/// use gact_scenarios::TaskSpec;
///
/// let engine = Engine::new();
/// let request = SolveRequest::new(TaskSpec::FullSubdivision { n: 1, depth: 1 }, 1).unwrap();
/// let reply = engine.solve(&request).unwrap();
/// assert_eq!(reply.solvable_depth(), Some(1));
///
/// // Invalid parameters never reach the engine:
/// assert!(SolveRequest::new(TaskSpec::Lt { n: 2, t: 5 }, 1).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct SolveRequest {
    task: TaskSpec,
    max_depth: usize,
    pub(crate) control: SolveControl,
}

impl SolveRequest {
    /// Builds a validated solve request.
    ///
    /// # Errors
    ///
    /// * [`EngineError::InvalidSpec`] — `task` fails
    ///   [`TaskSpec::validate`], or is [`TaskSpec::CommitAdopt`] (a
    ///   protocol, not a solvable task — run it through a matrix cell);
    /// * [`EngineError::BudgetExceeded`] — `max_depth` beyond
    ///   [`MAX_REQUEST_DEPTH`].
    pub fn new(task: TaskSpec, max_depth: usize) -> Result<Self, EngineError> {
        task.validate()?;
        check_task_depth(&task)?;
        if matches!(task, TaskSpec::CommitAdopt { .. }) {
            return Err(EngineError::invalid(
                "task",
                "commit–adopt is a protocol, not a task (I, O, Δ); submit it as a matrix cell",
            ));
        }
        check_depth(max_depth)?;
        Ok(SolveRequest {
            task,
            max_depth,
            control: SolveControl::new(),
        })
    }

    /// Attaches a budget (deadline / node / round limits).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] for statically impossible budgets
    /// (currently: `max_nodes = 0`).
    pub fn with_budget(mut self, budget: Budget) -> Result<Self, EngineError> {
        check_budget(&budget)?;
        self.control.budget = budget;
        Ok(self)
    }

    /// Attaches a cancellation token (checked at round boundaries and
    /// search-split points).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.control.token = Some(token);
        self
    }

    /// The task spec queried.
    pub fn task(&self) -> TaskSpec {
        self.task
    }

    /// The subdivision-depth bound of the search.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

/// A batch solvability sweep over scenario cells, fanned across the
/// worker pool under one shared cache.
///
/// # Examples
///
/// ```
/// use gact_engine::{Engine, MatrixRequest};
///
/// let engine = Engine::new();
/// let request = MatrixRequest::family("smoke").unwrap();
/// let reply = engine.matrix(&request).unwrap();
/// assert_eq!(reply.report.results.len(), request.cells().len());
///
/// assert!(MatrixRequest::family("no-such-family").is_err());
/// ```
#[derive(Clone, Debug)]
pub struct MatrixRequest {
    label: String,
    cells: Vec<Cell>,
    pub(crate) control: SolveControl,
}

impl MatrixRequest {
    /// A request over a registered scenario family (`"all"` spans every
    /// family except `smoke`, as in the registry).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] naming `family` when the name is not
    /// registered.
    pub fn family(name: &str) -> Result<Self, EngineError> {
        let cells = cells_for(name).ok_or_else(|| {
            EngineError::invalid("family", format!("`{name}` is not a registered family"))
        })?;
        MatrixRequest::from_cells(name, cells)
    }

    /// A request over explicit cells; every cell's task spec, model spec,
    /// and depth bound is validated.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] / [`EngineError::BudgetExceeded`] for
    /// the first invalid cell (the message names the cell).
    pub fn from_cells(label: &str, cells: Vec<Cell>) -> Result<Self, EngineError> {
        if cells.is_empty() {
            return Err(EngineError::invalid(
                "cells",
                "a matrix needs at least one cell",
            ));
        }
        for cell in &cells {
            cell.task.validate()?;
            check_task_depth(&cell.task)?;
            cell.model.validate(cell.task.process_count())?;
            check_depth(cell.max_depth)?;
        }
        Ok(MatrixRequest {
            label: label.to_string(),
            cells,
            control: SolveControl::new(),
        })
    }

    /// Keeps only cells whose label contains `needle`.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] naming `filter` when nothing is left.
    pub fn filtered(mut self, needle: &str) -> Result<Self, EngineError> {
        self.cells.retain(|c| c.label().contains(needle));
        if self.cells.is_empty() {
            return Err(EngineError::invalid(
                "filter",
                format!("no cell label contains `{needle}`"),
            ));
        }
        Ok(self)
    }

    /// Attaches a budget; see [`SolveRequest::with_budget`].
    ///
    /// # Errors
    ///
    /// As [`SolveRequest::with_budget`].
    pub fn with_budget(mut self, budget: Budget) -> Result<Self, EngineError> {
        check_budget(&budget)?;
        self.control.budget = budget;
        Ok(self)
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.control.token = Some(token);
        self
    }

    /// The request's display label (family name or caller-given).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The validated cells, in evaluation order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

/// A certificate verification query: build (or fetch from the engine's
/// certificate memo) the Proposition 9.2 witness for `L_t`, extract its
/// protocol, and verify it on every enumerated run of a model — or on
/// caller-supplied runs.
///
/// # Examples
///
/// ```no_run
/// use gact_engine::{Engine, VerifyRequest};
/// use gact_models::ModelSpec;
///
/// let engine = Engine::new();
/// let request = VerifyRequest::new(2, 1, ModelSpec::TResilient { t: 1 }).unwrap();
/// let reply = engine.verify(&request).unwrap();
/// assert_eq!(reply.violations, 0);
/// ```
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    n: usize,
    t: usize,
    rounds: usize,
    model: ModelSpec,
    runs: Option<Vec<Run>>,
    pub(crate) control: SolveControl,
}

impl VerifyRequest {
    /// Builds a validated verify request for the scenario matrix's
    /// certificate shape
    /// ([`CERT_EXTRA_STAGES`](gact_scenarios::matrix::CERT_EXTRA_STAGES)
    /// stabilization stages), verified over [`CERT_VERIFY_ROUNDS`] rounds
    /// per run.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] — `t` outside `1 ..= n`, an `n`
    /// beyond the task ceiling, or a model spec failing
    /// [`ModelSpec::validate`] for `n + 1` processes.
    pub fn new(n: usize, t: usize, model: ModelSpec) -> Result<Self, EngineError> {
        TaskSpec::Lt { n, t }.validate()?;
        if t == 0 {
            return Err(EngineError::invalid(
                "t",
                "certificate verification needs t >= 1 (t = 0 has no certificate constructor)",
            ));
        }
        model.validate(n + 1)?;
        Ok(VerifyRequest {
            n,
            t,
            rounds: CERT_VERIFY_ROUNDS,
            model,
            runs: None,
            control: SolveControl::new(),
        })
    }

    /// Overrides the per-run verification round bound.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] for a round bound outside
    /// `1 ..= MAX_VERIFY_ROUNDS`.
    pub fn with_rounds(mut self, rounds: usize) -> Result<Self, EngineError> {
        if rounds == 0 {
            return Err(EngineError::invalid(
                "rounds",
                "verification needs at least one round",
            ));
        }
        if rounds > MAX_VERIFY_ROUNDS {
            return Err(EngineError::invalid(
                "rounds",
                format!("rounds = {rounds} exceeds the engine ceiling of {MAX_VERIFY_ROUNDS}"),
            ));
        }
        self.rounds = rounds;
        Ok(self)
    }

    /// Verifies on these runs instead of enumerating the model's.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] for an empty run list.
    pub fn with_runs(mut self, runs: Vec<Run>) -> Result<Self, EngineError> {
        if runs.is_empty() {
            return Err(EngineError::invalid(
                "runs",
                "the run list must be non-empty",
            ));
        }
        self.runs = Some(runs);
        Ok(self)
    }

    /// Attaches a budget; see [`SolveRequest::with_budget`].
    ///
    /// # Errors
    ///
    /// As [`SolveRequest::with_budget`].
    pub fn with_budget(mut self, budget: Budget) -> Result<Self, EngineError> {
        check_budget(&budget)?;
        self.control.budget = budget;
        Ok(self)
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.control.token = Some(token);
        self
    }

    /// Dimension `n` (one less than the process count).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resilience `t` of the certificate.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Per-run verification round bound.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The model whose runs are verified against.
    pub fn model(&self) -> ModelSpec {
        self.model
    }

    /// Caller-supplied runs, if any.
    pub fn runs(&self) -> Option<&[Run]> {
        self.runs.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_request_rejects_bad_specs_naming_fields() {
        let field = |r: Result<SolveRequest, EngineError>| match r.unwrap_err() {
            EngineError::InvalidSpec { field, .. } => field,
            e => panic!("expected InvalidSpec, got {e}"),
        };
        assert_eq!(
            field(SolveRequest::new(
                TaskSpec::SetAgreement {
                    n: 1,
                    n_values: 2,
                    k: 0
                },
                1
            )),
            "k"
        );
        assert_eq!(
            field(SolveRequest::new(
                TaskSpec::Consensus { n: 1, n_values: 0 },
                1
            )),
            "n_values"
        );
        assert_eq!(
            field(SolveRequest::new(TaskSpec::Lt { n: 2, t: 3 }, 1)),
            "t"
        );
        assert_eq!(
            field(SolveRequest::new(TaskSpec::CommitAdopt { n: 1 }, 0)),
            "task"
        );
        assert_eq!(
            field(SolveRequest::new(
                TaskSpec::FullSubdivision { n: 40, depth: 1 },
                1
            )),
            "n"
        );
    }

    #[test]
    fn depth_ceiling_is_a_budget_error() {
        let err = SolveRequest::new(
            TaskSpec::FullSubdivision { n: 1, depth: 1 },
            MAX_REQUEST_DEPTH + 1,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                resource: "depth",
                ..
            }
        ));
    }

    #[test]
    fn zero_node_budget_is_invalid() {
        let req = SolveRequest::new(TaskSpec::FullSubdivision { n: 1, depth: 1 }, 1).unwrap();
        let err = req
            .with_budget(Budget::unlimited().with_max_nodes(0))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidSpec { field, .. } if field == "budget.max_nodes")
        );
    }

    #[test]
    fn matrix_request_validates_family_filter_and_cells() {
        assert!(matches!(
            MatrixRequest::family("nope").unwrap_err(),
            EngineError::InvalidSpec { field, .. } if field == "family"
        ));
        let req = MatrixRequest::family("smoke").unwrap();
        assert!(!req.cells().is_empty());
        assert!(matches!(
            req.clone().filtered("zzz-no-such-label").unwrap_err(),
            EngineError::InvalidSpec { field, .. } if field == "filter"
        ));
        let filtered = req.filtered("consensus").unwrap();
        assert!(filtered
            .cells()
            .iter()
            .all(|c| c.label().contains("consensus")));
        assert!(matches!(
            MatrixRequest::from_cells("empty", vec![]).unwrap_err(),
            EngineError::InvalidSpec { field, .. } if field == "cells"
        ));
    }

    #[test]
    fn verify_request_validates_parameters() {
        assert!(VerifyRequest::new(2, 1, ModelSpec::TResilient { t: 1 }).is_ok());
        assert!(matches!(
            VerifyRequest::new(2, 0, ModelSpec::TResilient { t: 1 }).unwrap_err(),
            EngineError::InvalidSpec { field, .. } if field == "t"
        ));
        assert!(matches!(
            VerifyRequest::new(2, 5, ModelSpec::TResilient { t: 1 }).unwrap_err(),
            EngineError::InvalidSpec { field, .. } if field == "t"
        ));
        assert!(matches!(
            VerifyRequest::new(2, 1, ModelSpec::ObstructionFree { k: 0 }).unwrap_err(),
            EngineError::InvalidSpec { field, .. } if field == "k"
        ));
        let req = VerifyRequest::new(2, 1, ModelSpec::TResilient { t: 1 }).unwrap();
        assert!(req.with_rounds(0).is_err());
    }
}
