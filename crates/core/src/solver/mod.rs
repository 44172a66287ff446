//! Existence of carrier-constrained chromatic simplicial maps, decided by
//! a layered propagate-then-search engine.
//!
//! Both directions of the GACT machinery reduce to this finite question:
//! given a chromatic complex `A` (an iterated subdivision `Chr^k I`, or a
//! truncated stable complex `K(T)`), a task `(I, O, Δ)`, and a carrier in
//! `I` for every simplex of `A`, does a chromatic simplicial map
//! `δ : A → O` exist with `δ(σ) ∈ Δ(carrier(σ))` for every simplex `σ`?
//!
//! ## The layers
//!
//! The engine is split into three modules plus a preserved oracle:
//!
//! * [`domains`] — the task-independent setup ([`DomainTables`]): dense
//!   vertex renumbering, interned carriers, constraint lists and the
//!   coface adjacency the other layers index by;
//! * [`propagate`] — class-level candidate pruning and an AC-3-style
//!   generalized-arc-consistency fixpoint over the constraint hypergraph,
//!   including the Saraph–Herlihy–Gafni connectivity prune (candidates
//!   whose whole component of `Δ(carrier)` supports no allowed simplex
//!   are dead — decided with `gact_topology::connectivity`). Every rule
//!   removes only values that appear in **no** solution;
//! * `search` — depth-first backtracking with one-step lookahead,
//!   conflict-weighted constraint scheduling (propagation's per-constraint
//!   prune counts order the consistency checks — a conjunction, so order
//!   affects speed and never outcomes), and the deterministic parallel
//!   subtree split inherited from the previous engine;
//! * [`mod@reference`] — the pre-layered chronological engine, kept as an
//!   executable equivalence oracle.
//!
//! ## Reproducibility contract
//!
//! The layered engine returns **byte-identical verdicts and maps** to the
//! reference engine, for every input and thread count. Three invariants
//! carry the proof:
//!
//! 1. propagation removes only dead values, and surviving candidates keep
//!    their relative order — the first complete assignment a fixed-order
//!    DFS reaches is unchanged;
//! 2. the variable order is computed from the *initial* (pre-prune)
//!    domain sizes, so the propagation layer cannot perturb it;
//! 3. candidate-ordering hints must be *filter-stable* (see
//!    [`DomainHint`]), so ordering the pruned survivors equals pruning
//!    the ordered full list.
//!
//! Only [`SolveStats`] differ (the layered engine visits far fewer
//! nodes); the `solver_equivalence` tests pin the rest.
//!
//! ## Cross-query and cross-round sharing
//!
//! The setup splits into a task-independent half — [`DomainTables`] via
//! [`prepare_domain`] and the [`propagate::PropagationPlan`] via
//! [`propagate::prepare_plan`] — cacheable per `(protocol complex,
//! round)` (see `gact::cache::QueryCache`), and a task half compiled once
//! per query into a [`gact_tasks::CompiledTask`] whose interned `Δ`-image
//! tables and class-level dead values transfer across the rounds of an
//! incremental `Chr^m` sweep (see `gact::act_solve_controlled`).

pub mod domains;
pub mod propagate;
pub mod reference;
pub(crate) mod search;

use std::collections::HashMap;
use std::sync::Arc;

use gact_chromatic::{ChromaticComplex, SimplicialMap};
use gact_tasks::{CompiledTask, Task};
use gact_topology::{Complex, Simplex, VertexId};

use crate::control::StopState;

pub use domains::{prepare_domain, DomainTables};
pub use propagate::{prepare_plan, PropagationPlan};

use domains::simplex_carrier;
use search::{run_search, variable_order};

/// A carrier-constrained chromatic-map problem.
#[derive(Debug)]
pub struct MapProblem<'a> {
    /// The domain complex `A`.
    pub domain: &'a ChromaticComplex,
    /// Carrier in the task's input complex for every domain vertex.
    pub vertex_carrier: &'a HashMap<VertexId, Simplex>,
    /// The task supplying `O` and `Δ`.
    pub task: &'a Task,
}

/// Statistics from a solver invocation.
///
/// The search counters (`assignments`, `backtracks`) vary with the thread
/// count (aborted parallel subtrees stop early) and with the engine
/// (propagation shrinks the tree); the found/unsat verdict and the map
/// never do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of vertex assignments attempted (search nodes).
    pub assignments: u64,
    /// Number of backtracks.
    pub backtracks: u64,
    /// Candidate values removed by the propagation layer (class-level
    /// pruning plus the arc-consistency fixpoint).
    pub prunes: u64,
    /// The subset of `prunes` established by the connectivity argument
    /// (a candidate's whole component of `Δ(carrier)` supports nothing).
    pub component_prunes: u64,
}

/// The solver outcome: a validated map, or proof of exhaustion.
#[derive(Debug)]
pub enum SolveOutcome {
    /// A chromatic, carrier-respecting simplicial map was found.
    Map(SimplicialMap, SolveStats),
    /// The full search space was exhausted (or propagation emptied a
    /// domain): no such map exists.
    Unsatisfiable(SolveStats),
}

impl SolveOutcome {
    /// The map, if found.
    pub fn map(&self) -> Option<&SimplicialMap> {
        match self {
            SolveOutcome::Map(m, _) => Some(m),
            SolveOutcome::Unsatisfiable(_) => None,
        }
    }

    /// The statistics, whichever way the search ended.
    pub fn stats(&self) -> SolveStats {
        match self {
            SolveOutcome::Map(_, s) | SolveOutcome::Unsatisfiable(s) => *s,
        }
    }

    /// Whether a map was found.
    pub fn is_solvable(&self) -> bool {
        self.map().is_some()
    }
}

/// Candidate-ordering hint passed to [`solve`]: maps a domain vertex and
/// its candidate list to a reordered candidate list. `Sync` because
/// hint evaluation fans out across workers.
///
/// **Contract — filter-stable.** The hint must permute its input by a
/// rule that depends on the *elements only*, not their positions: for any
/// subsequence `S` of the candidates, `hint(v, S)` must equal the
/// restriction of `hint(v, full)` to `S`. Stable sorts by a per-candidate
/// key and reversals qualify; position-dependent shuffles do not. The
/// layered engine relies on this to order pruned survivor lists while
/// staying byte-identical to the reference engine (which orders the full
/// list); it must also return a permutation — it reorders, never
/// restricts.
pub type DomainHint = dyn Fn(VertexId, &[VertexId]) -> Vec<VertexId> + Sync;

/// Below this many constraint simplices, [`solve_compiled_with`] bypasses
/// the propagation layer and runs the chronological engine directly. Tiny
/// instances finish in microseconds either way — their one-step-lookahead
/// search is already near-optimal — so the per-class table machinery is
/// pure overhead there, while the two engines return identical results by
/// the reproducibility contract (the bypass changes cost, never answers).
/// Propagation engages exactly where it pays: the thousands-of-constraint
/// instances of deep subdivisions and stable complexes.
pub const PROPAGATION_MIN_CONSTRAINTS: usize = 128;

/// Decides existence of `δ : A → O` with `δ(σ) ∈ Δ(carrier σ)`.
///
/// One-shot entry point: prepares the [`DomainTables`], the
/// [`PropagationPlan`], and the [`CompiledTask`] inline. Sweeps should
/// prepare those once and call [`solve_compiled_with`] instead.
///
/// `domain_hint` optionally orders each vertex's candidate list (e.g. by
/// geometric proximity under a continuous map being approximated); it
/// does not restrict the domain, only its exploration order, and must be
/// filter-stable (see [`DomainHint`]).
pub fn solve(problem: &MapProblem<'_>, domain_hint: Option<&DomainHint>) -> SolveOutcome {
    let tables = prepare_domain(problem.domain, problem.vertex_carrier);
    let compiled = CompiledTask::new(problem.task);
    solve_compiled_interruptible(&tables, problem.domain, &compiled, domain_hint, None, None)
}

/// The staged entry point of the layered engine: the task-independent
/// [`DomainTables`] and the per-task [`CompiledTask`] are supplied by the
/// caller, so an incremental rounds-sweep (see
/// `gact::act_solve_controlled`) pays only for the propagation fixpoint
/// and whatever search survives it.
///
/// The [`PropagationPlan`] comes from a *lazy* source: it is consulted
/// only when the instance is large enough to propagate **and** no initial
/// domain is empty — instances refuted before propagation (the common
/// case for wait-free sweeps over tasks with empty solo images) never
/// pay for a plan, cached or not. Pass `None` to build the plan inline
/// under the same conditions.
///
/// # Panics
///
/// Panics (or returns nonsense) if `tables`/the plan were prepared for a
/// different domain complex than `domain`, or `compiled` wraps a task
/// other than the one being queried.
pub fn solve_compiled_with(
    tables: &DomainTables,
    domain: &ChromaticComplex,
    compiled: &CompiledTask<'_>,
    domain_hint: Option<&DomainHint>,
    plan_source: Option<&(dyn Fn() -> Arc<PropagationPlan> + '_)>,
) -> SolveOutcome {
    solve_compiled_interruptible(tables, domain, compiled, domain_hint, plan_source, None)
}

/// The engine body: bypass check, bucket stage, (lazy) plan resolution,
/// propagation, hint ordering, search — under a controlled query's stop
/// state when `stop` is given. The search layer polls the stop at its
/// split points and unwinds early when it trips; the caller is
/// responsible for interpreting an `Unsatisfiable` outcome under a
/// tripped stop as *interrupted*, not exhausted (see
/// [`crate::act::act_solve_controlled`]).
pub(crate) fn solve_compiled_interruptible(
    tables: &DomainTables,
    domain: &ChromaticComplex,
    compiled: &CompiledTask<'_>,
    domain_hint: Option<&DomainHint>,
    plan_source: Option<&(dyn Fn() -> Arc<PropagationPlan> + '_)>,
    stop: Option<&StopState<'_>>,
) -> SolveOutcome {
    let task = compiled.task();
    let n = tables.vertices.len();

    // Small instances skip propagation outright (see
    // [`PROPAGATION_MIN_CONSTRAINTS`]): the chronological engine answers
    // identically and its setup is a fraction of the class machinery's.
    // They also run to completion within the round — interruption
    // granularity for controlled queries is the round boundary here, and
    // their node spend still lands in the budget accounting.
    if tables.constraint_count() < PROPAGATION_MIN_CONSTRAINTS {
        let outcome = reference::solve_reference_with_tables(tables, domain, task, domain_hint);
        if let Some(stop) = stop {
            stop.add_nodes(outcome.stats().assignments);
        }
        return outcome;
    }

    // Bucket stage before any plan exists: an empty initial domain
    // refutes immediately (identically to the reference engine), without
    // building — or fetching — a propagation plan.
    let stage = propagate::initial_buckets(tables, domain, compiled);
    if stage.any_empty() {
        return SolveOutcome::Unsatisfiable(SolveStats::default());
    }
    let plan: Arc<PropagationPlan> = match plan_source {
        Some(source) => source(),
        None => Arc::new(prepare_plan(tables, domain)),
    };

    // Δ images per interned carrier id, for the search layer's
    // consistency checks (borrowed from the task, one lookup per distinct
    // carrier).
    let empty_image = Complex::new();
    let images: Vec<&Complex> = tables
        .carriers
        .iter()
        .map(|carrier| task.allowed_ref(carrier).unwrap_or(&empty_image))
        .collect();

    // Propagate: class-level dead values plus the AC-3 fixpoint.
    let prop = propagate::propagate(tables, &plan, compiled, stage);
    let stats = SolveStats {
        prunes: prop.prunes,
        component_prunes: prop.component_prunes,
        ..SolveStats::default()
    };
    if prop.empty {
        return SolveOutcome::Unsatisfiable(stats);
    }

    // Variable order from the *initial* domain sizes (reproducibility
    // invariant 2 — see the module docs).
    let order = variable_order(&prop.initial_sizes(), &tables.neighbours, &tables.vertices);

    // Surviving domains, hint-ordered. The hint is only evaluated for
    // vertices that still have a choice (singletons need no order), which
    // is where the layered engine saves the expensive geometric hints of
    // the `L_t` pipeline; filter-stability makes the result identical to
    // ordering the full list first.
    let build = |i: usize| -> Vec<VertexId> {
        let d = prop.domain_of(i);
        match domain_hint {
            Some(hint) if d.len() >= 2 => hint(tables.vertices[i], &d),
            _ => d,
        }
    };
    let domains: Vec<Vec<VertexId>> = if domain_hint.is_none() {
        (0..n).map(build).collect()
    } else {
        let indices: Vec<usize> = (0..n).collect();
        gact_parallel::par_map(&indices, |&i| build(i))
    };

    // Conflict-weighted constraint scheduling: per-vertex constraint
    // lists sorted by descending propagation prune weight (stable, so
    // equal-weight constraints keep their natural order). Purely a
    // scheduling choice inside a conjunction — outcome-invariant. When
    // nothing pruned, every weight is zero and the natural lists are
    // borrowed as-is.
    let reordered: Option<Vec<Vec<u32>>> = (prop.prunes > 0).then(|| {
        tables
            .per_vertex
            .iter()
            .map(|list| {
                let mut l = list.clone();
                l.sort_by_key(|&k| std::cmp::Reverse(prop.weights[k as usize]));
                l
            })
            .collect()
    });
    let per_vertex: &[Vec<u32>] = reordered.as_deref().unwrap_or(&tables.per_vertex);

    let (found, stats) = run_search(
        &domains,
        &tables.dense,
        &tables.simplices,
        per_vertex,
        &images,
        &order,
        stats,
        stop,
    );
    if let Some(assignment) = found {
        let map = SimplicialMap::new(
            tables
                .vertices
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, assignment[i])),
        );
        debug_assert!(map.validate_chromatic(domain, &task.output).is_ok());
        SolveOutcome::Map(map, stats)
    } else {
        SolveOutcome::Unsatisfiable(stats)
    }
}

/// Re-validates a solver-produced map against the problem: chromatic,
/// simplicial, and carried by `Δ` on *every* simplex. Used by tests as a
/// soundness oracle independent of the search.
pub fn validate_solution(problem: &MapProblem<'_>, map: &SimplicialMap) -> Result<(), String> {
    map.validate_chromatic(problem.domain, &problem.task.output)
        .map_err(|e| format!("not a chromatic simplicial map: {e}"))?;
    for s in problem.domain.complex().iter() {
        let carrier = simplex_carrier(s, problem.vertex_carrier);
        let image = map.apply_simplex(s);
        if !problem.task.allowed(&carrier).contains(&image) {
            return Err(format!(
                "image {image:?} of {s:?} not allowed by Δ({carrier:?})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gact_chromatic::{chr_iter, standard_simplex};
    use gact_tasks::affine::{full_subdivision_task, total_order_task};
    use gact_tasks::classic::consensus_task;

    /// Identity problem: map Chr^0 I -> O = I for the full-subdivision
    /// task at depth 0.
    #[test]
    fn identity_problem_solves() {
        let at = full_subdivision_task(2, 0);
        let (s, _) = standard_simplex(2);
        let vertex_carrier: HashMap<VertexId, Simplex> = s
            .complex()
            .vertex_set()
            .into_iter()
            .map(|v| (v, Simplex::vertex(v)))
            .collect();
        let problem = MapProblem {
            domain: &s,
            vertex_carrier: &vertex_carrier,
            task: &at.task,
        };
        let out = solve(&problem, None);
        assert!(out.is_solvable());
        validate_solution(&problem, out.map().unwrap()).unwrap();
    }

    #[test]
    fn chr1_to_full_subdivision_depth1_solves_with_identity() {
        // Mapping Chr(s) onto the depth-1 full-subdivision task: the
        // identity works, and the solver must find some valid map.
        let at = full_subdivision_task(2, 1);
        let (s, g) = standard_simplex(2);
        let sd = chr_iter(&s, &g, 1);
        let problem = MapProblem {
            domain: &sd.complex,
            vertex_carrier: &sd.vertex_carrier,
            task: &at.task,
        };
        let out = solve(&problem, None);
        assert!(out.is_solvable());
        validate_solution(&problem, out.map().unwrap()).unwrap();
    }

    #[test]
    fn consensus_unsolvable_at_depths_0_to_2() {
        // 2 processes, binary consensus: no chromatic map from Chr^k I for
        // any k (checked exhaustively for k ≤ 2; these instances sit
        // below the propagation threshold, so the chronological engine
        // refutes them directly).
        let task = consensus_task(1, &[0, 1]);
        for k in 0..=2usize {
            let sd = chr_iter(&task.input, &task.input_geometry, k);
            let problem = MapProblem {
                domain: &sd.complex,
                vertex_carrier: &sd.vertex_carrier,
                task: &task,
            };
            let out = solve(&problem, None);
            assert!(
                !out.is_solvable(),
                "consensus must be unsolvable at depth {k}"
            );
        }
    }

    #[test]
    fn consensus_three_processes_refuted_by_propagation_alone() {
        // Three-process binary consensus at depth 1 crosses the
        // propagation threshold: the component prune (every mixed-input
        // simplex has a disconnected image with pinned corners) plus the
        // arc-consistency fixpoint empty a domain before any assignment.
        let task = consensus_task(2, &[0, 1]);
        let sd = chr_iter(&task.input, &task.input_geometry, 1);
        let problem = MapProblem {
            domain: &sd.complex,
            vertex_carrier: &sd.vertex_carrier,
            task: &task,
        };
        let out = solve(&problem, None);
        assert!(!out.is_solvable());
        let stats = out.stats();
        assert_eq!(stats.assignments, 0, "refuted without search");
        assert!(stats.prunes > 0);
        assert!(
            stats.component_prunes > 0,
            "the connectivity argument fires"
        );
    }

    #[test]
    fn total_order_solvable_at_depth_2() {
        // L_ord is an affine task in Chr² s: the identity-like map from
        // Chr² s restricted appropriately... the task is wait-free
        // solvable at depth 2? No! Only the σ_α simplices are allowed
        // outputs, and a wait-free run can land outside them. The solver
        // must report UNSAT for the full Chr² domain.
        let at = total_order_task(2);
        let (s, g) = standard_simplex(2);
        let sd = chr_iter(&s, &g, 2);
        let problem = MapProblem {
            domain: &sd.complex,
            vertex_carrier: &sd.vertex_carrier,
            task: &at.task,
        };
        let out = solve(&problem, None);
        assert!(!out.is_solvable(), "L_ord is not wait-free solvable at k=2");
    }

    #[test]
    fn hint_orders_domains_without_changing_satisfiability() {
        let at = full_subdivision_task(1, 1);
        let (s, g) = standard_simplex(1);
        let sd = chr_iter(&s, &g, 1);
        let problem = MapProblem {
            domain: &sd.complex,
            vertex_carrier: &sd.vertex_carrier,
            task: &at.task,
        };
        // Reversal is filter-stable: reversing a subsequence equals
        // restricting the reversed full list.
        let reverse = |_: VertexId, cands: &[VertexId]| {
            let mut v = cands.to_vec();
            v.reverse();
            v
        };
        let out = solve(&problem, Some(&reverse));
        assert!(out.is_solvable());
        validate_solution(&problem, out.map().unwrap()).unwrap();
    }

    #[test]
    fn empty_domain_is_trivially_solvable() {
        // Degenerate but legal: an empty domain complex has the empty map.
        let at = full_subdivision_task(1, 0);
        let empty = gact_chromatic::ChromaticComplex::new(Complex::new(), []).unwrap();
        let vertex_carrier = HashMap::new();
        let problem = MapProblem {
            domain: &empty,
            vertex_carrier: &vertex_carrier,
            task: &at.task,
        };
        let out = solve(&problem, None);
        assert!(out.is_solvable());
        assert!(out.map().unwrap().is_empty());
    }

    #[test]
    fn layered_matches_reference_on_controls() {
        // Spot equivalence (the proptests go further): same verdict and
        // same map on a solvable control and an unsatisfiable one.
        for (at, depth) in [
            (full_subdivision_task(1, 1), 1usize),
            (full_subdivision_task(2, 1), 1),
            (full_subdivision_task(1, 2), 2),
        ] {
            let sd = chr_iter(&at.task.input, &at.task.input_geometry, depth);
            let problem = MapProblem {
                domain: &sd.complex,
                vertex_carrier: &sd.vertex_carrier,
                task: &at.task,
            };
            let new = solve(&problem, None);
            let old = reference::solve_reference(&problem, None);
            assert_eq!(new.is_solvable(), old.is_solvable());
            if let (Some(a), Some(b)) = (new.map(), old.map()) {
                let verts = sd.complex.complex().vertex_set();
                for v in verts {
                    assert_eq!(a.apply(v), b.apply(v), "maps diverge at {v:?}");
                }
            }
        }
    }
}
