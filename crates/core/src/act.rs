//! The Asynchronous Computability Theorem as recovered from GACT in the
//! wait-free case (Corollary 7.1), as an executable decision procedure.
//!
//! `act_solve` searches for `k` and a chromatic map
//! `η : Chr^k I → O` with `η(σ) ∈ Δ(carrier σ)`. Solvability is
//! semi-decidable (task solvability is undecidable in general,
//! Gafni–Koutsoupias), so the search is bounded by `max_depth` and the
//! negative verdict is *"no map up to depth `max_depth`"* — except when the
//! [`connectivity_obstruction`] applies, which rules out **every** depth:
//! if some input simplex `ω` has `Δ(ω)` disconnected while two of its
//! vertices have their `Δ` images pinned in different components, then any
//! `η` would induce a walk across the connected `Chr^k ω` whose image
//! cannot jump components. This is exactly the classical consensus
//! impossibility argument, verified combinatorially.

use std::sync::Arc;

use gact_chromatic::{ChromaticSubdivision, SimplicialMap};
use gact_tasks::{CompiledTask, Task};
use gact_topology::{Simplex, VertexId};

use crate::cache::QueryCache;
use crate::control::{Interrupt, SolveControl, StopState};
use crate::solver::{solve_compiled_interruptible, SolveOutcome, SolveStats};

/// Verdict of the bounded ACT search.
#[derive(Debug)]
pub enum ActVerdict {
    /// Solvable: a map from `Chr^depth I` was found.
    Solvable {
        /// The subdivision depth `k`.
        depth: usize,
        /// The chromatic map `η : Chr^k I → O`.
        map: SimplicialMap,
        /// The subdivision it is defined on (with carriers); shared so
        /// cache-aware sweeps hand out the same `Chr^k` to every verdict.
        subdivision: Arc<ChromaticSubdivision>,
        /// Solver statistics.
        stats: SolveStats,
    },
    /// No map exists at any depth: a connectivity obstruction was found.
    ImpossibleByObstruction(Obstruction),
    /// No map up to the search bound (inconclusive beyond it).
    NoMapUpTo(usize),
}

impl ActVerdict {
    /// Whether the verdict is positive.
    pub fn is_solvable(&self) -> bool {
        matches!(self, ActVerdict::Solvable { .. })
    }
}

/// A depth-independent impossibility witness: an input simplex whose
/// allowed-output complex is disconnected with pinned endpoints in
/// different components.
#[derive(Clone, Debug)]
pub struct Obstruction {
    /// The input simplex `ω` with disconnected `Δ(ω)`.
    pub omega: Simplex,
    /// An input vertex whose image component differs from `other`'s.
    pub pinned: VertexId,
    /// The other input vertex.
    pub other: VertexId,
}

impl std::fmt::Display for Obstruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Δ({:?}) is disconnected and separates Δ({:?}) from Δ({:?})",
            self.omega, self.pinned, self.other
        )
    }
}

/// Searches for a connectivity obstruction (see module docs). Sound but
/// not complete: `None` does not imply solvability.
pub fn connectivity_obstruction(task: &Task) -> Option<Obstruction> {
    for omega in task.input.complex().iter() {
        if omega.dim() == 0 {
            continue;
        }
        let Some(allowed) = task.allowed_ref(omega) else {
            continue;
        };
        if allowed.is_empty() {
            continue;
        }
        let components = allowed.connected_components();
        if components.len() < 2 {
            continue;
        }
        // For every vertex u of ω, the set of components its Δ({u}) image
        // touches (Δ({u}) ⊆ Δ(ω) by monotonicity).
        let verts: Vec<VertexId> = omega.iter().collect();
        let comp_sets: Vec<Option<usize>> = verts
            .iter()
            .map(|&u| {
                let img = task.allowed_ref(&Simplex::vertex(u))?;
                if img.is_empty() {
                    return None;
                }
                let vset = img.vertex_set();
                let touched: Vec<usize> = components
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| vset.iter().any(|v| c.contains(v)))
                    .map(|(i, _)| i)
                    .collect();
                // Pinned to exactly one component.
                if touched.len() == 1 {
                    Some(touched[0])
                } else {
                    None
                }
            })
            .collect();
        for i in 0..verts.len() {
            for j in i + 1..verts.len() {
                if let (Some(a), Some(b)) = (comp_sets[i], comp_sets[j]) {
                    if a != b {
                        return Some(Obstruction {
                            omega: omega.clone(),
                            pinned: verts[i],
                            other: verts[j],
                        });
                    }
                }
            }
        }
    }
    None
}

/// Bounded ACT decision: tries depths `0, 1, …, max_depth` in order.
///
/// One-shot wrapper over [`act_solve_controlled`] with a throwaway
/// [`QueryCache`] and an inert control; sweeps should share one cache
/// across their queries instead.
///
/// # Examples
///
/// The immediate-snapshot iterate task `Chr^1 s` is wait-free solvable at
/// exactly depth 1, while binary consensus is impossible at *every* depth
/// (the connectivity obstruction certifies it):
///
/// ```
/// use gact::{act_solve, ActVerdict};
/// use gact_tasks::affine::full_subdivision_task;
/// use gact_tasks::classic::consensus_task;
///
/// let at = full_subdivision_task(1, 1);
/// assert!(matches!(act_solve(&at.task, 2), ActVerdict::Solvable { depth: 1, .. }));
///
/// let consensus = consensus_task(1, &[0, 1]);
/// assert!(matches!(
///     act_solve(&consensus, 2),
///     ActVerdict::ImpossibleByObstruction(_)
/// ));
/// ```
pub fn act_solve(task: &Task, max_depth: usize) -> ActVerdict {
    match act_solve_controlled(task, max_depth, &QueryCache::new(), &SolveControl::new()) {
        ActOutcome::Done { verdict, .. } => verdict,
        ActOutcome::Interrupted { .. } => unreachable!("an inert control cannot interrupt"),
    }
}

/// Outcome of a *controlled* ACT query: either a full verdict (with the
/// solver statistics accumulated across every searched depth), or an
/// honest interruption report naming the reason and how far the query
/// got before stopping. See [`act_solve_controlled`].
#[derive(Debug)]
pub enum ActOutcome {
    /// The query ran to completion; the verdict is exactly what
    /// [`act_solve`] would have returned.
    Done {
        /// The completed verdict.
        verdict: ActVerdict,
        /// Solver statistics accumulated across every searched depth
        /// (unlike [`ActVerdict::Solvable`]'s per-depth stats).
        stats: SolveStats,
    },
    /// The query stopped early at a round boundary or search-split point.
    Interrupted {
        /// Why the query stopped.
        reason: Interrupt,
        /// Number of depths *fully* searched before stopping (depths
        /// `0 .. completed_depths` were exhausted without finding a map).
        completed_depths: usize,
        /// Solver statistics accumulated up to the interruption.
        stats: SolveStats,
    },
}

impl ActOutcome {
    /// The completed verdict, if the query was not interrupted.
    pub fn verdict(&self) -> Option<&ActVerdict> {
        match self {
            ActOutcome::Done { verdict, .. } => Some(verdict),
            ActOutcome::Interrupted { .. } => None,
        }
    }

    /// Accumulated solver statistics, whichever way the query ended.
    pub fn stats(&self) -> SolveStats {
        match self {
            ActOutcome::Done { stats, .. } | ActOutcome::Interrupted { stats, .. } => *stats,
        }
    }
}

/// The incremental rounds engine: the bounded ACT decision through a
/// shared [`QueryCache`], under a [`SolveControl`].
///
/// Each depth's `Chr^depth I`, its task-independent
/// [`crate::solver::DomainTables`] *and* its
/// [`crate::solver::PropagationPlan`] come from (and populate) `cache`,
/// so a sweep over tasks on the same input complex, or over depth
/// bounds, builds every subdivision stage once (concurrent cold misses
/// may build one twice; see [`crate::cache`]); the cache extends
/// `Chr^{m+1}` from its cached `Chr^m` instead of rebuilding per depth.
/// One [`CompiledTask`] spans every depth, so the interned `Δ`-image
/// tables and the class-level dead values the propagate layer learns at
/// round `m` transfer to round `m + 1` (constraint classes are keyed by
/// base-complex carriers, which recur at every round). The verdict —
/// including the found map and its depth — is the same for a warm or a
/// fresh cache and every thread count (pinned by the cache regression
/// tests).
///
/// The cancellation token and budget are checked at every round boundary
/// (before extending the subdivision chain to the next depth) and at the
/// search layer's split points, so a cancelled or over-budget query
/// returns an honest [`ActOutcome::Interrupted`] instead of running on.
/// An inert control (no token, unlimited budget) installs no stop state
/// and never interrupts. An interrupted query never poisons `cache`:
/// every cached artifact (subdivision stage, domain table, propagation
/// plan) is only stored fully built, so re-submitting the same query
/// afterwards returns the full answer.
pub fn act_solve_controlled(
    task: &Task,
    max_depth: usize,
    cache: &QueryCache,
    control: &SolveControl,
) -> ActOutcome {
    // An inert control takes the fast path: no stop state, no per-node
    // checks.
    let stop = (!control.is_inert()).then(|| StopState::new(control));
    let stop = stop.as_ref();
    let mut acc = SolveStats::default();
    let interrupted = |reason, completed_depths, acc| ActOutcome::Interrupted {
        reason,
        completed_depths,
        stats: acc,
    };
    if let Some(stop) = stop {
        if let Err(reason) = stop.boundary() {
            return interrupted(reason, 0, acc);
        }
    }
    if let Some(obstruction) = connectivity_obstruction(task) {
        return ActOutcome::Done {
            verdict: ActVerdict::ImpossibleByObstruction(obstruction),
            stats: acc,
        };
    }
    let compiled = CompiledTask::new(task);
    let key = cache.key_of(&task.input, &task.input_geometry);
    for depth in 0..=max_depth {
        // Round boundary: cancellation / deadline / node budget, plus the
        // round allowance — a `max_rounds` budget below the requested
        // depth stops the chain honestly instead of silently truncating.
        if let Some(stop) = stop {
            if let Err(reason) = stop.boundary() {
                return interrupted(reason, depth, acc);
            }
            if control.budget.max_rounds.is_some_and(|max| depth > max) {
                return interrupted(Interrupt::RoundBudgetExhausted, depth, acc);
            }
        }
        let sd = cache.subdivision_keyed(key, &task.input, &task.input_geometry, depth);
        let tables = cache.domain_tables(key, depth, &sd);
        // The propagation plan is supplied *lazily*: the engine only asks
        // for it when the instance is large enough to propagate and no
        // initial domain is empty, so short-circuited depths (empty solo
        // images, tiny rounds) never build — or cache — a plan at all.
        let source = || cache.propagation_plan(key, depth, &tables, &sd);
        let outcome = solve_compiled_interruptible(
            &tables,
            &sd.complex,
            &compiled,
            None,
            Some(&source),
            stop,
        );
        acc.assignments += outcome.stats().assignments;
        acc.backtracks += outcome.stats().backtracks;
        acc.prunes += outcome.stats().prunes;
        acc.component_prunes += outcome.stats().component_prunes;
        match outcome {
            SolveOutcome::Map(map, stats) => {
                // A map found under a tripped stop is still a valid map —
                // report it (the honest *better* outcome).
                return ActOutcome::Done {
                    verdict: ActVerdict::Solvable {
                        depth,
                        map,
                        subdivision: sd,
                        stats,
                    },
                    stats: acc,
                };
            }
            SolveOutcome::Unsatisfiable(_) => {
                // Under a tripped stop the search unwound early, so
                // "unsatisfiable" only means "not fully explored".
                if let Some(stop) = stop {
                    if let Some(reason) = stop.tripped() {
                        return interrupted(reason, depth, acc);
                    }
                }
            }
        }
    }
    ActOutcome::Done {
        verdict: ActVerdict::NoMapUpTo(max_depth),
        stats: acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gact_tasks::affine::{full_subdivision_task, lt_task, total_order_task};
    use gact_tasks::classic::{consensus_task, set_agreement_task};

    #[test]
    fn full_subdivision_tasks_solve_at_their_depth() {
        for depth in 0..=2usize {
            let at = full_subdivision_task(1, depth);
            match act_solve(&at.task, 3) {
                ActVerdict::Solvable { depth: d, .. } => {
                    assert_eq!(d, depth, "Chr^{depth} task should solve at exactly {depth}")
                }
                v => panic!("expected solvable, got {v:?}"),
            }
        }
    }

    #[test]
    fn full_subdivision_n2_depth1_solves() {
        let at = full_subdivision_task(2, 1);
        assert!(act_solve(&at.task, 1).is_solvable());
    }

    #[test]
    fn consensus_obstructed_for_all_depths() {
        for n in 1..=2usize {
            let task = consensus_task(n, &[0, 1]);
            match act_solve(&task, 4) {
                ActVerdict::ImpossibleByObstruction(o) => {
                    // The witness is a mixed-input simplex.
                    assert!(o.omega.dim() >= 1);
                }
                v => panic!("consensus n={n} should be obstructed, got {v:?}"),
            }
        }
    }

    #[test]
    fn two_set_agreement_three_values_not_obstructed_by_connectivity() {
        // 2-set agreement for 3 processes is wait-free unsolvable, but not
        // by the *connectivity* (dimension-0) obstruction — the classical
        // proof needs the higher Sperner argument. Our bounded search must
        // report NoMapUpTo, not a false obstruction.
        let task = set_agreement_task(2, &[0, 1, 2], 2);
        assert!(connectivity_obstruction(&task).is_none());
        match act_solve(&task, 0) {
            ActVerdict::NoMapUpTo(0) => {}
            v => panic!("expected NoMapUpTo(0), got {v:?}"),
        }
    }

    #[test]
    fn total_order_obstructed() {
        // L_ord is wait-free unsolvable at *every* depth, and the
        // connectivity obstruction certifies it: Δ(edge {a,b}) consists of
        // two disjoint fragments (one per arrival order), with the corners
        // pinned to different fragments.
        let at = total_order_task(1);
        match act_solve(&at.task, 3) {
            ActVerdict::ImpossibleByObstruction(o) => {
                assert_eq!(o.omega, gact_topology::Simplex::from_iter([0u32, 1]));
            }
            v => panic!("expected obstruction, got {v:?}"),
        }
        let at2 = total_order_task(2);
        assert!(matches!(
            act_solve(&at2.task, 0),
            ActVerdict::ImpossibleByObstruction(_)
        ));
    }

    #[test]
    fn lt_task_not_wait_free_solvable_small_depths() {
        // L_1 needs the t-resilient model; wait-free runs include solo
        // ones whose Δ(vertex) is empty — the vertex domain becomes empty
        // and the solver refutes immediately.
        let at = lt_task(2, 1);
        match act_solve(&at.task, 1) {
            ActVerdict::NoMapUpTo(1) => {}
            v => panic!("expected NoMapUpTo, got {v:?}"),
        }
    }
}
