//! The search layer: depth-first backtracking with one-step lookahead,
//! adjacency-guided variable ordering, conflict-weighted constraint
//! scheduling, and the deterministic subtree split — one search body at
//! every thread count.
//!
//! The search explores candidates in domain order along a fixed variable
//! order and returns the **first** complete assignment it reaches — the
//! invariant every optimisation in this module preserves:
//!
//! * *conflict-weighted constraint scheduling* reorders only the
//!   per-vertex list of constraints checked inside [`Search::consistent`]
//!   (a conjunction — order affects speed, never the verdict);
//! * the *subtree split* explores one candidate subtree per pool job (in
//!   index order, inline, at one thread) and crowns the lowest-index
//!   winner, which is exactly the subtree the sequential DFS would have
//!   reached first;
//! * domain *pruning* (see [`super::propagate`]) only removes values that
//!   appear in no solution, which cannot change the first solution found.
//!
//! The search counters are those of the sequential DFS too, so they are a
//! property of the instance: work done concurrently in subtrees above the
//! winner is reported apart, as `speculative_assignments`.

use std::sync::atomic::{AtomicUsize, Ordering};

use gact_topology::{Complex, Simplex, VertexId};

use crate::control::{StopState, STOP_CHECK_GRAIN};

use super::domains::MAX_CARD;
use super::SolveStats;

pub(crate) const UNASSIGNED: VertexId = VertexId(u32::MAX);

/// Dense solver state shared by the recursive search.
pub(crate) struct Search<'a> {
    /// Candidate output vertices per dense domain-vertex id.
    pub domains: &'a [Vec<VertexId>],
    /// Dense domain-vertex id per `VertexId.0` (sentinel `u32::MAX`).
    pub dense: &'a [u32],
    /// Constraint simplices (dim ≥ 1) with their interned carrier ids.
    pub simplices: &'a [(Simplex, u32)],
    /// Constraint indices touching each dense vertex id (possibly
    /// conflict-reordered — a pure scheduling choice).
    pub per_vertex: &'a [Vec<u32>],
    /// `Δ` images keyed by interned carrier id (borrowed from the task).
    pub images: &'a [&'a Complex],
    /// Variable order (dense ids).
    pub order: &'a [u32],
    /// Current partial assignment (dense id → output vertex or sentinel).
    pub assignment: Vec<VertexId>,
    pub stats: SolveStats,
    /// Subtree cancellation: the lowest subtree index that found a
    /// solution so far. A subtree stops once a *lower-indexed* subtree has
    /// a solution — that subtree's map wins regardless of what this one
    /// would find, so aborting cannot change the outcome.
    pub best: &'a AtomicUsize,
    /// This subtree's index (its candidate's position at the branching
    /// vertex).
    pub index: usize,
    /// Cooperative interruption for controlled queries (cancellation /
    /// deadline / node budget — see [`crate::control`]). `None` for
    /// uncontrolled queries, whose candidate loops then pay nothing.
    pub stop: Option<&'a StopState<'a>>,
    /// Nodes already flushed to `stop`'s shared counter (flushes happen
    /// every [`STOP_CHECK_GRAIN`] assignments, so the expensive deadline
    /// check runs on a coarse grain).
    pub flushed: u64,
}

impl Search<'_> {
    /// Checks every constraint simplex touching `vi` against the current
    /// assignment: fully assigned simplices must map into their `Δ` image;
    /// simplices with exactly one hole must still admit some filler
    /// (one-step lookahead).
    pub(crate) fn consistent(&self, vi: usize) -> bool {
        let mut image_buf = [VertexId(0); MAX_CARD];
        for &si in &self.per_vertex[vi] {
            let (s, carrier_id) = &self.simplices[si as usize];
            let mut len = 0usize;
            let mut hole: usize = usize::MAX;
            let mut holes = 0u32;
            for w in s.iter() {
                let wi = self.dense[w.0 as usize] as usize;
                let x = self.assignment[wi];
                if x == UNASSIGNED {
                    holes += 1;
                    if holes > 1 {
                        break;
                    }
                    hole = wi;
                } else {
                    image_buf[len] = x;
                    len += 1;
                }
            }
            let allowed = &self.images[*carrier_id as usize];
            if holes == 0 {
                let image = Simplex::new(image_buf[..len].iter().copied());
                if !allowed.contains(&image) {
                    return false;
                }
            } else if holes == 1 {
                let feasible = self.domains[hole].iter().any(|&cand| {
                    image_buf[len] = cand;
                    allowed.contains(&Simplex::new(image_buf[..=len].iter().copied()))
                });
                if !feasible {
                    return false;
                }
            }
        }
        true
    }

    /// Whether this subtree has been cancelled by a lower-indexed subtree
    /// finding a solution (see `abort`). Checked inside the candidate loop
    /// so a cancelled subtree unwinds in O(stack depth) instead of running
    /// a full consistency scan per remaining candidate per frame.
    fn cancelled(&self) -> bool {
        self.best.load(Ordering::Relaxed) < self.index
    }

    /// Controlled-query checkpoint (a *search-split point*): cheap latched
    /// probe every iteration, full flush-and-evaluate every
    /// [`STOP_CHECK_GRAIN`] assignments. An interrupted search unwinds
    /// exactly like an aborted parallel subtree; the caller distinguishes
    /// interruption from exhaustion via the stop state's latched reason.
    fn interrupted(&mut self) -> bool {
        let Some(stop) = self.stop else { return false };
        if stop.tripped().is_some() {
            return true;
        }
        let delta = self.stats.assignments - self.flushed;
        if delta < STOP_CHECK_GRAIN {
            return false;
        }
        self.flushed = self.stats.assignments;
        stop.note_and_check(delta).is_some()
    }

    /// Flushes this search's unflushed nodes to the stop state and
    /// evaluates the control there, so a budget spent across many small
    /// subtrees trips too; the next checkpoint sees the latched reason.
    fn flush(&self) {
        if let Some(stop) = self.stop {
            stop.note_and_check(self.stats.assignments - self.flushed);
        }
    }

    pub(crate) fn backtrack(&mut self, depth: usize) -> bool {
        if depth == self.order.len() {
            return true;
        }
        let vi = self.order[depth] as usize;
        for ci in 0..self.domains[vi].len() {
            if self.cancelled() || self.interrupted() {
                return false;
            }
            let w = self.domains[vi][ci];
            self.stats.assignments += 1;
            self.assignment[vi] = w;
            if self.consistent(vi) && self.backtrack(depth + 1) {
                return true;
            }
            self.assignment[vi] = UNASSIGNED;
            self.stats.backtracks += 1;
        }
        false
    }
}

/// The adjacency-guided variable order: start from the most constrained
/// vertex; repeatedly pick the unordered vertex with the most already-
/// ordered neighbours (ties: smallest domain, then largest vertex id
/// reversed). On subdivision complexes this makes every assignment
/// immediately constrained by its simplex neighbours, keeping
/// backtracking shallow.
///
/// `domain_sizes` must be the **initial** (pre-propagation) domain sizes:
/// the order is part of the engine's reproducibility contract, so it is
/// computed from quantities the propagation layer cannot perturb.
pub(crate) fn variable_order(
    domain_sizes: &[usize],
    neighbours: &[Vec<u32>],
    vertices: &[VertexId],
) -> Vec<u32> {
    let n = vertices.len();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut placed_neighbours = vec![0usize; n];
    while order.len() < n {
        let next = (0..n)
            .filter(|&i| !placed[i])
            .max_by_key(|&i| {
                (
                    placed_neighbours[i],
                    std::cmp::Reverse(domain_sizes[i]),
                    std::cmp::Reverse(vertices[i].0),
                )
            })
            .expect("some vertex unplaced");
        placed[next] = true;
        order.push(next as u32);
        for &w in &neighbours[next] {
            placed_neighbours[w as usize] += 1;
        }
    }
    order
}

/// Runs the search over prepared domains and returns the (first) found
/// assignment with its statistics.
///
/// The forced prefix of the variable order (domains of size 1) is
/// assigned first: a conflict there proves unsatisfiability, since every
/// earlier variable is equally forced. The search then splits at the
/// first *branching* vertex, one subtree per candidate, each exploring the
/// DFS order below it. [`gact_parallel::par_map`] runs the subtrees on
/// the pool, or inline in index order at one thread.
///
/// The subtree of the lowest candidate index holding a solution wins,
/// which is exactly the solution a sequential DFS returns; a shared atomic
/// makes subtrees with a higher index stop early (or never start), which
/// cannot affect the winner. The reported `assignments` and `backtracks`
/// are the work that DFS does: the prefix, every subtree up to and
/// including the winner (all of them if none wins), and, when nothing
/// wins, one backtrack per forced level it unwinds. The assignments of
/// subtrees above the winner go to `speculative_assignments`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_search(
    domains: &[Vec<VertexId>],
    dense: &[u32],
    simplices: &[(Simplex, u32)],
    per_vertex: &[Vec<u32>],
    images: &[&Complex],
    order: &[u32],
    base_stats: SolveStats,
    stop: Option<&StopState<'_>>,
) -> (Option<Vec<VertexId>>, SolveStats) {
    let n = order.len();
    let best = AtomicUsize::new(usize::MAX);
    let search = |assignment, stats: SolveStats, index| Search {
        domains,
        dense,
        simplices,
        per_vertex,
        images,
        order,
        assignment,
        stats,
        best: &best,
        index,
        stop,
        flushed: stats.assignments,
    };
    let mut prefix = search(vec![UNASSIGNED; n], base_stats, 0);
    let mut depth = 0usize;
    let mut conflict = false;
    while depth < n && domains[order[depth] as usize].len() == 1 {
        let vi = order[depth] as usize;
        prefix.stats.assignments += 1;
        prefix.assignment[vi] = domains[vi][0];
        if !prefix.consistent(vi) {
            prefix.stats.backtracks += 1;
            conflict = true;
            break;
        }
        depth += 1;
    }
    prefix.flush();
    let mut stats = prefix.stats;
    if depth == n {
        return (Some(prefix.assignment), stats);
    }

    let mut winner = None;
    if !conflict {
        let branch_vi = order[depth] as usize;
        let candidates = &domains[branch_vi];
        let indices: Vec<usize> = (0..candidates.len()).collect();
        let base_assignment = &prefix.assignment;
        let subtrees = gact_parallel::par_map(&indices, |&ci| {
            if best.load(Ordering::Relaxed) < ci {
                return (None, SolveStats::default());
            }
            let mut sub = search(base_assignment.clone(), SolveStats::default(), ci);
            sub.stats.assignments += 1;
            sub.assignment[branch_vi] = candidates[ci];
            let won = sub.consistent(branch_vi) && sub.backtrack(depth + 1);
            sub.flush();
            if won {
                best.fetch_min(ci, Ordering::SeqCst);
                (Some(sub.assignment), sub.stats)
            } else {
                sub.stats.backtracks += 1;
                (None, sub.stats)
            }
        });
        for (assignment, sub_stats) in subtrees {
            if winner.is_none() {
                stats.add(sub_stats);
                winner = assignment;
            } else {
                stats.speculative_assignments += sub_stats.assignments;
            }
        }
    }
    if winner.is_none() {
        stats.backtracks += depth as u64;
    }
    (winner, stats)
}
