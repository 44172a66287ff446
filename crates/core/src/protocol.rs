//! Protocol extraction from GACT certificates — the "⇐" direction of
//! Theorem 6.1, made executable.
//!
//! The protocol of the proof: run IIS; at each round, reconstruct from the
//! (full-information) view the history of own snapshots; output at the
//! *first* round at which the snapshot was contained in a stable simplex
//! of `T` whose colors cover the snapshot, taking `δ` of that simplex's
//! own-colored vertex. Decisions are a pure function of the view (the view
//! embeds its history), so they are automatically stable across rounds —
//! matching Definition 4.1(1).

use std::cell::RefCell;
use std::collections::HashMap;

use gact_chromatic::{snapshot_point, ColorSet};
use gact_iis::view::{ViewArena, ViewId, ViewNode};
use gact_iis::{execute, Protocol, Run, StepContext};
use gact_tasks::Task;
use gact_topology::{Point, Simplex, VertexId};

use crate::gact::GactCertificate;

/// The executable protocol extracted from a certificate.
///
/// One instance serves **one execution**: it memoizes per-view decisions
/// and view coordinates, and `ViewId`s are only meaningful within a single
/// execution's arena.
#[derive(Debug)]
pub struct CertificateProtocol<'a> {
    /// The certificate supplying `T` and `δ`.
    pub certificate: &'a GactCertificate,
    /// The task (supplies the input geometry used to realize views).
    pub task: &'a Task,
    coords: RefCell<HashMap<(gact_iis::ProcessId, ViewId), Point>>,
    landings: RefCell<HashMap<ViewId, Option<(Simplex, ColorSet)>>>,
    decisions: RefCell<HashMap<(gact_iis::ProcessId, ViewId), Option<VertexId>>>,
}

impl<'a> CertificateProtocol<'a> {
    /// Creates a protocol instance for one execution.
    pub fn new(certificate: &'a GactCertificate, task: &'a Task) -> Self {
        CertificateProtocol {
            certificate,
            task,
            coords: RefCell::new(HashMap::new()),
            landings: RefCell::new(HashMap::new()),
            decisions: RefCell::new(HashMap::new()),
        }
    }
    /// Position of `(owner, view)` in `|I|`: leaves read the input
    /// geometry; a snapshot is the [`snapshot_point`] of its entries'
    /// positions, the owner's own sub-view being the self entry.
    fn coord_of_owned(&self, arena: &ViewArena, owner: gact_iis::ProcessId, view: ViewId) -> Point {
        if let Some(p) = self.coords.borrow().get(&(owner, view)) {
            return p.clone();
        }
        let p = match arena.node(view) {
            ViewNode::Input { value, .. } => {
                self.task.input_geometry.coord(VertexId(*value)).clone()
            }
            ViewNode::Snap(entries) => {
                let seen: Vec<(bool, Point)> = entries
                    .iter()
                    .map(|&(q, sub)| (q == owner, self.coord_of_owned(arena, q, sub)))
                    .collect();
                snapshot_point(
                    self.task.input_geometry.ambient_dim(),
                    seen.len(),
                    seen.iter().map(|(is_self, x)| (*is_self, x.as_slice())),
                )
            }
        };
        self.coords.borrow_mut().insert((owner, view), p.clone());
        p
    }

    /// The landing simplex of a snapshot view (memoized): the minimal
    /// stable simplex, stabilized by stage ≤ `round`, containing all seen
    /// positions with their colors. The round equals the view's nesting
    /// depth, so the memo key (the view id) determines it.
    fn landing_of(
        &self,
        arena: &ViewArena,
        snap: ViewId,
        round: usize,
    ) -> Option<(Simplex, ColorSet)> {
        if let Some(hit) = self.landings.borrow().get(&snap) {
            return hit.clone();
        }
        let result = match arena.node(snap) {
            ViewNode::Input { .. } => None,
            ViewNode::Snap(entries) => {
                let entries = entries.clone();
                let mut points = Vec::with_capacity(entries.len());
                let mut colors = ColorSet::empty();
                for (q, sub) in &entries {
                    points.push(self.coord_of_owned(arena, *q, *sub));
                    colors.insert(gact_chromatic::Color(q.0));
                }
                self.certificate
                    .landing_simplex(&points, colors, round)
                    .map(|tau| (tau, colors))
            }
        };
        self.landings.borrow_mut().insert(snap, result.clone());
        result
    }

    /// The decision of `pid` holding `view` at `round` (memoized per
    /// process, since the members of one block share a snapshot view):
    /// the decision of its previous own view if that one decided,
    /// otherwise `δ` of the own-colored vertex of this snapshot's landing
    /// simplex. Oldest decision first, so a decision stays fixed in all
    /// later rounds.
    fn decision_of(
        &self,
        arena: &ViewArena,
        pid: gact_iis::ProcessId,
        view: ViewId,
        round: usize,
    ) -> Option<VertexId> {
        if let Some(&hit) = self.decisions.borrow().get(&(pid, view)) {
            return hit;
        }
        let ViewNode::Snap(entries) = arena.node(view) else {
            return None;
        };
        let prev = entries
            .iter()
            .find(|(q, _)| *q == pid)
            .map(|&(_, v)| v)
            .expect("self-inclusion");
        let decision = self.decision_of(arena, pid, prev, round - 1).or_else(|| {
            let (tau, _) = self.landing_of(arena, view, round)?;
            let v = self
                .certificate
                .subdivision
                .current()
                .vertex_of_color(&tau, gact_chromatic::Color(pid.0))
                .expect("landing simplex covers the snapshot colors");
            Some(self.certificate.map.apply(v))
        });
        self.decisions.borrow_mut().insert((pid, view), decision);
        decision
    }
}

impl Protocol for CertificateProtocol<'_> {
    type Output = VertexId;

    fn decide(&self, ctx: &StepContext<'_>) -> Option<VertexId> {
        self.decision_of(ctx.arena, ctx.pid, ctx.view, ctx.round)
    }
}

/// Result of verifying an extracted protocol on one run.
#[derive(Clone, Debug)]
pub struct RunVerification {
    /// The run verified.
    pub run: Run,
    /// Rounds executed.
    pub rounds: usize,
    /// Violations: executor instability, liveness misses, or task-spec
    /// breaches. Empty = correct on this run.
    pub violations: Vec<String>,
    /// The decided outputs.
    pub outputs: HashMap<gact_iis::ProcessId, VertexId>,
}

/// Executes the extracted protocol on each run (input-less tasks: input
/// facet = the top simplex) and checks both halves of Definition 4.1:
/// every infinitely-participating process decides within `max_rounds`, and
/// the outputs respect `Δ`.
///
/// Runs are verified independently (one fresh protocol instance each), so
/// the batch fans out across workers; reports come back in run order and
/// are identical for every thread count.
pub fn verify_protocol_on_runs(
    certificate: &GactCertificate,
    task: &Task,
    runs: &[Run],
    max_rounds: usize,
) -> Vec<RunVerification> {
    let omega = Simplex::new(task.input.complex().vertex_set());
    let input = task.input_assignment(&omega);
    gact_parallel::par_map(runs, |run| {
        // Fresh protocol instance per run: view ids are arena-local.
        let protocol = CertificateProtocol::new(certificate, task);
        let exec = execute(&protocol, &input, run.rounds(), max_rounds);
        let mut violations = exec.violations.clone();
        for p in run.inf_part().iter() {
            if !exec.outputs.contains_key(&p) {
                violations.push(format!(
                    "liveness: {p} never decided within {max_rounds} rounds"
                ));
            }
        }
        let outputs: HashMap<gact_iis::ProcessId, VertexId> = exec
            .outputs
            .iter()
            .map(|(p, d)| (*p, VertexId(d.value.0)))
            .collect();
        if let Err(e) = task.check_outputs(&omega, run.part(), &outputs) {
            violations.push(format!("task violation: {e}"));
        }
        RunVerification {
            run: run.clone(),
            rounds: exec.rounds_run,
            violations,
            outputs,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::{act_solve, ActVerdict};
    use crate::gact::certificate_from_act_map;
    use gact_iis::{ProcessId, Round};
    use gact_models::{enumerate_runs, SubIisModel, WaitFree};
    use gact_tasks::affine::full_subdivision_task;

    #[test]
    fn extracted_protocol_solves_full_subdivision_wait_free() {
        // End-to-end Corollary 7.1 "⇐": certificate -> protocol ->
        // operational verification over every short wait-free run shape.
        let at = full_subdivision_task(1, 1);
        let ActVerdict::Solvable {
            depth,
            map,
            subdivision,
            ..
        } = act_solve(&at.task, 2)
        else {
            panic!("expected solvable");
        };
        let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
        let wf = WaitFree { n_procs: 2 };
        let runs: Vec<Run> = enumerate_runs(2, 1)
            .into_iter()
            .filter(|r| wf.contains(r))
            .collect();
        assert!(!runs.is_empty());
        let reports = verify_protocol_on_runs(&cert, &at.task, &runs, 8);
        for rep in &reports {
            assert!(
                rep.violations.is_empty(),
                "violations on {:?}: {:?}",
                rep.run,
                rep.violations
            );
        }
    }

    #[test]
    fn extracted_protocol_three_processes() {
        let at = full_subdivision_task(2, 1);
        let ActVerdict::Solvable {
            depth,
            map,
            subdivision,
            ..
        } = act_solve(&at.task, 1)
        else {
            panic!("expected solvable");
        };
        let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
        let runs: Vec<Run> = enumerate_runs(3, 0);
        let reports = verify_protocol_on_runs(&cert, &at.task, &runs, 8);
        for rep in &reports {
            assert!(
                rep.violations.is_empty(),
                "violations on {:?}: {:?}",
                rep.run,
                rep.violations
            );
        }
    }

    #[test]
    fn decisions_arrive_at_the_subdivision_depth() {
        // With a depth-2 certificate, solo processes decide at round 2.
        let at = full_subdivision_task(1, 2);
        let ActVerdict::Solvable {
            depth,
            map,
            subdivision,
            ..
        } = act_solve(&at.task, 2)
        else {
            panic!("expected solvable");
        };
        assert_eq!(depth, 2);
        let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
        let run = Run::new(2, [], [Round::solo(ProcessId(0))]).unwrap();
        let reports = verify_protocol_on_runs(&cert, &at.task, &[run], 8);
        assert!(reports[0].violations.is_empty());
        assert!(reports[0].outputs.contains_key(&ProcessId(0)));
    }
}
