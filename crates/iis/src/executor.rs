//! Operational execution of protocols over IIS schedules (paper §4.4).
//!
//! A protocol, for solvability purposes, is a partial map from views to
//! output values (Definition 4.1). The executor drives a [`Protocol`]
//! through a finite schedule of rounds — the paper's operational semantics:
//! it maintains every process's interned full-information view (each
//! round, a participant's new view is the set of pre-round views it sees)
//! and checks the *stability* half of Definition 4.1(1): once a process
//! decides, all its later views must decide the same value. Geometry is
//! not tracked here; a protocol that needs the position of a view derives
//! it from the view ([`gact_chromatic::snapshot_point`]), and
//! [`crate::Run::positions`] gives the positions along a run.

use std::collections::HashMap;
use std::fmt;

use crate::process::{ProcessId, ProcessSet};
use crate::round::Round;
use crate::view::{ViewArena, ViewId, ViewNode};

/// Everything a protocol may look at when deciding: its full-information
/// view after one more immediate snapshot. The view embeds the whole
/// history (who was seen, and what they had seen), so everything else a
/// protocol needs — inputs, seen sets, positions — is a function of it.
#[derive(Debug)]
pub struct StepContext<'a> {
    /// The deciding process.
    pub pid: ProcessId,
    /// The round just completed (`k ≥ 1`).
    pub round: usize,
    /// The interned view `view(p, ω, k)`.
    pub view: ViewId,
    /// Arena resolving nested views.
    pub arena: &'a ViewArena,
}

/// A protocol: a (partial) decision map from views to outputs.
pub trait Protocol {
    /// The output value type.
    type Output: Clone + PartialEq + fmt::Debug;

    /// Decision on the current view; `None` keeps running.
    fn decide(&self, ctx: &StepContext<'_>) -> Option<Self::Output>;
}

/// Inputs for one execution: the input value id of each potential
/// participant, which becomes the leaf of its views.
#[derive(Clone, Debug)]
pub struct InputAssignment {
    /// Input value ids (used in view leaves).
    pub values: HashMap<ProcessId, u32>,
}

impl InputAssignment {
    /// The input-less assignment over `{p_0, …, p_n}`: process `i` starts
    /// with value `i`, the id of the `i`-th corner of the standard simplex
    /// (paper §4.1, "input-less tasks").
    pub fn standard_corners(n: usize) -> Self {
        let values = (0..=n).map(|i| (ProcessId(i as u8), i as u32)).collect();
        InputAssignment { values }
    }

    /// Participants this assignment can serve.
    pub fn domain(&self) -> ProcessSet {
        self.values.keys().copied().collect()
    }
}

/// A decision taken during an execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision<O> {
    /// Round at which the first decision was made (`k_0` of Def. 4.1).
    pub round: usize,
    /// The output value.
    pub value: O,
}

/// The result of driving a protocol through a schedule.
#[derive(Clone, Debug)]
pub struct Execution<O> {
    /// Decisions per process (absent = never decided within the schedule).
    pub outputs: HashMap<ProcessId, Decision<O>>,
    /// Stability violations (a process decided two different values, or
    /// retracted a decision) — must be empty for a correct protocol.
    pub violations: Vec<String>,
    /// Number of rounds executed.
    pub rounds_run: usize,
    /// Participants of the first round.
    pub participants: ProcessSet,
}

/// Drives `protocol` through `schedule` (which must be a valid nested
/// sequence of rounds whose participants lie in the input domain).
///
/// # Panics
///
/// Panics if the schedule violates IIS nesting (`S_{k+1} ⊆ S_k`) or
/// mentions a process without input.
pub fn execute<P: Protocol>(
    protocol: &P,
    input: &InputAssignment,
    schedule: impl IntoIterator<Item = Round>,
    max_rounds: usize,
) -> Execution<P::Output> {
    let mut arena = ViewArena::new();
    let mut views: HashMap<ProcessId, ViewId> = HashMap::new();
    let mut outputs: HashMap<ProcessId, Decision<P::Output>> = HashMap::new();
    let mut violations = Vec::new();
    let mut prev_parts: Option<ProcessSet> = None;
    let mut rounds_run = 0usize;
    let mut participants = ProcessSet::empty();

    for (k0, round) in schedule.into_iter().enumerate() {
        if k0 >= max_rounds {
            break;
        }
        let k = k0 + 1; // paper-style 1-indexed round number
        let parts = round.participants();
        if let Some(prev) = prev_parts {
            assert!(
                parts.is_subset_of(prev),
                "schedule violates IIS nesting at round {k}"
            );
        } else {
            participants = parts;
            assert!(
                parts.is_subset_of(input.domain()),
                "participants lack inputs"
            );
            // Initialize leaves for all first-round participants.
            for p in parts.iter() {
                let value = input.values[&p];
                views.insert(p, arena.intern(ViewNode::Input { pid: p, value }));
            }
        }
        prev_parts = Some(parts);
        rounds_run = k;

        // Snapshot the pre-round views (IS semantics: everyone in the
        // round reads the previous-round views).
        let pre = views.clone();

        for p in parts.iter() {
            let subs = round.seen_by(p).iter().map(|q| (q, pre[&q])).collect();
            let view = arena.intern(ViewNode::Snap(subs));
            let ctx = StepContext {
                pid: p,
                round: k,
                view,
                arena: &arena,
            };
            let decision = protocol.decide(&ctx);
            match (&decision, outputs.get(&p)) {
                (Some(v), Some(prev)) => {
                    if *v != prev.value {
                        violations.push(format!(
                            "{p} decided {v:?} at round {k} after {:?} at round {}",
                            prev.value, prev.round
                        ));
                    }
                }
                (Some(v), None) => {
                    outputs.insert(
                        p,
                        Decision {
                            round: k,
                            value: v.clone(),
                        },
                    );
                }
                (None, Some(prev)) => {
                    violations.push(format!(
                        "{p} retracted its decision {:?} (from round {}) at round {k}",
                        prev.value, prev.round
                    ));
                }
                (None, None) => {}
            }
            views.insert(p, view);
        }
    }

    Execution {
        outputs,
        violations,
        rounds_run,
        participants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u8) -> ProcessId {
        ProcessId(i)
    }

    fn round(blocks: &[&[u8]]) -> Round {
        Round::from_blocks(
            blocks
                .iter()
                .map(|b| b.iter().map(|&i| pid(i)).collect::<Vec<_>>()),
        )
        .unwrap()
    }

    /// Outputs the smallest input value seen, after a fixed round.
    struct MinSeen {
        after: usize,
    }

    impl Protocol for MinSeen {
        type Output = u32;
        fn decide(&self, ctx: &StepContext<'_>) -> Option<u32> {
            if ctx.round >= self.after {
                Some(min_input(ctx.arena, ctx.view))
            } else {
                None
            }
        }
    }

    fn min_input(arena: &ViewArena, view: ViewId) -> u32 {
        match arena.node(view) {
            ViewNode::Input { value, .. } => *value,
            ViewNode::Snap(subs) => subs
                .iter()
                .map(|&(_, s)| min_input(arena, s))
                .min()
                .unwrap(),
        }
    }

    #[test]
    fn fair_schedule_everyone_sees_min() {
        let input = InputAssignment::standard_corners(2);
        let schedule = vec![round(&[&[0, 1, 2]]); 3];
        let exec = execute(&MinSeen { after: 1 }, &input, schedule, 10);
        assert!(exec.violations.is_empty());
        assert_eq!(exec.outputs.len(), 3);
        for p in 0..3u8 {
            assert_eq!(exec.outputs[&pid(p)].value, 0);
            assert_eq!(exec.outputs[&pid(p)].round, 1);
        }
    }

    #[test]
    fn solo_process_sees_only_itself() {
        let input = InputAssignment::standard_corners(2);
        let schedule = vec![round(&[&[2]]); 2];
        let exec = execute(&MinSeen { after: 1 }, &input, schedule, 10);
        assert_eq!(exec.outputs[&pid(2)].value, 2);
        assert_eq!(exec.outputs.len(), 1);
    }

    #[test]
    fn ordered_round_gives_later_blocks_more_information() {
        let input = InputAssignment::standard_corners(2);
        let schedule = vec![round(&[&[1], &[2], &[0]])];
        let exec = execute(&MinSeen { after: 1 }, &input, schedule, 10);
        assert_eq!(exec.outputs[&pid(1)].value, 1);
        assert_eq!(exec.outputs[&pid(2)].value, 1);
        assert_eq!(exec.outputs[&pid(0)].value, 0);
    }

    #[test]
    fn instability_is_reported() {
        // A protocol that outputs the round number: changes its decision.
        struct Unstable;
        impl Protocol for Unstable {
            type Output = usize;
            fn decide(&self, ctx: &StepContext<'_>) -> Option<usize> {
                Some(ctx.round)
            }
        }
        let input = InputAssignment::standard_corners(1);
        let exec = execute(&Unstable, &input, vec![round(&[&[0, 1]]); 2], 10);
        assert!(!exec.violations.is_empty());
    }

    #[test]
    #[should_panic(expected = "nesting")]
    fn growing_participants_panic() {
        let input = InputAssignment::standard_corners(2);
        let schedule = vec![round(&[&[0]]), round(&[&[0, 1]])];
        let _ = execute(&MinSeen { after: 1 }, &input, schedule, 10);
    }

    #[test]
    fn max_rounds_truncates() {
        let input = InputAssignment::standard_corners(1);
        let exec = execute(
            &MinSeen { after: 5 },
            &input,
            vec![round(&[&[0, 1]]); 10],
            3,
        );
        assert_eq!(exec.rounds_run, 3);
        assert!(exec.outputs.is_empty());
    }
}
