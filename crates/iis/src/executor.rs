//! Operational execution of protocols over IIS schedules (paper §4.4).
//!
//! A protocol, for solvability purposes, is a partial map from views to
//! output values (Definition 4.1). The executor drives a [`Protocol`]
//! through a finite schedule of rounds, maintaining for every process its
//! interned view, the geometric position of its view-vertex in `|I|` (via
//! the `1/(2k−1)` update rule, which mirrors the chromatic-subdivision
//! geometry exactly), and the carrier of everything it has seen. It also
//! checks the *stability* half of Definition 4.1(1): once a process
//! decides, all its later views must decide the same value.

use std::collections::HashMap;
use std::fmt;

use gact_topology::{Point, Simplex};

use crate::process::{ProcessId, ProcessSet};
use crate::round::Round;
use crate::view::{ViewArena, ViewId, ViewNode};

/// Everything a protocol may look at when deciding (its full-information
/// state after one more immediate snapshot).
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
    /// Processes seen in this round's snapshot.
    pub seen: ProcessSet,
    /// Geometric position of the process's view-vertex in `|I|`.
    pub coord: &'a [f64],
    /// Positions of all views seen in this round (the simplex spanned by
    /// the snapshot), keyed by process.
    pub seen_coords: &'a [(ProcessId, Point)],
    /// Carrier: the smallest input-complex simplex containing everything
    /// seen so far.
    pub carrier: &'a Simplex,
    /// The process's own input value id.
    pub input: u32,
}

/// A protocol: a (partial) decision map from views to outputs.
pub trait Protocol {
    /// The output value type.
    type Output: Clone + PartialEq + fmt::Debug;

    /// Decision on the current view; `None` keeps running.
    fn decide(&self, ctx: &StepContext<'_>) -> Option<Self::Output>;
}

/// Inputs for one execution: for each potential participant, an input value
/// id, the coordinates of its input vertex, and the input vertex as a
/// carrier simplex.
#[derive(Clone, Debug)]
pub struct InputAssignment {
    /// Input value ids (used in view leaves).
    pub values: HashMap<ProcessId, u32>,
    /// Coordinates of each process's input vertex in `|I|`.
    pub coords: HashMap<ProcessId, Point>,
    /// The input vertex of each process, as a 0-simplex of the input
    /// complex.
    pub carriers: HashMap<ProcessId, Simplex>,
}

impl InputAssignment {
    /// The input-less assignment over `{p_0, …, p_n}`: process `i` starts
    /// with value `i` at the `i`-th corner of the standard simplex
    /// (paper §4.1, "input-less tasks").
    pub fn standard_corners(n: usize) -> Self {
        let mut values = HashMap::new();
        let mut coords = HashMap::new();
        let mut carriers = HashMap::new();
        for i in 0..=n {
            let p = ProcessId(i as u8);
            values.insert(p, i as u32);
            let mut x = vec![0.0; n + 1];
            x[i] = 1.0;
            coords.insert(p, x);
            carriers.insert(p, Simplex::vertex(gact_topology::VertexId(i as u32)));
        }
        InputAssignment {
            values,
            coords,
            carriers,
        }
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

/// Per-process full-information state.
struct ProcState {
    view: ViewId,
    coord: Point,
    carrier: Simplex,
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
    let mut states: HashMap<ProcessId, ProcState> = HashMap::new();
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
                states.insert(
                    p,
                    ProcState {
                        view: arena.intern(ViewNode::Input { pid: p, value }),
                        coord: input.coords[&p].clone(),
                        carrier: input.carriers[&p].clone(),
                    },
                );
            }
        }
        prev_parts = Some(parts);
        rounds_run = k;

        // Snapshot the pre-round states (IS semantics: everyone in the
        // round reads the previous-round views).
        let pre: HashMap<ProcessId, (ViewId, Point, Simplex)> = parts
            .iter()
            .map(|p| {
                let s = &states[&p];
                (p, (s.view, s.coord.clone(), s.carrier.clone()))
            })
            .collect();

        for p in parts.iter() {
            let seen = round.seen_by(p);
            let m = seen.len() as f64;
            let w_self = 1.0 / (2.0 * m - 1.0);
            let w_other = 2.0 / (2.0 * m - 1.0);
            let mut coord = vec![0.0; pre[&p].1.len()];
            let mut carrier = pre[&p].2.clone();
            let mut subs = Vec::with_capacity(seen.len());
            let mut seen_coords = Vec::with_capacity(seen.len());
            for q in seen.iter() {
                let (qview, qcoord, qcarrier) = &pre[&q];
                subs.push((q, *qview));
                let w = if q == p { w_self } else { w_other };
                for (acc, x) in coord.iter_mut().zip(qcoord) {
                    *acc += w * x;
                }
                carrier = carrier.union(qcarrier);
                seen_coords.push((q, qcoord.clone()));
            }
            let view = arena.intern(ViewNode::Snap(subs));
            let ctx = StepContext {
                pid: p,
                round: k,
                view,
                arena: &arena,
                seen,
                coord: &coord,
                seen_coords: &seen_coords,
                carrier: &carrier,
                input: input.values[&p],
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
            states.insert(
                p,
                ProcState {
                    view,
                    coord,
                    carrier,
                },
            );
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
    fn coordinates_follow_subdivision_geometry() {
        // After one fair round of 2 processes, each process's view-vertex
        // sits at the central simplex of Chr(s): color-i vertex at
        // 1/3 x_i + 2/3 x_j.
        let input = InputAssignment::standard_corners(1);
        struct Probe;
        impl Protocol for Probe {
            type Output = Vec<(u8, Vec<f64>)>;
            fn decide(&self, ctx: &StepContext<'_>) -> Option<Self::Output> {
                Some(vec![(ctx.pid.0, ctx.coord.to_vec())])
            }
        }
        let exec = execute(&Probe, &input, vec![round(&[&[0, 1]])], 10);
        let c0 = &exec.outputs[&pid(0)].value[0].1;
        assert!((c0[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((c0[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn carrier_tracks_everything_seen() {
        let input = InputAssignment::standard_corners(2);
        struct CarrierProbe;
        impl Protocol for CarrierProbe {
            type Output = usize;
            fn decide(&self, ctx: &StepContext<'_>) -> Option<usize> {
                Some(ctx.carrier.card())
            }
        }
        let exec = execute(
            &CarrierProbe,
            &input,
            vec![round(&[&[1], &[0, 2]]), round(&[&[0, 1, 2]])],
            10,
        );
        // p1 went first alone: carrier {1}. p0 and p2 saw everyone.
        assert_eq!(exec.outputs[&pid(1)].value, 1);
        assert_eq!(exec.outputs[&pid(0)].value, 3);
        assert_eq!(exec.outputs[&pid(2)].value, 3);
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
