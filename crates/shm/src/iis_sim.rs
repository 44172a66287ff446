//! Forward simulation `F : SM → IIS` (paper §1, step (1)): running the IIS
//! abstraction over shared memory.
//!
//! Processes march through a sequence of [`crate::IsObject`]s, feeding each
//! layer the full-information view returned by the previous one. The
//! interleaving of the underlying read/write steps is chosen by a
//! [`crate::Scheduler`] — i.e. an arbitrary SM run — and the outcome is
//! *flattened back into an IIS run*: each layer's returned views determine
//! one ordered partition (a [`Round`]).
//!
//! This realizes, operationally, the direction of the SM↔IIS equivalence
//! the paper builds on: every SM interleaving of the simulation corresponds
//! to a legal IIS run with the same participating processes. (The converse
//! direction with fast-set preservation, due to Bouzid–Gafni–Kuznetsov
//! 2014, is replaced by direct generation of IIS runs — see
//! `gact_models::enumerate_runs` and `gact_models::RunSampler`.)

use std::collections::BTreeMap;

use gact_iis::view::{ViewArena, ViewId, ViewNode};
use gact_iis::{ProcessId, ProcessSet, Round};

use crate::is_object::IsObject;
use crate::scheduler::Scheduler;

/// The result of simulating IIS over shared memory.
#[derive(Clone, Debug)]
pub struct SimulatedIis {
    /// The extracted IIS rounds, one per completed layer.
    pub rounds: Vec<Round>,
    /// Views per layer and process (writer-tagged, interned).
    pub views: Vec<BTreeMap<ProcessId, ViewId>>,
    /// The view arena.
    pub arena: ViewArena,
    /// Processes that never finished their current layer (crashed or
    /// starved by the scheduler).
    pub stuck: ProcessSet,
}

/// Runs `layers` iterated immediate snapshots over shared memory for the
/// given `participants`, interleaved by `scheduler`.
///
/// Each process's layer-`k` input is its interned view after layer `k−1`
/// (its input value id at layer 0). The simulation stops after `max_steps`
/// scheduler decisions or when the scheduler returns `None`.
pub fn simulate_iis(
    n_procs: usize,
    participants: ProcessSet,
    layers: usize,
    scheduler: &mut dyn Scheduler,
    max_steps: usize,
) -> SimulatedIis {
    let mut arena = ViewArena::new();
    // Current view of each process (input leaf at the start).
    let mut current: BTreeMap<ProcessId, ViewId> = participants
        .iter()
        .map(|p| {
            (
                p,
                arena.intern(ViewNode::Input {
                    pid: p,
                    value: p.0 as u32,
                }),
            )
        })
        .collect();
    // Which layer each process is executing.
    let mut layer_of: BTreeMap<ProcessId, usize> = participants.iter().map(|p| (p, 0)).collect();
    let mut objects: Vec<IsObject<ViewId>> = (0..layers).map(|_| IsObject::new(n_procs)).collect();
    for p in participants.iter() {
        objects[0].invoke(p, current[&p]);
    }

    let mut steps = 0usize;
    loop {
        if steps >= max_steps {
            break;
        }
        // A process is enabled if its current layer object still owes it
        // steps.
        let enabled: Vec<ProcessId> = participants
            .iter()
            .filter(|p| layer_of[p] < layers && objects[layer_of[p]].is_enabled(*p))
            .collect();
        if enabled.is_empty() {
            break;
        }
        let Some(p) = scheduler.next(&enabled) else {
            break;
        };
        steps += 1;
        let k = layer_of[&p];
        let returned = objects[k].step(p);
        if returned {
            let snapshot: Vec<(ProcessId, ViewId)> = objects[k]
                .output(p)
                .expect("returned process has a view")
                .to_vec();
            let view = arena.intern(ViewNode::Snap(snapshot));
            current.insert(p, view);
            let next = k + 1;
            layer_of.insert(p, next);
            if next < layers {
                objects[next].invoke(p, view);
            }
        }
    }

    // Flatten each completed layer into a Round. A process that wrote into
    // a layer but never returned is placed in the block where it is first
    // seen by a process that did return (it took its step, then crashed);
    // if nobody saw it, it did not visibly participate.
    let mut rounds = Vec::new();
    let mut views = Vec::new();
    let mut stuck = ProcessSet::empty();
    for (p, k) in &layer_of {
        if *k < layers && objects[*k].output(*p).is_none() {
            stuck.insert(*p);
        }
    }
    for obj in objects.iter() {
        // Group returned processes by their view set.
        let mut by_view: BTreeMap<Vec<ProcessId>, Vec<ProcessId>> = BTreeMap::new();
        let mut layer_views: BTreeMap<ProcessId, ViewId> = BTreeMap::new();
        let mut returned = ProcessSet::empty();
        for p in participants.iter() {
            if let Some(view) = obj.output(p) {
                let set: Vec<ProcessId> = view.iter().map(|(q, _)| *q).collect();
                by_view.entry(set).or_default().push(p);
                returned.insert(p);
                let snap: Vec<(ProcessId, ViewId)> = view.to_vec();
                layer_views.insert(p, arena.intern(ViewNode::Snap(snap)));
            }
        }
        if by_view.is_empty() {
            break;
        }
        // Order blocks by view cardinality (containment makes this total).
        let mut groups: Vec<(Vec<ProcessId>, Vec<ProcessId>)> = by_view.into_iter().collect();
        groups.sort_by_key(|(set, _)| set.len());
        // Unreturned-but-seen processes join the first block whose view
        // contains them.
        let mut blocks: Vec<Vec<ProcessId>> = Vec::new();
        let mut placed = ProcessSet::empty();
        for (set, members) in &groups {
            let mut block: Vec<ProcessId> = members.clone();
            for q in set {
                if !returned.contains(*q) && !placed.contains(*q) {
                    block.push(*q);
                    placed.insert(*q);
                }
            }
            blocks.push(block);
        }
        let round = Round::from_blocks(blocks).expect("IS views yield a valid ordered partition");
        rounds.push(round);
        views.push(layer_views);
    }

    SimulatedIis {
        rounds,
        views,
        arena,
        stuck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{RandomScheduler, RoundRobin};
    use gact_iis::run_views;
    use std::collections::HashMap;

    #[test]
    fn fair_simulation_gives_fair_rounds() {
        let mut sched = RoundRobin::default();
        let parts = ProcessSet::full(3);
        let sim = simulate_iis(3, parts, 3, &mut sched, 1_000_000);
        assert_eq!(sim.rounds.len(), 3);
        assert!(sim.stuck.is_empty());
        for r in &sim.rounds {
            assert_eq!(r.participants(), parts);
        }
    }

    #[test]
    fn rounds_nest_under_crashes() {
        for seed in 0..100u64 {
            let mut sched = RandomScheduler::seeded(seed);
            if seed % 2 == 0 {
                sched.crash(ProcessId(1));
            }
            let parts = ProcessSet::full(3);
            let sim = simulate_iis(3, parts, 4, &mut sched, 1_000_000);
            // Extracted rounds must satisfy IIS nesting.
            let mut prev: Option<ProcessSet> = None;
            for r in &sim.rounds {
                if let Some(prev) = prev {
                    assert!(
                        r.participants().is_subset_of(prev),
                        "rounds not nested at seed {seed}"
                    );
                }
                prev = Some(r.participants());
            }
        }
    }

    #[test]
    fn simulated_views_match_abstract_iis_replay() {
        // Replaying the extracted rounds through the abstract IIS view
        // semantics must reproduce the simulation's own views: F is a
        // faithful simulation.
        for seed in 0..50u64 {
            let mut sched = RandomScheduler::seeded(seed);
            let parts = ProcessSet::full(3);
            let sim = simulate_iis(3, parts, 3, &mut sched, 1_000_000);
            if !sim.stuck.is_empty() || sim.rounds.len() < 3 {
                continue;
            }
            let inputs: HashMap<ProcessId, u32> = parts.iter().map(|p| (p, p.0 as u32)).collect();
            let mut arena = ViewArena::new();
            let replay = run_views(&sim.rounds, &inputs, &mut arena);
            for (k, layer) in sim.views.iter().enumerate() {
                for (p, v) in layer {
                    // Compare by rendered structure (arenas differ).
                    assert_eq!(
                        sim.arena.render(*v),
                        arena.render(replay[k + 1][p]),
                        "view divergence at layer {k} for {p}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn participating_set_is_preserved() {
        // Every process that takes a visible step appears in round 1 —
        // the simulation preserves part(r).
        let mut sched = RoundRobin::default();
        let parts: ProcessSet = [ProcessId(0), ProcessId(2)].into_iter().collect();
        let sim = simulate_iis(3, parts, 2, &mut sched, 1_000_000);
        assert_eq!(sim.rounds[0].participants(), parts);
    }
}
