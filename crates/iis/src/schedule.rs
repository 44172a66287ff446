//! Exhaustive schedule enumeration: every IIS round-sequence prefix up to
//! a given depth.
//!
//! Wait-free impossibility and protocol-compliance arguments quantify over
//! *all* schedules; for small process counts and depths the space is small
//! enough to enumerate outright (the per-round branching is the ordered
//! Bell number of the participant count, times the choice of who drops
//! out). Used by the exhaustive operational checks in `gact-tasks` and the
//! core crate.

use crate::process::ProcessSet;
use crate::round::Round;

/// Enumerates every schedule (sequence of rounds) of exactly `depth`
/// rounds whose first-round participants are exactly `participants`,
/// allowing processes to drop out between rounds (nested participation).
///
/// The count grows very fast; keep `participants ≤ 3` processes and
/// `depth ≤ 3` (e.g. 3 processes, depth 2: 325 schedules).
pub fn enumerate_schedules(participants: ProcessSet, depth: usize) -> Vec<Vec<Round>> {
    assert!(!participants.is_empty(), "need at least one participant");
    assert!(
        participants.len() * depth <= 9,
        "schedule enumeration is exponential; keep n_procs * depth ≤ 9"
    );
    let mut out = Vec::new();
    let mut current: Vec<Round> = Vec::new();
    fn rec(
        parts: ProcessSet,
        remaining: usize,
        current: &mut Vec<Round>,
        out: &mut Vec<Vec<Round>>,
    ) {
        if remaining == 0 {
            out.push(current.clone());
            return;
        }
        for round in Round::enumerate(parts) {
            current.push(round);
            if remaining == 1 {
                out.push(current.clone());
            } else {
                // Next round: any non-empty subset of the current
                // participants.
                for next in parts.nonempty_subsets() {
                    rec(next, remaining - 1, current, out);
                }
            }
            current.pop();
        }
    }
    rec(participants, depth, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessId;

    #[test]
    fn nested_schedule_counts_two_processes() {
        let full = ProcessSet::full(2);
        // Depth 1: the 3 ordered partitions of {0,1}.
        assert_eq!(enumerate_schedules(full, 1).len(), 3);
        // Depth 2: for each of the 3 first rounds, the second round ranges
        // over partitions of each non-empty subset: 3 (full) + 1 + 1 = 5.
        assert_eq!(enumerate_schedules(full, 2).len(), 15);
    }

    #[test]
    fn schedules_are_valid_and_nested() {
        let full = ProcessSet::full(2);
        for schedule in enumerate_schedules(full, 3) {
            assert_eq!(schedule.len(), 3);
            let mut prev: Option<ProcessSet> = None;
            for r in &schedule {
                if let Some(prev) = prev {
                    assert!(r.participants().is_subset_of(prev));
                }
                prev = Some(r.participants());
            }
        }
    }

    #[test]
    fn first_round_is_exactly_the_participants() {
        let set: ProcessSet = [ProcessId(0), ProcessId(2)].into_iter().collect();
        for schedule in enumerate_schedules(set, 2) {
            assert_eq!(schedule[0].participants(), set);
        }
    }
}
