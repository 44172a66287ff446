//! Runs of the IIS model (paper §2.1): weakly decreasing sequences of
//! rounds, the extension order, `minimal(r)`, `fast(r)`, `slow(r)`, and the
//! run metric of §5.
//!
//! ## Ultimately periodic runs
//!
//! A run is an *infinite* object. This crate represents the infinite runs
//! the theory quantifies over by **ultimately periodic** runs: a finite
//! prefix followed by a forever-repeating cycle. Because the participant
//! sets of a run are nested (`S_1 ⊇ S_2 ⊇ …`), every cycle round has the
//! same participant set — which is exactly `∞-part(r)`. Every model in the
//! paper (`WF`, `Res_t`, `OF_k`, adversaries) is determined by `part` and
//! `fast`, so ultimately periodic representatives exercise all of them, and
//! all limit notions are computed *exactly* on this class.

use std::fmt;

use gact_chromatic::snapshot_point;
use gact_topology::Point;

use crate::process::{ProcessId, ProcessSet};
use crate::round::Round;

/// Error raised by [`Run::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The cycle is empty (a run must be infinite).
    EmptyCycle,
    /// Participant sets fail to be weakly decreasing.
    NotNested { round: usize },
    /// Two cycle rounds have different participant sets (impossible in a
    /// periodic tail of a nested sequence).
    CycleNotConstant,
    /// A round mentions a process outside `{p_0, …, p_n}`.
    UnknownProcess(ProcessId),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::EmptyCycle => write!(f, "a run needs a non-empty repeating cycle"),
            RunError::NotNested { round } => {
                write!(f, "participants increase at round {round} (S_k ⊉ S_k+1)")
            }
            RunError::CycleNotConstant => {
                write!(f, "cycle rounds must share one participant set")
            }
            RunError::UnknownProcess(p) => write!(f, "process {p} is out of range"),
        }
    }
}

impl std::error::Error for RunError {}

/// An ultimately periodic IIS run over processes `p_0, …, p_{n}`.
///
/// ```
/// use gact_iis::{ProcessId, Run, Round};
/// // p0 forever ahead of p1 (the obstruction-free scenario of §4.5).
/// let r = Run::new(3, [], [
///     Round::from_blocks([vec![ProcessId(0)], vec![ProcessId(1)]]).unwrap(),
/// ]).unwrap();
/// assert_eq!(r.fast().len(), 1);
/// assert!(r.fast().contains(ProcessId(0)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Run {
    n_procs: usize,
    prefix: Vec<Round>,
    cycle: Vec<Round>,
}

impl fmt::Debug for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Run[")?;
        for r in &self.prefix {
            write!(f, "{r:?} ")?;
        }
        write!(f, "(")?;
        for r in &self.cycle {
            write!(f, "{r:?} ")?;
        }
        write!(f, ")^ω]")
    }
}

impl Run {
    /// Builds an ultimately periodic run.
    ///
    /// # Errors
    ///
    /// Validates process range, nesting of participant sets and constancy
    /// of the cycle's participant set.
    pub fn new<P, C>(n_procs: usize, prefix: P, cycle: C) -> Result<Self, RunError>
    where
        P: IntoIterator<Item = Round>,
        C: IntoIterator<Item = Round>,
    {
        let prefix: Vec<Round> = prefix.into_iter().collect();
        let cycle: Vec<Round> = cycle.into_iter().collect();
        if cycle.is_empty() {
            return Err(RunError::EmptyCycle);
        }
        let full = ProcessSet::full(n_procs);
        for r in prefix.iter().chain(&cycle) {
            if let Some(p) = r.participants().iter().find(|p| !full.contains(*p)) {
                return Err(RunError::UnknownProcess(p));
            }
        }
        let inf = cycle[0].participants();
        if cycle.iter().any(|r| r.participants() != inf) {
            return Err(RunError::CycleNotConstant);
        }
        let mut prev: Option<ProcessSet> = None;
        for (i, r) in prefix.iter().chain(cycle.iter().take(1)).enumerate() {
            let parts = r.participants();
            if let Some(prev) = prev {
                if !parts.is_subset_of(prev) {
                    return Err(RunError::NotNested { round: i });
                }
            }
            prev = Some(parts);
        }
        Ok(Run {
            n_procs,
            prefix,
            cycle,
        })
    }

    /// The run in which all of `{p_0, …, p_n}` march in one concurrency
    /// class forever (everyone is fast).
    pub fn fair(n_procs: usize) -> Self {
        Run::new(
            n_procs,
            [],
            [Round::single_block(ProcessSet::full(n_procs))],
        )
        .expect("fair run is valid")
    }

    /// Number of processes `n + 1` in the ambient system.
    pub fn process_count(&self) -> usize {
        self.n_procs
    }

    /// The prefix rounds.
    pub fn prefix(&self) -> &[Round] {
        &self.prefix
    }

    /// The repeating cycle.
    pub fn cycle(&self) -> &[Round] {
        &self.cycle
    }

    /// The `k`-th round, `k ≥ 0`.
    pub fn round(&self, k: usize) -> &Round {
        if k < self.prefix.len() {
            &self.prefix[k]
        } else {
            &self.cycle[(k - self.prefix.len()) % self.cycle.len()]
        }
    }

    /// An infinite iterator over the rounds.
    pub fn rounds(&self) -> impl Iterator<Item = Round> + '_ {
        (0..).map(|k| self.round(k).clone())
    }

    /// The first `k` rounds as a vector.
    pub fn rounds_prefix(&self, k: usize) -> Vec<Round> {
        (0..k).map(|i| self.round(i).clone()).collect()
    }

    /// `part(r)`: processes taking at least one step.
    pub fn part(&self) -> ProcessSet {
        self.round(0).participants()
    }

    /// `∞-part(r)`: processes taking infinitely many steps (the cycle's
    /// participant set).
    pub fn inf_part(&self) -> ProcessSet {
        self.cycle[0].participants()
    }

    /// A sound horizon for comparing this run against `other`: past
    /// `max(prefixes) + lcm(cycles)` the pair of round sequences is
    /// periodic.
    pub fn comparison_horizon(&self, other: &Run) -> usize {
        let p = self.prefix.len().max(other.prefix.len());
        p + lcm(self.cycle.len(), other.cycle.len()) + 1
    }

    /// Structural equality as *infinite sequences* (not representations):
    /// two runs are equal iff they agree on every round.
    pub fn same_run(&self, other: &Run) -> bool {
        let horizon = self.comparison_horizon(other);
        (0..horizon).all(|k| self.round(k) == other.round(k))
    }

    /// The metric of §5: `d(r, r') = 1/(1+k)` where `k` is the length of
    /// the longest common round prefix (`0.0` when the runs are equal).
    pub fn distance(&self, other: &Run) -> f64 {
        if self.same_run(other) {
            return 0.0;
        }
        let k = (0..)
            .find(|&k| self.round(k) != other.round(k))
            .expect("runs differ, so some round differs");
        1.0 / (1.0 + k as f64)
    }

    /// The extension order of §2.1: `self ≤ other` iff every round of
    /// `self` embeds in the corresponding round of `other` with identical
    /// views for `self`'s participants. Decided exactly via the common
    /// periodicity horizon.
    pub fn is_extended_by(&self, other: &Run) -> bool {
        let horizon = self.comparison_horizon(other);
        for k in 0..horizon {
            let small = self.round(k);
            let big = other.round(k);
            if !small.participants().is_subset_of(big.participants()) {
                return false;
            }
            // Views are preserved iff every participant of the small round
            // sees exactly the same set in both rounds (then, inductively,
            // those processes' earlier views coincide as well).
            for p in small.participants().iter() {
                if small.seen_by(p) != big.seen_by(p) {
                    return false;
                }
            }
        }
        true
    }

    /// `minimal(r)`: the least run under the extension order below `r`
    /// (§2.1). Computed as the *seen-closure of first blocks*: every run
    /// below `r` must keep, in each round, the entire first block and
    /// everything those processes (and all later-kept processes) see; that
    /// closure is itself a valid run below `r`.
    pub fn minimal(&self) -> Run {
        // Kept set flowing backwards from the infinite future, over the
        // cycle, iterated to fixpoint (monotone, hence ≤ 64 iterations).
        let mut carry = ProcessSet::empty();
        loop {
            let mut c = carry;
            for r in self.cycle.iter().rev() {
                c = close_round(r, c);
            }
            if c == carry {
                break;
            }
            carry = c;
        }
        // One more backward pass to materialize the per-round kept sets of
        // the cycle (all equal to the fixpoint, but recompute for clarity).
        let mut kept_cycle: Vec<ProcessSet> = Vec::with_capacity(self.cycle.len());
        {
            let mut c = carry;
            for r in self.cycle.iter().rev() {
                c = close_round(r, c);
                kept_cycle.push(c);
            }
            kept_cycle.reverse();
        }
        // Backward pass over the prefix.
        let mut kept_prefix: Vec<ProcessSet> = Vec::with_capacity(self.prefix.len());
        {
            let mut c = *kept_cycle.first().expect("cycle non-empty");
            for r in self.prefix.iter().rev() {
                c = close_round(r, c);
                kept_prefix.push(c);
            }
            kept_prefix.reverse();
        }
        let prefix: Vec<Round> = self
            .prefix
            .iter()
            .zip(&kept_prefix)
            .map(|(r, keep)| r.restrict(*keep).expect("kept sets are non-empty"))
            .collect();
        let cycle: Vec<Round> = self
            .cycle
            .iter()
            .zip(&kept_cycle)
            .map(|(r, keep)| r.restrict(*keep).expect("kept sets are non-empty"))
            .collect();
        Run::new(self.n_procs, prefix, cycle).expect("seen-closure yields a valid run")
    }

    /// `fast(r) = ∞-part(minimal(r))`: the largest set of processes that
    /// see each other infinitely often (§2.1).
    pub fn fast(&self) -> ProcessSet {
        self.minimal().inf_part()
    }

    /// `slow(r)`: the complement of `fast(r)` in `{p_0, …, p_n}`.
    pub fn slow(&self) -> ProcessSet {
        ProcessSet::full(self.n_procs).difference(self.fast())
    }

    /// The input-less run dynamics in `|s|` (paper §4.4–§5): every
    /// participant starts at its corner of the standard simplex, and each
    /// round moves every round participant to the [`snapshot_point`] of
    /// the pre-round positions it sees — the `Chr^k` vertex of its view
    /// (up to the last bit: `Chr` adds the same terms in vertex-id order).
    ///
    /// The iterator is infinite; its `k`-th item (`k ≥ 0`) lists the
    /// positions after round `k + 1` of that round's participants, in
    /// process order. The affine projection `π(r)` is their limit.
    pub fn positions(&self) -> Positions<'_> {
        let corners = (0..self.n_procs)
            .map(|i| {
                let mut x = vec![0.0; self.n_procs];
                x[i] = 1.0;
                x
            })
            .collect();
        Positions {
            run: self,
            round: 0,
            pos: corners,
        }
    }
}

/// The positions of a run's participants round after round; see
/// [`Run::positions`].
#[derive(Debug)]
pub struct Positions<'a> {
    run: &'a Run,
    round: usize,
    /// Latest position of every process, indexed by process id.
    pos: Vec<Point>,
}

impl Iterator for Positions<'_> {
    type Item = Vec<(ProcessId, Point)>;

    fn next(&mut self) -> Option<Self::Item> {
        let round = self.run.round(self.round);
        let dim = self.run.n_procs;
        let moved: Vec<(ProcessId, Point)> = round
            .participants()
            .iter()
            .map(|p| {
                let seen = round.seen_by(p);
                let pre = seen
                    .iter()
                    .map(|q| (q == p, self.pos[q.0 as usize].as_slice()));
                (p, snapshot_point(dim, seen.len(), pre))
            })
            .collect();
        for (p, x) in &moved {
            self.pos[p.0 as usize].clone_from(x);
        }
        self.round += 1;
        Some(moved)
    }
}

/// Within one round, closes a seed set under the two keep-rules: the first
/// block is always kept, and keeping any process keeps every block at or
/// below its own.
fn close_round(r: &Round, carry: ProcessSet) -> ProcessSet {
    let seed = r.blocks()[0].union(carry);
    let mut max_block = 0;
    for (j, b) in r.blocks().iter().enumerate() {
        if !b.intersection(seed).is_empty() {
            max_block = j;
        }
    }
    r.blocks()[..=max_block]
        .iter()
        .fold(ProcessSet::empty(), |acc, b| acc.union(*b))
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u8) -> ProcessId {
        ProcessId(i)
    }

    fn pset(ids: &[u8]) -> ProcessSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    fn round(blocks: &[&[u8]]) -> Round {
        Round::from_blocks(
            blocks
                .iter()
                .map(|b| b.iter().map(|&i| pid(i)).collect::<Vec<_>>()),
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert_eq!(Run::new(2, [], []).unwrap_err(), RunError::EmptyCycle);
        // Participants grow from prefix to cycle: invalid.
        let err = Run::new(2, [round(&[&[0]])], [round(&[&[0, 1]])]).unwrap_err();
        assert_eq!(err, RunError::NotNested { round: 1 });
        // Cycle with varying participants: invalid.
        let err = Run::new(2, [], [round(&[&[0, 1]]), round(&[&[0]])]).unwrap_err();
        assert_eq!(err, RunError::CycleNotConstant);
        // Out-of-range process.
        let err = Run::new(1, [], [round(&[&[3]])]).unwrap_err();
        assert_eq!(err, RunError::UnknownProcess(pid(3)));
    }

    #[test]
    fn fair_run_everyone_fast() {
        let r = Run::fair(3);
        assert_eq!(r.part(), ProcessSet::full(3));
        assert_eq!(r.inf_part(), ProcessSet::full(3));
        assert_eq!(r.fast(), ProcessSet::full(3));
        assert!(r.slow().is_empty());
        assert!(r.same_run(&r.minimal()));
    }

    #[test]
    fn always_ahead_process_is_the_only_fast_one() {
        // §4.5 obstruction-free scenario: p0 alone in the first block
        // forever; p1 runs behind, seeing p0 but never seen by it. Ambient
        // system has three processes; p2 never participates.
        let r = Run::new(3, [], [round(&[&[0], &[1]])]).unwrap();
        assert_eq!(r.part(), pset(&[0, 1]));
        assert_eq!(r.inf_part(), pset(&[0, 1]));
        assert_eq!(r.fast(), pset(&[0]));
        assert_eq!(r.slow(), pset(&[1, 2]));
        // minimal(r) is the solo-p0 run.
        let min = r.minimal();
        assert_eq!(min.part(), pset(&[0]));
        assert!(min.is_extended_by(&r));
    }

    #[test]
    fn alternating_blocks_are_mutually_fast() {
        let r = Run::new(3, [], [round(&[&[0], &[1]]), round(&[&[1], &[0]])]).unwrap();
        assert_eq!(r.fast(), pset(&[0, 1]));
        assert_eq!(r.slow(), pset(&[2]));
    }

    #[test]
    fn chain_run_fast_is_top_process() {
        // (p0)(p1)(p2) forever: p1 sees p0, p2 sees both, nobody sees p2.
        let r = Run::new(3, [], [round(&[&[0], &[1], &[2]])]).unwrap();
        assert_eq!(r.fast(), pset(&[0]));
        let min = r.minimal();
        assert_eq!(min.inf_part(), pset(&[0]));
        assert!(min.is_extended_by(&r));
    }

    #[test]
    fn minimal_is_idempotent() {
        let runs = [
            Run::fair(3),
            Run::new(3, [], [round(&[&[0], &[1], &[2]])]).unwrap(),
            Run::new(4, [round(&[&[0, 1, 2, 3]])], [round(&[&[1], &[2, 0]])]).unwrap(),
            Run::new(3, [], [round(&[&[0], &[1]]), round(&[&[1], &[0]])]).unwrap(),
        ];
        for r in &runs {
            let m = r.minimal();
            assert!(m.same_run(&m.minimal()), "minimal not idempotent for {r:?}");
            assert!(m.is_extended_by(r));
            assert_eq!(m.fast(), r.fast());
        }
    }

    #[test]
    fn crashed_process_leaves_inf_part() {
        // p2 participates in round 0 only.
        let r = Run::new(3, [round(&[&[2], &[0, 1]])], [round(&[&[0, 1]])]).unwrap();
        assert_eq!(r.part(), pset(&[0, 1, 2]));
        assert_eq!(r.inf_part(), pset(&[0, 1]));
        assert_eq!(r.fast(), pset(&[0, 1]));
        // p2's initial step is seen by p0,p1, so minimal keeps it.
        let min = r.minimal();
        assert_eq!(min.part(), pset(&[0, 1, 2]));
    }

    #[test]
    fn paper_extension_example() {
        // §2.1: r = solo p0; r' = p0 and p1 in separate blocks forever —
        // p0 cannot tell them apart, so r ≤ r'.
        let solo = Run::new(2, [], [round(&[&[0]])]).unwrap();
        let both = Run::new(2, [], [round(&[&[0], &[1]])]).unwrap();
        assert!(solo.is_extended_by(&both));
        assert!(!both.is_extended_by(&solo));
        // But if p1 is *first*, p0 sees it: not an extension.
        let ahead = Run::new(2, [], [round(&[&[1], &[0]])]).unwrap();
        assert!(!solo.is_extended_by(&ahead));
    }

    #[test]
    fn metric_properties() {
        let a = Run::fair(3);
        let b = Run::new(3, [], [round(&[&[0], &[1, 2]])]).unwrap();
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.distance(&b), 1.0); // differ at round 0
        let c = Run::new(3, [round(&[&[0, 1, 2]])], [round(&[&[0], &[1, 2]])]).unwrap();
        assert_eq!(a.distance(&c), 0.5); // differ first at round 1
        assert_eq!(c.distance(&a), 0.5);
        // Triangle inequality on this sample.
        assert!(a.distance(&b) <= a.distance(&c) + c.distance(&b) + 1e-12);
    }

    #[test]
    fn same_run_sees_through_representation() {
        // (AB)^ω written with period 1 vs period 2.
        let a = Run::new(2, [], [round(&[&[0, 1]])]).unwrap();
        let b = Run::new(2, [], [round(&[&[0, 1]]), round(&[&[0, 1]])]).unwrap();
        assert!(a.same_run(&b));
        assert_eq!(a.distance(&b), 0.0);
        // Prefix folded into cycle.
        let c = Run::new(2, [round(&[&[0, 1]])], [round(&[&[0, 1]])]).unwrap();
        assert!(a.same_run(&c));
    }

    #[test]
    fn positions_match_projection_direction() {
        let r = Run::fair(3);
        let pos = r.positions().nth(11).unwrap();
        assert_eq!(pos.len(), 3);
        for (_, x) in &pos {
            for c in x {
                assert!((c - 1.0 / 3.0).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn rounds_indexing() {
        let r = Run::new(
            3,
            [round(&[&[0, 1, 2]])],
            [round(&[&[0], &[1]]), round(&[&[1], &[0]])],
        )
        .unwrap();
        assert_eq!(r.round(0), &round(&[&[0, 1, 2]]));
        assert_eq!(r.round(1), &round(&[&[0], &[1]]));
        assert_eq!(r.round(2), &round(&[&[1], &[0]]));
        assert_eq!(r.round(3), &round(&[&[0], &[1]]));
        assert_eq!(r.rounds_prefix(4).len(), 4);
    }
}
