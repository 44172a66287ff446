//! Sub-IIS models (paper §2.2): arbitrary sets of IIS runs, with the
//! paper's four example families.
//!
//! A model is a membership predicate over (ultimately periodic) runs. All
//! the paper's examples — wait-free, `t`-resilient, `k`-obstruction-free,
//! adversaries — are determined by `fast(r)` and are therefore decided
//! exactly on the ultimately periodic class.

use std::collections::BTreeSet;
use std::fmt;

use gact_iis::{ProcessSet, Run};

/// A sub-IIS model: a set of runs `M ⊆ R` (paper §2.2).
///
/// # Examples
///
/// Restrict an enumerated run set to a model (the standard preamble of a
/// model-specific solvability or verification query):
///
/// ```
/// use gact_models::{enumerate_runs, SubIisModel, TResilient};
///
/// let res1 = TResilient { n_procs: 3, t: 1 };
/// let runs = res1.filter_batch(enumerate_runs(3, 0));
/// assert!(!runs.is_empty());
/// // Every kept run has at least n + 1 − t = 2 fast processes.
/// assert!(runs.iter().all(|r| r.fast().len() >= 2));
/// ```
pub trait SubIisModel {
    /// Number of processes `n + 1`.
    fn process_count(&self) -> usize;

    /// Whether the run belongs to the model.
    fn contains(&self, run: &Run) -> bool;

    /// A short human-readable name.
    fn name(&self) -> String;

    /// The runs of the batch belonging to the model, in input order.
    /// Membership is decided across workers (identically for every thread
    /// count); the batch is consumed so kept runs move rather than
    /// deep-clone. Batched admissibility checks filter enumerated/sampled
    /// run sets through this before handing them to the protocol verifier.
    fn filter_batch(&self, runs: Vec<Run>) -> Vec<Run>
    where
        Self: Sync,
    {
        let keep = gact_parallel::par_map(&runs, |run| self.contains(run));
        runs.into_iter()
            .zip(keep)
            .filter(|&(_, keep)| keep)
            .map(|(run, _)| run)
            .collect()
    }
}

/// Example 2.1 — the wait-free model `WF = R`: every run is allowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitFree {
    /// Number of processes.
    pub n_procs: usize,
}

impl SubIisModel for WaitFree {
    fn process_count(&self) -> usize {
        self.n_procs
    }
    fn contains(&self, run: &Run) -> bool {
        run.process_count() == self.n_procs
    }
    fn name(&self) -> String {
        format!("WF({})", self.n_procs)
    }
}

/// Example 2.2 — the `t`-resilient model `Res_t`: runs with
/// `|fast(r)| ≥ n + 1 − t` (at most `t` slow processes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TResilient {
    /// Number of processes `n + 1`.
    pub n_procs: usize,
    /// Maximum number of slow processes.
    pub t: usize,
}

impl SubIisModel for TResilient {
    fn process_count(&self) -> usize {
        self.n_procs
    }
    fn contains(&self, run: &Run) -> bool {
        // Saturating: with t ≥ n_procs every process may be slow, so the
        // fast-set threshold is 0 and every run of the right ambient size
        // belongs (degenerate parameters must not underflow and panic).
        run.process_count() == self.n_procs
            && run.fast().len() >= self.n_procs.saturating_sub(self.t)
    }
    fn name(&self) -> String {
        format!("Res_{}({})", self.t, self.n_procs)
    }
}

/// Example 2.3 — the `k`-obstruction-free model `OF_k`: runs with
/// `|fast(r)| ≤ k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObstructionFree {
    /// Number of processes `n + 1`.
    pub n_procs: usize,
    /// Maximum number of fast processes.
    pub k: usize,
}

impl SubIisModel for ObstructionFree {
    fn process_count(&self) -> usize {
        self.n_procs
    }
    fn contains(&self, run: &Run) -> bool {
        run.process_count() == self.n_procs && run.fast().len() <= self.k
    }
    fn name(&self) -> String {
        format!("OF_{}({})", self.k, self.n_procs)
    }
}

/// Example 2.4 — the adversarial model `M_adv(A)`: runs whose slow set
/// belongs to the adversary `A ⊆ 2^{{0,…,n}}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adversary {
    /// Number of processes `n + 1`.
    pub n_procs: usize,
    /// The allowed slow sets.
    pub allowed_slow: BTreeSet<ProcessSet>,
}

impl Adversary {
    /// The adversary allowing exactly the given slow sets.
    pub fn new<I: IntoIterator<Item = ProcessSet>>(n_procs: usize, allowed: I) -> Self {
        Adversary {
            n_procs,
            allowed_slow: allowed.into_iter().collect(),
        }
    }

    /// The adversary equivalent of `Res_t`: all slow sets of size ≤ t.
    pub fn t_resilient(n_procs: usize, t: usize) -> Self {
        let mut allowed = BTreeSet::new();
        allowed.insert(ProcessSet::empty());
        for s in ProcessSet::full(n_procs).nonempty_subsets() {
            if s.len() <= t {
                allowed.insert(s);
            }
        }
        Adversary {
            n_procs,
            allowed_slow: allowed,
        }
    }
}

impl SubIisModel for Adversary {
    fn process_count(&self) -> usize {
        self.n_procs
    }
    fn contains(&self, run: &Run) -> bool {
        run.process_count() == self.n_procs && self.allowed_slow.contains(&run.slow())
    }
    fn name(&self) -> String {
        format!("M_adv({} slow-sets)", self.allowed_slow.len())
    }
}

/// The "fast companion" `M_fast = {minimal(r) : r ∈ M}` of §4.5. For the
/// fast-determined models above, this is exactly the set of *minimal* runs
/// of `M`.
pub struct FastCompanion<M> {
    /// The underlying model.
    pub inner: M,
}

impl<M: SubIisModel> SubIisModel for FastCompanion<M> {
    fn process_count(&self) -> usize {
        self.inner.process_count()
    }
    fn contains(&self, run: &Run) -> bool {
        self.inner.contains(run) && run.same_run(&run.minimal())
    }
    fn name(&self) -> String {
        format!("{}^fast", self.inner.name())
    }
}

impl<M: fmt::Debug> fmt::Debug for FastCompanion<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FastCompanion({:?})", self.inner)
    }
}

/// Intersection of two models.
#[derive(Clone, Debug)]
pub struct ModelIntersection<A, B>(pub A, pub B);

impl<A: SubIisModel, B: SubIisModel> SubIisModel for ModelIntersection<A, B> {
    fn process_count(&self) -> usize {
        self.0.process_count()
    }
    fn contains(&self, run: &Run) -> bool {
        self.0.contains(run) && self.1.contains(run)
    }
    fn name(&self) -> String {
        format!("{} ∩ {}", self.0.name(), self.1.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gact_iis::{ProcessId, Round};

    fn round(blocks: &[&[u8]]) -> Round {
        Round::from_blocks(
            blocks
                .iter()
                .map(|b| b.iter().map(|&i| ProcessId(i)).collect::<Vec<_>>()),
        )
        .unwrap()
    }

    fn pset(ids: &[u8]) -> ProcessSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn wait_free_contains_everything() {
        let wf = WaitFree { n_procs: 3 };
        assert!(wf.contains(&Run::fair(3)));
        assert!(wf.contains(&Run::new(3, [], [round(&[&[0], &[1]])]).unwrap()));
        // Wrong ambient size is rejected.
        assert!(!wf.contains(&Run::fair(2)));
    }

    #[test]
    fn t_resilient_membership() {
        let res1 = TResilient { n_procs: 3, t: 1 };
        // Fair run: fast = all 3 ≥ 2.
        assert!(res1.contains(&Run::fair(3)));
        // Two processes alternating, one crashed: fast = 2 ≥ 2.
        let two = Run::new(3, [round(&[&[0, 1, 2]])], [round(&[&[0, 1]])]).unwrap();
        assert!(res1.contains(&two));
        // Chain run: fast = 1 < 2.
        let chain = Run::new(3, [], [round(&[&[0], &[1], &[2]])]).unwrap();
        assert!(!res1.contains(&chain));
        // But 2-resilient allows it.
        assert!(TResilient { n_procs: 3, t: 2 }.contains(&chain));
    }

    #[test]
    fn t_resilient_degenerate_parameters_do_not_panic() {
        // Regression: t = n and t > n used to underflow `n_procs - t`.
        // With every process allowed to be slow, the threshold is 0 and
        // every run of the right ambient size belongs.
        let chain = Run::new(3, [], [round(&[&[0], &[1], &[2]])]).unwrap();
        for t in [3usize, 4, 100] {
            let res = TResilient { n_procs: 3, t };
            assert!(res.contains(&Run::fair(3)), "t = {t}");
            assert!(res.contains(&chain), "t = {t}");
            // Wrong ambient size is still rejected.
            assert!(!res.contains(&Run::fair(2)), "t = {t}");
        }
    }

    #[test]
    fn batch_membership_matches_pointwise() {
        let res1 = TResilient { n_procs: 3, t: 1 };
        let runs = [
            Run::fair(3),
            Run::new(3, [], [round(&[&[0], &[1], &[2]])]).unwrap(),
            Run::new(3, [round(&[&[0, 1, 2]])], [round(&[&[0, 1]])]).unwrap(),
        ];
        let pointwise: Vec<Run> = runs.iter().filter(|r| res1.contains(r)).cloned().collect();
        for threads in [1, 4] {
            let kept = gact_parallel::with_threads(threads, || res1.filter_batch(runs.to_vec()));
            assert_eq!(kept, pointwise, "threads = {threads}");
        }
    }

    #[test]
    fn obstruction_free_membership() {
        let of1 = ObstructionFree { n_procs: 3, k: 1 };
        let chain = Run::new(3, [], [round(&[&[0], &[1], &[2]])]).unwrap();
        assert!(of1.contains(&chain));
        assert!(!of1.contains(&Run::fair(3)));
    }

    #[test]
    fn adversary_matches_t_resilient() {
        let res = TResilient { n_procs: 3, t: 1 };
        let adv = Adversary::t_resilient(3, 1);
        let samples = [
            Run::fair(3),
            Run::new(3, [], [round(&[&[0], &[1], &[2]])]).unwrap(),
            Run::new(3, [round(&[&[0, 1, 2]])], [round(&[&[0, 1]])]).unwrap(),
            Run::new(3, [], [round(&[&[2]])]).unwrap(),
        ];
        for r in &samples {
            assert_eq!(res.contains(r), adv.contains(r), "disagree on {r:?}");
        }
    }

    #[test]
    fn fast_companion_of_obstruction_free() {
        // §4.5: OF contains the run where p0 is forever ahead of p1, but
        // its fast companion contains only the minimal (solo) version.
        let of = ObstructionFree { n_procs: 2, k: 1 };
        let of_fast = FastCompanion { inner: of };
        let ahead = Run::new(2, [], [round(&[&[0], &[1]])]).unwrap();
        assert!(of.contains(&ahead));
        assert!(!of_fast.contains(&ahead));
        let solo = Run::new(2, [], [round(&[&[0]])]).unwrap();
        assert!(of_fast.contains(&solo));
        assert_eq!(of_fast.name(), "OF_1(2)^fast");
    }

    #[test]
    fn intersection_model() {
        let m = ModelIntersection(
            TResilient { n_procs: 3, t: 2 },
            ObstructionFree { n_procs: 3, k: 2 },
        );
        // fast must be in {1, 2}... ≥ 1 and ≤ 2.
        let two = Run::new(3, [round(&[&[0, 1, 2]])], [round(&[&[0, 1]])]).unwrap();
        assert!(m.contains(&two));
        assert!(!m.contains(&Run::fair(3)));
        assert_eq!(pset(&[0, 1]), two.fast());
    }
}
