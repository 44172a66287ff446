//! Cache regression: a cached sweep must produce byte-identical per-cell
//! results to a cold-start per-cell run, for any thread count — the
//! cross-query cache is a pure performance layer and must never change a
//! verdict, a found map, or a depth.

use proptest::prelude::*;

use gact::cache::QueryCache;
use gact::control::SolveControl;
use gact::{act_solve, act_solve_controlled, ActOutcome, ActVerdict};
use gact_parallel::with_threads;
use gact_scenarios::{
    cells_for, run_matrix_cold, run_matrix_controlled, CellOutcome, ControlledMatrixReport,
};
use gact_tasks::Task;

/// Canonical form of an [`ActVerdict`] for equality: variant, depth, and
/// the full found map as sorted vertex pairs.
type ActDigest = (String, Option<usize>, Option<Vec<(u32, u32)>>);

fn act_digest(v: &ActVerdict) -> ActDigest {
    match v {
        ActVerdict::Solvable {
            depth,
            map,
            subdivision,
            ..
        } => {
            let mut pairs: Vec<(u32, u32)> = subdivision
                .complex
                .complex()
                .vertex_set()
                .into_iter()
                .map(|w| (w.0, map.apply(w).0))
                .collect();
            pairs.sort_unstable();
            ("solvable".into(), Some(*depth), Some(pairs))
        }
        ActVerdict::ImpossibleByObstruction(o) => (format!("obstructed: {o}"), None, None),
        ActVerdict::NoMapUpTo(d) => ("no-map".into(), Some(*d), None),
    }
}

/// The tasks exercised by the act-level equivalence property: one of each
/// shape (solvable control, obstruction, empty-domain refutation,
/// exhaustion refutation).
fn task_menu() -> Vec<(Task, usize)> {
    vec![
        (gact_tasks::affine::full_subdivision_task(1, 1).task, 2usize),
        (gact_tasks::affine::full_subdivision_task(2, 1).task, 1),
        (gact_tasks::classic::consensus_task(1, &[0, 1]), 2),
        (gact_tasks::affine::lt_task(2, 1).task, 2),
        (gact_tasks::classic::set_agreement_task(2, &[0, 1], 2), 1),
    ]
}

/// The completed cell outcomes of a sweep, in cell order.
fn outcomes(report: ControlledMatrixReport) -> Vec<CellOutcome> {
    assert_eq!(report.interrupted, 0, "an inert control decides every cell");
    report.results.into_iter().map(|r| r.outcome).collect()
}

/// A cached sweep of `cells` under an inert control.
fn cached_sweep(cells: &[gact_scenarios::Cell], cache: &QueryCache) -> ControlledMatrixReport {
    run_matrix_controlled(cells, cache, &SolveControl::new())
}

/// Per-cell outcomes of a family, cached vs cold, at a given thread count.
fn family_verdicts(family: &str, threads: usize) -> (Vec<CellOutcome>, Vec<CellOutcome>) {
    let cells = cells_for(family).expect("registered family");
    with_threads(threads, || {
        let cached = cached_sweep(&cells, &QueryCache::new());
        let cold = run_matrix_cold(&cells);
        (outcomes(cached), outcomes(cold))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn shared_cache_act_solve_is_byte_identical(which in 0usize..5, threads in proptest::sample::select(vec![1usize, 8])) {
        let (task, max_depth) = task_menu().swap_remove(which);
        // One shared cache, queried twice (the second time warm), must
        // answer the same as the one-shot path on its own fresh cache.
        let cache = QueryCache::new();
        let shared = |cache: &QueryCache| {
            let outcome = act_solve_controlled(&task, max_depth, cache, &SolveControl::new());
            let ActOutcome::Done { verdict, .. } = outcome else {
                panic!("an inert control cannot interrupt");
            };
            verdict
        };
        let (first, warm, fresh) = with_threads(threads, || {
            let first = shared(&cache);
            let warm = shared(&cache);
            let fresh = act_solve(&task, max_depth);
            (first, warm, fresh)
        });
        prop_assert_eq!(act_digest(&first), act_digest(&fresh));
        prop_assert_eq!(act_digest(&warm), act_digest(&fresh));
    }

    #[test]
    fn cached_sweep_matches_cold_per_cell_sweep(
        family in proptest::sample::select(vec!["smoke", "wf-classic", "commit-adopt"]),
        threads in proptest::sample::select(vec![1usize, 8]),
    ) {
        let (cached, cold) = family_verdicts(family, threads);
        prop_assert_eq!(cached, cold);
    }
}

#[test]
fn rounds_sweep_cached_matches_cold_at_both_thread_counts() {
    // The bench family itself (the heaviest cache traffic: three Chr^m
    // stages shared by 15 cells) — byte-identical verdicts, sequentially
    // and with the pool.
    let (c1, f1) = family_verdicts("rounds-sweep", 1);
    assert_eq!(c1, f1);
    let (c8, f8) = family_verdicts("rounds-sweep", 8);
    assert_eq!(c8, f8);
    assert_eq!(c1, c8, "thread count must not change verdicts");
}

#[test]
fn shared_cache_across_repeated_sweeps_is_stable() {
    // Re-running a family against an already-hot cache (everything a hit)
    // still returns identical verdicts.
    let cells = cells_for("wf-affine").expect("registered family");
    let cache = QueryCache::new();
    let first = cached_sweep(&cells, &cache);
    let second = cached_sweep(&cells, &cache);
    // The second sweep's subdivision traffic is pure hits.
    assert_eq!(second.subdivision_stats.misses, 0);
    assert_eq!(outcomes(first), outcomes(second));
}
