//! The facade contract: `Engine` answers are byte-identical to the direct
//! pipeline entry points — the one-shot `act_solve` and the per-cell cold
//! `run_matrix_cold`, verdicts AND maps — for every thread count, and
//! governance (budgets, cancellation) never poisons the shared caches.

use proptest::prelude::*;

use gact::cache::QueryCache;
use gact::{act_solve, ActVerdict};
use gact_engine::{Budget, CancelToken, Engine, MatrixRequest, SolveRequest, SolveVerdict};
use gact_parallel::with_threads;
use gact_scenarios::{cells_for, run_matrix_cold, TaskSpec};

/// Canonical form of a solve outcome for equality: kind, depth, and the
/// full found map as sorted vertex pairs.
type Digest = (String, Option<usize>, Option<Vec<(u32, u32)>>);

fn act_digest(v: &ActVerdict) -> Digest {
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

fn engine_digest(outcome: &SolveVerdict) -> Digest {
    match outcome {
        SolveVerdict::Solvable {
            depth,
            map,
            subdivision,
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
        SolveVerdict::Unsolvable { obstruction } => {
            (format!("obstructed: {obstruction}"), None, None)
        }
        SolveVerdict::NoMapUpTo(d) => ("no-map".into(), Some(*d), None),
        SolveVerdict::Interrupted { .. } => panic!("ungoverned query must not interrupt"),
    }
}

/// The spec menu the solve-equivalence property draws from: one of each
/// verdict shape (solvable control, obstruction, empty-domain refutation,
/// exhaustion refutation).
fn spec_menu() -> Vec<(TaskSpec, usize)> {
    vec![
        (TaskSpec::FullSubdivision { n: 1, depth: 1 }, 2usize),
        (TaskSpec::FullSubdivision { n: 2, depth: 1 }, 1),
        (TaskSpec::Consensus { n: 1, n_values: 2 }, 2),
        (TaskSpec::Lt { n: 2, t: 1 }, 2),
        (
            TaskSpec::SetAgreement {
                n: 2,
                n_values: 2,
                k: 2,
            },
            1,
        ),
        (TaskSpec::TotalOrder { n: 2 }, 1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Engine solve replies equal the one-shot `act_solve` on a fresh
    /// cache — verdict AND map — at 1 and 8 threads.
    #[test]
    fn solve_matches_direct_path(index in 0usize..6, threads in proptest::sample::select(vec![1usize, 8])) {
        let (spec, depth) = spec_menu()[index];
        let (direct, routed) = with_threads(threads, || {
            let task = spec.build_task(&QueryCache::new()).expect("solvable spec menu");
            let direct = act_digest(&act_solve(&task, depth));

            let engine = Engine::new();
            let reply = engine
                .solve(&SolveRequest::new(spec, depth).unwrap())
                .unwrap();
            (direct, engine_digest(&reply.outcome))
        });
        prop_assert_eq!(direct, routed);
    }

    /// Engine matrix sweeps equal the per-cell cold `run_matrix_cold`
    /// verdicts cell by cell, at 1 and 8 threads.
    #[test]
    fn matrix_matches_direct_path(
        family in proptest::sample::select(vec!["smoke", "wf-classic", "rounds-sweep"]),
        threads in proptest::sample::select(vec![1usize, 8]),
    ) {
        let (direct, routed) = with_threads(threads, || {
            let cells = cells_for(family).expect("registered family");
            let direct = run_matrix_cold(&cells);
            let engine = Engine::new();
            let reply = engine
                .matrix(&MatrixRequest::family(family).unwrap())
                .unwrap();
            let direct: Vec<_> = direct
                .results
                .into_iter()
                .map(|r| {
                    let v = r.outcome.verdict().cloned().expect("the cold reference completes");
                    (r.cell, v)
                })
                .collect();
            let routed: Vec<_> = reply
                .report
                .results
                .into_iter()
                .map(|r| {
                    let v = r.outcome.verdict().cloned().expect("ungoverned sweep completes");
                    (r.cell, v)
                })
                .collect();
            (direct, routed)
        });
        prop_assert_eq!(direct, routed);
    }
}

/// A cancelled/over-budget query never poisons the shared caches: the
/// same engine answers the repeated query in full, identically to a
/// fresh engine.
#[test]
fn interrupted_queries_do_not_poison_caches() {
    for threads in [1usize, 8] {
        with_threads(threads, || {
            let engine = Engine::new();
            // Starve a multi-round solvable query of nodes: Chr²s needs
            // three rounds of setup + search, far more than 5 nodes, so
            // the budget trips at a boundary or split point mid-query.
            let spec = TaskSpec::FullSubdivision { n: 2, depth: 2 };
            let starved = SolveRequest::new(spec, 2)
                .unwrap()
                .with_budget(Budget::unlimited().with_max_nodes(5))
                .unwrap();
            let reply = engine.solve(&starved).unwrap();
            assert_eq!(
                reply.outcome.kind(),
                "interrupted",
                "a 5-node budget must interrupt this search"
            );
            // The same engine — same caches — answers the full query
            // identically to a fresh engine afterwards.
            let full = SolveRequest::new(spec, 2).unwrap();
            let warm = engine.solve(&full).unwrap();
            let fresh = Engine::new().solve(&full).unwrap();
            assert_eq!(warm.solvable_depth(), Some(2));
            assert_eq!(engine_digest(&warm.outcome), engine_digest(&fresh.outcome));
            assert_eq!(engine.stats().interrupted, 1);
        });
    }
}

/// Cancelling a matrix mid-flight leaves the engine fully serviceable:
/// the repeated sweep is complete and identical to a fresh engine's.
#[test]
fn cancelled_matrix_recovers_on_the_same_engine() {
    let engine = Engine::new();
    let token = CancelToken::new();
    // Cancel immediately: every cell comes back interrupted (the token is
    // checked before each cell starts).
    token.cancel();
    let req = MatrixRequest::family("smoke").unwrap().with_cancel(token);
    assert!(
        engine.matrix(&req).is_err(),
        "pre-cancelled requests fail fast"
    );

    // A deadline that expires mid-sweep: some prefix may complete, the
    // rest interrupts; either way nothing is poisoned.
    let req = MatrixRequest::family("smoke")
        .unwrap()
        .with_budget(Budget::unlimited().with_timeout(std::time::Duration::ZERO))
        .unwrap();
    let starved = engine.matrix(&req).unwrap();
    assert!(
        starved.report.interrupted > 0,
        "a zero deadline must interrupt"
    );

    let full = engine
        .matrix(&MatrixRequest::family("smoke").unwrap())
        .unwrap();
    let fresh = Engine::new()
        .matrix(&MatrixRequest::family("smoke").unwrap())
        .unwrap();
    assert_eq!(full.report.interrupted, 0);
    for (w, f) in full.report.results.iter().zip(&fresh.report.results) {
        assert_eq!(w.outcome, f.outcome, "warm cache must not change verdicts");
    }
}
