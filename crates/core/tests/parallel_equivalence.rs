//! Sequential/parallel equivalence: every parallel layer (solver subtree
//! split, batched run-verification, batched admissibility, carrier-
//! condition checking) must produce results identical to the sequential
//! path — same maps, same verdicts, same violation strings, same search
//! counters — for any thread count. `GACT_THREADS` is read once per
//! process, so the tests pin equivalence through the per-call-tree
//! override [`gact_parallel::with_threads`] (1 vs 8).

use std::collections::HashMap;

use proptest::prelude::*;

use gact::{
    act_solve, build_lt_showcase, certificate_from_act_map, solve, verify_protocol_on_runs,
    ActVerdict, MapProblem, SolveOutcome, SolveStats,
};
use gact_chromatic::chr_iter;
use gact_models::enumerate_runs;
use gact_parallel::with_threads;
use gact_tasks::affine::full_subdivision_task;
use gact_tasks::classic::{consensus_task, set_agreement_task};
use gact_tasks::Task;
use gact_topology::VertexId;

/// The search counters that must not depend on the thread count: every
/// [`SolveStats`] field but `speculative_assignments`.
fn counters(s: SolveStats) -> [u64; 4] {
    [s.assignments, s.backtracks, s.prunes, s.component_prunes]
}

/// (solvable, map as sorted vertex pairs, deterministic counters).
type Solved = (bool, Option<Vec<(u32, u32)>>, [u64; 4]);

/// Solves the `Chr^depth I → task` problem and extracts its [`Solved`]
/// digest.
fn solve_at(task: &Task, depth: usize) -> Solved {
    let sd = chr_iter(&task.input, &task.input_geometry, depth);
    let problem = MapProblem {
        domain: &sd.complex,
        vertex_carrier: &sd.vertex_carrier,
        task,
    };
    match solve(&problem, None) {
        SolveOutcome::Map(map, stats) => {
            let mut pairs: Vec<(u32, u32)> = sd
                .complex
                .complex()
                .vertex_set()
                .into_iter()
                .map(|v| (v.0, map.apply(v).0))
                .collect();
            pairs.sort_unstable();
            (true, Some(pairs), counters(stats))
        }
        SolveOutcome::Unsatisfiable(stats) => (false, None, counters(stats)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn solver_solution_identical_across_thread_counts(n in 1usize..=2, depth in 0usize..=1) {
        let at = full_subdivision_task(n, depth);
        let sequential = with_threads(1, || solve_at(&at.task, depth));
        let parallel = with_threads(8, || solve_at(&at.task, depth));
        prop_assert!(sequential.0, "full-subdivision task is solvable at its own depth");
        prop_assert_eq!(sequential, parallel);
    }

    #[test]
    fn solver_unsat_verdict_identical_across_thread_counts(depth in 0usize..=2) {
        let task = consensus_task(1, &[0, 1]);
        let sequential = with_threads(1, || solve_at(&task, depth));
        let parallel = with_threads(8, || solve_at(&task, depth));
        prop_assert!(!sequential.0, "binary consensus is wait-free unsolvable");
        prop_assert_eq!(sequential, parallel);
    }

    /// 2-set agreement among three processes over three values at depth
    /// 0 is large enough for the propagating engine and has no map: the
    /// counters must include the unwinding of every forced level, as a
    /// sequential search counts it.
    #[test]
    fn solver_unsat_counters_identical_across_thread_counts(threads in 2usize..=8) {
        let task = set_agreement_task(2, &[0, 1, 2], 2);
        let sequential = with_threads(1, || solve_at(&task, 0));
        let parallel = with_threads(threads, || solve_at(&task, 0));
        prop_assert!(!sequential.0, "no 2-set agreement map at depth 0");
        prop_assert_eq!(sequential, parallel);
    }

    #[test]
    fn run_verification_identical_across_thread_counts(max_rounds in 4usize..=8) {
        let at = full_subdivision_task(1, 1);
        let ActVerdict::Solvable { depth, map, subdivision, .. } = act_solve(&at.task, 2) else {
            panic!("expected solvable");
        };
        let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
        let runs = enumerate_runs(2, 1);
        let digest = |threads: usize| {
            with_threads(threads, || {
                verify_protocol_on_runs(&cert, &at.task, &runs, max_rounds)
                    .into_iter()
                    .map(|rep| {
                        let mut outs: Vec<(u8, u32)> =
                            rep.outputs.iter().map(|(p, v)| (p.0, v.0)).collect();
                        outs.sort_unstable();
                        (rep.rounds, rep.violations, outs)
                    })
                    .collect::<Vec<_>>()
            })
        };
        prop_assert_eq!(digest(1), digest(8));
    }

    #[test]
    fn admissibility_verdicts_identical_across_thread_counts(max_rounds in 2usize..=6) {
        let at = full_subdivision_task(2, 1);
        let ActVerdict::Solvable { depth, map, subdivision, .. } = act_solve(&at.task, 1) else {
            panic!("expected solvable");
        };
        let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
        let runs = enumerate_runs(3, 0);
        let sequential = with_threads(1, || cert.landing_rounds(&runs, max_rounds));
        let parallel = with_threads(8, || cert.landing_rounds(&runs, max_rounds));
        prop_assert_eq!(&sequential, &parallel);
        // And the batch agrees with one-at-a-time queries.
        let pointwise: Vec<Result<usize, usize>> = runs
            .iter()
            .map(|r| cert.landing_round(r, max_rounds))
            .collect();
        prop_assert_eq!(sequential, pointwise);
    }
}

/// The full Proposition 9.2 pipeline — subdivision growth, band
/// stabilization, solver-found `δ`, carrier condition — is identical for
/// 1 and 8 threads: same band sizes, same δ on every stable vertex, same
/// search counters.
#[test]
fn lt_showcase_identical_across_thread_counts() {
    let digest = |threads: usize| {
        with_threads(threads, || {
            let show = build_lt_showcase(2, 1, 1).expect("witness");
            let mut delta: Vec<(u32, u32)> = show
                .certificate
                .subdivision
                .stable_chromatic()
                .complex()
                .vertex_set()
                .into_iter()
                .map(|v| (v.0, show.certificate.map.apply(v).0))
                .collect();
            delta.sort_unstable();
            (show.band_sizes.clone(), delta, counters(show.stats))
        })
    };
    assert_eq!(digest(1), digest(8));
}

/// Carrier-condition checking reports the same first violation in
/// sequential and parallel mode (exercised via a map corrupted at one
/// vertex).
#[test]
fn carrier_condition_first_violation_identical() {
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
    with_threads(8, || cert.check_carrier_condition(&at.task)).expect("valid certificate");

    // Corrupt δ: send one interior vertex to a wrong-carrier output vertex
    // of the same color, producing at least one violation.
    let interior: Vec<VertexId> = subdivision
        .vertex_carrier
        .iter()
        .filter(|(_, car)| car.card() == 2)
        .map(|(v, _)| *v)
        .collect();
    assert!(!interior.is_empty());
    let bad_target = at
        .task
        .output
        .complex()
        .vertex_set()
        .into_iter()
        .find(|&w| {
            at.task.output.color(w) == subdivision.complex.color(interior[0])
                && w != map.apply(interior[0])
        });
    let Some(bad_target) = bad_target else {
        panic!("expected an alternative same-colored output vertex");
    };
    let corrupted: HashMap<VertexId, VertexId> = subdivision
        .complex
        .complex()
        .vertex_set()
        .into_iter()
        .map(|v| {
            let image = if v == interior[0] {
                bad_target
            } else {
                map.apply(v)
            };
            (v, image)
        })
        .collect();
    let bad_map = gact_chromatic::SimplicialMap::new(corrupted);
    let bad_cert = certificate_from_act_map(&at.task, depth, &subdivision, &bad_map);
    let sequential = with_threads(1, || bad_cert.check_carrier_condition(&at.task));
    let parallel = with_threads(8, || bad_cert.check_carrier_condition(&at.task));
    assert!(sequential.is_err());
    assert_eq!(sequential, parallel);
}
