//! Boundary regression tests: every formerly panicking input reachable
//! from the public engine API returns a structured [`EngineError`] naming
//! the offending field, and the governance error paths (cancellation,
//! budgets) behave as documented.

use std::time::{Duration, Instant};

use gact_engine::{
    Budget, CancelToken, Engine, EngineError, MatrixRequest, SolveRequest, SolveVerdict,
    VerifyRequest, MAX_REQUEST_DEPTH, MAX_VERIFY_ROUNDS,
};
use gact_iis::Run;
use gact_models::{enumerate_runs, ModelSpec};
use gact_scenarios::{Cell, TaskSpec};

fn invalid_field(err: EngineError) -> String {
    match err {
        EngineError::InvalidSpec { field, .. } => field,
        e => panic!("expected InvalidSpec, got {e}"),
    }
}

/// Each row is one formerly panicking construction path, now rejected at
/// request construction with the offending field named.
#[test]
fn formerly_panicking_specs_are_rejected_with_fields() {
    let cases: Vec<(TaskSpec, &str)> = vec![
        // `set_agreement_task` used to assert k >= 1.
        (
            TaskSpec::SetAgreement {
                n: 1,
                n_values: 2,
                k: 0,
            },
            "k",
        ),
        // An empty value list used to build a degenerate pseudosphere.
        (
            TaskSpec::SetAgreement {
                n: 1,
                n_values: 0,
                k: 1,
            },
            "n_values",
        ),
        (TaskSpec::Consensus { n: 1, n_values: 0 }, "n_values"),
        // `lt_task` used to assert t < n + 1.
        (TaskSpec::Lt { n: 2, t: 3 }, "t"),
        (TaskSpec::Lt { n: 1, t: 9 }, "t"),
        // Dimensions beyond the solver's simplex buffers used to panic
        // deep inside `prepare_domain`.
        (TaskSpec::FullSubdivision { n: 99, depth: 0 }, "n"),
        (TaskSpec::TotalOrder { n: 40 }, "n"),
        // Commit–adopt beyond its 8-entry proposal table used to index
        // out of bounds in the matrix driver.
        (TaskSpec::CommitAdopt { n: 12 }, "n"),
    ];
    for (spec, field) in cases {
        // Through the solve door (commit–adopt is rejected as a protocol
        // before its field check, so route it through the matrix door).
        if !matches!(spec, TaskSpec::CommitAdopt { .. }) {
            assert_eq!(
                invalid_field(SolveRequest::new(spec, 1).unwrap_err()),
                field,
                "solve request must reject {spec:?} naming `{field}`"
            );
        }
        // Through the matrix door.
        let cell = Cell {
            family: "test",
            task: spec,
            model: ModelSpec::WaitFree,
            max_depth: 0,
        };
        assert_eq!(
            invalid_field(MatrixRequest::from_cells("test", vec![cell]).unwrap_err()),
            field,
            "matrix request must reject {spec:?} naming `{field}`"
        );
    }
}

#[test]
fn model_specs_are_validated_per_cell() {
    let cell = |model| Cell {
        family: "test",
        task: TaskSpec::FullSubdivision { n: 1, depth: 0 },
        model,
        max_depth: 0,
    };
    assert_eq!(
        invalid_field(
            MatrixRequest::from_cells("t", vec![cell(ModelSpec::TResilient { t: 5 })]).unwrap_err()
        ),
        "t"
    );
    assert_eq!(
        invalid_field(
            MatrixRequest::from_cells("t", vec![cell(ModelSpec::ObstructionFree { k: 0 })])
                .unwrap_err()
        ),
        "k"
    );
    assert_eq!(
        invalid_field(
            MatrixRequest::from_cells(
                "t",
                vec![cell(ModelSpec::GeometricObstructionFree { k: 9 })]
            )
            .unwrap_err()
        ),
        "k"
    );
}

#[test]
fn commit_adopt_is_a_protocol_not_a_solve_target() {
    assert_eq!(
        invalid_field(SolveRequest::new(TaskSpec::CommitAdopt { n: 1 }, 0).unwrap_err()),
        "task"
    );
    // But a valid commit–adopt *cell* sails through the matrix door.
    let cell = Cell {
        family: "test",
        task: TaskSpec::CommitAdopt { n: 1 },
        model: ModelSpec::WaitFree,
        max_depth: 0,
    };
    let reply = Engine::new()
        .matrix(&MatrixRequest::from_cells("ca", vec![cell]).unwrap())
        .unwrap();
    assert_eq!(reply.report.results[0].outcome.kind(), "protocol-verified");
}

#[test]
fn depth_ceiling_and_degenerate_budgets() {
    assert!(matches!(
        SolveRequest::new(
            TaskSpec::FullSubdivision { n: 1, depth: 1 },
            MAX_REQUEST_DEPTH + 5
        )
        .unwrap_err(),
        EngineError::BudgetExceeded {
            resource: "depth",
            ..
        }
    ));
    let ok = SolveRequest::new(TaskSpec::FullSubdivision { n: 1, depth: 1 }, 1).unwrap();
    assert_eq!(
        invalid_field(
            ok.with_budget(Budget::unlimited().with_max_nodes(0))
                .unwrap_err()
        ),
        "budget.max_nodes"
    );
}

#[test]
fn verify_request_paths() {
    // Valid: the Proposition 9.2 showcase, small shape, enumerated runs.
    let engine = Engine::new();
    let req = VerifyRequest::new(2, 1, ModelSpec::TResilient { t: 1 }).unwrap();
    let reply = engine.verify(&req).unwrap();
    assert!(reply.runs > 0);
    assert_eq!(reply.violations, 0, "Prop. 9.2 certificate must verify");
    assert!(!reply.bands.is_empty());
    assert_eq!(engine.stats().verifies, 1);

    // Degenerate parameters come back as InvalidSpec, not a panic.
    assert_eq!(
        invalid_field(VerifyRequest::new(2, 0, ModelSpec::WaitFree).unwrap_err()),
        "t"
    );
    assert_eq!(
        invalid_field(VerifyRequest::new(2, 7, ModelSpec::WaitFree).unwrap_err()),
        "t"
    );

    // Governance: verification has no partial outcome, so a cancelled
    // token surfaces as the structured Cancelled error.
    let token = CancelToken::new();
    token.cancel();
    let req = VerifyRequest::new(2, 1, ModelSpec::TResilient { t: 1 })
        .unwrap()
        .with_cancel(token);
    assert_eq!(engine.verify(&req).unwrap_err(), EngineError::Cancelled);

    // And an already-expired deadline as BudgetExceeded.
    let req = VerifyRequest::new(2, 1, ModelSpec::TResilient { t: 1 })
        .unwrap()
        .with_budget(Budget::unlimited().with_timeout(Duration::ZERO))
        .unwrap();
    assert!(matches!(
        engine.verify(&req).unwrap_err(),
        EngineError::BudgetExceeded {
            resource: "deadline",
            ..
        }
    ));
}

#[test]
fn verify_round_bound_is_capped() {
    let request = || VerifyRequest::new(2, 1, ModelSpec::TResilient { t: 1 }).unwrap();
    // `usize::MAX` used to pass validation and then overflow the schedule
    // allocation inside verification.
    for rounds in [MAX_VERIFY_ROUNDS + 1, usize::MAX] {
        assert_eq!(
            invalid_field(request().with_rounds(rounds).unwrap_err()),
            "rounds"
        );
    }
    assert_eq!(
        request().with_rounds(MAX_VERIFY_ROUNDS).unwrap().rounds(),
        MAX_VERIFY_ROUNDS
    );
}

#[test]
fn verify_deadline_stops_run_verification_at_the_round_cap() {
    // One thread and the witness built up front, so the deadline governs
    // run verification alone. Verification checks its control before
    // every chunk of 8 runs, so it must stop within the deadline plus one
    // chunk instead of verifying all 64 runs.
    let engine = Engine::builder().threads(1).unwrap().build();
    let base = VerifyRequest::new(2, 1, ModelSpec::TResilient { t: 1 }).unwrap();
    engine.verify(&base).unwrap();
    let res1 = ModelSpec::TResilient { t: 1 }
        .build(3)
        .filter_batch(enumerate_runs(3, 0));
    let runs: Vec<Run> = res1.iter().cycle().take(64).cloned().collect();
    let capped = base.with_rounds(MAX_VERIFY_ROUNDS).unwrap();

    let t0 = Instant::now();
    let one_chunk = capped.clone().with_runs(runs[..8].to_vec()).unwrap();
    assert_eq!(engine.verify(&one_chunk).unwrap().violations, 0);
    let chunk = t0.elapsed();

    let deadline = Duration::from_millis(50);
    let t0 = Instant::now();
    let request = capped
        .with_runs(runs)
        .unwrap()
        .with_budget(Budget::unlimited().with_timeout(deadline))
        .unwrap();
    let err = engine.verify(&request).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        matches!(
            err,
            EngineError::BudgetExceeded {
                resource: "deadline",
                ..
            }
        ),
        "{err}"
    );
    // Two more chunks of slack absorb timing noise from tests running
    // alongside; verifying all 64 runs would take eight chunks.
    assert!(
        elapsed < deadline + 3 * chunk,
        "stopped after {elapsed:?}; one chunk takes {chunk:?}"
    );
}

#[test]
fn cancel_token_interrupts_solves_mid_flight_semantics() {
    // A token cancelled before submission fails fast…
    let engine = Engine::new();
    let token = CancelToken::new();
    token.cancel();
    let req = SolveRequest::new(TaskSpec::FullSubdivision { n: 1, depth: 1 }, 1)
        .unwrap()
        .with_cancel(token.clone());
    assert_eq!(engine.solve(&req).unwrap_err(), EngineError::Cancelled);

    // …while a deadline expiring inside the query yields an honest
    // Interrupted outcome with the completed prefix reported.
    let req = SolveRequest::new(TaskSpec::Lt { n: 2, t: 1 }, 2)
        .unwrap()
        .with_budget(Budget::unlimited().with_timeout(Duration::ZERO))
        .unwrap();
    let reply = engine.solve(&req).unwrap();
    match reply.outcome {
        SolveVerdict::Interrupted {
            completed_depths, ..
        } => {
            assert_eq!(completed_depths, 0, "a zero deadline stops before depth 0")
        }
        o => panic!("expected an interrupted outcome, got {o:?}"),
    }
    // The engine remains serviceable and answers the full query.
    let full = SolveRequest::new(TaskSpec::Lt { n: 2, t: 1 }, 2).unwrap();
    assert_eq!(engine.solve(&full).unwrap().outcome.kind(), "unknown");
}

#[test]
fn builder_validation() {
    assert_eq!(
        invalid_field(Engine::builder().cache_capacity(0).unwrap_err()),
        "cache_capacity"
    );
    assert_eq!(
        invalid_field(Engine::builder().threads(0).unwrap_err()),
        "threads"
    );
    // A capacity-bounded engine still answers correctly (evictions are
    // rebuilds, not corruption).
    let engine = Engine::builder().cache_capacity(1).unwrap().build();
    let req = SolveRequest::new(TaskSpec::FullSubdivision { n: 1, depth: 1 }, 2).unwrap();
    assert_eq!(engine.solve(&req).unwrap().solvable_depth(), Some(1));
}
