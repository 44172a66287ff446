//! Pins the engine-routed 49-cell `--family all` sweep to the committed
//! `scenarios_all.json`: zero verdict diffs, cell for cell, and the same
//! deterministic solver counters at any thread count. This is the
//! in-tree twin of the CI `engine-smoke` job.

use gact_engine::{Engine, MatrixRequest};

/// Extracts the deterministic prefix of every cell line (everything
/// before the nondeterministic `"wall_ms"` field).
fn cell_lines(json: &str) -> Vec<String> {
    json.lines()
        .filter(|l| l.contains("\"task\": \""))
        .map(|l| {
            let cut = l.find(", \"wall_ms\"").expect("cell lines carry wall_ms");
            l[..cut].to_string()
        })
        .collect()
}

/// The value of the first `"key": <integer>` in `json`.
fn first_count(json: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\": ");
    let at = json.find(&tag).expect("key present") + tag.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("integer value")
}

#[test]
fn engine_all_sweep_matches_committed_verdicts() {
    let committed = include_str!("../../../scenarios_all.json");
    let expected = cell_lines(committed);
    assert_eq!(expected.len(), 49, "the committed sweep holds 49 cells");

    let engine = Engine::new();
    let reply = engine
        .matrix(&MatrixRequest::family("all").unwrap())
        .unwrap();
    let json = gact_scenarios::to_json_controlled(
        "all",
        &reply.report,
        Some(&engine.stats().to_json_object()),
    );
    let got = cell_lines(&json);
    assert_eq!(
        expected, got,
        "engine-routed sweep diverged from the committed scenario verdicts"
    );
    assert_eq!(reply.report.interrupted, 0);

    // The totals' solver object comes before the engine's: the search
    // counters are a sequential search's at every thread count.
    let solver = reply.report.solver;
    assert_eq!(
        [
            solver.assignments,
            solver.backtracks,
            solver.prunes,
            solver.component_prunes
        ],
        ["assignments", "backtracks", "prunes", "component_prunes"]
            .map(|key| first_count(committed, key)),
        "sweep solver counters diverged from the committed totals"
    );
}
