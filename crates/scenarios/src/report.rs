//! Machine-readable sweep reports (`scenarios --json`), serialized by
//! hand like `gact-bench`'s `BENCH_results.json` (the build environment
//! has no serde).
//!
//! Two versions exist:
//!
//! * **schema 1** ([`to_json`]) — the original report over a plain
//!   [`MatrixReport`]; kept for the cold baseline and direct API users.
//! * **schema 2** ([`to_json_controlled`]) — the engine-routed report
//!   over a [`ControlledMatrixReport`]: every schema-1 field is emitted
//!   unchanged (same cell-line layout byte for byte, so verdict diffs
//!   across versions stay trivial), `"schema"` becomes `2`, the totals
//!   gain `"interrupted"` and a `"solver"` effort object, and an
//!   optional caller-supplied top-level `"engine"` object carries the
//!   engine's consolidated stats snapshot.
//!
//! Schema (version 1):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "kind": "scenario-matrix",
//!   "family": "all",
//!   "cells": [
//!     {"family": "...", "task": "...", "model": "...", "max_depth": 1,
//!      "verdict": "solvable", "detail": "wait-free map at depth 1",
//!      "wall_ms": 0.42}
//!   ],
//!   "totals": {"cells": 43, "solvable": 20, "unsolvable": 5,
//!              "protocol_verified": 8, "unknown": 10, "wall_ms": 123.4,
//!              "subdivision_cache": {"hits": 90, "misses": 9, "evictions": 0},
//!              "domain_table_cache": {"hits": 40, "misses": 8, "evictions": 0},
//!              "propagation_plan_cache": {"hits": 40, "misses": 8, "evictions": 0}}
//! }
//! ```
//!
//! The three cache objects report the sweep's hit/miss/eviction counters
//! for the shared `Chr^m` subdivisions, the solver's domain tables, and
//! the propagate layer's constraint-class plans; evictions stay zero
//! unless the caches are capacity-bounded (`GACT_CACHE_CAP` or
//! `QueryCache::with_capacity`).
//!
//! Every field except the `wall_ms` timings is deterministic for a given
//! family and code version.

use std::fmt::Write as _;

use gact_chromatic::CacheStats;

use crate::matrix::{ControlledMatrixReport, MatrixReport};

/// Escapes backslashes and double quotes for embedding in a JSON string.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One cell line of the report (shared by both schema versions so the
/// layouts stay byte-identical).
#[allow(clippy::too_many_arguments)]
fn write_cell_line(
    out: &mut String,
    family: &str,
    task: &str,
    model: &str,
    max_depth: usize,
    kind: &str,
    detail: &str,
    wall_ms: f64,
    comma: &str,
) {
    let _ = writeln!(
        out,
        "    {{\"family\": \"{}\", \"task\": \"{}\", \"model\": \"{}\", \"max_depth\": {}, \
         \"verdict\": \"{}\", \"detail\": \"{}\", \"wall_ms\": {:.3}}}{}",
        json_escape(family),
        json_escape(task),
        json_escape(model),
        max_depth,
        kind,
        json_escape(detail),
        wall_ms,
        comma
    );
}

/// One `{"hits": …, "misses": …, "evictions": …}` object — the canonical
/// serialization of a cache-counter triple, shared by both report
/// schemas and by the engine's stats snapshot (one format string, one
/// place to change).
pub fn cache_stats_json(s: CacheStats) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
        s.hits, s.misses, s.evictions
    )
}

/// The canonical serialization of a [`SolveStats`](gact::solver::SolveStats) effort counter
/// object, shared by the schema-2 totals and the engine's stats
/// snapshot.
pub fn solve_stats_json(s: gact::solver::SolveStats) -> String {
    format!(
        "{{\"assignments\": {}, \"backtracks\": {}, \"prunes\": {}, \"component_prunes\": {}}}",
        s.assignments, s.backtracks, s.prunes, s.component_prunes
    )
}

/// Serializes a matrix report as the schema-1 JSON document.
pub fn to_json(family: &str, report: &MatrixReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(out, "  \"kind\": \"scenario-matrix\",");
    let _ = writeln!(out, "  \"family\": \"{}\",", json_escape(family));
    let _ = writeln!(out, "  \"cells\": [");
    for (i, r) in report.results.iter().enumerate() {
        let comma = if i + 1 < report.results.len() {
            ","
        } else {
            ""
        };
        write_cell_line(
            &mut out,
            r.cell.family,
            &r.cell.task.label(),
            &r.cell.model.label(r.cell.task.process_count()),
            r.cell.max_depth,
            r.verdict.kind(),
            &r.verdict.detail(),
            r.wall.as_secs_f64() * 1e3,
            comma,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"totals\": {{");
    let _ = writeln!(out, "    \"cells\": {},", report.results.len());
    let _ = writeln!(out, "    \"solvable\": {},", report.count_kind("solvable"));
    let _ = writeln!(
        out,
        "    \"unsolvable\": {},",
        report.count_kind("unsolvable")
    );
    let _ = writeln!(
        out,
        "    \"protocol_verified\": {},",
        report.count_kind("protocol-verified")
    );
    let _ = writeln!(out, "    \"unknown\": {},", report.count_kind("unknown"));
    let _ = writeln!(
        out,
        "    \"wall_ms\": {:.3},",
        report.total_wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "    \"subdivision_cache\": {},",
        cache_stats_json(report.subdivision_stats)
    );
    let _ = writeln!(
        out,
        "    \"domain_table_cache\": {},",
        cache_stats_json(report.table_stats)
    );
    let _ = writeln!(
        out,
        "    \"propagation_plan_cache\": {}",
        cache_stats_json(report.plan_stats)
    );
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Serializes a controlled (engine-routed) matrix report as the schema-2
/// JSON document. Every schema-1 field keeps its exact layout; the totals
/// additionally report `"interrupted"` and the aggregate `"solver"`
/// effort, and `engine_json` (a pre-serialized JSON object, e.g. the
/// engine's stats snapshot) is attached under a top-level `"engine"` key
/// when given.
pub fn to_json_controlled(
    family: &str,
    report: &ControlledMatrixReport,
    engine_json: Option<&str>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": 2,");
    let _ = writeln!(out, "  \"kind\": \"scenario-matrix\",");
    let _ = writeln!(out, "  \"family\": \"{}\",", json_escape(family));
    let _ = writeln!(out, "  \"cells\": [");
    for (i, r) in report.results.iter().enumerate() {
        let comma = if i + 1 < report.results.len() {
            ","
        } else {
            ""
        };
        write_cell_line(
            &mut out,
            r.cell.family,
            &r.cell.task.label(),
            &r.cell.model.label(r.cell.task.process_count()),
            r.cell.max_depth,
            r.outcome.kind(),
            &r.outcome.detail(),
            r.wall.as_secs_f64() * 1e3,
            comma,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"totals\": {{");
    let _ = writeln!(out, "    \"cells\": {},", report.results.len());
    let _ = writeln!(out, "    \"solvable\": {},", report.count_kind("solvable"));
    let _ = writeln!(
        out,
        "    \"unsolvable\": {},",
        report.count_kind("unsolvable")
    );
    let _ = writeln!(
        out,
        "    \"protocol_verified\": {},",
        report.count_kind("protocol-verified")
    );
    let _ = writeln!(out, "    \"unknown\": {},", report.count_kind("unknown"));
    let _ = writeln!(out, "    \"interrupted\": {},", report.interrupted);
    let _ = writeln!(out, "    \"solver\": {},", solve_stats_json(report.solver));
    let _ = writeln!(
        out,
        "    \"wall_ms\": {:.3},",
        report.total_wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "    \"subdivision_cache\": {},",
        cache_stats_json(report.subdivision_stats)
    );
    let _ = writeln!(
        out,
        "    \"domain_table_cache\": {},",
        cache_stats_json(report.table_stats)
    );
    let _ = writeln!(
        out,
        "    \"propagation_plan_cache\": {}",
        cache_stats_json(report.plan_stats)
    );
    match engine_json {
        Some(fragment) => {
            let _ = writeln!(out, "  }},");
            let _ = writeln!(out, "  \"engine\": {fragment}");
        }
        None => {
            let _ = writeln!(out, "  }}");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Counts the cell records in a schema-1 scenario report (one
/// `"task": "…"` key per cell). The smoke tests and CI use this to assert
/// a sweep actually enumerated its cells without a JSON parser.
pub fn count_cells(json: &str) -> usize {
    json.matches("\"task\": \"").count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{run_matrix, run_matrix_controlled};
    use crate::registry::cells_for;
    use gact::cache::QueryCache;
    use gact::control::SolveControl;

    #[test]
    fn schema2_preserves_schema1_cell_lines() {
        let cells = cells_for("smoke").unwrap();
        let cache = QueryCache::new();
        let v1 = to_json("smoke", &run_matrix(&cells, &cache));
        let v2 = to_json_controlled(
            "smoke",
            &run_matrix_controlled(&cells, &QueryCache::new(), &SolveControl::new()),
            Some("{\"queries\": 1}"),
        );
        let cell_lines = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains("\"task\": \""))
                .map(|l| {
                    // Strip the nondeterministic wall time.
                    let cut = l.find("\"wall_ms\"").unwrap();
                    l[..cut].to_string()
                })
                .collect()
        };
        assert_eq!(cell_lines(&v1), cell_lines(&v2));
        assert!(v2.contains("\"schema\": 2"));
        assert!(v2.contains("\"interrupted\": 0"));
        assert!(v2.contains("\"solver\": {\"assignments\""));
        assert!(v2.contains("\"engine\": {\"queries\": 1}"));
        assert_eq!(v2.matches('{').count(), v2.matches('}').count());
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let cells = cells_for("smoke").unwrap();
        let cache = QueryCache::new();
        let report = run_matrix(&cells, &cache);
        let json = to_json("smoke", &report);
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"kind\": \"scenario-matrix\""));
        assert!(json.contains("\"family\": \"smoke\""));
        assert_eq!(count_cells(&json), cells.len());
        assert!(json.contains("\"subdivision_cache\""));
        // Balanced braces/brackets (rough but effective shape check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
