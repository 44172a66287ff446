//! Machine-readable sweep reports (`scenarios --json`), serialized by
//! hand like `gact-bench`'s `BENCH_results.json` (the build environment
//! has no serde).
//!
//! Schema (version 2):
//!
//! ```json
//! {
//!   "schema": 2,
//!   "kind": "scenario-matrix",
//!   "family": "all",
//!   "cells": [
//!     {"family": "...", "task": "...", "model": "...", "max_depth": 1,
//!      "verdict": "solvable", "detail": "wait-free map at depth 1",
//!      "wall_ms": 0.42}
//!   ],
//!   "totals": {"cells": 43, "solvable": 20, "unsolvable": 5,
//!              "protocol_verified": 8, "unknown": 10, "interrupted": 0,
//!              "solver": {"assignments": 0, "backtracks": 0, "prunes": 0,
//!                         "component_prunes": 0},
//!              "wall_ms": 123.4,
//!              "subdivision_cache": {"hits": 90, "misses": 9, "evictions": 0},
//!              "domain_table_cache": {"hits": 40, "misses": 8, "evictions": 0},
//!              "propagation_plan_cache": {"hits": 40, "misses": 8, "evictions": 0}},
//!   "engine": {"...": "..."}
//! }
//! ```
//!
//! A cell's `verdict` is a [`Verdict::kind`](crate::matrix::Verdict::kind)
//! or `"interrupted"`; `"interrupted"` in the totals counts those cells,
//! and `"solver"` sums the search effort of every solvability cell. The
//! top-level `"engine"` object is present only when the caller passes one
//! (the `scenarios` binary attaches the engine's stats snapshot; the
//! `--cold` reference run has no engine and omits it).
//!
//! The three cache objects report the sweep's hit/miss/eviction counters
//! for the shared `Chr^m` subdivisions, the solver's domain tables, and
//! the propagate layer's constraint-class plans; evictions stay zero
//! unless the caches are capacity-bounded (`QueryCache::with_capacity`,
//! or `EngineBuilder::cache_capacity` for an engine's caches).
//!
//! Every field except the `wall_ms` timings and the `solver` effort
//! (which varies with the thread count) is deterministic for a given
//! family and code version.

use std::fmt::Write as _;

use gact_chromatic::CacheStats;

use crate::matrix::ControlledMatrixReport;

/// Escapes backslashes and double quotes for embedding in a JSON string.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One `{"hits": …, "misses": …, "evictions": …}` object — the canonical
/// serialization of a cache-counter triple, shared by the report totals
/// and by the engine's stats snapshot (one format string, one place to
/// change).
pub fn cache_stats_json(s: CacheStats) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
        s.hits, s.misses, s.evictions
    )
}

/// The canonical serialization of a [`SolveStats`](gact::solver::SolveStats) effort counter
/// object, shared by the report totals, the engine's stats snapshot and
/// the `BENCH_results.json` solver payload.
pub fn solve_stats_json(s: gact::solver::SolveStats) -> String {
    format!(
        "{{\"assignments\": {}, \"backtracks\": {}, \"prunes\": {}, \"component_prunes\": {}}}",
        s.assignments, s.backtracks, s.prunes, s.component_prunes
    )
}

/// Serializes a matrix report as the schema-2 JSON document (see the
/// module docs). `engine_json` (a pre-serialized JSON object, e.g. the
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
        let _ = writeln!(
            out,
            "    {{\"family\": \"{}\", \"task\": \"{}\", \"model\": \"{}\", \"max_depth\": {}, \
             \"verdict\": \"{}\", \"detail\": \"{}\", \"wall_ms\": {:.3}}}{}",
            json_escape(r.cell.family),
            json_escape(&r.cell.task.label()),
            json_escape(&r.cell.model.label(r.cell.task.process_count())),
            r.cell.max_depth,
            r.outcome.kind(),
            json_escape(&r.outcome.detail()),
            r.wall.as_secs_f64() * 1e3,
            comma
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

/// Counts the cell records in a scenario report (one
/// `"task": "…"` key per cell). The smoke tests and CI use this to assert
/// a sweep actually enumerated its cells without a JSON parser.
pub fn count_cells(json: &str) -> usize {
    json.matches("\"task\": \"").count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{run_matrix_cold, run_matrix_controlled};
    use crate::registry::cells_for;
    use gact::cache::QueryCache;
    use gact::control::SolveControl;

    #[test]
    fn cold_report_is_schema2_without_engine() {
        let cells = cells_for("smoke").unwrap();
        let json = to_json_controlled("smoke", &run_matrix_cold(&cells), None);
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"interrupted\": 0"));
        assert!(json.contains("\"solver\": {\"assignments\""));
        assert!(!json.contains("\"engine\""));
        assert_eq!(count_cells(&json), cells.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let cells = cells_for("smoke").unwrap();
        let report = run_matrix_controlled(&cells, &QueryCache::new(), &SolveControl::new());
        let json = to_json_controlled("smoke", &report, Some("{\"queries\": 1}"));
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"kind\": \"scenario-matrix\""));
        assert!(json.contains("\"family\": \"smoke\""));
        assert_eq!(count_cells(&json), cells.len());
        assert!(json.contains("\"subdivision_cache\""));
        assert!(json.contains("\"engine\": {\"queries\": 1}"));
        // Balanced braces/brackets (rough but effective shape check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
