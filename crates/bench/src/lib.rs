//! # gact-bench
//!
//! Benchmark harness for the GACT reproduction. Content:
//!
//! * [`registry()`] — every timed workload, written once: an id plus a body
//!   that sets up, asserts and times itself through [`measure`]. Both
//!   harnesses iterate it;
//! * `benches/registry.rs` — `cargo bench -p gact-bench [-- <id-prefix>…]`
//!   prints one median line per registered id, keeping only the ids that
//!   start with one of the given prefixes;
//! * `src/bin/experiments.rs` — the one-shot harness printing every
//!   paper-vs-measured row, plus the `--json` mode that runs the whole
//!   registry and writes a machine-readable `BENCH_results.json` for
//!   cross-PR perf tracking (schema in `docs/benchmarks.md`);
//! * this library — the wall-time measurement and JSON plumbing
//!   (serialized by hand: the build environment has no serde).

pub mod registry;

pub use registry::{registry, select, Workload};

use std::fmt::Write as _;
use std::time::Instant;

use gact::SolveStats;
use gact_scenarios::solve_stats_json;

/// One timed benchmark: median/min/mean nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Benchmark id, `group/name`, as registered in [`registry()`].
    pub id: String,
    /// Median wall time per iteration, in nanoseconds.
    pub median_ns: f64,
    /// Minimum wall time per iteration, in nanoseconds.
    pub min_ns: f64,
    /// Mean wall time per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Solver search-effort counters, for solver workloads: deterministic,
    /// so a regression in nodes/backtracks/prunes is visible in the JSON
    /// trajectory even when wall times are noisy.
    pub solver: Option<SolveStats>,
}

impl BenchRecord {
    /// The record of non-empty per-iteration wall times, in nanoseconds.
    pub fn from_samples(id: impl Into<String>, mut per_iter: Vec<f64>) -> Self {
        per_iter.sort_by(|a, b| a.total_cmp(b));
        BenchRecord {
            id: id.into(),
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
            samples: per_iter.len(),
            solver: None,
        }
    }

    /// Attaches solver search-effort counters to this record (builder
    /// style, used by the registry's solver workloads).
    pub fn with_solver(mut self, effort: SolveStats) -> Self {
        self.solver = Some(effort);
        self
    }
}

impl BenchRecord {
    /// Human-readable median.
    pub fn pretty_median(&self) -> String {
        let ns = self.median_ns;
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        }
    }
}

/// Times `body` for `samples` samples (after one warmup call), batching
/// fast bodies so each sample spans at least ~2ms of wall time.
pub fn measure<O>(
    id: impl Into<String>,
    samples: usize,
    mut body: impl FnMut() -> O,
) -> BenchRecord {
    let id = id.into();
    // Warmup + batch calibration.
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(body());
        }
        if start.elapsed().as_millis() >= 2 || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(body());
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    BenchRecord::from_samples(id, per_iter)
}

/// Escapes backslashes and double quotes for embedding in a JSON string.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The bench ids recorded in a `BENCH_results.json` document (the schema
/// this workspace writes: one `"id": "…"` key per bench entry), in order.
fn bench_ids(json: &str) -> impl Iterator<Item = &str> {
    json.split("\"id\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
}

/// Counts the bench ids recorded in a `BENCH_results.json` document.
/// Used by `experiments --json` to refuse overwriting a fuller results
/// file with a partial run. Unparseable content counts as zero ids, so a
/// corrupt file never blocks a fresh write.
pub fn count_bench_ids(json: &str) -> usize {
    bench_ids(json).count()
}

/// Serializes records as the `BENCH_results.json` document (schema 1).
pub fn to_json(records: &[BenchRecord]) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(out, "  \"timestamp_unix\": {unix},");
    let _ = writeln!(out, "  \"benches\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let solver = r
            .solver
            .map(|s| format!(", \"solver\": {}", solve_stats_json(s)))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"mean_ns\": {:.1}, \"samples\": {}{}}}{}",
            json_escape(&r.id), r.median_ns, r.min_ns, r.mean_ns, r.samples, solver, comma
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn measure_returns_positive_times() {
        let r = measure("unit/spin", 3, || {
            (0..1000u64).fold(0u64, |a, x| a.wrapping_add(x * x))
        });
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert_eq!(r.samples, 3);
        assert!(!r.pretty_median().is_empty());
    }

    #[test]
    fn count_bench_ids_matches_records() {
        let records = vec![measure("a/b", 2, || 1 + 1), measure("c/d", 2, || 2 + 2)];
        let json = to_json(&records);
        assert_eq!(count_bench_ids(&json), 2);
        assert_eq!(count_bench_ids(""), 0);
        assert_eq!(count_bench_ids("not json at all"), 0);
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let records = vec![measure("a/b", 2, || 1 + 1), measure("c/d", 2, || 2 + 2)];
        let json = to_json(&records);
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"id\": \"a/b\""));
        assert!(json.contains("\"id\": \"c/d\""));
        // Exactly one comma between the two entries, none after the last.
        assert_eq!(json.matches("},\n").count(), 1);
        assert!(!json.contains("}\n  ]\n},"));
    }

    /// A registry edit without a regenerated trajectory fails here:
    /// regenerate `BENCH_results.json` with `experiments --json`.
    #[test]
    fn registry_ids_are_unique_and_match_committed_results() {
        let ids: Vec<String> = registry().into_iter().map(|w| w.id).collect();
        let unique: BTreeSet<&str> = ids.iter().map(String::as_str).collect();
        assert_eq!(unique.len(), ids.len(), "duplicate registry id in {ids:?}");
        let committed: BTreeSet<&str> =
            bench_ids(include_str!("../../../BENCH_results.json")).collect();
        assert_eq!(
            unique, committed,
            "registry ids differ from BENCH_results.json"
        );
    }

    #[test]
    fn select_keeps_ids_by_prefix() {
        let ids = |prefixes: &[&str]| -> Vec<String> {
            select(prefixes).into_iter().map(|w| w.id).collect()
        };
        assert_eq!(ids(&[]).len(), registry().len());
        let groups = ids(&["chr_growth", "act_solver"]);
        assert_eq!(groups.len(), 7 + 8);
        assert!(groups
            .iter()
            .all(|id| id.starts_with("chr_growth/") || id.starts_with("act_solver/")));
        assert_eq!(
            ids(&[
                "act_solver/consensus_obstruction_n2",
                "runs/fast_enumerated/2"
            ]),
            [
                "act_solver/consensus_obstruction_n2",
                "runs/fast_enumerated/2"
            ]
        );
        assert!(ids(&["no_such_group"]).is_empty());
    }

    #[test]
    fn solver_effort_serializes_when_attached() {
        let with = measure("s/with", 2, || 0).with_solver(SolveStats {
            assignments: 3,
            backtracks: 1,
            prunes: 42,
            component_prunes: 7,
            speculative_assignments: 0,
        });
        let without = measure("s/without", 2, || 0);
        let json = to_json(&[with, without]);
        assert!(json.contains(
            "\"solver\": {\"assignments\": 3, \"backtracks\": 1, \"prunes\": 42, \
             \"component_prunes\": 7, \"speculative_assignments\": 0}"
        ));
        // Only the record that carries counters gets the key.
        assert_eq!(json.matches("\"solver\"").count(), 1);
    }
}
