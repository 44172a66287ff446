//! The traced run: the workload's operations replayed layer by layer (see
//! [`crate::replay`]) with spans recorded, next to untraced engine
//! operations that give the reference medians. Its numbers never feed the
//! end-to-end metrics.
//!
//! Per-layer time and count metrics are means per traced replayed
//! operation; `setup.*` metrics are totals over the replayed setup.
//! Replays run at 1 thread, so a span's self time is busy time of that
//! layer, never time spent helping other work.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use gact_engine::{Engine, SolveVerdict};
use gact_models::ModelSpec;
use gact_scenarios::Verdict;

use crate::replay::{ActResult, Replay, VerifyResult, CERT_EXTRA_STAGES, CERT_VERIFY_ROUNDS};
use crate::stats::median;
use crate::trace::{layer_of, Recorder, ROOT};
use crate::watchdog::Watchdog;
use crate::workloads::{Certify, Grid, Rng, Sweep};
use crate::{Metric, Tally};

/// The per-layer metrics every traced run reports: name, unit, direction.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("tasks.build_ms", "ms", "lower"),
    ("tasks.builds", "count", "lower"),
    ("tasks.compile_ms", "ms", "lower"),
    ("act.obstruction_ms", "ms", "lower"),
    ("act.depths_searched", "count", "lower"),
    ("chromatic.subdivision_ms", "ms", "lower"),
    ("chromatic.subdivision_hits", "count", "higher"),
    ("chromatic.subdivision_misses", "count", "lower"),
    ("chromatic.terminating_ms", "ms", "lower"),
    ("solver.domains_ms", "ms", "lower"),
    ("solver.domains_hits", "count", "higher"),
    ("solver.domains_misses", "count", "lower"),
    ("solver.plan_ms", "ms", "lower"),
    ("solver.plan_hits", "count", "higher"),
    ("solver.plan_misses", "count", "lower"),
    ("solver.solve_ms", "ms", "lower"),
    ("solver.assignments", "count", "lower"),
    ("solver.backtracks", "count", "lower"),
    ("solver.prunes", "count", "higher"),
    ("solver.component_prunes", "count", "higher"),
    ("solver.useful_ratio", "ratio", "higher"),
    ("solver.bypass_share", "ratio", "lower"),
    ("lt.showcase_ms", "ms", "lower"),
    ("gact.carrier_check_ms", "ms", "lower"),
    ("cache.showcase_hits", "count", "higher"),
    ("models.runs_ms", "ms", "lower"),
    ("models.runs", "count", "lower"),
    ("protocol.verify_ms", "ms", "lower"),
    ("protocol.runs_verified", "count", "lower"),
    ("protocol.rounds_executed", "count", "lower"),
    ("scenarios.cell_ms.solvable", "ms", "lower"),
    ("scenarios.cell_ms.unsolvable", "ms", "lower"),
    ("scenarios.cell_ms.protocol-verified", "ms", "lower"),
    ("scenarios.cell_ms.unknown", "ms", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("parallel.certify_speedup", "ratio", "higher"),
    ("parallel.sweep_speedup", "ratio", "higher"),
    ("engine.facade_gap_ms", "ms", "lower"),
    ("engine.layer_coverage", "ratio", "higher"),
    ("tracing.overhead_ms", "ms", "lower"),
    ("setup.tasks.build_ms", "ms", "lower"),
    ("setup.chromatic.subdivision_ms", "ms", "lower"),
    ("setup.chromatic.subdivision_misses", "count", "lower"),
    ("setup.solver.domains_ms", "ms", "lower"),
    ("setup.solver.plan_ms", "ms", "lower"),
];

/// Span names whose summed self time is reported as `<name>_ms`.
const TIMED_SPANS: &[&str] = &[
    "tasks.build",
    "tasks.compile",
    "act.obstruction",
    "chromatic.subdivision",
    "chromatic.terminating",
    "solver.domains",
    "solver.plan",
    "solver.solve",
    "lt.showcase",
    "gact.carrier_check",
    "models.runs",
    "protocol.verify",
];

/// Repetitions of each op at each thread count for the speedups.
const CERTIFY_REPS: usize = 5;
const SWEEP_REPS: usize = 15;
/// Deadline of one reference or replayed operation.
const OP_LIMIT: Duration = Duration::from_secs(40);
/// Layer self time must cover this share of the untraced op median.
const MIN_COVERAGE: f64 = 0.9;

/// Untraced reference medians, in ms, of one op at 1 and 2 threads.
#[derive(Clone, Copy, Debug, Default)]
struct Paired {
    one: f64,
    two: f64,
}

/// Runs `op(1)` and `op(2)` alternately `reps` times each.
fn paired(reps: usize, mut op: impl FnMut(usize) -> Option<f64>) -> Paired {
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        one.extend(op(1));
        two.extend(op(2));
    }
    Paired {
        one: median(&one),
        two: median(&two),
    }
}

fn certify_reference(wd: &Watchdog, tally: &mut Tally) -> Paired {
    let c = Certify::load();
    paired(CERTIFY_REPS, |threads| {
        tally.op(wd, "certify (reference)", OP_LIMIT, || c.op(threads))
    })
}

fn sweep_reference(wd: &Watchdog, tally: &mut Tally) -> Paired {
    let s = Sweep::load();
    let (Some((_, e1)), Some((_, e2))) = (s.primed(1, wd, tally), s.primed(2, wd, tally)) else {
        return Paired::default();
    };
    paired(SWEEP_REPS, |threads| {
        let e = if threads == 1 { &e1 } else { &e2 };
        tally.op(wd, "sweep_all (reference)", OP_LIMIT, || {
            s.pass(e).map(|(ms, _)| ms)
        })
    })
}

/// Replays ops until `seconds` passed, alternating traced and untraced
/// batches of `batch` ops and ending on a whole traced + untraced pair.
/// Each step also runs the same op untraced through a 1-thread engine, so
/// the reference median samples the same stretch of time as the replay.
fn replay_loop(seconds: f64, batch: usize, mut op: impl FnMut(usize, bool)) {
    let t0 = Instant::now();
    let mut i = 0usize;
    loop {
        op(i, (i / batch).is_multiple_of(2));
        i += 1;
        if i.is_multiple_of(2 * batch) && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Whether a replayed ACT result equals the engine's verdict, map included.
fn same_verdict(engine: &SolveVerdict, replay: &ActResult) -> bool {
    match (engine, replay) {
        (SolveVerdict::Solvable { depth, map, .. }, ActResult::Solvable { depth: d, map: m }) => {
            depth == d && map == m
        }
        (SolveVerdict::Unsolvable { obstruction }, ActResult::Unsolvable(o)) => obstruction == o,
        (SolveVerdict::NoMapUpTo(d), ActResult::NoMapUpTo(e)) => d == e,
        _ => false,
    }
}

/// `solve_stream`: returns the untraced engine op latencies at 1 thread,
/// tagged by spec.
fn trace_solve_stream(
    seed: u64,
    seconds: f64,
    rec: &Recorder,
    wd: &Watchdog,
    tally: &mut Tally,
) -> Vec<(usize, f64)> {
    let grid = Grid::load();
    let n = grid.specs.len();
    let mut rng = Rng::new(seed);
    let engine = Engine::builder().threads(1).expect("one thread").build();
    let mut answers: Vec<Option<SolveVerdict>> = (0..n).map(|_| None).collect();
    for (i, answer) in answers.iter_mut().enumerate() {
        tally.op(wd, &grid.label(i), OP_LIMIT, || {
            let (ms, outcome) = grid.solve(&engine, i)?;
            *answer = Some(outcome);
            Ok(ms)
        });
    }
    let mut lat = Vec::new();
    let replay = Replay::new(rec);
    let replay_op = |i: usize, phase: &'static str, traced: bool, tally: &mut Tally| {
        let spec = grid.specs[i];
        tally.op(wd, &format!("replay {}", grid.label(i)), OP_LIMIT, || {
            let got = rec.request(phase, i, traced, || {
                let task = replay.build_task(spec.task).expect("grid tasks build");
                replay.act(&task, spec.max_depth)
            });
            match &answers[i] {
                Some(engine) if same_verdict(engine, &got) => Ok(0.0),
                _ => Err(format!("replayed {} diverged from the engine", got.kind())),
            }
        });
    };
    gact_parallel::with_threads(1, || {
        for i in rng.permutation(n) {
            replay_op(i, "setup", true, tally);
        }
        let mut order = Vec::new();
        replay_loop(seconds, n, |k, traced| {
            if k % n == 0 {
                order = rng.permutation(n);
            }
            let i = order[k % n];
            replay_op(i, "op", traced, tally);
            let ms = tally.op(wd, &grid.label(i), OP_LIMIT, || {
                grid.solve(&engine, i).map(|(ms, _)| ms)
            });
            lat.extend(ms.map(|ms| (i, ms)));
        });
    });
    lat
}

/// `certify`: each replayed op is a fresh replay session with both verify
/// requests, checked against the checked-in reply and the engine's map.
fn trace_certify(
    seconds: f64,
    rec: &Recorder,
    wd: &Watchdog,
    tally: &mut Tally,
) -> Vec<(usize, f64)> {
    let c = Certify::load();
    let engine = Engine::builder().threads(2).expect("two threads").build();
    let Ok(witness) = engine.lt_showcase(2, 1, CERT_EXTRA_STAGES) else {
        tally.fail("certify: the engine built no witness".into());
        return Vec::new();
    };
    let models = [
        ModelSpec::TResilient { t: 1 },
        ModelSpec::GeometricTResilient { t: 1 },
    ];
    let replay_op = |phase: &'static str, traced: bool, tally: &mut Tally| {
        tally.op(wd, "replay certify", OP_LIMIT, || {
            let replay = Replay::new(rec);
            let results: Vec<VerifyResult> = rec.request(phase, 0, traced, || {
                models
                    .iter()
                    .map(|&m| replay.verify(2, 1, CERT_EXTRA_STAGES, m, CERT_VERIFY_ROUNDS))
                    .collect()
            });
            for r in &results {
                c.check(&r.bands, r.runs, r.violations)?;
            }
            let map = &replay.showcase(2, 1, CERT_EXTRA_STAGES).certificate.map;
            if *map != witness.certificate.map {
                return Err("replayed witness map differs from the engine's".into());
            }
            Ok(0.0)
        });
    };
    let mut lat = Vec::new();
    gact_parallel::with_threads(1, || {
        replay_op("setup", true, tally);
        replay_loop(seconds, 1, |_, traced| {
            replay_op("op", traced, tally);
            let ms = tally.op(wd, "certify (reference)", OP_LIMIT, || c.op(1));
            lat.extend(ms.map(|ms| (0, ms)));
        });
    });
    lat
}

/// The count that holds a cell's exclusive time, by verdict kind.
fn cell_metric(kind: &str) -> &'static str {
    match kind {
        "solvable" => "scenarios.cell_ms.solvable",
        "unsolvable" => "scenarios.cell_ms.unsolvable",
        "protocol-verified" => "scenarios.cell_ms.protocol-verified",
        _ => "scenarios.cell_ms.unknown",
    }
}

/// `sweep_all`: the replay's cold pass is its setup; each op is a warm
/// pass, every cell's verdict checked against the engine's.
fn trace_sweep(
    seconds: f64,
    rec: &Recorder,
    wd: &Watchdog,
    tally: &mut Tally,
) -> Vec<(usize, f64)> {
    let s = Sweep::load();
    let Some((_, engine)) = s.primed(1, wd, tally) else {
        return Vec::new();
    };
    let mut verdicts: Vec<Option<Verdict>> = Vec::new();
    tally.op(wd, "sweep_all (reference)", OP_LIMIT, || {
        let (ms, report) = s.pass(&engine)?;
        verdicts = report
            .results
            .iter()
            .map(|r| r.outcome.verdict().cloned())
            .collect();
        Ok(ms)
    });
    let cells = s.request.cells();
    let replay = Replay::new(rec);
    let replay_op = |phase: &'static str, traced: bool, tally: &mut Tally| {
        tally.op(wd, "replay sweep_all", OP_LIMIT, || {
            let got: Vec<Verdict> = rec.request(phase, 0, traced, || {
                cells
                    .iter()
                    .map(|cell| {
                        let t = Instant::now();
                        let v = replay.cell(cell);
                        rec.count(cell_metric(v.kind()), t.elapsed().as_secs_f64() * 1e3);
                        v
                    })
                    .collect()
            });
            for ((cell, want), got) in cells.iter().zip(&verdicts).zip(&got) {
                if want.as_ref() != Some(got) {
                    return Err(format!(
                        "replayed cell {} diverged from the engine",
                        cell.label()
                    ));
                }
            }
            Ok(0.0)
        });
    };
    let mut lat = Vec::new();
    gact_parallel::with_threads(1, || {
        replay_op("setup", true, tally);
        replay_loop(seconds, 1, |_, traced| {
            replay_op("op", traced, tally);
            let ms = tally.op(wd, "sweep_all (reference)", OP_LIMIT, || {
                s.pass(&engine).map(|(ms, _)| ms)
            });
            lat.extend(ms.map(|ms| (0, ms)));
        });
    });
    lat
}

/// Median value per tag.
fn tag_medians(pairs: impl Iterator<Item = (usize, f64)>) -> BTreeMap<usize, f64> {
    let mut by_tag: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (tag, v) in pairs {
        by_tag.entry(tag).or_default().push(v);
    }
    by_tag.into_iter().map(|(t, v)| (t, median(&v))).collect()
}

/// Per-phase sums of span self times and counts.
#[derive(Default)]
struct Phase {
    spans: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Phase {
    fn span(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0.0)
    }
    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Runs `workload` traced and returns its per-layer metrics.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace_dir: &Path,
    wd: &Watchdog,
    tally: &mut Tally,
) -> Vec<Metric> {
    let rec = Recorder::default();
    let certify = certify_reference(wd, tally);
    let sweep = sweep_reference(wd, tally);
    // The replay gets half the window; the rest went to the references.
    let window = seconds / 2.0;
    // Untraced op latencies at 1 thread (the replay's), sampled alongside
    // the replay, and the op median at the workload's own thread count
    // (`None`: the same as at 1 thread).
    let (lat, mw, threads) = match workload {
        "solve_stream" => (trace_solve_stream(seed, window, &rec, wd, tally), None, 1.0),
        "certify" => (
            trace_certify(window, &rec, wd, tally),
            Some(certify.two),
            2.0,
        ),
        "sweep_all" => (trace_sweep(window, &rec, wd, tally), Some(sweep.two), 2.0),
        other => unreachable!("workload `{other}` was validated"),
    };

    let requests = rec.requests();
    let mut setup = Phase::default();
    let mut ops = Phase::default();
    let mut layer_ms = vec![0.0; requests.len()];
    let mut table: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (span, self_ms) in rec.self_times() {
        let req = &requests[span.req];
        if span.name != ROOT {
            layer_ms[span.req] += self_ms;
        }
        let phase = if req.phase == "setup" {
            &mut setup
        } else {
            &mut ops
        };
        *phase.spans.entry(span.name).or_insert(0.0) += self_ms;
        let row = table.entry(layer_of(span.name)).or_insert((0.0, 0.0));
        if req.phase == "setup" {
            row.0 += self_ms;
        } else {
            row.1 += self_ms;
        }
    }
    let traced_ops: Vec<usize> = (0..requests.len())
        .filter(|&i| requests[i].phase == "op" && requests[i].traced)
        .collect();
    for r in &requests {
        let phase = if r.phase == "setup" {
            &mut setup
        } else {
            &mut ops
        };
        for (k, v) in &r.counts {
            *phase.counts.entry(k).or_insert(0.0) += v;
        }
    }
    let n = traced_ops.len().max(1) as f64;
    // Engine and replay are compared kind by kind (per grid spec for
    // `solve_stream`): the sums below are of per-kind medians, divided by
    // the number of kinds for a per-op figure.
    let engine = tag_medians(lat.iter().copied());
    let layer = tag_medians(traced_ops.iter().map(|&i| (requests[i].tag, layer_ms[i])));
    let traced_wall = tag_medians(
        traced_ops
            .iter()
            .map(|&i| (requests[i].tag, requests[i].wall_ms)),
    );
    let untraced_wall = tag_medians(
        requests
            .iter()
            .filter(|r| r.phase == "op" && !r.traced)
            .map(|r| (r.tag, r.wall_ms)),
    );
    let kinds = engine.len().max(1) as f64;
    let m1 = engine.values().sum::<f64>() / kinds;
    let layer_med = layer.values().sum::<f64>() / kinds;
    let mw = mw.unwrap_or(m1);
    let coverage = layer_med / m1.max(1e-9);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let assignments = ops.count("solver.assignments");
    let value = |name: &str| -> f64 {
        match name {
            "solver.useful_ratio" if assignments == 0.0 => 1.0,
            "solver.useful_ratio" => (assignments - ops.count("solver.backtracks")) / assignments,
            "solver.bypass_share" => {
                ratio(ops.count("solver.bypassed"), ops.count("solver.solves"))
            }
            "parallel.busy_ratio" => ratio(layer_med, threads * mw),
            "parallel.certify_speedup" => ratio(certify.one, certify.two),
            "parallel.sweep_speedup" => ratio(sweep.one, sweep.two),
            "engine.facade_gap_ms" => m1 - layer_med,
            "engine.layer_coverage" => coverage,
            "tracing.overhead_ms" => {
                (traced_wall.values().sum::<f64>() - untraced_wall.values().sum::<f64>()) / kinds
            }
            _ => {
                let (phase, per, name) = match name.strip_prefix("setup.") {
                    Some(rest) => (&setup, 1.0, rest),
                    None => (&ops, n, name),
                };
                match name.strip_suffix("_ms").filter(|s| TIMED_SPANS.contains(s)) {
                    Some(span) => phase.span(span) / per,
                    None => phase.count(name) / per,
                }
            }
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, value(name), unit))
        .collect();

    println!(
        "traced {workload}: {} traced replayed ops (1 thread) after a replayed setup",
        traced_ops.len(),
    );
    println!(
        "  {:<12} {:>12} {:>12} {:>8}",
        "layer", "setup ms", "ms per op", "share"
    );
    let op_total: f64 = table.values().map(|r| r.1).sum();
    for (layer, (setup_ms, op_ms)) in &table {
        let label = if *layer == ROOT { "(replay)" } else { layer };
        println!(
            "  {label:<12} {setup_ms:>12.3} {:>12.4} {:>7.1}%",
            op_ms / n,
            100.0 * ratio(*op_ms, op_total)
        );
    }
    println!(
        "  untraced op median {m1:.4} ms at 1 thread ({mw:.4} ms at {threads} threads); \
         layer self time {layer_med:.4} ms per op = {:.1}% of it{}",
        100.0 * coverage,
        if kinds > 1.0 {
            " (means of per-spec medians)"
        } else {
            ""
        }
    );
    if coverage < MIN_COVERAGE {
        println!(
            "  GAP: layer spans cover less than {:.0}% of the untraced op median; \
             {:.4} ms per op is not attributed to a layer",
            100.0 * MIN_COVERAGE,
            m1 - layer_med
        );
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<38} {value:>14.4} {unit}");
    }
    let path = trace_dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => tally.fail(format!("writing {}: {e}", path.display())),
    }
    metrics
}
