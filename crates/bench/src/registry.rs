//! The bench registry: every timed workload of the workspace, written once.
//!
//! Each [`Workload`] is an id plus a body that does its own setup (and the
//! correctness asserts that guard it), then times itself through
//! [`measure`] (the facade-overhead gate times paired samples itself).
//! Both harnesses iterate this list: `experiments --json` runs all of it
//! into `BENCH_results.json`, and `cargo bench -p gact-bench
//! [-- <id-prefix>…]` runs the ids [`select`] keeps.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gact::cache::QueryCache;
use gact::control::SolveControl;
use gact::{
    act_solve, build_lt_showcase, connectivity_obstruction, solve, verify_protocol_on_runs,
};
use gact::{ActVerdict, MapProblem, SolveOutcome};
use gact_chromatic::{chr_iter, fubini, standard_simplex};
use gact_engine::{Engine, MatrixRequest};
use gact_iis::{ProcessId, ProcessSet, Run};
use gact_models::{affine_projection, enumerate_runs, RunSampler, SamplerConfig};
use gact_scenarios::{cells_for, run_matrix_cold, run_matrix_controlled, Cell};
use gact_tasks::affine::{full_subdivision_task, lt_task, lt_task_in};
use gact_tasks::classic::consensus_task;

use crate::{measure, BenchRecord};

/// One registered benchmark: its id and the body that sets up, checks and
/// times it.
pub struct Workload {
    /// Benchmark id, `group/name`.
    pub id: String,
    body: Box<dyn Fn(&str) -> BenchRecord>,
}

impl Workload {
    fn new(id: impl Into<String>, body: impl Fn(&str) -> BenchRecord + 'static) -> Self {
        Workload {
            id: id.into(),
            body: Box::new(body),
        }
    }

    /// Sets up, checks and times this workload, prints its median line,
    /// and returns the record.
    pub fn run(&self) -> BenchRecord {
        let record = (self.body)(&self.id);
        println!("  {:<44} median {}", record.id, record.pretty_median());
        record
    }
}

/// The registered workloads whose id starts with one of `prefixes` (all of
/// them when `prefixes` is empty), in registry order.
pub fn select<S: AsRef<str>>(prefixes: &[S]) -> Vec<Workload> {
    registry()
        .into_iter()
        .filter(|w| prefixes.is_empty() || prefixes.iter().any(|p| w.id.starts_with(p.as_ref())))
        .collect()
}

/// The cached `rounds-sweep` matrix on a fresh cache: intra-sweep sharing
/// only, never warm-start luck. Timed on its own and as the direct
/// baseline of the engine facade gate.
fn rounds_sweep_cached(cells: &[Cell]) -> gact_scenarios::ControlledMatrixReport {
    run_matrix_controlled(cells, &QueryCache::new(), &SolveControl::new())
}

/// Every benchmark workload, grouped as in `docs/benchmarks.md`. Building
/// the list is cheap: all setup happens inside the bodies, so a filtered
/// run pays only for the ids it keeps.
///
/// The solver workloads attach their search effort (`with_solver`),
/// gathered on one thread so the counters are deterministic on any
/// machine (the parallel subtree split's counters vary with cancellation
/// timing).
pub fn registry() -> Vec<Workload> {
    let mut w = Vec::new();

    // E10: `Chr^m` growth, up to the deep case of the paper's showcase
    // (`Chr³` of a triangle); the facet-count law is asserted before
    // timing.
    let shapes = (1..=3usize)
        .flat_map(|n| (1..=2usize).map(move |m| (format!("chr_growth/n{n}/{m}"), n, m)));
    for (id, n, m) in shapes.chain([("chr_growth/n2_m3".to_string(), 2, 3)]) {
        w.push(Workload::new(id, move |id| {
            let (s, g) = standard_simplex(n);
            assert_eq!(
                chr_iter(&s, &g, m).complex.complex().count_of_dim(n) as u64,
                fubini(n + 1).pow(m as u32),
                "facet-count law violated at n={n}, m={m}"
            );
            measure(id, 10, || chr_iter(&s, &g, m))
        }));
    }

    // One affine-task build over a cached ambient, as a warm engine serves
    // it: `L_1(n=3)` selected from a shared `Chr² s`, every `Δ(t)` derived
    // from the selection's facets.
    w.push(Workload::new("tasks/lt_task_n3_t1", |id| {
        let (s, g) = standard_simplex(3);
        let ambient = Arc::new(chr_iter(&s, &g, 2));
        measure(id, 10, || lt_task_in(3, 1, Arc::clone(&ambient)))
    }));

    // E4: the ACT decision procedure. Positive: the full-subdivision
    // control tasks.
    for (n, depth) in [(1usize, 1usize), (1, 2), (2, 1)] {
        w.push(Workload::new(
            format!("act_solver/solvable/n{n}_k{depth}"),
            move |id| {
                let at = full_subdivision_task(n, depth);
                let stats = gact_parallel::with_threads(1, || match act_solve(&at.task, depth) {
                    ActVerdict::Solvable { stats, .. } => stats,
                    v => panic!("control task must be solvable, got {v:?}"),
                });
                measure(id, 10, || assert!(act_solve(&at.task, depth).is_solvable()))
                    .with_solver(stats)
            },
        ));
    }
    // Negative by exhaustion: the raw solver on consensus.
    for k in 0..=2usize {
        w.push(Workload::new(
            format!("act_solver/consensus_unsat/{k}"),
            move |id| {
                let task = consensus_task(1, &[0, 1]);
                let sd = chr_iter(&task.input, &task.input_geometry, k);
                let problem = MapProblem {
                    domain: &sd.complex,
                    vertex_carrier: &sd.vertex_carrier,
                    task: &task,
                };
                let stats = gact_parallel::with_threads(1, || solve(&problem, None).stats());
                measure(id, 10, || {
                    assert!(!matches!(solve(&problem, None), SolveOutcome::Map(..)))
                })
                .with_solver(stats)
            },
        ));
    }
    // The incremental rounds engine on a multi-depth refutation: L_1 is
    // not wait-free solvable at any depth (Δ(corner) = ∅ empties a
    // domain), so `act_solve(…, 2)` walks one `chr_step` chain across
    // depths 0..=2 with one shared `CompiledTask`, each depth refuted by
    // propagation without search.
    w.push(Workload::new("act_solver/rounds_unsat_sweep", |id| {
        let at = lt_task(2, 1);
        assert!(matches!(act_solve(&at.task, 2), ActVerdict::NoMapUpTo(2)));
        measure(id, 10, || assert!(!act_solve(&at.task, 2).is_solvable()))
    }));
    // Negative by obstruction: the depth-independent certificate.
    w.push(Workload::new("act_solver/consensus_obstruction_n2", |id| {
        let task = consensus_task(2, &[0, 1]);
        measure(
            id,
            10,
            || assert!(connectivity_obstruction(&task).is_some()),
        )
    }));

    // E1–E3: run-space machinery. `minimal`/`fast` over enumerated runs.
    for n in 2..=4usize {
        w.push(Workload::new(
            format!("runs/fast_enumerated/{n}"),
            move |id| {
                let runs = enumerate_runs(n, 0);
                measure(id, 20, || {
                    runs.iter().map(|r| r.fast().len()).sum::<usize>()
                })
            },
        ));
    }
    // The affine projection on sampled runs.
    w.push(Workload::new("runs/affine_projection_sampled", |id| {
        let mut sampler = RunSampler::new(4, 17, SamplerConfig::default());
        let runs: Vec<Run> = (0..50).map(|_| sampler.sample()).collect();
        measure(id, 20, || {
            runs.iter().map(|r| affine_projection(r)[0]).sum::<f64>()
        })
    }));
    // The run metric over a sample (the quantity behind Lemma 5.1).
    w.push(Workload::new("runs/pairwise_distances_100", |id| {
        let mut sampler = RunSampler::new(3, 5, SamplerConfig::default());
        let runs: Vec<Run> = (0..100).map(|_| sampler.sample()).collect();
        measure(id, 20, || {
            let mut acc = 0.0f64;
            for i in 0..runs.len() {
                for j in i + 1..runs.len() {
                    acc += runs[i].distance(&runs[j]);
                }
            }
            acc
        })
    }));

    // Scenario-matrix throughput: the `rounds-sweep` family with the
    // shared cross-query cache versus cold per-cell caches.
    w.push(Workload::new("scenario_matrix/rounds_sweep_cached", |id| {
        let cells = cells_for("rounds-sweep").expect("registered family");
        measure(id, 10, || rounds_sweep_cached(&cells))
    }));
    w.push(Workload::new("scenario_matrix/rounds_sweep_cold", |id| {
        let cells = cells_for("rounds-sweep").expect("registered family");
        measure(id, 10, || run_matrix_cold(&cells))
    }));
    // The facade overhead gate: the same cached rounds sweep routed
    // through a fresh Engine session per iteration (request validation +
    // thread scoping + stats accounting on top of the identical driver,
    // cache and solver work) must stay within 5% of the direct path, plus
    // a 2ms absolute guard against timer noise on a sub-50ms workload.
    // Direct and routed runs alternate, each side going first in turn, and
    // the gate reads the median over pairs of `routed − (1.05·direct + 2ms)`,
    // so a machine-speed shift between samples hits both sides of a pair.
    // 31 pairs, not 10: with 10, the median still failed on noise in full
    // `experiments --json` runs beside a busy process on 2 cores.
    w.push(Workload::new("scenario_matrix/engine_overhead", |id| {
        const PAIRS: usize = 31;
        let cells = cells_for("rounds-sweep").expect("registered family");
        let request = MatrixRequest::family("rounds-sweep").expect("registered family");
        let direct = || {
            let start = Instant::now();
            black_box(rounds_sweep_cached(&cells));
            start.elapsed().as_nanos() as f64
        };
        let routed = || {
            let start = Instant::now();
            black_box(
                Engine::new()
                    .matrix(&request)
                    .expect("ungoverned sweep completes"),
            );
            start.elapsed().as_nanos() as f64
        };
        direct();
        routed();
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(PAIRS);
        for i in 0..PAIRS {
            pairs.push(if i % 2 == 0 {
                let d = direct();
                (d, routed())
            } else {
                let r = routed();
                (direct(), r)
            });
        }
        let median = |mut xs: Vec<f64>| {
            xs.sort_by(|a, b| a.total_cmp(b));
            xs[xs.len() / 2]
        };
        let excess_ns = median(pairs.iter().map(|&(d, r)| r - (1.05 * d + 2e6)).collect());
        let overhead = median(pairs.iter().map(|&(d, r)| (r - d) / d).collect());
        assert!(
            excess_ns <= 0.0,
            "engine facade overhead too high: median paired excess {:+.2}ms over 5% + 2ms",
            excess_ns / 1e6
        );
        println!(
            "  engine facade overhead: {:+.1}% over direct run_matrix_controlled, median of {PAIRS} pairs (gate: ≤5% + 2ms)",
            100.0 * overhead
        );
        BenchRecord::from_samples(id, pairs.iter().map(|&(_, r)| r).collect())
    }));

    // E8 / F3–F5: the Proposition 9.2 pipeline — building the `L_t`
    // certificate, then running its extracted protocol over `t`-resilient
    // runs.
    w.push(Workload::new("lt_pipeline/build_showcase_2_stages", |id| {
        let build = || build_lt_showcase(2, 1, 2).expect("witness");
        let stats = gact_parallel::with_threads(1, || build().stats);
        measure(id, 3, build).with_solver(stats)
    }));
    w.push(Workload::new("lt_pipeline/verify_20_runs", |id| {
        let show = build_lt_showcase(2, 1, 2).expect("witness");
        let mut sampler = RunSampler::new(
            3,
            11,
            SamplerConfig {
                max_prefix: 1,
                max_cycle: 2,
            },
        );
        let fast: ProcessSet = [ProcessId(0), ProcessId(1)].into_iter().collect();
        let runs: Vec<Run> = (0..20)
            .map(|_| sampler.sample_with_fast(fast, ProcessSet::empty()))
            .collect();
        measure(id, 5, || {
            let reports = verify_protocol_on_runs(&show.certificate, &show.affine.task, &runs, 12);
            assert!(reports.iter().all(|r| r.violations.is_empty()));
        })
    }));

    w
}
