//! Layer-by-layer replays of the three workloads' operations.
//!
//! Each replay walks the same public calls, in the same order, that the
//! `Engine` makes through `act_engine`, `build_lt_showcase` and
//! `evaluate_cell_controlled`, wrapping each layer call in a span of the
//! [`Recorder`]. The replays return the same verdicts as the engine (the
//! traced run asserts this), so their span times attribute the engine's
//! cost to layers.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use gact::cache::QueryCache;
use gact::lt::{on_forbidden_skeleton, output_region_locator, radial_projection_with, LtShowcase};
use gact::solver::PROPAGATION_MIN_CONSTRAINTS;
use gact::{
    connectivity_obstruction, prepare_domain, prepare_plan, solve_compiled_with,
    verify_protocol_on_runs, DomainTables, GactCertificate, SolveOutcome, SolveStats,
};
use gact_chromatic::{
    standard_simplex, CacheStats, ChromaticSubdivision, ComplexKey, SimplicialMap,
    TerminatingSubdivision,
};
use gact_iis::{execute, InputAssignment, ProcessId};
use gact_models::{enumerate_runs, ModelSpec};
use gact_scenarios::{Cell, SolvableBy, TaskSpec, Verdict};
use gact_tasks::affine::{full_subdivision_task_in, lt_task, lt_task_in, total_order_task_in};
use gact_tasks::classic::{consensus_task, set_agreement_task};
use gact_tasks::commit_adopt::{check_commit_adopt, CaOutput, CommitAdopt};
use gact_tasks::{CompiledTask, Task};
use gact_topology::{l1_distance, Simplex, VertexId};

use crate::trace::Recorder;

/// Extra stabilization stages of a sweep certificate (as the matrix).
pub const CERT_EXTRA_STAGES: usize = 3;
/// Verification rounds per run of a sweep certificate (as the matrix).
pub const CERT_VERIFY_ROUNDS: usize = 14;
/// Runs per verification batch of a sweep certificate (as the matrix).
const CERT_VERIFY_CHUNK: usize = 8;
/// Commit–adopt proposals per process id (as the matrix).
const CA_PROPOSALS: [u32; 8] = [4, 9, 4, 7, 2, 9, 1, 4];

/// The outcome of a replayed ACT query.
#[derive(Debug)]
pub enum ActResult {
    /// A map was found at `depth`.
    Solvable {
        /// First depth with a map.
        depth: usize,
        /// The map.
        map: SimplicialMap,
    },
    /// A connectivity obstruction, displayed.
    Unsolvable(String),
    /// No map up to the bound.
    NoMapUpTo(usize),
}

impl ActResult {
    /// The engine's verdict kind for this outcome.
    pub fn kind(&self) -> &'static str {
        match self {
            ActResult::Solvable { .. } => "solvable",
            ActResult::Unsolvable(_) => "unsolvable",
            ActResult::NoMapUpTo(_) => "unknown",
        }
    }
}

/// The outcome of a replayed verify request.
#[derive(Debug)]
pub struct VerifyResult {
    /// Stabilization-band sizes of the witness.
    pub bands: Vec<usize>,
    /// Runs verified.
    pub runs: usize,
    /// Property violations over them.
    pub violations: usize,
}

/// A replay session: one cache and one witness memo, like one `Engine`.
pub struct Replay<'r> {
    rec: &'r Recorder,
    cache: QueryCache,
    showcases: RefCell<HashMap<(usize, usize, usize), Arc<LtShowcase>>>,
}

fn delta(after: CacheStats, before: CacheStats) -> (f64, f64) {
    (
        (after.hits - before.hits) as f64,
        (after.misses - before.misses) as f64,
    )
}

impl<'r> Replay<'r> {
    /// A fresh session recording into `rec`.
    pub fn new(rec: &'r Recorder) -> Self {
        Replay {
            rec,
            cache: QueryCache::new(),
            showcases: RefCell::new(HashMap::new()),
        }
    }

    /// A subdivision fetch from the cache, with its hit and miss counts.
    fn subdivision(
        &self,
        fetch: impl FnOnce(&QueryCache) -> Arc<ChromaticSubdivision>,
    ) -> Arc<ChromaticSubdivision> {
        let before = self.cache.subdivisions().stats();
        let sd = self
            .rec
            .span("chromatic.subdivision", || fetch(&self.cache));
        let (hits, misses) = delta(self.cache.subdivisions().stats(), before);
        self.rec.count("chromatic.subdivision_hits", hits);
        self.rec.count("chromatic.subdivision_misses", misses);
        sd
    }

    /// `TaskSpec::build_task`, split into the ambient subdivision fetch and
    /// the task constructor. `None` for commit–adopt.
    pub fn build_task(&self, spec: TaskSpec) -> Option<Task> {
        let values = |n_values: usize| (0..n_values as u32).collect::<Vec<u32>>();
        let ambient = |n: usize, depth: usize| {
            self.subdivision(|c| {
                let (s, g) = standard_simplex(n);
                c.subdivision(&s, &g, depth)
            })
        };
        let task = match spec {
            TaskSpec::Consensus { n, n_values } => self
                .rec
                .span("tasks.build", || consensus_task(n, &values(n_values))),
            TaskSpec::SetAgreement { n, n_values, k } => self.rec.span("tasks.build", || {
                set_agreement_task(n, &values(n_values), k)
            }),
            TaskSpec::FullSubdivision { n, depth } => {
                let amb = ambient(n, depth);
                self.rec.span("tasks.build", || {
                    full_subdivision_task_in(n, depth, amb).task
                })
            }
            TaskSpec::TotalOrder { n } => {
                let amb = ambient(n, 2);
                self.rec
                    .span("tasks.build", || total_order_task_in(n, amb).task)
            }
            TaskSpec::Lt { n, t } => {
                let amb = ambient(n, 2);
                self.rec.span("tasks.build", || lt_task_in(n, t, amb).task)
            }
            TaskSpec::CommitAdopt { .. } => return None,
        };
        self.rec.count("tasks.builds", 1.0);
        Some(task)
    }

    /// Solver effort and the bypass decision of one solve call.
    fn count_solve(&self, tables: &DomainTables, stats: SolveStats) {
        self.rec.count("solver.solves", 1.0);
        if tables.constraint_count() < PROPAGATION_MIN_CONSTRAINTS {
            self.rec.count("solver.bypassed", 1.0);
        }
        self.rec
            .count("solver.assignments", stats.assignments as f64);
        self.rec.count("solver.backtracks", stats.backtracks as f64);
        self.rec.count("solver.prunes", stats.prunes as f64);
        self.rec
            .count("solver.component_prunes", stats.component_prunes as f64);
    }

    /// `act_solve_with_cache`: obstruction check, then for each depth the
    /// cached `Chr^depth`, its domain tables, and a solve whose plan comes
    /// lazily from the cache.
    pub fn act(&self, task: &Task, max_depth: usize) -> ActResult {
        if let Some(o) = self
            .rec
            .span("act.obstruction", || connectivity_obstruction(task))
        {
            return ActResult::Unsolvable(o.to_string());
        }
        let compiled = self.rec.span("tasks.compile", || CompiledTask::new(task));
        let key: ComplexKey = self.rec.span("chromatic.subdivision", || {
            self.cache.key_of(&task.input, &task.input_geometry)
        });
        for depth in 0..=max_depth {
            self.rec.count("act.depths_searched", 1.0);
            let sd = self.subdivision(|c| {
                c.subdivision_keyed(key, &task.input, &task.input_geometry, depth)
            });
            let before = self.cache.table_stats();
            let tables = self.rec.span("solver.domains", || {
                self.cache.domain_tables(key, depth, &sd)
            });
            let (hits, misses) = delta(self.cache.table_stats(), before);
            self.rec.count("solver.domains_hits", hits);
            self.rec.count("solver.domains_misses", misses);
            let source = || {
                let before = self.cache.plan_stats();
                let plan = self.rec.span("solver.plan", || {
                    self.cache.propagation_plan(key, depth, &tables, &sd)
                });
                let (hits, misses) = delta(self.cache.plan_stats(), before);
                self.rec.count("solver.plan_hits", hits);
                self.rec.count("solver.plan_misses", misses);
                plan
            };
            let outcome = self.rec.span("solver.solve", || {
                solve_compiled_with(&tables, &sd.complex, &compiled, None, Some(&source))
            });
            self.count_solve(&tables, outcome.stats());
            if let SolveOutcome::Map(map, _) = outcome {
                return ActResult::Solvable { depth, map };
            }
        }
        ActResult::NoMapUpTo(max_depth)
    }

    /// `QueryCache::lt_showcase`: the memoized Proposition 9.2 witness.
    pub fn showcase(&self, n: usize, t: usize, extra_stages: usize) -> Arc<LtShowcase> {
        let key = (n, t, extra_stages);
        if let Some(hit) = self.showcases.borrow().get(&key) {
            self.rec.count("cache.showcase_hits", 1.0);
            return hit.clone();
        }
        self.rec.count("cache.showcase_misses", 1.0);
        let show = Arc::new(
            self.rec
                .span("lt.showcase", || self.build_showcase(n, t, extra_stages)),
        );
        self.showcases.borrow_mut().insert(key, show.clone());
        show
    }

    /// `build_lt_showcase`, call by call.
    fn build_showcase(&self, n: usize, t: usize, extra_stages: usize) -> LtShowcase {
        let affine = self.rec.span("tasks.build", || lt_task(n, t));
        self.rec.count("tasks.builds", 1.0);
        let task = &affine.task;
        let mut sub = self.rec.span("chromatic.terminating", || {
            let mut sub = TerminatingSubdivision::new(&task.input, &task.input_geometry);
            sub.advance_by(2);
            sub
        });
        let mut band_sizes = Vec::new();
        for _ in 0..=extra_stages {
            let geometry = sub.geometry();
            let candidates: Vec<&Simplex> = sub.current().complex().iter_dim(n).collect();
            let keep = gact_parallel::par_map(&candidates, |f| {
                f.iter()
                    .all(|v| !on_forbidden_skeleton(geometry.coord(v), n, t))
            });
            let facets: Vec<Simplex> = candidates
                .iter()
                .zip(&keep)
                .filter(|&(_, &keep)| keep)
                .map(|(&f, _)| f.clone())
                .collect();
            let newly = self.rec.span("chromatic.terminating", || {
                let newly = sub.stabilize(facets);
                sub.advance();
                newly
            });
            band_sizes.push(newly);
        }
        let stable = self
            .rec
            .span("chromatic.terminating", || sub.stable_chromatic());
        let geometry = sub.geometry().clone();
        let out_geometry = affine.ambient.geometry.clone();
        let vertex_carrier: HashMap<VertexId, Simplex> = sub
            .current()
            .complex()
            .vertex_set()
            .into_iter()
            .map(|v| (v, sub.carrier(v).clone()))
            .collect();
        let region = output_region_locator(&affine);
        let hint = move |v: VertexId, cands: &[VertexId]| -> Vec<VertexId> {
            let target = radial_projection_with(geometry.coord(v), &region, n, t);
            let mut ordered = cands.to_vec();
            ordered.sort_by(|&a, &b| {
                l1_distance(out_geometry.coord(a), &target)
                    .total_cmp(&l1_distance(out_geometry.coord(b), &target))
            });
            ordered
        };
        let tables = self.rec.span("solver.domains", || {
            prepare_domain(&stable, &vertex_carrier)
        });
        self.rec.count("solver.domains_misses", 1.0);
        let compiled = self.rec.span("tasks.compile", || CompiledTask::new(task));
        let source = || {
            self.rec.count("solver.plan_misses", 1.0);
            self.rec
                .span("solver.plan", || Arc::new(prepare_plan(&tables, &stable)))
        };
        let outcome = self.rec.span("solver.solve", || {
            solve_compiled_with(&tables, &stable, &compiled, Some(&hint), Some(&source))
        });
        self.count_solve(&tables, outcome.stats());
        let SolveOutcome::Map(map, stats) = outcome else {
            panic!("no chromatic approximation δ : K(T) → L_t found");
        };
        let certificate = self.rec.span("gact.carrier_check", || {
            let certificate = GactCertificate::new(sub, map);
            certificate
                .check_carrier_condition(task)
                .expect("the Proposition 9.2 witness meets the carrier condition");
            certificate
        });
        LtShowcase {
            affine,
            certificate,
            band_sizes,
            stats,
        }
    }

    /// The enumerated runs of `model` over `n_procs` processes.
    fn model_runs(&self, model: &ModelSpec, n_procs: usize) -> Vec<gact_iis::Run> {
        let runs = self.rec.span("models.runs", || {
            model
                .build(n_procs)
                .filter_batch(enumerate_runs(n_procs, 0))
        });
        self.rec.count("models.runs", runs.len() as f64);
        runs
    }

    /// Verifies the witness's protocol on `runs`; returns the reports'
    /// violation counts, one per run.
    fn verify_runs(&self, show: &LtShowcase, runs: &[gact_iis::Run], rounds: usize) -> Vec<usize> {
        let reports = self.rec.span("protocol.verify", || {
            verify_protocol_on_runs(&show.certificate, &show.affine.task, runs, rounds)
        });
        self.rec
            .count("protocol.runs_verified", reports.len() as f64);
        self.rec.count(
            "protocol.rounds_executed",
            reports.iter().map(|r| r.rounds as f64).sum(),
        );
        reports.iter().map(|r| r.violations.len()).collect()
    }

    /// `Engine::verify` for enumerated runs of `model`.
    pub fn verify(
        &self,
        n: usize,
        t: usize,
        extra_stages: usize,
        model: ModelSpec,
        rounds: usize,
    ) -> VerifyResult {
        let show = self.showcase(n, t, extra_stages);
        let runs = self.model_runs(&model, n + 1);
        let violations = self.verify_runs(&show, &runs, rounds).into_iter().sum();
        VerifyResult {
            bands: show.band_sizes.clone(),
            runs: runs.len(),
            violations,
        }
    }

    /// `evaluate_cell_controlled` under an inert control.
    pub fn cell(&self, cell: &Cell) -> Verdict {
        self.rec.span("scenarios.cell", || {
            let Some(task) = self.build_task(cell.task) else {
                let TaskSpec::CommitAdopt { n } = cell.task else {
                    unreachable!("only commit–adopt has no task");
                };
                return self.commit_adopt(n, &cell.model);
            };
            let other = match self.act(&task, cell.max_depth) {
                ActResult::Solvable { depth, .. } => {
                    return Verdict::Solvable(SolvableBy::WaitFreeMap { depth })
                }
                ActResult::Unsolvable(obstruction) if cell.model.is_full() => {
                    return Verdict::Unsolvable { obstruction }
                }
                other => other,
            };
            if let (Some(model_t), TaskSpec::Lt { n, t }) = (cell.model.resilience(), cell.task) {
                if model_t == t && t >= 1 && t <= n {
                    return self.lt_certificate(n, t, &cell.model);
                }
            }
            let detail = match other {
                ActResult::Unsolvable(o) => {
                    format!("wait-free obstruction ({o}); no decision procedure for this model")
                }
                _ => format!(
                    "no wait-free map up to depth {}; no certificate constructor for this model",
                    cell.max_depth
                ),
            };
            Verdict::Unknown { detail }
        })
    }

    /// The matrix's certificate path for an `L_t × Res_t` cell.
    fn lt_certificate(&self, n: usize, t: usize, model: &ModelSpec) -> Verdict {
        let show = self.showcase(n, t, CERT_EXTRA_STAGES);
        let runs = self.model_runs(model, n + 1);
        let bad: usize = runs
            .chunks(CERT_VERIFY_CHUNK)
            .map(|chunk| {
                self.verify_runs(&show, chunk, CERT_VERIFY_ROUNDS)
                    .into_iter()
                    .filter(|&v| v > 0)
                    .count()
            })
            .sum();
        if bad == 0 {
            Verdict::Solvable(SolvableBy::ResilientCertificate {
                bands: show.band_sizes.len(),
                runs_verified: runs.len(),
            })
        } else {
            Verdict::Unknown {
                detail: format!(
                    "certificate built but {bad}/{} model runs violated it",
                    runs.len()
                ),
            }
        }
    }

    /// The matrix's commit–adopt conformance check.
    fn commit_adopt(&self, n: usize, model: &ModelSpec) -> Verdict {
        let n_procs = n + 1;
        let runs = self.model_runs(model, n_procs);
        let (checked, violations, rounds) = self.rec.span("protocol.verify", || {
            let (mut checked, mut violations, mut rounds) = (0usize, 0usize, 0usize);
            for run in &runs {
                let mut ia = InputAssignment::standard_corners(n);
                for p in run.part().iter() {
                    ia.values.insert(p, CA_PROPOSALS[p.0 as usize]);
                }
                let exec = execute(&CommitAdopt, &ia, run.rounds_prefix(2), 4);
                let proposals: HashMap<ProcessId, u32> = run
                    .round(0)
                    .participants()
                    .iter()
                    .map(|p| (p, CA_PROPOSALS[p.0 as usize]))
                    .collect();
                let outputs: HashMap<ProcessId, CaOutput> =
                    exec.outputs.iter().map(|(p, d)| (*p, d.value)).collect();
                checked += 1;
                rounds += exec.rounds_run;
                violations += check_commit_adopt(&proposals, &outputs).len();
            }
            (checked, violations, rounds)
        });
        self.rec.count("protocol.runs_verified", checked as f64);
        self.rec.count("protocol.rounds_executed", rounds as f64);
        Verdict::ProtocolVerified {
            runs: checked,
            violations,
        }
    }
}
