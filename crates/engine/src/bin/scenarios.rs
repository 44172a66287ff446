//! The `scenarios` binary: run named scenario families through the
//! [`Engine`] facade and print (or export) per-cell verdicts.
//!
//! ```console
//! $ scenarios --list                          # registered families
//! $ scenarios --family all                    # run everything, table to stdout
//! $ scenarios --family rounds-sweep --json sweep.json
//! $ scenarios --family all --filter consensus # substring filter on cell labels
//! $ scenarios --family all --cold             # uncached per-cell baseline
//! $ scenarios --family all --threads 4        # worker-pool size override
//! $ scenarios --family all --deadline-ms 50   # budget: cells past the
//!                                             # deadline come back interrupted
//! ```
//!
//! Both paths validate the same `MatrixRequest` (family, filter, budget)
//! and write the schema-2 JSON report documented in
//! `gact_scenarios::report` and `docs/benchmarks.md`. Engine-routed runs
//! attach the engine stats snapshot under `"engine"`; the `--cold`
//! reference run bypasses the engine, evaluates every cell against its
//! own fresh cache, and omits that key.

use std::time::Duration;

use gact_engine::{Budget, Engine, EngineError, MatrixRequest};
use gact_scenarios::{cells_for, families, run_matrix_cold, to_json_controlled};

fn usage() -> ! {
    eprintln!(
        "usage: scenarios [--list] [--family NAME] [--filter SUBSTR] [--json [PATH]] [--cold]\n\
         \x20                [--threads N] [--deadline-ms N] [--max-nodes N]\n\
         \n\
         --list           print registered families and exit\n\
         --family NAME    family to run (default: all)\n\
         --filter SUBSTR  keep only cells whose label contains SUBSTR\n\
         --json [PATH]    also write the schema-2 JSON report (default path:\n\
         \x20                scenarios_results.json; no \"engine\" key for --cold)\n\
         --cold           fresh cache per cell (the uncached baseline; bypasses\n\
         \x20                the engine)\n\
         --threads N      run the sweep on an N-worker pool (results are\n\
         \x20                identical for every N, only wall times change)\n\
         --deadline-ms N  wall-clock budget for the whole sweep; cells past it\n\
         \x20                report `interrupted` instead of running on\n\
         --max-nodes N    search-node budget for the whole sweep"
    );
    std::process::exit(2);
}

fn fail(e: EngineError) -> ! {
    eprintln!("scenarios: {e}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut family = "all".to_string();
    let mut filter: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut cold = false;
    let mut threads: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_nodes: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                threads = Some(
                    args.get(i)
                        .and_then(|a| a.parse::<usize>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--deadline-ms" => {
                i += 1;
                deadline_ms = Some(
                    args.get(i)
                        .and_then(|a| a.parse::<u64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--max-nodes" => {
                i += 1;
                max_nodes = Some(
                    args.get(i)
                        .and_then(|a| a.parse::<u64>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--list" => {
                println!("registered scenario families:");
                for f in families() {
                    println!(
                        "  {:<14} {:>3} cells  {}",
                        f.name,
                        f.cells().len(),
                        f.description
                    );
                }
                println!(
                    "  {:<14} {:>3} cells  every family above except `smoke`",
                    "all",
                    cells_for("all").map(|c| c.len()).unwrap_or(0)
                );
                return;
            }
            "--family" => {
                i += 1;
                family = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--filter" => {
                i += 1;
                filter = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--json" => {
                let next = args.get(i + 1).filter(|a| !a.starts_with('-'));
                json_path = Some(match next {
                    Some(p) => {
                        i += 1;
                        p.clone()
                    }
                    None => "scenarios_results.json".to_string(),
                });
            }
            "--cold" => cold = true,
            _ => usage(),
        }
        i += 1;
    }

    // --cold is the engine-free baseline: fresh cache per cell — exactly
    // what the cache/facade layers are compared against. Budgets are an
    // engine feature; silently dropping them would let a "bounded" run go
    // unbounded, so the combination is an error.
    if cold && (deadline_ms.is_some() || max_nodes.is_some()) {
        eprintln!(
            "scenarios: --cold bypasses the engine and supports no budget; \
             drop --deadline-ms/--max-nodes or drop --cold"
        );
        std::process::exit(2);
    }

    // One request and one thread count for both paths: the family, the
    // filter, the budget and the worker count are validated before
    // anything runs.
    let mut request = MatrixRequest::family(&family).unwrap_or_else(|e| fail(e));
    if let Some(f) = &filter {
        request = request.filtered(f).unwrap_or_else(|e| fail(e));
    }
    let mut budget = Budget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_timeout(Duration::from_millis(ms));
    }
    if let Some(n) = max_nodes {
        budget = budget.with_max_nodes(n);
    }
    request = request.with_budget(budget).unwrap_or_else(|e| fail(e));
    let mut builder = Engine::builder();
    if let Some(n) = threads {
        builder = builder.threads(n).unwrap_or_else(|e| fail(e));
    }

    println!(
        "scenario matrix `{family}`: {} cells ({}{}{})",
        request.cells().len(),
        if cold {
            "cold per-cell"
        } else {
            "engine, shared cache"
        },
        threads
            .map(|n| format!(", {n} threads"))
            .unwrap_or_default(),
        deadline_ms
            .map(|ms| format!(", {ms}ms deadline"))
            .unwrap_or_default()
    );
    // The engine path: one session object owns every cache. The cold path
    // runs the per-cell reference on the same pool size.
    let (report, stats) = if cold {
        let sweep = || run_matrix_cold(request.cells());
        let report = match threads {
            Some(n) => gact_parallel::with_threads(n, sweep),
            None => sweep(),
        };
        (report, None)
    } else {
        let engine = builder.build();
        let reply = engine.matrix(&request).unwrap_or_else(|e| fail(e));
        (reply.report, Some(engine.stats()))
    };

    println!(
        "  {:<14} {:<34} {:<12} {:<18} detail",
        "family", "task × model", "verdict", "wall"
    );
    for r in &report.results {
        println!(
            "  {:<14} {:<34} {:<12} {:<18} {}",
            r.cell.family,
            r.cell.label(),
            r.outcome.kind(),
            format!("{:?}", r.wall),
            r.outcome.detail()
        );
    }
    println!(
        "\n{} cells in {:?}: {} solvable, {} unsolvable, {} protocol-verified, {} unknown{}",
        report.results.len(),
        report.total_wall,
        report.count_kind("solvable"),
        report.count_kind("unsolvable"),
        report.count_kind("protocol-verified"),
        report.count_kind("unknown"),
        if report.interrupted > 0 {
            format!(", {} interrupted", report.interrupted)
        } else {
            String::new()
        },
    );
    if let Some(stats) = &stats {
        let sub = stats.subdivision_cache;
        let tab = stats.domain_table_cache;
        let plan = stats.propagation_plan_cache;
        println!(
            "cache: subdivisions {}/{} hits ({:.0}%), domain tables {}/{} hits ({:.0}%), \
             propagation plans {}/{} hits ({:.0}%)",
            sub.hits,
            sub.hits + sub.misses,
            100.0 * sub.hit_rate(),
            tab.hits,
            tab.hits + tab.misses,
            100.0 * tab.hit_rate(),
            plan.hits,
            plan.hits + plan.misses,
            100.0 * plan.hit_rate(),
        );
        println!(
            "engine: {} queries, {} cells, {} interrupted, solver {{assignments: {}, backtracks: {}, \
             prunes: {}}}",
            stats.queries(),
            stats.cells,
            stats.interrupted,
            stats.solver.assignments,
            stats.solver.backtracks,
            stats.solver.prunes,
        );
        let evictions = sub.evictions + tab.evictions + plan.evictions;
        if evictions > 0 {
            println!("cache evictions under the capacity bound: {evictions}");
        }
    }

    if let Some(path) = json_path {
        let engine_json = stats.map(|s| s.to_json_object());
        let json = to_json_controlled(&family, &report, engine_json.as_deref());
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| fail(EngineError::Internal(format!("cannot write {path}: {e}"))));
        println!("wrote {} cells to {path}", report.results.len());
    }
}
