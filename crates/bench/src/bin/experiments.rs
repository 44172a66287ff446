//! The experiment harness: regenerates, in one run, every figure-level and
//! theorem-level artifact of the paper (rows F1–F5, E1–E6, E8, E10 and
//! E11). Prints paper-vs-measured rows.
//!
//! Run with: `cargo run --release -p gact-bench --bin experiments`
//!
//! With `-- --json [path] [--force]` it instead times every workload of
//! the bench registry (`gact_bench::registry`) and writes a
//! machine-readable JSON document — `BENCH_results.json` by default — so
//! successive PRs have a performance trajectory to compare against.

use std::collections::HashMap;
use std::time::Instant;

use gact::{
    act_solve, build_lt_showcase, certificate_from_act_map, connectivity_obstruction,
    verify_protocol_on_runs, ActVerdict,
};
use gact_chromatic::{
    chr_iter, fubini, is_link_connected, standard_simplex, TerminatingSubdivision,
};
use gact_iis::view::{chr_chain, run_subdivision_vertices, run_views, ViewArena};
use gact_iis::{ProcessId, ProcessSet, Round, Run};
use gact_models::{
    affine_projection, canonical_coloring_at_depth, enumerate_runs, RunSampler, SamplerConfig,
    SubIisModel, TResilient, WaitFree,
};
use gact_tasks::affine::{full_subdivision_task, lt_task, total_order_task};
use gact_tasks::classic::consensus_task;
use gact_tasks::commit_adopt::{check_commit_adopt, CaOutput, CommitAdopt};
use gact_topology::{Simplex, VertexId};

fn header(id: &str, what: &str) {
    println!("\n=== {id}: {what} ===");
}

fn row(name: &str, paper: &str, measured: &str) {
    println!("  {name:<46} paper: {paper:<22} measured: {measured}");
}

/// Times the whole bench registry and writes the machine-readable
/// `BENCH_results.json` for cross-PR perf tracking.
///
/// Refuses to overwrite an existing results file with *fewer* bench ids
/// than it already records (a partial or truncated run silently replacing
/// the committed trajectory would corrupt every cross-PR comparison);
/// `--force` overrides.
fn run_json_benches(path: &str, force: bool) {
    use gact_bench::{count_bench_ids, registry, to_json, BenchRecord};

    let records: Vec<BenchRecord> = registry().iter().map(|w| w.run()).collect();
    if !force {
        if let Ok(existing) = std::fs::read_to_string(path) {
            let existing_ids = count_bench_ids(&existing);
            if records.len() < existing_ids {
                eprintln!(
                    "refusing to overwrite {path}: it records {existing_ids} bench ids but \
                     this run produced only {} — a partial run must not corrupt the \
                     cross-PR performance trajectory (pass --force to override)",
                    records.len()
                );
                std::process::exit(1);
            }
        }
    }
    let json = to_json(&records);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nwrote {} benches to {path}", records.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(i + 1)
            .filter(|a| !a.starts_with('-'))
            .map(String::as_str)
            .unwrap_or("BENCH_results.json");
        let force = args.iter().any(|a| a == "--force");
        run_json_benches(path, force);
        return;
    }
    let t0 = Instant::now();
    println!("GACT reproduction — experiment harness");

    // ---------------- F1 ------------------------------------------------
    header("F1", "the six σ_α simplices of L_ord in Chr² s (§4.2)");
    let lord = total_order_task(2);
    row(
        "count of σ_α facets",
        "(n+1)! = 6",
        &format!("{}", lord.selected.count_of_dim(2)),
    );
    let mut perms = std::collections::BTreeSet::new();
    for facet in lord.selected.iter_dim(2) {
        let mut by_card: Vec<(usize, u8)> = facet
            .iter()
            .map(|v| {
                (
                    lord.ambient.vertex_carrier[&v].card(),
                    lord.ambient.complex.color(v).0,
                )
            })
            .collect();
        by_card.sort();
        perms.insert(by_card.iter().map(|x| x.1).collect::<Vec<_>>());
    }
    row(
        "distinct permutations encoded",
        "6",
        &format!("{}", perms.len()),
    );
    row(
        "L_ord link-connected?",
        "no (§8.2)",
        &format!("{}", is_link_connected(&lord.selected, 2)),
    );

    // ---------------- F2 ------------------------------------------------
    header(
        "F2",
        "partial subdivision with a terminated edge (§6.1 figure)",
    );
    let (s2, g2) = standard_simplex(2);
    let mut term = TerminatingSubdivision::new(&s2, &g2);
    term.stabilize([Simplex::from_iter([0u32, 1])]);
    term.advance();
    row(
        "vertices (figure)",
        "10 (3+4+3)",
        &format!("{}", term.current().complex().count_of_dim(0)),
    );
    row(
        "triangles (13 minus 2 merged)",
        "11",
        &format!("{}", term.current().complex().count_of_dim(2)),
    );
    row(
        "stable edge survives un-subdivided",
        "yes",
        &format!(
            "{}",
            term.current()
                .complex()
                .contains(&Simplex::from_iter([0u32, 1]))
        ),
    );

    // ---------------- F3 ------------------------------------------------
    header("F3", "the complex L_1 ⊆ Chr² s (§9.2 figure)");
    let l1 = lt_task(2, 1);
    row(
        "facets of L_1",
        "Chr² minus corner stars",
        &format!(
            "{} of {}",
            l1.selected.count_of_dim(2),
            l1.ambient.complex.complex().count_of_dim(2)
        ),
    );
    let full = Simplex::from_iter([0u32, 1, 2]);
    row(
        "Δ(s) link-connected (Prop 9.1 hypothesis)",
        "yes",
        &format!("{}", is_link_connected(&l1.task.allowed(&full), 2)),
    );
    let edge = Simplex::from_iter([0u32, 1]);
    row(
        "Δ(edge) pure 1-dim and link-connected",
        "yes",
        &format!(
            "{} / {}",
            l1.task.allowed(&edge).is_pure_of_dim(1),
            is_link_connected(&l1.task.allowed(&edge), 1)
        ),
    );
    row(
        "Δ(corner)",
        "empty",
        &format!(
            "{}",
            l1.task.allowed(&Simplex::from_iter([0u32])).is_empty()
        ),
    );

    // ---------------- F4 + F5 + E8 --------------------------------------
    header(
        "F4/F5/E8",
        "Proposition 9.2: regions, projection, certificate, protocol",
    );
    let t_build = Instant::now();
    let show = build_lt_showcase(2, 1, 3).expect("Proposition 9.2 witness");
    row(
        "bands R_0.. sizes (newly stable simplices)",
        "growing bands",
        &format!("{:?}", show.band_sizes),
    );
    row(
        "chromatic approximation δ",
        "exists (Thm 8.4)",
        &format!(
            "found; {} assignments, {} backtracks, {:?}",
            show.stats.assignments,
            show.stats.backtracks,
            t_build.elapsed()
        ),
    );
    show.certificate
        .check_carrier_condition(&show.affine.task)
        .expect("condition (b)");
    row("carrier condition δ(τ) ∈ Δ(carrier τ)", "holds", "holds");

    let res1 = TResilient { n_procs: 3, t: 1 };
    let enumerated: Vec<Run> = res1.filter_batch(enumerate_runs(3, 0));
    let reports = verify_protocol_on_runs(&show.certificate, &show.affine.task, &enumerated, 14);
    let clean = reports.iter().filter(|r| r.violations.is_empty()).count();
    row(
        "enumerated Res_1 runs solved",
        "all",
        &format!("{clean}/{}", reports.len()),
    );
    let mut sampler = RunSampler::new(
        3,
        2024,
        SamplerConfig {
            max_prefix: 2,
            max_cycle: 2,
        },
    );
    let mut sampled = Vec::new();
    for fast in [[0u8, 1], [0, 2], [1, 2]] {
        let fast: ProcessSet = fast.into_iter().map(ProcessId).collect();
        for _ in 0..15 {
            sampled.push(sampler.sample_with_fast(fast, ProcessSet::empty()));
        }
    }
    let reports = verify_protocol_on_runs(&show.certificate, &show.affine.task, &sampled, 20);
    let clean = reports.iter().filter(|r| r.violations.is_empty()).count();
    row(
        "sampled Res_1 runs solved",
        "all",
        &format!("{clean}/{}", reports.len()),
    );

    // ---------------- E4 ------------------------------------------------
    header("E4", "ACT verdicts (Corollary 7.1)");
    for (n, depth) in [(1usize, 1usize), (1, 2), (2, 1)] {
        let at = full_subdivision_task(n, depth);
        let verdict = match act_solve(&at.task, depth + 1) {
            ActVerdict::Solvable { depth: d, .. } => format!("solvable at k={d}"),
            v => format!("{v:?}"),
        };
        row(&at.task.name, &format!("solvable at k={depth}"), &verdict);
    }
    for n in 1..=2usize {
        let task = consensus_task(n, &[0, 1]);
        let verdict = match act_solve(&task, 2) {
            ActVerdict::ImpossibleByObstruction(o) => format!("obstructed ({o})"),
            v => format!("{v:?}"),
        };
        row(&task.name, "impossible (FLP/HS)", &verdict);
    }
    let lord_verdict = match act_solve(&lord.task, 1) {
        ActVerdict::ImpossibleByObstruction(_) => "obstructed".to_string(),
        v => format!("{v:?}"),
    };
    row("L_ord(n=2)", "impossible wait-free", &lord_verdict);
    row(
        "L_1(n=2) wait-free",
        "impossible (Δ(corner)=∅)",
        &format!("{:?}", act_solve(&l1.task, 1)),
    );
    assert!(connectivity_obstruction(&l1.task).is_none());

    // ---------------- E5 ------------------------------------------------
    header("E5", "commit–adopt and the OF vs OF_fast subtlety (§4.5)");
    let full_set = ProcessSet::full(3);
    let mut ca_execs = 0usize;
    let mut ca_violations = 0usize;
    for r1 in Round::enumerate(full_set) {
        for s2 in r1.participants().nonempty_subsets() {
            for r2 in Round::enumerate(s2) {
                let mut ia = gact_iis::InputAssignment::standard_corners(2);
                for (i, v) in [4u32, 9, 4].iter().enumerate() {
                    ia.values.insert(ProcessId(i as u8), *v);
                }
                let exec = gact_iis::execute(&CommitAdopt, &ia, [r1.clone(), r2], 4);
                let proposals: HashMap<ProcessId, u32> = r1
                    .participants()
                    .iter()
                    .map(|p| (p, [4u32, 9, 4][p.0 as usize]))
                    .collect();
                let outputs: HashMap<ProcessId, CaOutput> =
                    exec.outputs.iter().map(|(p, d)| (*p, d.value)).collect();
                ca_execs += 1;
                ca_violations += check_commit_adopt(&proposals, &outputs).len();
            }
        }
    }
    row(
        "commit–adopt exhaustive 2-round schedules",
        "0 violations",
        &format!("{ca_violations} violations over {ca_execs} executions"),
    );

    // ---------------- E2/E3 ----------------------------------------------
    header("E2/E3", "π, χ∘π = fast, and minimal(r) (§2.1, §5)");
    let mut checked = 0usize;
    for r in enumerate_runs(3, 0) {
        let p = affine_projection(&r);
        assert_eq!(canonical_coloring_at_depth(&p, 2, 3), r.fast());
        assert!(r.minimal().is_extended_by(&r));
        checked += 1;
    }
    row(
        "χ(π(r)) = fast(r), minimal(r) ≤ r",
        "identities",
        &format!("verified on {checked} enumerated runs"),
    );

    // ---------------- E6 -------------------------------------------------
    header("E6", "Theorem 6.1 ⇐ on the wait-free control task");
    let at = full_subdivision_task(2, 1);
    if let ActVerdict::Solvable {
        depth,
        map,
        subdivision,
        ..
    } = act_solve(&at.task, 1)
    {
        let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
        let wf = WaitFree { n_procs: 3 };
        let runs: Vec<Run> = enumerate_runs(3, 0)
            .into_iter()
            .filter(|r| wf.contains(r))
            .collect();
        let reports = verify_protocol_on_runs(&cert, &at.task, &runs, 8);
        let clean = reports.iter().filter(|r| r.violations.is_empty()).count();
        row(
            "extracted protocol over enumerated WF runs",
            "all conform",
            &format!("{clean}/{}", reports.len()),
        );
    }

    // ---------------- E10 ------------------------------------------------
    header("E10", "Chr^m growth (facet-count law)");
    for n in 1..=3usize {
        for m in 1..=2usize {
            let (s, g) = standard_simplex(n);
            let t = Instant::now();
            let sd = chr_iter(&s, &g, m);
            let facets = sd.complex.complex().count_of_dim(n) as u64;
            row(
                &format!("Chr^{m} of Δ^{n}"),
                &format!("{}^{m} = {}", fubini(n + 1), fubini(n + 1).pow(m as u32)),
                &format!("{facets} in {:?}", t.elapsed()),
            );
            assert_eq!(facets, fubini(n + 1).pow(m as u32));
        }
    }

    // ---------------- E1 -------------------------------------------------
    header("E1", "compactness of R (Lemma 5.1, diagonal argument)");
    let mut sampler = RunSampler::new(
        3,
        321,
        SamplerConfig {
            max_prefix: 3,
            max_cycle: 2,
        },
    );
    let seq: Vec<Run> = (0..300).map(|_| sampler.sample()).collect();
    let mut pool = seq;
    let mut limit_prefix: Vec<Round> = Vec::new();
    for k in 0..8usize {
        let mut classes: HashMap<Vec<Round>, Vec<Run>> = HashMap::new();
        for r in &pool {
            classes
                .entry(r.rounds_prefix(k + 1))
                .or_default()
                .push(r.clone());
        }
        let (prefix, biggest) = classes
            .into_iter()
            .max_by_key(|(_, v)| v.len())
            .expect("pool non-empty");
        pool = biggest;
        limit_prefix = prefix;
        if pool.len() == 1 {
            break;
        }
    }
    row(
        "diagonal subsequence stabilizes a prefix",
        "convergent subsequence exists",
        &format!("prefix of length {} pinned", limit_prefix.len()),
    );

    // ---------------- E11 ------------------------------------------------
    header(
        "E11",
        "scenario matrix: cross-query caching vs cold per-cell sweeps",
    );
    {
        use gact::cache::QueryCache;
        use gact::control::SolveControl;
        use gact_scenarios::{cells_for, run_matrix_cold, run_matrix_controlled};
        let cells = cells_for("rounds-sweep").expect("registered family");
        let cached = || run_matrix_controlled(&cells, &QueryCache::new(), &SolveControl::new());
        // Warm the code paths once, then take the best of three sweeps
        // each way (the matrix is milliseconds; medians over tiny counts
        // are noisy).
        let _ = cached();
        let timed = |f: &dyn Fn() -> gact_scenarios::ControlledMatrixReport| {
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let report = f();
                    (t.elapsed(), report)
                })
                .min_by_key(|(wall, _)| *wall)
                .expect("three samples")
        };
        let (cached_wall, cached_report) = timed(&cached);
        let (cold_wall, cold_report) = timed(&|| run_matrix_cold(&cells));
        for (a, b) in cached_report.results.iter().zip(&cold_report.results) {
            assert_eq!(a.outcome, b.outcome, "cache must not change verdicts");
        }
        let speedup = cold_wall.as_secs_f64() / cached_wall.as_secs_f64();
        row(
            "rounds-sweep m ∈ {1,2,3} (15 cells), cached",
            "shares Chr^m across cells",
            &format!(
                "{cached_wall:?} ({:.0} cells/sec)",
                cells.len() as f64 / cached_wall.as_secs_f64()
            ),
        );
        row(
            "same cells, cold per-cell caches",
            "rebuilds Chr^m per cell",
            &format!(
                "{cold_wall:?} ({:.0} cells/sec)",
                cells.len() as f64 / cold_wall.as_secs_f64()
            ),
        );
        let sub = cached_report.subdivision_stats;
        let tab = cached_report.table_stats;
        row(
            "cross-query cache speedup",
            "≥ 2×",
            &format!(
                "{speedup:.1}× (subdivision hits {}/{}, table hits {}/{})",
                sub.hits,
                sub.hits + sub.misses,
                tab.hits,
                tab.hits + tab.misses
            ),
        );
    }

    // ---------------- E5b: view bijection --------------------------------
    header(
        "E5b",
        "views ⇔ subdivision vertices (§4.3, proof of Thm 6.1)",
    );
    let (base1, geom1) = standard_simplex(1);
    let chain1 = chr_chain(&base1, &geom1, 2);
    let omega1: HashMap<ProcessId, VertexId> = (0..2u8)
        .map(|i| (ProcessId(i), VertexId(i as u32)))
        .collect();
    let inputs1: HashMap<ProcessId, u32> = (0..2u8).map(|i| (ProcessId(i), i as u32)).collect();
    let mut arena = ViewArena::new();
    let mut pairs = 0usize;
    let full2 = ProcessSet::full(2);
    for r1 in Round::enumerate(full2) {
        for r2 in Round::enumerate(full2) {
            let rounds = [r1.clone(), r2.clone()];
            let views = run_views(&rounds, &inputs1, &mut arena);
            let verts = run_subdivision_vertices(&rounds, &omega1, &chain1);
            for k in 0..=2 {
                for p in views[k].keys() {
                    let _ = verts[k][p];
                    pairs += 1;
                }
            }
        }
    }
    row(
        "view/vertex correspondences checked",
        "bijective per depth",
        &format!("{pairs} pairs located"),
    );

    println!("\nTotal time: {:?}", t0.elapsed());
}
