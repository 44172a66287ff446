//! The untraced workloads: one closed-loop client driving the public
//! `gact-engine` API, every reply checked against the checked-in verdicts.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gact_engine::{Engine, MatrixRequest, SolveRequest, SolveVerdict, VerifyRequest};
use gact_models::ModelSpec;
use gact_scenarios::ControlledMatrixReport;

use crate::expect::{self, CertifyExpect, Expected, ExpectedCell, GridSpec};
use crate::stats::{median, tail};
use crate::watchdog::Watchdog;
use crate::{Metric, Tally};

/// The end-to-end metrics every workload reports: name, unit, direction.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Fresh engines primed per run; `setup_s` is the median of their cold
/// passes.
const SETUP_REPS: usize = 5;
/// Deadline of one warm operation.
const OP_LIMIT: Duration = Duration::from_secs(20);
/// Deadline of one cold pass (a fresh engine's first requests).
const COLD_LIMIT: Duration = Duration::from_secs(40);

/// A small deterministic generator (SplitMix64) for the client's draws.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly drawn order of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn engine(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .expect("a positive thread count")
        .build()
}

/// The `solve_stream` grid with its prebuilt requests.
pub struct Grid {
    /// Specs and expected verdicts.
    pub specs: Vec<GridSpec>,
    /// One validated request per spec.
    pub requests: Vec<SolveRequest>,
}

impl Grid {
    /// The checked-in grid.
    pub fn load() -> Self {
        let specs = expect::grid();
        let requests = specs
            .iter()
            .map(|g| SolveRequest::new(g.task, g.max_depth).expect("grid specs validate"))
            .collect();
        Grid { specs, requests }
    }

    /// Label of spec `i`.
    pub fn label(&self, i: usize) -> String {
        format!("{}@{}", self.specs[i].task.label(), self.specs[i].max_depth)
    }

    /// Serves spec `i` on `engine` and checks the verdict; returns the
    /// latency in ms and the reply.
    pub fn solve(&self, engine: &Engine, i: usize) -> Result<(f64, SolveVerdict), String> {
        let t = Instant::now();
        let reply = engine.solve(&self.requests[i]).map_err(|e| e.to_string())?;
        let ms = ms_since(t);
        let kind = reply.outcome.kind();
        let expect: Expected = self.specs[i].expect;
        if !expect.matches(kind, reply.solvable_depth()) {
            return Err(format!(
                "expected {expect:?}, got {kind} (depth {:?})",
                reply.solvable_depth()
            ));
        }
        Ok((ms, reply.outcome))
    }
}

/// The two `certify` requests.
pub struct Certify {
    requests: [VerifyRequest; 2],
    expect: CertifyExpect,
}

impl Certify {
    /// The requests and their checked-in reply.
    pub fn load() -> Self {
        let req = |model| VerifyRequest::new(2, 1, model).expect("certify requests validate");
        Certify {
            requests: [
                req(ModelSpec::TResilient { t: 1 }),
                req(ModelSpec::GeometricTResilient { t: 1 }),
            ],
            expect: expect::certify(),
        }
    }

    /// Checks one reply's band sizes, run count and violations against
    /// the checked-in values.
    pub fn check(&self, bands: &[usize], runs: usize, violations: usize) -> Result<(), String> {
        let e = &self.expect;
        if bands != e.bands || runs != e.runs || violations != e.violations {
            return Err(format!(
                "expected bands {:?}, {} runs, {} violations; got bands {bands:?}, {runs} runs, \
                 {violations} violations",
                e.bands, e.runs, e.violations
            ));
        }
        Ok(())
    }

    /// One operation: a fresh engine at `threads`, then both requests.
    /// Returns the latency in ms (engine teardown excluded).
    pub fn op(&self, threads: usize) -> Result<f64, String> {
        let t = Instant::now();
        let engine = engine(threads);
        let mut replies = Vec::with_capacity(2);
        for r in &self.requests {
            replies.push(engine.verify(r).map_err(|e| e.to_string())?);
        }
        let ms = ms_since(t);
        for r in &replies {
            self.check(&r.bands, r.runs, r.violations)?;
        }
        Ok(ms)
    }
}

/// The `all` sweep request with its checked-in verdicts.
pub struct Sweep {
    /// The request.
    pub request: MatrixRequest,
    expect: Vec<ExpectedCell>,
}

impl Sweep {
    /// The request and its checked-in verdicts.
    pub fn load() -> Self {
        Sweep {
            request: MatrixRequest::family("all").expect("`all` is registered"),
            expect: expect::sweep(),
        }
    }

    /// Checks a sweep report cell by cell.
    pub fn check(&self, report: &ControlledMatrixReport) -> Result<(), String> {
        if report.results.len() != self.expect.len() {
            return Err(format!(
                "expected {} cells, got {}",
                self.expect.len(),
                report.results.len()
            ));
        }
        for (r, e) in report.results.iter().zip(&self.expect) {
            let got = (
                r.cell.task.label(),
                r.cell.model.label(r.cell.task.process_count()),
                r.cell.max_depth,
                r.outcome.kind(),
                r.outcome.detail(),
            );
            if got.0 != e.task
                || got.1 != e.model
                || got.2 != e.max_depth
                || got.3 != e.verdict
                || got.4 != e.detail
            {
                return Err(format!(
                    "cell {} × {}: expected {} ({}), got {} ({})",
                    e.task, e.model, e.verdict, e.detail, got.3, got.4
                ));
            }
        }
        Ok(())
    }

    /// One pass on `engine`; returns the latency in ms and the report.
    pub fn pass(&self, engine: &Engine) -> Result<(f64, ControlledMatrixReport), String> {
        let t = Instant::now();
        let reply = engine.matrix(&self.request).map_err(|e| e.to_string())?;
        let ms = ms_since(t);
        self.check(&reply.report)?;
        Ok((ms, reply.report))
    }

    /// A fresh engine at `threads` primed by one cold pass, or `None` when
    /// the pass failed.
    pub fn primed(
        &self,
        threads: usize,
        wd: &Watchdog,
        tally: &mut Tally,
    ) -> Option<(f64, Engine)> {
        let e = engine(threads);
        let ms = tally.op(wd, "sweep_all cold pass", COLD_LIMIT, || {
            self.pass(&e).map(|(ms, _)| ms)
        })?;
        Some((ms, e))
    }
}

/// Latencies of a timed closed loop.
struct Timed {
    setup_s: Vec<f64>,
    lat_ms: Vec<f64>,
    wall_s: f64,
}

/// Runs `op` back to back until `seconds` have passed, then finishes the
/// current batch of `batch` operations.
fn closed_loop(
    seconds: f64,
    batch: usize,
    mut op: impl FnMut(usize) -> Option<f64>,
) -> (Vec<f64>, f64) {
    let t0 = Instant::now();
    let mut lat = Vec::new();
    let mut i = 0usize;
    loop {
        if let Some(ms) = op(i) {
            lat.push(ms);
        }
        i += 1;
        if i.is_multiple_of(batch) && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (lat, t0.elapsed().as_secs_f64())
}

fn solve_stream(seed: u64, seconds: f64, wd: &Watchdog, tally: &mut Tally) -> Timed {
    let grid = Grid::load();
    let n = grid.specs.len();
    let mut rng = Rng::new(seed);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let e = engine(1);
        let t = Instant::now();
        for i in rng.permutation(n) {
            tally.op(wd, &grid.label(i), COLD_LIMIT, || {
                grid.solve(&e, i).map(|(ms, _)| ms)
            });
        }
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(e);
    }
    let e = kept.expect("SETUP_REPS is positive");
    let mut order = Vec::new();
    let (lat_ms, wall_s) = closed_loop(seconds, n, |k| {
        if k % n == 0 {
            order = rng.permutation(n);
        }
        let i = order[k % n];
        tally.op(wd, &grid.label(i), OP_LIMIT, || {
            grid.solve(&e, i).map(|(ms, _)| ms)
        })
    });
    Timed {
        setup_s,
        lat_ms,
        wall_s,
    }
}

fn certify(seconds: f64, wd: &Watchdog, tally: &mut Tally) -> Timed {
    let c = Certify::load();
    let setup_s = (0..SETUP_REPS)
        .filter_map(|_| tally.op(wd, "certify (setup)", COLD_LIMIT, || c.op(2)))
        .map(|ms| ms / 1e3)
        .collect();
    let (lat_ms, wall_s) = closed_loop(seconds, 1, |_| {
        tally.op(wd, "certify", OP_LIMIT, || c.op(2))
    });
    Timed {
        setup_s,
        lat_ms,
        wall_s,
    }
}

fn sweep_all(seconds: f64, wd: &Watchdog, tally: &mut Tally) -> Timed {
    let s = Sweep::load();
    // Warm passes rotate over all primed engines: at 2 threads a pass's
    // cost depends on the engine instance (the hash-seeded layout of what it
    // cached), and one instance per run would make the run-to-run spread
    // that instance's luck.
    let mut setup_s = Vec::new();
    let mut engines = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some((ms, e)) = s.primed(2, wd, tally) {
            setup_s.push(ms / 1e3);
            engines.push(e);
        }
    }
    if engines.is_empty() {
        return Timed {
            setup_s,
            lat_ms: Vec::new(),
            wall_s: 0.0,
        };
    }
    let (lat_ms, wall_s) = closed_loop(seconds, 1, |k| {
        let e = &engines[k % engines.len()];
        tally.op(wd, "sweep_all warm pass", OP_LIMIT, || {
            s.pass(e).map(|(ms, _)| ms)
        })
    });
    Timed {
        setup_s,
        lat_ms,
        wall_s,
    }
}

/// Runs `workload` untraced and returns its end-to-end metrics.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    wd: &Watchdog,
    tally: &mut Tally,
) -> Vec<Metric> {
    let timed = match workload {
        "solve_stream" => solve_stream(seed, seconds, wd, tally),
        "certify" => certify(seconds, wd, tally),
        "sweep_all" => sweep_all(seconds, wd, tally),
        other => unreachable!("workload `{other}` was validated"),
    };
    let rss = peak_rss_mb();
    let t = tail(&timed.lat_ms);
    let (tail_ms, tail_note) = match t {
        Some(t) => (
            t.value,
            format!(
                "p{:.2} of {} samples, {} beyond",
                t.percentile,
                t.samples,
                crate::stats::TAIL_BEYOND
            ),
        ),
        None => (
            timed.lat_ms.iter().copied().fold(0.0, f64::max),
            format!("max of {} samples (too few for a tail)", timed.lat_ms.len()),
        ),
    };
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "setup_s" => median(&timed.setup_s),
                "op_p50_ms" => median(&timed.lat_ms),
                "op_tail_ms" => tail_ms,
                "ops_per_s" => timed.lat_ms.len() as f64 / timed.wall_s.max(1e-9),
                "peak_rss_mb" => rss,
                other => unreachable!("no measurement for `{other}`"),
            };
            (name, value, unit)
        })
        .collect();
    println!(
        "workload {workload}: {} ops in {:.2} s",
        timed.lat_ms.len(),
        timed.wall_s
    );
    for (name, value, unit) in &metrics {
        let note = match *name {
            "setup_s" => format!("median of {} fresh engines", timed.setup_s.len()),
            "op_tail_ms" => tail_note.clone(),
            _ => String::new(),
        };
        println!("  {name:<14} {value:>12.4} {unit:<4} {note}");
    }
    println!(
        "  {:<14} {:>12.4} {:<4} {} of {} attempted",
        "failed_share", failed_share, "ratio", tally.failed, tally.attempted
    );
    metrics
}

/// Repeats cold `rounds-sweep` passes on fresh 2-thread engines; a pass
/// that does not finish within its deadline is reported as a deadlock by
/// the watchdog (exit code 3).
pub fn repro_deadlock(passes: usize) -> ExitCode {
    let wd = Watchdog::start("repro-deadlock".into());
    let request = MatrixRequest::family("rounds-sweep").expect("`rounds-sweep` is registered");
    for pass in 0..passes {
        let e = engine(2);
        let t = Instant::now();
        let cells = wd.guard(
            &format!("cold rounds-sweep pass {pass} at 2 threads"),
            Duration::from_secs(10),
            || e.matrix(&request).map(|r| r.report.results.len()),
        );
        println!("pass {pass}: {cells:?} cells in {:.1} ms", ms_since(t));
    }
    wd.stop();
    println!("no deadlock in {passes} passes");
    ExitCode::SUCCESS
}
