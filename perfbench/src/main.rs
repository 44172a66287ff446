//! The GACT decision-service benchmark.
//!
//! ```text
//! gact-perfbench --workload <solve_stream|certify|sweep_all> --seed <n>
//!                --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! gact-perfbench --repro-deadlock <passes>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public
//! `gact-engine` API; `--trace 1` replays the workload layer by layer and
//! reports the per-layer metrics (see `README.md` next to this crate).
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any wrong verdict, engine
//! error, panic or stuck operation makes `correct` false and the exit code
//! non-zero.

mod expect;
mod replay;
mod stats;
mod trace;
mod traced;
mod watchdog;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use watchdog::Watchdog;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["solve_stream", "certify", "sweep_all"];

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    repro_deadlock: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: PathBuf::from("perfbench/out"),
        repro_deadlock: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value()?),
            "--repro-deadlock" => {
                args.repro_deadlock = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--repro-deadlock takes a pass count")?,
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.repro_deadlock.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Failure messages printed per run; later failures are only counted.
const PRINTED_FAILURES: u64 = 8;

/// Failure accounting shared by every workload: attempted and failed
/// operations.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error, panic, wrong verdict).
    pub failed: u64,
}

impl Tally {
    /// Runs one operation under the watchdog's deadline. `op` returns its
    /// latency in ms, or a failure message; a panic is a failure too.
    pub fn op(
        &mut self,
        wd: &Watchdog,
        what: &str,
        limit: Duration,
        op: impl FnOnce() -> Result<f64, String>,
    ) -> Option<f64> {
        wd.note(self.attempted, self.failed);
        self.attempted += 1;
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wd.guard(what, limit, op)));
        let err = match outcome {
            Ok(Ok(ms)) => return Some(ms),
            Ok(Err(e)) => e,
            Err(panic) => format!(
                "panic: {}",
                panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(non-string payload)")
            ),
        };
        self.fail(format!("{what}: {err}"));
        None
    }

    /// Records a failure found outside [`Tally::op`].
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failed <= PRINTED_FAILURES {
            eprintln!("FAILED {message}");
        }
    }
}

/// The benchmark's result line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gact-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(passes) = args.repro_deadlock {
        return workloads::repro_deadlock(passes);
    }
    let wd = Watchdog::start(args.workload.clone());
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced::run(
            &args.workload,
            args.seed,
            args.seconds,
            &args.trace_dir,
            &wd,
            &mut tally,
        )
    } else {
        workloads::run(&args.workload, args.seed, args.seconds, &wd, &mut tally)
    };
    wd.stop();
    let correct = tally.failed == 0;
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[("op_p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_json(false, 0, 0, &[]).contains("\"attempted\": 1"));
    }

    #[test]
    fn benchmark_manifest_names_every_emitted_metric() {
        let manifest = include_str!("../../BENCHMARK.json");
        for name in WORKLOADS {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\"")),
                "{name}"
            );
        }
        for (name, unit, _) in workloads::END_TO_END.iter().chain(traced::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"name\": ").count();
        assert_eq!(
            listed,
            WORKLOADS.len() + workloads::END_TO_END.len() + traced::PER_LAYER.len()
        );
    }
}
