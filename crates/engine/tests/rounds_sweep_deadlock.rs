//! Regression: a cold `rounds-sweep` matrix on a fresh 2-thread engine
//! once deadlocked. A thread holding a per-key build guard helped the
//! pool while its build waited, picked up a cell that wanted the same
//! key, and blocked on its own guard. Each pass runs on a spawned thread
//! under a timeout, so a hang fails the test, naming the pass, instead of
//! hanging the suite.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use gact_engine::{Engine, MatrixRequest};
use gact_scenarios::{cells_for, run_matrix_cold, Cell, ControlledMatrixReport, Verdict};

const PASSES: usize = 10;
const PASS_TIMEOUT: Duration = Duration::from_secs(30);

fn verdicts(report: ControlledMatrixReport) -> Vec<(Cell, Verdict)> {
    report
        .results
        .into_iter()
        .map(|r| {
            let v = r
                .outcome
                .verdict()
                .cloned()
                .expect("ungoverned sweep completes");
            (r.cell, v)
        })
        .collect()
}

#[test]
fn cold_rounds_sweep_on_fresh_two_thread_engines_never_hangs() {
    let cells = cells_for("rounds-sweep").expect("registered family");
    let expected = verdicts(run_matrix_cold(&cells));
    for pass in 0..PASSES {
        let (done, finished) = mpsc::channel();
        let sweep = std::thread::spawn(move || {
            let engine = Engine::builder().threads(2).expect("2 threads").build();
            let request = MatrixRequest::family("rounds-sweep").expect("registered family");
            let reply = engine.matrix(&request).expect("ungoverned sweep");
            let _ = done.send(());
            verdicts(reply.report)
        });
        // A panicking sweep drops `done` (Disconnected) and is resumed by
        // the join; only a timeout leaves the hung thread detached.
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(PASS_TIMEOUT) {
            panic!("pass {pass}: cold rounds-sweep at 2 threads hung for {PASS_TIMEOUT:?}");
        }
        let got = sweep
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        assert_eq!(
            got, expected,
            "pass {pass}: verdicts differ from the cold reference"
        );
    }
}
