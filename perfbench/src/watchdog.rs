//! Per-operation deadlines enforced from outside the operation.
//!
//! Some builds and the small-instance solver path ignore `Budget`, so a
//! stuck operation cannot be stopped from inside. The watchdog thread
//! instead ends the whole process: it prints a failed result line (the
//! stuck operation counted as failed) and exits with code 3.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct State {
    armed: Option<(Instant, String)>,
    attempted: u64,
    failed: u64,
}

/// The deadline monitor of one benchmark process.
#[derive(Debug)]
pub struct Watchdog {
    state: Arc<Mutex<State>>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

fn lock(state: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    // Every update leaves the state whole, so a poisoned lock is still
    // valid to read.
    state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Watchdog {
    /// Starts the monitor thread for `workload`.
    pub fn start(workload: String) -> Self {
        let state = Arc::new(Mutex::new(State::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                    let s = lock(&state);
                    if let Some((deadline, what)) = &s.armed {
                        if Instant::now() > *deadline {
                            eprintln!("STUCK {workload}: `{what}` passed its deadline; aborting");
                            println!(
                                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \
                                 \"metrics\": {{}}}}",
                                s.attempted + 1,
                                s.failed + 1
                            );
                            std::process::exit(3);
                        }
                    }
                }
            })
        };
        Watchdog {
            state,
            stop,
            thread,
        }
    }

    /// Records the tally before the next operation, for the stuck report.
    pub fn note(&self, attempted: u64, failed: u64) {
        let mut s = lock(&self.state);
        s.attempted = attempted;
        s.failed = failed;
    }

    /// Runs `f` with a deadline of `limit` from now.
    pub fn guard<R>(&self, what: &str, limit: Duration, f: impl FnOnce() -> R) -> R {
        lock(&self.state).armed = Some((Instant::now() + limit, what.to_string()));
        let disarm = Disarm(&self.state);
        let out = f();
        drop(disarm);
        out
    }

    /// Stops and joins the monitor thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        if self.thread.join().is_err() {
            eprintln!("watchdog thread panicked");
        }
    }
}

/// Disarms the deadline when the guarded operation ends, panicking or not.
struct Disarm<'a>(&'a Mutex<State>);

impl Drop for Disarm<'_> {
    fn drop(&mut self) {
        lock(self.0).armed = None;
    }
}
