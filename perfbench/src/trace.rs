//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (nothing inside the program is instrumented). A span names its layer
//! (`<layer>.<what>`), its parent (the innermost open span) and the
//! request it belongs to. Counts are recorded per request next to the
//! spans. Everything stays in memory until [`Recorder::write_jsonl`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of every replayed request.
pub const ROOT: &str = "op";

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name, `<layer>.<what>` (or [`ROOT`]).
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: usize,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// End, in microseconds since the recorder was created.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A replayed request: its phase (`setup` or `op`), its kind, whether
/// spans were recorded for it, and its counts.
#[derive(Clone, Debug)]
pub struct Request {
    /// `setup` or `op`.
    pub phase: &'static str,
    /// Which kind of operation (e.g. which spec of a grid) this is.
    pub tag: usize,
    /// Whether spans were recorded (untraced requests only time the root).
    pub traced: bool,
    /// Wall time of the whole request in milliseconds.
    pub wall_ms: f64,
    /// Counts recorded during the request.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Records spans and counts of a single-threaded replay.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: Cell<bool>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    requests: RefCell<Vec<Request>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: Cell::new(false),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            requests: RefCell::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` as request number `requests().len()` of `phase` and kind
    /// `tag`, recording spans and counts only when `traced`. Returns `f`'s
    /// result.
    pub fn request<R>(
        &self,
        phase: &'static str,
        tag: usize,
        traced: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let req = self.requests.borrow().len();
        self.requests.borrow_mut().push(Request {
            phase,
            tag,
            traced,
            wall_ms: 0.0,
            counts: BTreeMap::new(),
        });
        self.enabled.set(traced);
        let t0 = Instant::now();
        let out = self.span(ROOT, f);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.enabled.set(false);
        self.requests.borrow_mut()[req].wall_ms = wall_ms;
        out
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when the
    /// current request is untraced).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start_us = self.now_us();
            spans.push(Span {
                name,
                parent,
                req: self.requests.borrow().len() - 1,
                start_us,
                end_us: start_us,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_us();
        self.spans.borrow_mut()[index].end_us = end;
        out
    }

    /// Adds `by` to the count `name` of the current request.
    pub fn count(&self, name: &'static str, by: f64) {
        if !self.enabled.get() {
            return;
        }
        let mut requests = self.requests.borrow_mut();
        let last = requests.last_mut().expect("counts belong to a request");
        *last.counts.entry(name).or_insert(0.0) += by;
    }

    /// All requests recorded so far.
    pub fn requests(&self) -> Vec<Request> {
        self.requests.borrow().clone()
    }

    /// Self time in ms of every span: its duration minus the time its
    /// children cover.
    pub fn self_times(&self) -> Vec<(Span, f64)> {
        let spans = self.spans.borrow();
        let mut child_ms = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        spans
            .iter()
            .zip(child_ms)
            .map(|(s, c)| (s.clone(), s.ms() - c))
            .collect()
    }

    /// Writes every span and every request's counts as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        let requests = self.requests.borrow();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\": \"span\", \"id\": {i}, \"parent\": {parent}, \"req\": {}, \
                 \"phase\": \"{}\", \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.req, requests[s.req].phase, s.name, s.start_us, s.end_us
            );
        }
        for (i, r) in requests.iter().enumerate() {
            let counts: Vec<String> = r
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"type\": \"request\", \"req\": {i}, \"phase\": \"{}\", \"tag\": {}, \
                 \"traced\": {}, \"wall_ms\": {:.4}, \"counts\": {{{}}}}}",
                r.phase,
                r.tag,
                r.traced,
                r.wall_ms,
                counts.join(", ")
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The layer a span name belongs to: the text before its first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_untraced_requests_record_nothing() {
        let rec = Recorder::default();
        rec.request("op", 0, true, || {
            rec.span("a.outer", || {
                rec.span("b.inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
                rec.count("b.calls", 1.0);
            })
        });
        rec.request("op", 0, false, || {
            rec.span("a.outer", || rec.count("b.calls", 1.0))
        });
        let times = rec.self_times();
        assert_eq!(
            times.len(),
            3,
            "root, outer and inner of the traced request"
        );
        let (outer, outer_self) = &times[1];
        let (inner, inner_self) = &times[2];
        assert_eq!(outer.parent, Some(0));
        assert_eq!(inner.parent, Some(1));
        assert!(*inner_self >= 5.0);
        assert!(*outer_self < outer.ms() && *outer_self >= 0.0);
        let reqs = rec.requests();
        assert_eq!(reqs[0].counts["b.calls"], 1.0);
        assert!(reqs[1].counts.is_empty());
        assert!(reqs[1].wall_ms >= 0.0);
        assert_eq!(layer_of("solver.plan"), "solver");
        assert_eq!(layer_of(ROOT), "op");
    }
}
