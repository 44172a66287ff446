//! # gact-iis
//!
//! The Iterated Immediate Snapshot model of the GACT paper (§2, §4.3–4.4):
//!
//! * [`ProcessId`] / [`ProcessSet`] — processes `p_0 … p_n`;
//! * [`Round`] — one IS schedule: an ordered partition of its participants;
//! * [`Run`] — ultimately periodic runs with `part`, `∞-part`,
//!   [`Run::minimal`], [`Run::fast`]/[`Run::slow`], the extension order and
//!   the run metric of §5;
//! * [`view`] — nested views with hash-consing and the bijection between
//!   views and vertices of iterated chromatic subdivisions;
//! * [`executor`] — operational execution of protocols (partial maps from
//!   views to outputs, Definition 4.1) over schedules, with decision
//!   stability checking.
//!
//! ## Example
//!
//! ```
//! use gact_iis::{ProcessId, Run, Round};
//!
//! // p0 always a step ahead of p1: only p0 is fast.
//! let r = Run::new(2, [], [
//!     Round::from_blocks([vec![ProcessId(0)], vec![ProcessId(1)]]).unwrap(),
//! ]).unwrap();
//! assert!(r.fast().contains(ProcessId(0)));
//! assert!(!r.fast().contains(ProcessId(1)));
//! ```

pub mod executor;
pub mod process;
pub mod round;
pub mod run;
pub mod schedule;
pub mod view;

pub use executor::{execute, Decision, Execution, InputAssignment, Protocol, StepContext};
pub use process::{ProcessId, ProcessSet};
pub use round::{Round, RoundError};
pub use run::{Positions, Run, RunError};
pub use schedule::enumerate_schedules;
pub use view::{chr_chain, run_subdivision_vertices, run_views, ViewArena, ViewId, ViewNode};
