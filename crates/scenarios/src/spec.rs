//! Declarative task specifications: the task half of a scenario cell.
//!
//! A [`TaskSpec`] names one of the repo's task constructors with its
//! parameters — classic pseudosphere tasks ([`gact_tasks::classic`]),
//! affine tasks ([`gact_tasks::affine`]), or the commit–adopt protocol
//! ([`gact_tasks::commit_adopt`]) — without building anything. The matrix
//! driver instantiates specs on demand, routing every iterated-subdivision
//! construction through the sweep's shared [`QueryCache`] so tasks over
//! the same ambient complex share one `Chr^k`.

use std::sync::Arc;

use gact::cache::QueryCache;
use gact_chromatic::{standard_simplex, ChromaticSubdivision};
use gact_tasks::affine::{full_subdivision_task_in, lt_task_in, total_order_task_in};
use gact_tasks::classic::{consensus_task, set_agreement_task};
use gact_tasks::Task;

/// A named, parameterized task constructor (the declarative half of a
/// scenario's task axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskSpec {
    /// Consensus over `n + 1` processes with `n_values` input values
    /// ([`consensus_task`]).
    Consensus {
        /// Dimension `n` (one less than the process count).
        n: usize,
        /// Number of distinct input values.
        n_values: usize,
    },
    /// `k`-set agreement over `n + 1` processes ([`set_agreement_task`]).
    SetAgreement {
        /// Dimension `n`.
        n: usize,
        /// Number of distinct input values.
        n_values: usize,
        /// Maximum number of distinct decided values.
        k: usize,
    },
    /// The immediate-snapshot iterate task `L = Chr^depth s`
    /// ([`gact_tasks::affine::full_subdivision_task`]).
    FullSubdivision {
        /// Dimension `n`.
        n: usize,
        /// Subdivision depth of the selected complex.
        depth: usize,
    },
    /// The total order task `L_ord` of §4.2
    /// ([`gact_tasks::affine::total_order_task`]).
    TotalOrder {
        /// Dimension `n`.
        n: usize,
    },
    /// The `t`-resiliently solvable family `L_t` of §9.2
    /// ([`gact_tasks::affine::lt_task`]).
    Lt {
        /// Dimension `n`.
        n: usize,
        /// Resilience parameter `t ≤ n`.
        t: usize,
    },
    /// The commit–adopt protocol of §4.5 — checked operationally (it is a
    /// protocol, not a task `(I, O, Δ)`), so matrix cells built from this
    /// spec run the property checker over model runs instead of the
    /// solvability pipeline.
    CommitAdopt {
        /// Dimension `n`.
        n: usize,
    },
}

/// The value list `{0, …, n_values − 1}` used by pseudosphere specs;
/// [`TaskSpec::validate`] guarantees that `n_values` fits in a `u32`.
fn values(n_values: usize) -> Vec<u32> {
    let n_values = u32::try_from(n_values).expect("validated: n_values fits in a u32");
    (0..n_values).collect()
}

/// Commit–adopt cells draw fixed proposals from an 8-entry table (see
/// [`crate::matrix`]), so at most 8 processes are supported there.
const MAX_CA_PROCESSES: usize = 8;

impl TaskSpec {
    /// Validates the spec's parameters *without building anything*: every
    /// combination rejected here would panic (or overflow a fixed-size
    /// table) inside the underlying task constructor.
    ///
    /// # Errors
    ///
    /// A [`gact_tasks::SpecError`] naming the offending field:
    ///
    /// * `n` — more than [`gact_tasks::MAX_PROCESSES`] processes (or, for
    ///   commit–adopt, more than the proposal table holds);
    /// * `n_values` — an empty input value set on a pseudosphere spec, or
    ///   one whose `(n + 1) · n_values` pseudosphere vertex ids do not fit
    ///   in a `u32`;
    /// * `k` — `k = 0` set agreement;
    /// * `t` — `L_t` with `t > n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gact_scenarios::TaskSpec;
    ///
    /// assert!(TaskSpec::Lt { n: 2, t: 1 }.validate().is_ok());
    /// let err = TaskSpec::Lt { n: 2, t: 5 }.validate().unwrap_err();
    /// assert_eq!(err.field, "t");
    /// ```
    pub fn validate(&self) -> Result<(), gact_tasks::SpecError> {
        use gact_tasks::SpecError;
        match *self {
            TaskSpec::Consensus { n, n_values } => {
                check_spec_dimension(n)?;
                check_value_count(n, n_values, "consensus")
            }
            TaskSpec::SetAgreement { n, n_values, k } => {
                check_spec_dimension(n)?;
                check_value_count(n, n_values, "set agreement")?;
                if k == 0 {
                    return Err(SpecError::new("k", "k-set agreement needs k >= 1"));
                }
                Ok(())
            }
            TaskSpec::FullSubdivision { n, .. } | TaskSpec::TotalOrder { n } => {
                check_spec_dimension(n)
            }
            TaskSpec::Lt { n, t } => {
                check_spec_dimension(n)?;
                if t > n {
                    return Err(SpecError::new(
                        "t",
                        format!("t = {t} must be at most n = {n}"),
                    ));
                }
                Ok(())
            }
            TaskSpec::CommitAdopt { n } => {
                if n + 1 > MAX_CA_PROCESSES {
                    return Err(SpecError::new(
                        "n",
                        format!(
                            "commit–adopt supports at most {MAX_CA_PROCESSES} processes, got {}",
                            n + 1
                        ),
                    ));
                }
                Ok(())
            }
        }
    }
    /// Number of processes `n + 1` of the instantiated task.
    pub fn process_count(&self) -> usize {
        self.n() + 1
    }

    /// The dimension parameter `n`.
    pub fn n(&self) -> usize {
        match *self {
            TaskSpec::Consensus { n, .. }
            | TaskSpec::SetAgreement { n, .. }
            | TaskSpec::FullSubdivision { n, .. }
            | TaskSpec::TotalOrder { n }
            | TaskSpec::Lt { n, .. }
            | TaskSpec::CommitAdopt { n } => n,
        }
    }

    /// Display label (matches the instantiated task's name where one
    /// exists).
    pub fn label(&self) -> String {
        match *self {
            TaskSpec::Consensus { n, n_values } => format!("consensus(n={n}, |V|={n_values})"),
            TaskSpec::SetAgreement { n, n_values, k } => {
                format!("{k}-set-agreement(n={n}, |V|={n_values})")
            }
            TaskSpec::FullSubdivision { n, depth } => format!("Chr^{depth}(s), n={n}"),
            TaskSpec::TotalOrder { n } => format!("L_ord(n={n})"),
            TaskSpec::Lt { n, t } => format!("L_{t}(n={n})"),
            TaskSpec::CommitAdopt { n } => format!("commit-adopt(n={n})"),
        }
    }

    /// The shared ambient subdivision an affine spec selects inside, from
    /// the sweep cache (`None` for non-affine specs).
    fn ambient(&self, cache: &QueryCache) -> Option<Arc<ChromaticSubdivision>> {
        let (n, depth) = match *self {
            TaskSpec::FullSubdivision { n, depth } => (n, depth),
            TaskSpec::TotalOrder { n } | TaskSpec::Lt { n, .. } => (n, 2),
            _ => return None,
        };
        let (s, g) = standard_simplex(n);
        Some(cache.subdivision(&s, &g, depth))
    }

    /// Instantiates the task `(I, O, Δ)`, sharing iterated subdivisions
    /// through `cache`. `None` for [`TaskSpec::CommitAdopt`], which is a
    /// protocol rather than a task.
    pub fn build_task(&self, cache: &QueryCache) -> Option<Task> {
        match *self {
            TaskSpec::Consensus { n, n_values } => Some(consensus_task(n, &values(n_values))),
            TaskSpec::SetAgreement { n, n_values, k } => {
                Some(set_agreement_task(n, &values(n_values), k))
            }
            TaskSpec::FullSubdivision { n, depth } => {
                let ambient = self.ambient(cache).expect("affine spec has an ambient");
                Some(full_subdivision_task_in(n, depth, ambient).task)
            }
            TaskSpec::TotalOrder { n } => {
                let ambient = self.ambient(cache).expect("affine spec has an ambient");
                Some(total_order_task_in(n, ambient).task)
            }
            TaskSpec::Lt { n, t } => {
                let ambient = self.ambient(cache).expect("affine spec has an ambient");
                Some(lt_task_in(n, t, ambient).task)
            }
            TaskSpec::CommitAdopt { .. } => None,
        }
    }
}

/// Dimension guard shared by the non-protocol specs.
fn check_spec_dimension(n: usize) -> Result<(), gact_tasks::SpecError> {
    if n + 1 > gact_tasks::MAX_PROCESSES {
        return Err(gact_tasks::SpecError::new(
            "n",
            format!(
                "n + 1 = {} processes exceeds the supported maximum of {}",
                n + 1,
                gact_tasks::MAX_PROCESSES
            ),
        ));
    }
    Ok(())
}

/// Value-count guard shared by the pseudosphere specs: at least one
/// value, and every vertex id `p · n_values + j` of the pseudosphere
/// ([`gact_tasks::classic::pseudosphere_vertex`]) representable.
fn check_value_count(n: usize, n_values: usize, task: &str) -> Result<(), gact_tasks::SpecError> {
    if n_values == 0 {
        return Err(gact_tasks::SpecError::new(
            "n_values",
            format!("{task} needs at least one input value"),
        ));
    }
    let ids_fit = (n + 1)
        .checked_mul(n_values)
        .is_some_and(|ids| u32::try_from(ids).is_ok());
    if !ids_fit {
        return Err(gact_tasks::SpecError::new(
            "n_values",
            format!(
                "(n + 1) · n_values = {} · {n_values} pseudosphere vertex ids do not fit in a u32",
                n + 1
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gact_tasks::affine::lt_task;

    #[test]
    fn labels_match_task_names() {
        let cache = QueryCache::new();
        for spec in [
            TaskSpec::Consensus { n: 1, n_values: 2 },
            TaskSpec::SetAgreement {
                n: 2,
                n_values: 3,
                k: 2,
            },
            TaskSpec::FullSubdivision { n: 1, depth: 1 },
            TaskSpec::TotalOrder { n: 1 },
            TaskSpec::Lt { n: 2, t: 1 },
        ] {
            let task = spec.build_task(&cache).expect("task spec");
            assert_eq!(task.name, spec.label());
            task.validate().expect("spec builds a valid task");
        }
        assert!(TaskSpec::CommitAdopt { n: 2 }.build_task(&cache).is_none());
    }

    #[test]
    fn value_count_bound_is_on_pseudosphere_vertex_ids() {
        // Vertex ids `p · n_values + j` are `u32`s; the product is checked
        // without overflow.
        let consensus = |n, n_values| TaskSpec::Consensus { n, n_values }.validate();
        assert!(consensus(0, u32::MAX as usize).is_ok());
        assert_eq!(consensus(0, 1 << 32).unwrap_err().field, "n_values");
        assert_eq!(consensus(1, 1 << 31).unwrap_err().field, "n_values");
        assert_eq!(consensus(2, usize::MAX).unwrap_err().field, "n_values");
    }

    #[test]
    fn cached_affine_build_matches_direct_construction() {
        let cache = QueryCache::new();
        let spec = TaskSpec::Lt { n: 2, t: 1 };
        let cached = spec.build_task(&cache).unwrap();
        let direct = lt_task(2, 1).task;
        assert_eq!(cached.name, direct.name);
        assert_eq!(cached.output.complex(), direct.output.complex());
        // Two lt tasks built from the same cache share one ambient Chr².
        let again = spec.build_task(&cache).unwrap();
        assert_eq!(again.output.complex(), cached.output.complex());
        assert!(cache.subdivisions().stats().hits > 0);
    }
}
