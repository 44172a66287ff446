//! Tasks `T = (I, O, Δ)` (paper §4.1) and the output-compliance check of
//! Definition 4.1(2).

use std::collections::HashMap;
use std::fmt;

use gact_chromatic::{CarrierMap, ChromaticComplex, Color, ColorSet};
use gact_iis::{InputAssignment, ProcessId, ProcessSet};
use gact_topology::{Complex, Geometry, Simplex, VertexId};

/// Error raised by [`Task::validate`].
#[derive(Clone, Debug)]
pub enum TaskError {
    /// The input complex is not pure of the declared dimension.
    InputNotPure,
    /// The output complex is not pure of the declared dimension.
    OutputNotPure,
    /// The carrier map is invalid.
    Carrier(gact_chromatic::CarrierError),
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::InputNotPure => write!(f, "input complex is not pure n-dimensional"),
            TaskError::OutputNotPure => write!(f, "output complex is not pure n-dimensional"),
            TaskError::Carrier(e) => write!(f, "invalid carrier map: {e}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// A violation of the task specification by a set of outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OutputViolation {
    /// A process output a vertex of the wrong color.
    WrongColor(ProcessId, VertexId),
    /// The outputs do not span a simplex of the output complex.
    NotASimplex(Simplex),
    /// The output simplex is not allowed by `Δ` for the effective input.
    NotAllowed {
        /// The output simplex produced.
        output: Simplex,
        /// The effective input carrier `ω ∩ χ^{-1}(part)`.
        carrier: Simplex,
    },
    /// A process decided although `Δ` of the effective carrier is empty for
    /// its color... (a process output a color outside the carrier).
    ColorOutsideCarrier(ProcessId),
}

impl fmt::Display for OutputViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputViolation::WrongColor(p, v) => {
                write!(f, "process {p} output vertex {v:?} of the wrong color")
            }
            OutputViolation::NotASimplex(s) => {
                write!(f, "outputs {s:?} do not span an output simplex")
            }
            OutputViolation::NotAllowed { output, carrier } => {
                write!(f, "outputs {output:?} not in Δ({carrier:?})")
            }
            OutputViolation::ColorOutsideCarrier(p) => {
                write!(f, "process {p} output although it is not in the carrier")
            }
        }
    }
}

/// A task `T = (I, O, Δ)` on `n + 1` processes.
///
/// # Examples
///
/// Construct a classic task, validate it, and inspect its carrier map:
///
/// ```
/// use gact_tasks::classic::{assignment_facet, consensus_task};
///
/// // Binary consensus for two processes.
/// let task = consensus_task(1, &[0, 1]);
/// task.validate().unwrap();
///
/// // With mixed inputs, Δ allows exactly the two all-agree outputs.
/// let omega = assignment_facet(1, 2, &[0, 1]);
/// assert_eq!(task.allowed(&omega).count_of_dim(1), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Task {
    /// Human-readable task name.
    pub name: String,
    /// Dimension `n` (one less than the process count).
    pub n: usize,
    /// The input complex `I`.
    pub input: ChromaticComplex,
    /// Geometry of `|I|` (used by executors and protocol extraction).
    pub input_geometry: Geometry,
    /// The output complex `O`.
    pub output: ChromaticComplex,
    /// The carrier map `Δ : I → 2^O`.
    pub delta: CarrierMap,
}

impl Task {
    /// Validates purity of both complexes and the carrier-map laws.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validate(&self) -> Result<(), TaskError> {
        if !self.input.is_pure_of_dim(self.n) {
            return Err(TaskError::InputNotPure);
        }
        if !self.output.is_pure_of_dim(self.n) {
            return Err(TaskError::OutputNotPure);
        }
        self.delta
            .validate(&self.input, &self.output)
            .map_err(TaskError::Carrier)?;
        Ok(())
    }

    /// The allowed output subcomplex for an input simplex.
    pub fn allowed(&self, input_simplex: &Simplex) -> Complex {
        self.delta.image(input_simplex)
    }

    /// Borrowed variant of [`Task::allowed`]: `None` when `Δ` assigns no
    /// image (treated as the empty complex by callers). Avoids cloning on
    /// the solver's `Δ`-cache fills.
    pub fn allowed_ref(&self, input_simplex: &Simplex) -> Option<&Complex> {
        self.delta.image_ref(input_simplex)
    }

    /// The effective carrier of a run: `ω ∩ χ^{-1}(part)` — the face of the
    /// input simplex spanned by the *participating* processes (Def. 4.1).
    pub fn effective_carrier(&self, omega: &Simplex, participants: ProcessSet) -> Option<Simplex> {
        let colors: ColorSet = participants.to_colors();
        let kept: Vec<VertexId> = omega
            .iter()
            .filter(|&v| colors.contains(self.input.color(v)))
            .collect();
        if kept.is_empty() {
            None
        } else {
            Some(Simplex::new(kept))
        }
    }

    /// Checks Definition 4.1(2): the decided outputs span a sub-simplex of
    /// a simplex of `Δ(ω ∩ χ^{-1}(part))`.
    ///
    /// `outputs` maps each decided process to its output vertex; processes
    /// absent from the map have not decided (which is fine — this predicate
    /// checks safety, not liveness).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_outputs(
        &self,
        omega: &Simplex,
        participants: ProcessSet,
        outputs: &HashMap<ProcessId, VertexId>,
    ) -> Result<(), OutputViolation> {
        if outputs.is_empty() {
            return Ok(());
        }
        let carrier = self.effective_carrier(omega, participants);
        for (p, v) in outputs {
            if self.output.color(*v) != Color::from(*p) {
                return Err(OutputViolation::WrongColor(*p, *v));
            }
            let in_carrier = carrier
                .as_ref()
                .map(|c| self.input.chi(c).contains(Color::from(*p)))
                .unwrap_or(false);
            if !in_carrier {
                return Err(OutputViolation::ColorOutsideCarrier(*p));
            }
        }
        let simplex = Simplex::new(outputs.values().copied());
        if !self.output.complex().contains(&simplex) {
            return Err(OutputViolation::NotASimplex(simplex));
        }
        let carrier = carrier.expect("outputs non-empty implies carrier non-empty");
        let allowed = self.allowed(&carrier);
        // Sub-simplex of a simplex of Δ(carrier): membership in the (face-
        // closed) image complex.
        if !allowed.contains(&simplex) {
            return Err(OutputViolation::NotAllowed {
                output: simplex,
                carrier,
            });
        }
        Ok(())
    }

    /// Builds an [`InputAssignment`] for the executor from an input facet
    /// `ω`: each process's input value is the id of its own-colored vertex
    /// of `ω` (a protocol reads positions off `input_geometry` by that id).
    ///
    /// # Panics
    ///
    /// Panics if `ω` is not a simplex of the input complex.
    pub fn input_assignment(&self, omega: &Simplex) -> InputAssignment {
        assert!(
            self.input.complex().contains(omega),
            "ω must be an input simplex"
        );
        let values = omega
            .iter()
            .map(|v| (ProcessId::from(self.input.color(v)), v.0))
            .collect();
        InputAssignment { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gact_chromatic::standard_simplex;

    fn s(vs: &[u32]) -> Simplex {
        Simplex::from_iter(vs.iter().copied())
    }

    /// The identity task: output your own input vertex.
    fn identity_task(n: usize) -> Task {
        let (input, geometry) = standard_simplex(n);
        let output = input.clone();
        let mut delta = CarrierMap::default();
        for simplex in input.complex().iter() {
            delta.set(simplex.clone(), Complex::from_facets([simplex.clone()]));
        }
        Task {
            name: format!("identity({n})"),
            n,
            input,
            input_geometry: geometry,
            output,
            delta,
        }
    }

    #[test]
    fn identity_task_validates() {
        let t = identity_task(2);
        t.validate().unwrap();
        assert_eq!(t.allowed(&s(&[0, 1])).facets(), vec![s(&[0, 1])]);
    }

    #[test]
    fn effective_carrier_restricts_to_participants() {
        let t = identity_task(2);
        let omega = s(&[0, 1, 2]);
        let parts: ProcessSet = [ProcessId(0), ProcessId(2)].into_iter().collect();
        assert_eq!(t.effective_carrier(&omega, parts), Some(s(&[0, 2])));
        assert_eq!(t.effective_carrier(&omega, ProcessSet::empty()), None);
    }

    #[test]
    fn output_check_accepts_correct_outputs() {
        let t = identity_task(2);
        let omega = s(&[0, 1, 2]);
        let outputs: HashMap<ProcessId, VertexId> =
            [(ProcessId(0), VertexId(0)), (ProcessId(2), VertexId(2))]
                .into_iter()
                .collect();
        t.check_outputs(&omega, ProcessSet::full(3), &outputs)
            .unwrap();
    }

    #[test]
    fn output_check_rejects_wrong_color() {
        let t = identity_task(2);
        let omega = s(&[0, 1, 2]);
        let outputs: HashMap<ProcessId, VertexId> =
            [(ProcessId(0), VertexId(1))].into_iter().collect();
        assert_eq!(
            t.check_outputs(&omega, ProcessSet::full(3), &outputs),
            Err(OutputViolation::WrongColor(ProcessId(0), VertexId(1)))
        );
    }

    #[test]
    fn output_check_rejects_output_outside_carrier() {
        let t = identity_task(2);
        let omega = s(&[0, 1, 2]);
        // p1 decided but only p0, p2 participate.
        let parts: ProcessSet = [ProcessId(0), ProcessId(2)].into_iter().collect();
        let outputs: HashMap<ProcessId, VertexId> =
            [(ProcessId(1), VertexId(1))].into_iter().collect();
        assert_eq!(
            t.check_outputs(&omega, parts, &outputs),
            Err(OutputViolation::ColorOutsideCarrier(ProcessId(1)))
        );
    }

    #[test]
    fn input_assignment_maps_vertices() {
        let t = identity_task(2);
        let ia = t.input_assignment(&s(&[0, 1, 2]));
        for i in 0..3u8 {
            assert_eq!(ia.values[&ProcessId(i)], u32::from(i));
        }
    }
}
