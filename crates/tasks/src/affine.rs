//! Affine tasks (paper §4.2): input-less tasks `(s, L, Δ)` with
//! `L ⊆ Chr^k s` and `Δ(t) = L ∩ Chr^k t`.
//!
//! Includes the paper's two running examples:
//!
//! * the **total order** task `L_ord` (§4.2) — for each permutation `α` of
//!   the processes, the unique facet of `Chr² s` whose color-`i` vertex
//!   lies in the interior of an `i`-dimensional face of `s`;
//! * the family **`L_t`** (§9.2) — facets of `Chr² s` with no vertex on an
//!   `(n−t−1)`-dimensional face of `s`, solvable `t`-resiliently
//!   (Proposition 9.2).

use std::sync::Arc;

use gact_chromatic::{chr_iter, CarrierMap, ChromaticSubdivision, FaceCarriers};
use gact_chromatic::{standard_simplex, top_simplex};
use gact_topology::{Complex, Simplex};

use crate::task::Task;
use crate::SpecError;

/// An affine task: the task plus its defining data (the ambient iterated
/// subdivision and the selected subcomplex `L`).
#[derive(Clone, Debug)]
pub struct AffineTask {
    /// The task `(s, L, Δ)`.
    pub task: Task,
    /// Subdivision depth `k`.
    pub depth: usize,
    /// The ambient `Chr^k s`, with carriers into `s`. Shared (`Arc`) so a
    /// scenario sweep can hand the same cached subdivision to every affine
    /// task built over it instead of re-subdividing per task.
    pub ambient: Arc<ChromaticSubdivision>,
    /// The selected output complex `L` (a subcomplex of the ambient).
    pub selected: Complex,
}

/// Error raised when a selected subcomplex fails the affine-task conditions
/// of §4.2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AffineError {
    /// `L` is not pure of dimension `n`.
    NotPure,
    /// `L ∩ Chr^k t` is non-empty but not pure of dimension `dim t` for the
    /// face `t`.
    FaceNotPure(Simplex),
}

impl std::fmt::Display for AffineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AffineError::NotPure => write!(f, "selected complex is not pure n-dimensional"),
            AffineError::FaceNotPure(t) => {
                write!(f, "L ∩ Chr^k {t:?} is not pure of dimension dim {t:?}")
            }
        }
    }
}

impl std::error::Error for AffineError {}

/// Builds the affine task over `n + 1` processes at subdivision depth
/// `depth`, selecting the facets of `Chr^depth s` for which `select`
/// returns true.
///
/// # Errors
///
/// Returns an error when the selection violates the purity conditions of
/// §4.2.
///
/// # Examples
///
/// ```
/// use gact_tasks::affine::affine_task;
///
/// // Keep only the central facet of Chr(s) (all carriers full): a valid
/// // affine task whose Δ(edge) images are empty.
/// let at = affine_task(2, 1, "central", |f, amb| {
///     f.iter().all(|v| amb.vertex_carrier[&v].card() == 3)
/// })
/// .unwrap();
/// at.task.validate().unwrap();
/// assert_eq!(at.selected.count_of_dim(2), 1);
/// ```
pub fn affine_task(
    n: usize,
    depth: usize,
    name: &str,
    select: impl FnMut(&Simplex, &ChromaticSubdivision) -> bool,
) -> Result<AffineTask, AffineError> {
    let (s, g) = standard_simplex(n);
    let ambient = Arc::new(chr_iter(&s, &g, depth));
    affine_task_in(n, depth, name, ambient, select)
}

/// [`affine_task`] over a pre-built (typically cached, shared) ambient
/// subdivision: `ambient` **must** be `Chr^depth` of the standard simplex
/// over `n + 1` processes, structurally identical to what
/// [`gact_chromatic::chr_iter`] produces — e.g. an
/// [`gact_chromatic::SubdivisionCache`] entry. The scenario-matrix sweep
/// uses this to build every affine task of a family against one shared
/// `Chr^k s` instead of re-subdividing per task.
///
/// # Errors
///
/// Returns an error when the selection violates the purity conditions of
/// §4.2.
pub fn affine_task_in(
    n: usize,
    depth: usize,
    name: &str,
    ambient: Arc<ChromaticSubdivision>,
    mut select: impl FnMut(&Simplex, &ChromaticSubdivision) -> bool,
) -> Result<AffineTask, AffineError> {
    let (s, g) = standard_simplex(n);
    // `Chr^k s` is pure, so its top simplices are exactly its facets of
    // dimension n; iterating the facet tables avoids materializing the
    // ambient's face closure.
    let selected = Complex::from_facets(
        ambient
            .complex
            .complex()
            .iter_facets()
            .filter(|f| f.dim() == n && select(f, &ambient))
            .cloned(),
    );
    if !selected.is_pure_of_dim(n) {
        return Err(AffineError::NotPure);
    }
    // Δ(t) = L ∩ Chr^k t, generated by the restrictions of L's facets to
    // their t-carried vertices.
    let carriers = FaceCarriers::new(&ambient, &top_simplex(n));
    let mut delta = CarrierMap::default();
    for t in s.complex().iter() {
        let image = carriers.restrict(&selected, t);
        if !image.is_empty() && !image.is_pure_of_dim(t.dim()) {
            return Err(AffineError::FaceNotPure(t.clone()));
        }
        delta.set(t.clone(), image);
    }
    let output = ambient.complex.restrict(&selected);
    let task = Task {
        name: name.to_string(),
        n,
        input: s,
        input_geometry: g,
        output,
        delta,
    };
    Ok(AffineTask {
        task,
        depth,
        ambient,
        selected,
    })
}

/// The immediate-snapshot iterate task: `L = Chr^depth s` in full. Solvable
/// wait-free with exactly `depth` IIS rounds — the canonical positive
/// control for the ACT machinery.
pub fn full_subdivision_task(n: usize, depth: usize) -> AffineTask {
    affine_task(n, depth, &format!("Chr^{depth}(s), n={n}"), |_, _| true)
        .expect("the full subdivision is a valid affine task")
}

/// [`full_subdivision_task`] over a shared pre-built `Chr^depth s` (see
/// [`affine_task_in`] for the ambient contract).
pub fn full_subdivision_task_in(
    n: usize,
    depth: usize,
    ambient: Arc<ChromaticSubdivision>,
) -> AffineTask {
    affine_task_in(
        n,
        depth,
        &format!("Chr^{depth}(s), n={n}"),
        ambient,
        |_, _| true,
    )
    .expect("the full subdivision is a valid affine task")
}

/// The total order task `L_ord` (§4.2): for each permutation `α` of the
/// processes, the unique facet of `Chr² s` whose vertex colored `α(i)`
/// lies in the interior of an `i`-dimensional face of `s`. Equivalently
/// (carriers of a subdivision simplex are nested): facets whose vertex
/// carriers have cardinalities `1, 2, …, n+1`. There are `(n+1)!` of them,
/// one per arrival order; uniqueness per permutation is checked in the
/// tests.
pub fn total_order_task(n: usize) -> AffineTask {
    let (s, g) = standard_simplex(n);
    total_order_task_in(n, Arc::new(chr_iter(&s, &g, 2)))
}

/// [`total_order_task`] over a shared pre-built `Chr² s` (see
/// [`affine_task_in`] for the ambient contract).
pub fn total_order_task_in(n: usize, ambient: Arc<ChromaticSubdivision>) -> AffineTask {
    affine_task_in(n, 2, &format!("L_ord(n={n})"), ambient, |facet, ambient| {
        let mut cards: Vec<usize> = facet
            .iter()
            .map(|v| ambient.vertex_carrier[&v].card())
            .collect();
        cards.sort_unstable();
        cards == (1..=n + 1).collect::<Vec<_>>()
    })
    .expect("L_ord is a valid affine task")
}

/// The task `L_t` (§9.2): facets of `Chr² s` with no vertex on an
/// `(n−t−1)`-dimensional face of `s`. Solvable in `Res_t`
/// (Proposition 9.2).
///
/// # Panics
///
/// Panics on the parameter ranges [`try_lt_task`] rejects.
pub fn lt_task(n: usize, t: usize) -> AffineTask {
    try_lt_task(n, t).unwrap_or_else(|e| panic!("{e}"))
}

/// Checked [`lt_task`]: rejects out-of-range parameters as a
/// [`SpecError`] naming the offending field instead of panicking.
///
/// # Errors
///
/// * `t` — `t > n` (the excluded `(n−t−1)`-skeleton must exist);
/// * `n` — more processes than the solver supports
///   ([`crate::MAX_PROCESSES`]).
pub fn try_lt_task(n: usize, t: usize) -> Result<AffineTask, SpecError> {
    check_lt_params(n, t)?;
    let (s, g) = standard_simplex(n);
    Ok(lt_task_unchecked(n, t, Arc::new(chr_iter(&s, &g, 2))))
}

fn check_lt_params(n: usize, t: usize) -> Result<(), SpecError> {
    crate::check_dimension(n)?;
    if t > n {
        return Err(SpecError::new(
            "t",
            format!("t = {t} must be at most n = {n} (the excluded skeleton must exist)"),
        ));
    }
    Ok(())
}

/// [`lt_task`] over a shared pre-built `Chr² s` (see [`affine_task_in`]
/// for the ambient contract).
///
/// # Panics
///
/// Panics on the parameter ranges [`try_lt_task_in`] rejects.
pub fn lt_task_in(n: usize, t: usize, ambient: Arc<ChromaticSubdivision>) -> AffineTask {
    try_lt_task_in(n, t, ambient).unwrap_or_else(|e| panic!("{e}"))
}

/// Checked [`lt_task_in`]; see [`try_lt_task`] for the rejected ranges.
///
/// # Errors
///
/// As [`try_lt_task`].
pub fn try_lt_task_in(
    n: usize,
    t: usize,
    ambient: Arc<ChromaticSubdivision>,
) -> Result<AffineTask, SpecError> {
    check_lt_params(n, t)?;
    Ok(lt_task_unchecked(n, t, ambient))
}

fn lt_task_unchecked(n: usize, t: usize, ambient: Arc<ChromaticSubdivision>) -> AffineTask {
    let min_card = n - t + 1; // carriers must have dimension > n−t−1
    affine_task_in(n, 2, &format!("L_{t}(n={n})"), ambient, |facet, ambient| {
        facet
            .iter()
            .all(|v| ambient.vertex_carrier[&v].card() >= min_card)
    })
    .expect("L_t is a valid affine task")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gact_chromatic::is_link_connected;
    use gact_topology::VertexId;

    #[test]
    fn full_subdivision_task_validates() {
        for depth in 0..=2 {
            let at = full_subdivision_task(1, depth);
            at.task.validate().unwrap();
            assert_eq!(
                at.selected.count_of_dim(1) as u64,
                3u64.pow(depth as u32) // Chr of an edge has 3 edges
            );
        }
    }

    #[test]
    fn total_order_counts_factorial() {
        // §4.2: six simplices σ_α for 3 processes.
        let at = total_order_task(2);
        at.task.validate().unwrap();
        assert_eq!(at.selected.count_of_dim(2), 6);
        // For 2 processes: 2 simplices.
        let at1 = total_order_task(1);
        assert_eq!(at1.selected.count_of_dim(1), 2);
    }

    #[test]
    fn total_order_simplices_encode_permutations() {
        // Each facet σ_α determines the permutation α(i) = color of the
        // vertex with carrier dimension i; all 6 permutations appear
        // exactly once, and the carriers are nested.
        let at = total_order_task(2);
        let mut perms = std::collections::BTreeSet::new();
        for facet in at.selected.iter_dim(2) {
            let mut by_card: Vec<(usize, u8, Simplex)> = facet
                .iter()
                .map(|v| {
                    let car = at.ambient.vertex_carrier[&v].clone();
                    (car.card(), at.ambient.complex.color(v).0, car)
                })
                .collect();
            by_card.sort();
            // Nested carrier chain.
            for w in by_card.windows(2) {
                assert!(w[0].2.is_face_of(&w[1].2));
            }
            perms.insert(by_card.iter().map(|x| x.1).collect::<Vec<u8>>());
        }
        assert_eq!(perms.len(), 6);
    }

    #[test]
    fn total_order_face_images() {
        let at = total_order_task(2);
        let full = Simplex::from_iter([0u32, 1, 2]);
        assert_eq!(at.task.allowed(&full).count_of_dim(2), 6);
        // Δ(edge): the two σ_α fragments lying inside that edge.
        let edge = Simplex::from_iter([0u32, 1]);
        let img = at.task.allowed(&edge);
        assert!(img.is_pure_of_dim(1));
        assert_eq!(img.count_of_dim(1), 2);
        // Δ(corner): the corner itself (a solo process "arrives first").
        let corner = Simplex::from_iter([0u32]);
        assert_eq!(at.task.allowed(&corner).facets(), vec![corner]);
    }

    #[test]
    fn total_order_is_not_link_connected() {
        // §8.2: the output complex of L_ord on three processes is not
        // link-connected.
        let at = total_order_task(2);
        assert!(!is_link_connected(&at.selected, 2));
    }

    #[test]
    fn lt_task_shape_n2_t1() {
        // §9.2 figure: L_1 for n = 2.
        let at = lt_task(2, 1);
        at.task.validate().unwrap();
        // No vertex of L_1 is a corner of s.
        for v in at.selected.vertex_set() {
            assert!(at.ambient.vertex_carrier[&v].card() >= 2);
        }
        // Boundary edges: Δ(edge) is non-empty and pure 1-dimensional.
        let edge = Simplex::from_iter([0u32, 2]);
        let img = at.task.allowed(&edge);
        assert!(!img.is_empty());
        assert!(img.is_pure_of_dim(1));
        // Δ(vertex) is empty (corners are excluded).
        assert!(at.task.allowed(&Simplex::from_iter([0u32])).is_empty());
    }

    #[test]
    fn lt_task_is_link_connected_per_face() {
        // Proposition 9.2's hypothesis: each Δ(t) is link-connected.
        let at = lt_task(2, 1);
        let full = Simplex::from_iter([0u32, 1, 2]);
        assert!(is_link_connected(&at.task.allowed(&full), 2));
        for e in [[0u32, 1], [0, 2], [1, 2]] {
            let img = at.task.allowed(&Simplex::from_iter(e));
            assert!(is_link_connected(&img, 1));
        }
    }

    #[test]
    fn lt_with_t_equal_n_is_everything_minus_nothing() {
        // t = n: the excluded skeleton has dimension −1, so L_n = Chr² s.
        let at = lt_task(2, 2);
        let full = full_subdivision_task(2, 2);
        assert_eq!(at.selected.count_of_dim(2), full.selected.count_of_dim(2));
    }

    #[test]
    fn affine_rejects_impure_selection() {
        // An empty selection is not pure of dimension n.
        let err = affine_task(2, 1, "nothing", |_, _| false).unwrap_err();
        assert_eq!(err, AffineError::NotPure);
    }

    #[test]
    fn affine_rejects_face_impure_selection() {
        // Only the corner facet of Chr(s) at vertex 0: the one whose other
        // two vertices saw everything. It touches the edge {0, 1} in the
        // lone vertex 0, so Δ({0, 1}) is non-empty but not pure of
        // dimension 1 (Δ({0}) = {0} is fine; Δ({1}) and Δ({2}) are empty).
        let err = affine_task(2, 1, "corner", |f, amb| {
            f.contains(VertexId(0))
                && f.iter()
                    .filter(|&v| v != VertexId(0))
                    .all(|v| amb.vertex_carrier[&v].card() == 3)
        })
        .unwrap_err();
        assert_eq!(err, AffineError::FaceNotPure(Simplex::from_iter([0u32, 1])));
    }
}
