//! Proposition 9.2, end to end: the affine task `L_t` is solvable in the
//! `t`-resilient model `Res_t`.
//!
//! The paper's construction (§9.2), reproduced computationally:
//!
//! 1. **Regions**: `R̃_m ⊆ |s|` is the union of the facets of `Chr^{m+2} s`
//!    with no vertex on the `(n−t−1)`-skeleton of `s`; `R_0 = |L_t|` and
//!    `R_m = closure(R̃_m − R̃_{m−1})`. Their union is the complement of
//!    the skeleton.
//! 2. **Terminating subdivision**: `Σ_0 = Σ_1 = ∅`; at stage `m + 2`,
//!    stabilize the subcomplex supported in `R_m`. Operationally we
//!    stabilize, at every stage, all facets none of whose vertices lie on
//!    the skeleton (their faces come along by closure) — at stage 2 this
//!    is exactly the `L_t` region, and at later stages exactly the next
//!    band.
//! 3. **Radial projection** `f : |K(T)| → R_0`: identity on `R_0`; a point
//!    in a skeleton notch is pushed along the ray from its dominant face
//!    until it enters `R_0`.
//! 4. **Chromatic approximation** `δ : K(T) → L_t`: found by the CSP
//!    solver with candidate ordering by distance to `f` (Theorem 8.4 /
//!    Proposition 9.1 made algorithmic; link-connectivity of the `Δ(t)`
//!    makes this solvable).
//! 5. **Admissibility** for `Res_t`: every `t`-resilient run has
//!    `|fast(r)| ≥ n + 1 − t`, so `π(r)` avoids the skeleton and the run
//!    lands in a stable band — checked operationally on enumerated and
//!    sampled runs, via the extracted protocol of Theorem 6.1 "⇐".

use gact_chromatic::TerminatingSubdivision;
use gact_tasks::affine::{lt_task, AffineTask};
use gact_topology::{l1_distance, ComplexLocator, Point, VertexId};

use crate::gact::GactCertificate;
use crate::solver::{solve, MapProblem, SolveOutcome, SolveStats};

/// The assembled Proposition 9.2 witness.
#[derive(Debug)]
pub struct LtShowcase {
    /// The task `L_t`.
    pub affine: AffineTask,
    /// The certificate: terminating subdivision with band-stabilization
    /// and the solver-found `δ`.
    pub certificate: GactCertificate,
    /// Newly stable simplices per stage (the sizes of the bands
    /// `R_0, R_1, …` as built).
    pub band_sizes: Vec<usize>,
    /// Solver statistics for the chromatic approximation.
    pub stats: SolveStats,
}

/// Whether a point lies on the `(n−t−1)`-skeleton (support of its
/// barycentric coordinates has at most `n−t` entries), up to tolerance.
///
/// Degenerate parameters are well-defined rather than a panic: for
/// `t ≥ n` the forbidden skeleton is the `(−1)`-skeleton or lower, which
/// is empty — no point lies on it (a barycentric support is never empty).
pub fn on_forbidden_skeleton(x: &[f64], n: usize, t: usize) -> bool {
    let support = x.iter().filter(|&&c| c > 1e-9).count();
    support <= n.saturating_sub(t)
}

/// A prepared membership test for `R_0 = |L|` of an affine task.
pub fn output_region_locator(affine: &AffineTask) -> ComplexLocator {
    ComplexLocator::new(
        &affine.ambient.geometry,
        affine.selected.iter_dim(affine.task.n),
    )
}

/// The radial projection of §9.2 for `t = n − 1`-style corner notches and
/// general `t`: pushes `x` away from its nearest forbidden face along a
/// straight ray until it enters `R_0 = |L_t|`; the identity inside `R_0`.
///
/// # Panics
///
/// Panics if the ray never enters `R_0` (cannot happen for points of
/// `|K(T)|`, whose union with the notches covers `|s|`).
pub fn radial_projection(x: &Point, affine: &AffineTask, n: usize, t: usize) -> Point {
    let region = output_region_locator(affine);
    radial_projection_with(x, &region, n, t)
}

/// [`radial_projection`] with a pre-built region locator (the fast path).
///
/// # Panics
///
/// Panics if the ray never enters `R_0`.
pub fn radial_projection_with(x: &Point, region: &ComplexLocator, n: usize, t: usize) -> Point {
    if region.contains(x) {
        return x.clone();
    }
    // The dominant forbidden face: keep the n−t largest coordinates (at
    // least one — for degenerate t ≥ n the ray leaves from the single
    // dominant corner instead of panicking on an empty face).
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| x[b].total_cmp(&x[a]));
    let face: Vec<usize> = idx[..n.saturating_sub(t).max(1)].to_vec();
    // Center of the face (for t = n−1: the corner itself).
    let mut center = vec![0.0; x.len()];
    for &i in &face {
        center[i] = 1.0 / face.len() as f64;
    }
    // March along the ray center -> x, extended, until inside R_0.
    let dir: Vec<f64> = x.iter().zip(&center).map(|(a, b)| a - b).collect();
    let mut lo = 1.0f64; // at x itself (outside)
    let mut hi = 1.0f64;
    let point_at = |u: f64| -> Point {
        center
            .iter()
            .zip(&dir)
            .map(|(c, d)| c + u * d)
            .collect::<Point>()
    };
    // Find a bracketing `hi` inside R_0, staying inside |s| (all coords
    // >= 0). The ray from the face center through any notch point crosses
    // R_0 before leaving the simplex.
    let mut found = false;
    for _ in 0..64 {
        hi *= 1.25;
        let p = point_at(hi);
        if p.iter().any(|&c| c < -1e-9) {
            break;
        }
        if region.contains(&p) {
            found = true;
            break;
        }
        lo = hi;
    }
    assert!(found, "radial projection ray never entered R_0 from {x:?}");
    // Bisect to the boundary.
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if region.contains(&point_at(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    point_at(hi)
}

/// Builds the Proposition 9.2 certificate for `L_t` over `n + 1`
/// processes, with `extra_stages` bands beyond `R_0`.
///
/// # Errors
///
/// Returns an error if the carrier condition fails or the solver cannot
/// find a chromatic approximation (neither happens for the paper's cases;
/// the error path exists for misuse, e.g. `t = 0`).
pub fn build_lt_showcase(n: usize, t: usize, extra_stages: usize) -> Result<LtShowcase, String> {
    let affine = lt_task(n, t);
    let task = &affine.task;
    let mut sub = TerminatingSubdivision::new(&task.input, &task.input_geometry);
    sub.advance_by(2); // Σ_0 = Σ_1 = ∅: C_2 = Chr² s
    let mut band_sizes = Vec::new();
    for _ in 0..=extra_stages {
        let geometry = sub.geometry();
        // Band selection is an independent per-facet predicate: evaluate
        // it across workers, keeping canonical facet order.
        let candidates: Vec<&gact_topology::Simplex> =
            sub.current().complex().iter_dim(n).collect();
        let keep = gact_parallel::par_map(&candidates, |f| {
            f.iter()
                .all(|v| !on_forbidden_skeleton(geometry.coord(v), n, t))
        });
        let facets: Vec<_> = candidates
            .iter()
            .zip(&keep)
            .filter(|&(_, &keep)| keep)
            .map(|(&f, _)| f.clone())
            .collect();
        let newly = sub.stabilize(facets);
        band_sizes.push(newly);
        sub.advance();
    }
    // Chromatic approximation δ: K(T) -> L_t, guided by the radial
    // projection.
    let stable = sub.stable_chromatic();
    let geometry = sub.geometry().clone();
    let out_geometry = affine.ambient.geometry.clone();
    let vertex_carrier = sub
        .current()
        .complex()
        .vertex_set()
        .into_iter()
        .map(|v| (v, sub.carrier(v).clone()))
        .collect();
    let problem = MapProblem {
        domain: &stable,
        vertex_carrier: &vertex_carrier,
        task,
    };
    let region = output_region_locator(&affine);
    let hint = move |v: VertexId, cands: &[VertexId]| -> Vec<VertexId> {
        let target = radial_projection_with(geometry.coord(v), &region, n, t);
        let mut ordered = cands.to_vec();
        ordered.sort_by(|&a, &b| {
            l1_distance(out_geometry.coord(a), &target)
                .total_cmp(&l1_distance(out_geometry.coord(b), &target))
        });
        ordered
    };
    let outcome = solve(&problem, Some(&hint));
    let SolveOutcome::Map(map, stats) = outcome else {
        return Err("no chromatic approximation δ : K(T) → L_t found".into());
    };
    let certificate = GactCertificate::new(sub, map);
    certificate.check_carrier_condition(task)?;
    Ok(LtShowcase {
        affine,
        certificate,
        band_sizes,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::verify_protocol_on_runs;
    use gact_iis::{ProcessId, ProcessSet, Run};
    use gact_models::{enumerate_runs, RunSampler, SamplerConfig, SubIisModel, TResilient};
    use std::sync::OnceLock;

    fn shared_showcase() -> &'static LtShowcase {
        static SHOW: OnceLock<LtShowcase> = OnceLock::new();
        SHOW.get_or_init(|| build_lt_showcase(2, 1, 3).expect("Proposition 9.2 witness"))
    }

    #[test]
    fn regions_cover_complement_of_skeleton() {
        let region = output_region_locator(&lt_task(2, 1));
        // Sample points: interior points are eventually covered; corner
        // points never.
        assert!(region.contains(&[1.0 / 3.0; 3]));
        assert!(!region.contains(&[1.0, 0.0, 0.0]));
        assert!(on_forbidden_skeleton(&[1.0, 0.0, 0.0], 2, 1));
        assert!(!on_forbidden_skeleton(&[0.5, 0.5, 0.0], 2, 1));
    }

    #[test]
    fn degenerate_parameters_do_not_panic() {
        // Regression: t = n and t > n used to underflow `n - t`. The
        // forbidden skeleton is empty for t ≥ n — no point lies on it.
        for t in [2usize, 3, 50] {
            assert!(!on_forbidden_skeleton(&[1.0, 0.0, 0.0], 2, t), "t = {t}");
            assert!(!on_forbidden_skeleton(&[0.4, 0.3, 0.3], 2, t), "t = {t}");
        }
        // t = n − 1 (the paper's corner-notch case) still flags corners.
        assert!(on_forbidden_skeleton(&[1.0, 0.0, 0.0], 2, 1));
        // The radial projection's dominant-face selection saturates too:
        // a notch point projects without panicking even for t ≥ n.
        let affine = lt_task(2, 1);
        let region = output_region_locator(&affine);
        for t in [2usize, 3] {
            let proj = radial_projection_with(&vec![0.96, 0.02, 0.02], &region, 2, t);
            assert!(region.contains(&proj), "t = {t}");
        }
    }

    #[test]
    fn radial_projection_properties() {
        let affine = lt_task(2, 1);
        let region = output_region_locator(&affine);
        // Identity on R_0.
        let inside = vec![0.3, 0.4, 0.3];
        assert_eq!(radial_projection(&inside, &affine, 2, 1), inside);
        // A point deep in the corner-0 notch projects onto ∂R_0, on the
        // ray from the corner.
        let notch = vec![0.96, 0.02, 0.02];
        let proj = radial_projection(&notch, &affine, 2, 1);
        assert!(region.contains(&proj));
        // Collinearity with the corner: proj = corner + u*(notch−corner).
        let u = (1.0 - proj[0]) / (1.0 - notch[0]);
        for i in 1..3 {
            assert!((proj[i] - u * notch[i]).abs() < 1e-6, "not on the ray");
        }
        // Boundary preservation: a notch point on the edge x2 = 0 projects
        // within that edge (radial projection preserves boundaries, §9.2).
        let edge_notch = vec![0.95, 0.05, 0.0];
        let proj_e = radial_projection(&edge_notch, &affine, 2, 1);
        assert!(proj_e[2].abs() < 1e-9);
        assert!(region.contains(&proj_e));
    }

    #[test]
    fn showcase_builds_and_certifies() {
        let show = shared_showcase();
        // Band 0 is the L_1 region: its facet count matches the task.
        assert!(show.band_sizes[0] > 0);
        assert!(show.band_sizes.iter().all(|&b| b > 0));
        show.certificate
            .check_carrier_condition(&show.affine.task)
            .unwrap();
    }

    #[test]
    fn lt_solvable_on_enumerated_t_resilient_runs() {
        let show = shared_showcase();
        let res1 = TResilient { n_procs: 3, t: 1 };
        let runs: Vec<Run> = enumerate_runs(3, 0)
            .into_iter()
            .filter(|r| res1.contains(r))
            .collect();
        assert!(!runs.is_empty());
        let reports = verify_protocol_on_runs(&show.certificate, &show.affine.task, &runs, 14);
        for rep in &reports {
            assert!(
                rep.violations.is_empty(),
                "violations on {:?}: {:?}",
                rep.run,
                rep.violations
            );
        }
    }

    #[test]
    fn lt_solvable_on_sampled_t_resilient_runs() {
        let show = shared_showcase();
        let mut sampler = RunSampler::new(
            3,
            2024,
            SamplerConfig {
                max_prefix: 2,
                max_cycle: 2,
            },
        );
        let mut runs = Vec::new();
        let fast_choices: Vec<(ProcessSet, ProcessSet)> = vec![
            (
                [ProcessId(0), ProcessId(1)].into_iter().collect(),
                ProcessSet::empty(),
            ),
            (
                [ProcessId(0), ProcessId(1)].into_iter().collect(),
                ProcessSet::singleton(ProcessId(2)),
            ),
            (
                [ProcessId(1), ProcessId(2)].into_iter().collect(),
                ProcessSet::empty(),
            ),
            (ProcessSet::full(3), ProcessSet::empty()),
        ];
        for (fast, trailing) in &fast_choices {
            for _ in 0..10 {
                runs.push(sampler.sample_with_fast(*fast, *trailing));
            }
        }
        let res1 = TResilient { n_procs: 3, t: 1 };
        assert!(runs.iter().all(|r| res1.contains(r)));
        let reports = verify_protocol_on_runs(&show.certificate, &show.affine.task, &runs, 20);
        for rep in &reports {
            assert!(
                rep.violations.is_empty(),
                "violations on {:?}: {:?}",
                rep.run,
                rep.violations
            );
        }
    }

    #[test]
    fn wait_free_run_outside_model_never_terminates() {
        // The solo run is wait-free but not 1-resilient; the L_t protocol
        // must (correctly) never decide for it — Δ(corner) is empty.
        let show = shared_showcase();
        let solo = Run::new(3, [], [gact_iis::Round::solo(ProcessId(0))]).unwrap();
        let reports = verify_protocol_on_runs(&show.certificate, &show.affine.task, &[solo], 12);
        // Liveness "violation" expected: p0 cannot decide. No task
        // violation though.
        assert!(reports[0]
            .violations
            .iter()
            .all(|v| v.starts_with("liveness")));
        assert!(!reports[0].violations.is_empty());
    }
}
