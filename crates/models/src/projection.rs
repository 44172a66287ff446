//! The affine projection `π : R → |s|` and the canonical coloring
//! `χ : |s| → 2^{{0,…,n}}` (paper §5).
//!
//! A run corresponds to a nested sequence of simplices
//! `σ_k ∈ Chr^k s` (the configuration simplices of its rounds); their
//! geometric realizations shrink to a single point `π(r)`. The information
//! in `π(r)` is exactly the limit views of the fast processes:
//! `χ(π(r)) = fast(r)`, and `π(r)` determines `minimal(r)`.

use gact_chromatic::standard_simplex;
use gact_iis::{ProcessId, ProcessSet, Run};
use gact_topology::Point;

/// Numerical convergence target for the projection iteration.
const TOL: f64 = 1e-12;

/// Computes `π(r)` by iterating the run's position dynamics
/// ([`Run::positions`], the `Chr^k` vertices of its views) until the
/// configuration simplex of the infinitely-participating processes has L1
/// diameter below `TOL` (convergence is geometric: each round shrinks the
/// configuration by a factor `≤ n/(n+1)`).
pub fn affine_projection(run: &Run) -> Point {
    let inf = run.inf_part();
    for (k, positions) in run.positions().enumerate() {
        let rounds = k + 1;
        // Every round's participants include ∞-part (participation is
        // nested), in process order.
        let limit: Vec<Point> = positions
            .into_iter()
            .filter(|(p, _)| inf.contains(*p))
            .map(|(_, x)| x)
            .collect();
        if rounds >= 16 && diameter(&limit) < TOL {
            // All infinitely-participating positions coincide (within
            // TOL); return their barycenter.
            let mut acc = vec![0.0; run.process_count()];
            for x in &limit {
                for (a, v) in acc.iter_mut().zip(x) {
                    *a += v;
                }
            }
            for a in &mut acc {
                *a /= inf.len() as f64;
            }
            return acc;
        }
        assert!(rounds < 100_000, "affine projection failed to converge");
    }
    unreachable!("run positions are an infinite iterator")
}

fn diameter(pts: &[Point]) -> f64 {
    let mut d: f64 = 0.0;
    for i in 0..pts.len() {
        for j in i + 1..pts.len() {
            let dist: f64 = pts[i].iter().zip(&pts[j]).map(|(a, b)| (a - b).abs()).sum();
            d = d.max(dist);
        }
    }
    d
}

/// The canonical coloring `χ(p)` of a point of `|s|`, approximated at
/// subdivision depth `depth`: the color set of the carrier of `p` in
/// `Chr^depth s`. The true `χ(p)` is the stable value as `depth → ∞`;
/// for points of the form `π(r)` the value stabilizes at finite depth
/// (and equals `fast(r)`, checked in the tests).
pub fn canonical_coloring_at_depth(point: &[f64], n: usize, depth: usize) -> ProcessSet {
    let (mut complex, mut geometry) = standard_simplex(n);
    let mut result = carrier_colors(point, &complex, &geometry);
    for _ in 0..depth {
        let sd = gact_chromatic::chr(&complex, &geometry);
        complex = sd.complex;
        geometry = sd.geometry;
        result = carrier_colors(point, &complex, &geometry);
    }
    result
}

fn carrier_colors(
    point: &[f64],
    complex: &gact_chromatic::ChromaticComplex,
    geometry: &gact_topology::Geometry,
) -> ProcessSet {
    let carrier = geometry
        .carrier_of_point(point, complex.complex())
        .expect("point must lie in |s|");
    complex.chi(&carrier).iter().map(ProcessId::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gact_iis::Round;

    fn round(blocks: &[&[u8]]) -> Round {
        Round::from_blocks(
            blocks
                .iter()
                .map(|b| b.iter().map(|&i| ProcessId(i)).collect::<Vec<_>>()),
        )
        .unwrap()
    }

    fn pset(ids: &[u8]) -> ProcessSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn fair_run_projects_to_barycenter_direction() {
        // All processes symmetric: the projection is the barycenter.
        let p = affine_projection(&Run::fair(3));
        for x in &p {
            assert!(
                (x - 1.0 / 3.0).abs() < 1e-9,
                "expected barycenter, got {p:?}"
            );
        }
    }

    #[test]
    fn solo_run_projects_to_corner() {
        let r = Run::new(3, [], [round(&[&[1]])]).unwrap();
        let p = affine_projection(&r);
        assert!((p[1] - 1.0).abs() < 1e-9);
        assert!(p[0].abs() < 1e-9 && p[2].abs() < 1e-9);
    }

    #[test]
    fn projection_is_invariant_under_minimal() {
        // π(r) is the same point for r and minimal(r) (§5: each point of
        // |s| is identified with a minimal run).
        let runs = [
            Run::new(3, [], [round(&[&[0], &[1], &[2]])]).unwrap(),
            Run::new(3, [round(&[&[0, 1, 2]])], [round(&[&[0], &[1]])]).unwrap(),
            Run::new(2, [], [round(&[&[0], &[1]]), round(&[&[1], &[0]])]).unwrap(),
        ];
        for r in &runs {
            let a = affine_projection(r);
            let b = affine_projection(&r.minimal());
            let d: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert!(d < 1e-9, "π(r) ≠ π(minimal(r)) for {r:?}");
        }
    }

    #[test]
    fn canonical_coloring_equals_fast_set() {
        // χ(π(r)) = fast(r) (§5).
        let cases = [
            (Run::fair(3), pset(&[0, 1, 2])),
            (
                Run::new(3, [], [round(&[&[0], &[1], &[2]])]).unwrap(),
                pset(&[0]),
            ),
            (
                Run::new(3, [], [round(&[&[0, 1], &[2]])]).unwrap(),
                pset(&[0, 1]),
            ),
            (Run::new(3, [], [round(&[&[2]])]).unwrap(), pset(&[2])),
        ];
        for (r, expected_fast) in &cases {
            assert_eq!(r.fast(), *expected_fast, "fast mismatch for {r:?}");
            let point = affine_projection(r);
            let chi = canonical_coloring_at_depth(&point, 2, 3);
            assert_eq!(chi, *expected_fast, "χ(π(r)) ≠ fast(r) for {r:?}");
        }
    }

    #[test]
    fn distinct_minimal_runs_project_to_distinct_points() {
        let r1 = Run::new(3, [], [round(&[&[0], &[1]])]).unwrap();
        let r2 = Run::new(3, [], [round(&[&[1], &[0]])]).unwrap();
        let p1 = affine_projection(&r1.minimal());
        let p2 = affine_projection(&r2.minimal());
        let d: f64 = p1.iter().zip(&p2).map(|(a, b)| (a - b).abs()).sum();
        assert!(d > 1e-6);
    }
}
