//! GACT certificates (Theorem 6.1): a terminating subdivision `T` of the
//! input complex together with a chromatic map `δ : K(T) → O`, plus the
//! two checkable conditions —
//!
//! * **(b) carrier condition**: `δ(τ) ∈ Δ(σ)` for every stable `τ` with
//!   `|τ| ⊆ |σ|`;
//! * **(a) admissibility** for a model `M`: every run of `M` eventually
//!   "lands" in a stable simplex (checked operationally on concrete runs,
//!   up to a round bound — admissibility quantifies over the whole model,
//!   which a library can only sample or enumerate).
//!
//! Certificates for *wait-free* solvable tasks arise from ACT maps
//! ([`certificate_from_act_map`], the `Chr^k`-with-everything-terminated
//! special case of Corollary 7.1); certificates for genuinely non-compact
//! models are built stage by stage (see the `lt` module for
//! Proposition 9.2).
//!
//! This module handles *input-less* tasks (`I = s`), which is where the
//! paper's sub-IIS examples live; the affine projection `ρ` of Theorem 6.1
//! is then the identity.

use gact_chromatic::{ChromaticSubdivision, SimplicialMap, TerminatingSubdivision};
use gact_iis::Run;
use gact_tasks::Task;
use gact_topology::{ComplexLocator, Point, Simplex, VertexId};

/// Stable simplices per parallel item of the carrier check, so that an
/// item's `Δ` lookups outweigh the cost of claiming it.
const CARRIER_CHECK_CHUNK: usize = 64;

/// A GACT certificate: terminating subdivision + chromatic map on its
/// stable complex.
#[derive(Debug)]
pub struct GactCertificate {
    /// The terminating subdivision `T`, built to a finite stage.
    pub subdivision: TerminatingSubdivision,
    /// The chromatic map `δ : K(T) → O` (defined on stable vertices).
    pub map: SimplicialMap,
    /// Point location over the stable facets, built once with the
    /// certificate and shared read-only by every query.
    locator: ComplexLocator,
}

impl GactCertificate {
    /// Assembles a certificate and builds its point locator over the
    /// stable facets.
    ///
    /// # Panics
    ///
    /// Panics if the subdivision's geometry lacks the coordinates of a
    /// stable vertex.
    pub fn new(subdivision: TerminatingSubdivision, map: SimplicialMap) -> Self {
        let locator = ComplexLocator::new(
            subdivision.geometry(),
            subdivision.stable_complex().facets().iter(),
        );
        GactCertificate {
            subdivision,
            map,
            locator,
        }
    }

    /// Checks condition (b) of Theorem 6.1: `δ` is a chromatic simplicial
    /// map on the stable complex and `δ(τ) ∈ Δ(carrier τ)` for every
    /// stable simplex `τ`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check_carrier_condition(&self, task: &Task) -> Result<(), String> {
        let stable = self.subdivision.stable_chromatic();
        self.map
            .validate_chromatic(&stable, &task.output)
            .map_err(|e| format!("δ is not chromatic simplicial: {e}"))?;
        let check = |tau: &Simplex| -> Result<(), String> {
            let carrier = self.subdivision.simplex_carrier(tau);
            let image = self.map.apply_simplex(tau);
            if !task
                .allowed_ref(&carrier)
                .is_some_and(|a| a.contains(&image))
            {
                return Err(format!("δ({tau:?}) = {image:?} not in Δ({carrier:?})"));
            }
            Ok(())
        };
        // Per-simplex Δ checks are independent: fan out over chunks and
        // report the violation of lowest iteration index, which is exactly
        // the one a sequential scan finds first. (Violations are the
        // exceptional path — a full scan is the expected cost.)
        let taus: Vec<&Simplex> = stable.complex().iter().collect();
        let chunks: Vec<&[&Simplex]> = taus.chunks(CARRIER_CHECK_CHUNK).collect();
        let violations = gact_parallel::par_map(&chunks, |chunk| {
            chunk.iter().find_map(|tau| check(tau).err())
        });
        match violations.into_iter().flatten().next() {
            Some(violation) => Err(violation),
            None => Ok(()),
        }
    }

    /// The minimal stable simplex whose realization contains all `points`,
    /// whose colors include `needed`, **and whose stabilization stage is at
    /// most `max_stage`** — a simplex of `Σ_k` may justify outputs only
    /// from round `k` on (the `Σ_k`-indexing of Theorem 6.1's proof;
    /// without the stage bound a process could decide off an early view
    /// that a *later* run extension contradicts). Minimality makes the
    /// choice unique, which keeps extracted protocols consistent across
    /// processes.
    pub fn landing_simplex(
        &self,
        points: &[Point],
        needed: gact_chromatic::ColorSet,
        max_stage: usize,
    ) -> Option<Simplex> {
        let chroma = self.subdivision.current();
        let mut best: Option<Simplex> = None;
        'facet: for (facet, sl) in self.locator.entries() {
            if !needed.is_subset_of(chroma.chi(facet)) {
                continue;
            }
            // Union of barycentric supports of the points inside this
            // facet: the minimal face containing them all.
            let mut support = vec![false; facet.card()];
            for p in points {
                let Some(lam) = sl.barycentric(p) else {
                    continue 'facet;
                };
                if lam.iter().any(|&x| x < -gact_topology::geometry::EPS) {
                    continue 'facet;
                }
                for (slot, &l) in support.iter_mut().zip(&lam) {
                    if l > 1e-9 {
                        *slot = true;
                    }
                }
            }
            let mut chosen: Vec<VertexId> = facet
                .iter()
                .zip(&support)
                .filter(|(_, &keep)| keep)
                .map(|(v, _)| v)
                .collect();
            if chosen.is_empty() {
                continue;
            }
            // Complete missing required colors with the facet's unique
            // vertex of each color (facets are rainbow).
            let have: gact_chromatic::ColorSet = chosen.iter().map(|&v| chroma.color(v)).collect();
            for c in needed.difference(have).iter() {
                chosen.push(chroma.vertex_of_color(facet, c).expect("needed ⊆ χ(facet)"));
            }
            let tau = Simplex::new(chosen);
            match self.subdivision.stage_of(&tau) {
                Some(stage) if stage <= max_stage => {}
                _ => continue,
            }
            // Deterministic choice: smallest cardinality, then
            // lexicographic — the protocol must be a pure function of
            // the view.
            match &best {
                Some(b) if (b.card(), b) <= (tau.card(), &tau) => {}
                _ => best = Some(tau),
            }
        }
        best
    }

    /// Checks admissibility of the subdivision for one run, operationally:
    /// iterates the run's position dynamics ([`Run::positions`]) and
    /// reports the first round at which the configuration (the positions
    /// of all round participants) lies inside a single stable simplex with
    /// a full color set.
    ///
    /// Input-less tasks only (`I = s`, `ρ = id`).
    ///
    /// # Errors
    ///
    /// `Err(max_rounds)` when the run has not landed within the bound —
    /// either the subdivision was not built deep enough, or `T` is not
    /// admissible for a model containing this run.
    pub fn landing_round(&self, run: &Run, max_rounds: usize) -> Result<usize, usize> {
        for (k, positions) in run.positions().take(max_rounds).enumerate() {
            let needed = run.round(k).participants().to_colors();
            let points: Vec<Point> = positions.into_iter().map(|(_, x)| x).collect();
            if self.landing_simplex(&points, needed, k + 1).is_some() {
                return Ok(k + 1);
            }
        }
        Err(max_rounds)
    }

    /// Batched admissibility check: [`GactCertificate::landing_round`] for
    /// every run, fanned out across workers, verdicts in run order. This
    /// is how model-level admissibility is checked in practice — a model
    /// is sampled or enumerated into a batch of runs
    /// (`gact_models::enumerate_runs` / `RunSampler`) and every run must
    /// land within the bound.
    pub fn landing_rounds(&self, runs: &[Run], max_rounds: usize) -> Vec<Result<usize, usize>> {
        gact_parallel::par_map(runs, |run| self.landing_round(run, max_rounds))
    }
}

/// Builds the degenerate certificate of Corollary 7.1 from an ACT map:
/// `Chr^k I`, fully subdivided for `k` stages and then entirely
/// terminated, with `δ = η`.
///
/// # Examples
///
/// The full certificate round trip: decide solvability, assemble the
/// certificate, check condition (b), and verify the extracted protocol
/// operationally on every enumerated wait-free run:
///
/// ```
/// use gact::{act_solve, certificate_from_act_map, verify_protocol_on_runs, ActVerdict};
/// use gact_models::enumerate_runs;
/// use gact_tasks::affine::full_subdivision_task;
///
/// let at = full_subdivision_task(1, 1);
/// let ActVerdict::Solvable { depth, map, subdivision, .. } = act_solve(&at.task, 2) else {
///     panic!("the one-round snapshot task is wait-free solvable");
/// };
/// let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
/// cert.check_carrier_condition(&at.task).unwrap();
///
/// let reports = verify_protocol_on_runs(&cert, &at.task, &enumerate_runs(2, 0), 8);
/// assert!(reports.iter().all(|r| r.violations.is_empty()));
/// ```
///
/// # Panics
///
/// Panics if the ACT subdivision and the terminating subdivision disagree
/// on vertex identities (they are constructed by the same deterministic
/// procedure, so they never should).
pub fn certificate_from_act_map(
    task: &Task,
    depth: usize,
    act_subdivision: &ChromaticSubdivision,
    map: &SimplicialMap,
) -> GactCertificate {
    let mut t = TerminatingSubdivision::new(&task.input, &task.input_geometry);
    t.advance_by(depth);
    assert_eq!(
        t.current().complex(),
        act_subdivision.complex.complex(),
        "deterministic construction must agree with chr_iter"
    );
    let facets = t.current().complex().facets();
    t.stabilize(facets);
    GactCertificate::new(t, map.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::{act_solve, ActVerdict};
    use gact_iis::{ProcessId, Round};
    use gact_tasks::affine::full_subdivision_task;

    fn round(blocks: &[&[u8]]) -> Round {
        Round::from_blocks(
            blocks
                .iter()
                .map(|b| b.iter().map(|&i| ProcessId(i)).collect::<Vec<_>>()),
        )
        .unwrap()
    }

    #[test]
    fn act_certificate_for_full_subdivision_task() {
        let at = full_subdivision_task(1, 1);
        let ActVerdict::Solvable {
            depth,
            map,
            subdivision,
            ..
        } = act_solve(&at.task, 2)
        else {
            panic!("expected solvable");
        };
        let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
        cert.check_carrier_condition(&at.task).unwrap();
        // Admissible for wait-free runs: everything lands at round `depth`.
        let runs = [
            Run::fair(2),
            Run::new(2, [], [round(&[&[0], &[1]])]).unwrap(),
            Run::new(2, [], [round(&[&[1]])]).unwrap(),
            Run::new(2, [round(&[&[0, 1]])], [round(&[&[0]])]).unwrap(),
        ];
        for r in &runs {
            let landed = cert.landing_round(r, 10).expect("wait-free admissible");
            assert!(landed >= depth, "cannot land before the subdivision depth");
        }
    }

    #[test]
    fn act_certificate_n2() {
        let at = full_subdivision_task(2, 1);
        let ActVerdict::Solvable {
            depth,
            map,
            subdivision,
            ..
        } = act_solve(&at.task, 1)
        else {
            panic!("expected solvable");
        };
        let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
        cert.check_carrier_condition(&at.task).unwrap();
        for r in [
            Run::fair(3),
            Run::new(3, [], [round(&[&[2], &[0, 1]])]).unwrap(),
        ] {
            assert!(cert.landing_round(&r, 10).is_ok());
        }
    }

    #[test]
    fn landing_simplex_is_minimal_and_color_covering() {
        let at = full_subdivision_task(1, 1);
        let ActVerdict::Solvable {
            depth,
            map,
            subdivision,
            ..
        } = act_solve(&at.task, 1)
        else {
            panic!();
        };
        let cert = certificate_from_act_map(&at.task, depth, &subdivision, &map);
        // A corner point with only its own color needed lands on the
        // corner vertex itself (minimality); demanding both colors bumps
        // it to an incident edge.
        let corner = vec![1.0, 0.0];
        let solo = gact_chromatic::ColorSet::singleton(gact_chromatic::Color(0));
        let tau = cert
            .landing_simplex(std::slice::from_ref(&corner), solo, 9)
            .unwrap();
        assert_eq!(tau.card(), 1);
        let both = gact_chromatic::ColorSet::full(1);
        let tau2 = cert
            .landing_simplex(std::slice::from_ref(&corner), both, 9)
            .unwrap();
        assert_eq!(tau2.card(), 2);
        assert_eq!(
            cert.subdivision.current().chi(&tau2),
            gact_chromatic::ColorSet::full(1)
        );
        // An interior point of the central region needs a 1-simplex even
        // for one color (no stable vertex sits there).
        let mid = vec![0.5, 0.5];
        let tau3 = cert.landing_simplex(&[mid], solo, 9).unwrap();
        assert!(tau3.card() >= 2);
        // Stage gating: the depth-1 certificate stabilized everything at
        // stage 1; nothing lands at stage bound 0.
        assert!(cert.landing_simplex(&[corner], solo, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "no coordinates")]
    fn new_rejects_geometry_without_coordinates() {
        // The locator is built with the certificate, so a geometry missing
        // the stable vertices' coordinates fails at construction with the
        // locator's own message, before any query runs.
        use gact_chromatic::{standard_simplex, TerminatingSubdivision};
        let (s, _) = standard_simplex(1);
        let broken_geometry = gact_topology::Geometry::new(2); // no coordinates
        let mut t = TerminatingSubdivision::new(&s, &broken_geometry);
        let facets = t.current().complex().facets();
        t.stabilize(facets);
        let map = SimplicialMap::new(s.complex().vertex_set().into_iter().map(|v| (v, v)));
        let _ = GactCertificate::new(t, map);
    }
}
