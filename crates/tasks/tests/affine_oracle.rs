//! Equivalence of the affine-task construction with the definition of §4.2.
//!
//! `affine_task_in` derives each `Δ(t) = L ∩ Chr^k t` from the restrictions
//! of `L`'s facets to their `t`-carried vertices. The oracle below is the
//! literal definition instead: enumerate the face closure of `L` and keep
//! every simplex whose carrier (the union of its vertices' carriers) is a
//! face of `t`. Both must agree on every face of `s`, as must the output
//! complexes.

use std::sync::Arc;

use gact_chromatic::{chr_iter, standard_simplex, ChromaticSubdivision};
use gact_tasks::affine::{
    affine_task_in, full_subdivision_task_in, lt_task_in, total_order_task_in, AffineTask,
};
use gact_topology::Complex;

/// `Chr^depth s` over `n + 1` processes, shared by the tasks under test.
fn ambient(n: usize, depth: usize) -> Arc<ChromaticSubdivision> {
    let (s, g) = standard_simplex(n);
    Arc::new(chr_iter(&s, &g, depth))
}

/// Asserts that every `Δ(t)` and the output complex of `at` equal the
/// closure-scan construction.
fn assert_matches_closure_scan(at: &AffineTask) {
    let name = &at.task.name;
    let output = at.ambient.complex.restrict(&at.selected);
    assert_eq!(at.task.output, output, "{name}: output");
    assert_eq!(
        at.task.output.complex().facets(),
        output.complex().facets(),
        "{name}: output facets"
    );
    for t in at.task.input.complex().iter() {
        let expected = Complex::from_facets(
            at.selected
                .iter()
                .filter(|sim| at.ambient.simplex_carrier(sim).is_face_of(t))
                .cloned(),
        );
        let got = at.task.allowed(t);
        assert_eq!(got, expected, "{name}: Δ({t:?})");
        assert_eq!(got.facets(), expected.facets(), "{name}: Δ({t:?}) facets");
    }
}

#[test]
fn full_subdivision_delta_matches_closure_scan() {
    for n in 0..=2 {
        for depth in 0..=2 {
            assert_matches_closure_scan(&full_subdivision_task_in(n, depth, ambient(n, depth)));
        }
    }
}

#[test]
fn total_order_delta_matches_closure_scan() {
    for n in 0..=3 {
        assert_matches_closure_scan(&total_order_task_in(n, ambient(n, 2)));
    }
}

#[test]
fn lt_delta_matches_closure_scan() {
    for n in 0..=3 {
        let amb = ambient(n, 2);
        for t in 0..=n {
            assert_matches_closure_scan(&lt_task_in(n, t, Arc::clone(&amb)));
        }
    }
}

#[test]
fn custom_selection_delta_matches_closure_scan() {
    // Facets of Chr² s (n = 2) with at least one vertex on the boundary
    // edge {0, 1}: images are non-trivial on that edge and on its corners.
    let at = affine_task_in(2, 2, "touches {0,1}", ambient(2, 2), |f, amb| {
        f.iter()
            .any(|v| amb.vertex_carrier[&v].iter().all(|w| w.0 <= 1))
    })
    .unwrap();
    assert!(!at
        .task
        .allowed(&gact_topology::Simplex::from_iter([0u32, 1]))
        .is_empty());
    assert_matches_closure_scan(&at);
}
