//! Property-based tests for the topology substrate: closure invariants,
//! facet laws, homology vs Euler characteristic.

use proptest::prelude::*;

use gact_topology::connectivity::is_k_connected;
use gact_topology::homology::betti_numbers;
use gact_topology::{Complex, Simplex, VertexId};

/// Strategy: a random non-empty simplex over vertices 0..8 with ≤ 4
/// vertices.
fn arb_simplex() -> impl Strategy<Value = Simplex> {
    proptest::collection::btree_set(0u32..8, 1..=4)
        .prop_map(|vs| Simplex::new(vs.into_iter().map(VertexId)))
}

/// Strategy: a random complex from up to 6 facets.
fn arb_complex() -> impl Strategy<Value = Complex> {
    proptest::collection::vec(arb_simplex(), 1..=6).prop_map(Complex::from_facets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn closure_under_faces(c in arb_complex()) {
        for s in c.iter() {
            for f in s.faces() {
                prop_assert!(c.contains(&f), "face {f:?} of {s:?} missing");
            }
        }
    }

    #[test]
    fn facets_are_maximal_and_generate(c in arb_complex()) {
        let facets = c.facets();
        // No facet is a proper face of another simplex.
        for f in &facets {
            for s in c.iter() {
                prop_assert!(!f.is_proper_face_of(s));
            }
        }
        // Facets regenerate the complex.
        let regen = Complex::from_facets(facets);
        prop_assert_eq!(&regen, &c);
    }

    #[test]
    fn skeleton_monotone(c in arb_complex(), k in 0usize..4) {
        let sk = c.skeleton(k);
        prop_assert!(sk.is_subcomplex_of(&c));
        prop_assert!(sk.dim().unwrap_or(0) <= k);
        if let Some(d) = c.dim() {
            if d <= k {
                prop_assert_eq!(&sk, &c);
            }
        }
    }

    #[test]
    fn union_intersection_lattice(a in arb_complex(), b in arb_complex()) {
        let u = a.union(&b);
        let i = a.intersection(&b);
        prop_assert!(a.is_subcomplex_of(&u));
        prop_assert!(b.is_subcomplex_of(&u));
        prop_assert!(i.is_subcomplex_of(&a));
        prop_assert!(i.is_subcomplex_of(&b));
        prop_assert_eq!(
            u.simplex_count() + i.simplex_count(),
            a.simplex_count() + b.simplex_count()
        );
    }

    #[test]
    fn link_members_complete_to_simplices(c in arb_complex(), s in arb_simplex()) {
        if c.contains(&s) {
            let link = c.link(&s);
            for t in link.iter() {
                prop_assert!(t.is_disjoint_from(&s));
                prop_assert!(c.contains(&t.union(&s)));
            }
        }
    }

    #[test]
    fn euler_characteristic_equals_betti_alternation(c in arb_complex()) {
        let betti = betti_numbers(&c);
        let chi: i64 = betti
            .iter()
            .enumerate()
            .map(|(d, &b)| if d % 2 == 0 { b as i64 } else { -(b as i64) })
            .sum();
        prop_assert_eq!(chi, c.euler_characteristic());
    }

    #[test]
    fn zero_connectivity_matches_components(c in arb_complex()) {
        let verdict = is_k_connected(&c, 0);
        prop_assert!(verdict.is_exact());
        prop_assert_eq!(verdict.holds(), c.connected_components().len() == 1);
    }

    #[test]
    fn simplex_set_algebra(a in arb_simplex(), b in arb_simplex()) {
        let u = a.union(&b);
        prop_assert!(a.is_face_of(&u) && b.is_face_of(&u));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(i.is_face_of(&a) && i.is_face_of(&b));
            prop_assert_eq!(i.card() + u.card(), a.card() + b.card());
        } else {
            prop_assert_eq!(u.card(), a.card() + b.card());
        }
    }

    // ---- equivalence properties pinning the facet-table representation ----
    // The complex stores only facets plus a lazy closure; these properties
    // pin its counting, membership and iteration against brute-force
    // enumeration over `Simplex::faces`, i.e. against the old eager
    // face-closure semantics.

    #[test]
    fn closure_counts_match_bruteforce(c in arb_complex()) {
        let brute: std::collections::HashSet<Simplex> = c
            .facets()
            .into_iter()
            .flat_map(|f| f.faces())
            .collect();
        prop_assert_eq!(c.simplex_count(), brute.len());
        for d in 0..=c.dim().unwrap_or(0) {
            prop_assert_eq!(
                c.count_of_dim(d),
                brute.iter().filter(|s| s.dim() == d).count(),
                "count_of_dim({}) diverges from brute-force closure", d
            );
        }
        prop_assert_eq!(c.vertex_count(), c.count_of_dim(0));
        // Iteration enumerates exactly the closure, without duplicates.
        let iterated: Vec<&Simplex> = c.iter().collect();
        prop_assert_eq!(iterated.len(), brute.len());
        for s in iterated {
            prop_assert!(brute.contains(s));
        }
    }

    #[test]
    fn membership_agrees_with_closure(c in arb_complex(), probe in arb_simplex()) {
        let in_closure = c.facets().iter().any(|f| probe.is_face_of(f));
        prop_assert_eq!(c.contains(&probe), in_closure);
        for v in probe.iter() {
            prop_assert_eq!(
                c.contains_vertex(v),
                c.vertex_set().contains(&v)
            );
        }
    }

    #[test]
    fn facet_tables_hold_only_maximal_simplices(c in arb_complex()) {
        let facets = c.facets();
        prop_assert_eq!(facets.len(), c.facet_count());
        for (i, f) in facets.iter().enumerate() {
            for (j, g) in facets.iter().enumerate() {
                if i != j {
                    prop_assert!(!f.is_face_of(g), "{f:?} ⊆ {g:?} both stored as facets");
                }
            }
        }
        // facets() is sorted deterministically.
        let mut sorted = facets.clone();
        sorted.sort();
        prop_assert_eq!(&facets, &sorted);
    }

    #[test]
    fn simplex_order_and_hash_stable_across_inline_heap(
        lo in proptest::collection::btree_set(0u32..40, 1..=12),
        hi in proptest::collection::btree_set(0u32..40, 1..=12),
    ) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // INLINE_CAP is 8; sets of up to 12 vertices exercise both the
        // inline and the heap representation.
        let a = Simplex::new(lo.iter().copied().map(VertexId));
        let b = Simplex::new(hi.iter().copied().map(VertexId));
        // Ordering equals lexicographic order of the sorted vertex vectors
        // (the old Vec-backed derive), regardless of representation.
        let va: Vec<u32> = lo.into_iter().collect();
        let vb: Vec<u32> = hi.into_iter().collect();
        prop_assert_eq!(a.cmp(&b), va.cmp(&vb));
        // Equal simplices hash equally even when assembled across the
        // inline/heap boundary (piecewise union vs direct construction).
        let split = a.card() / 2;
        let left = Simplex::new(a.iter().take(split.max(1)));
        let right = Simplex::new(a.iter().skip(split.min(a.card() - 1)));
        let rebuilt = left.union(&right);
        prop_assert_eq!(&rebuilt, &a);
        let hash = |s: &Simplex| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        prop_assert_eq!(hash(&rebuilt), hash(&a));
    }

    #[test]
    fn skeleton_equals_filtered_closure(c in arb_complex(), k in 0usize..4) {
        let sk = c.skeleton(k);
        let expect: std::collections::HashSet<Simplex> = c
            .iter()
            .filter(|s| s.dim() <= k)
            .cloned()
            .collect();
        prop_assert_eq!(sk.simplex_count(), expect.len());
        for s in sk.iter() {
            prop_assert!(expect.contains(s));
        }
    }

    #[test]
    fn bulk_from_facets_equals_insert_fold(
        generators in proptest::collection::vec(
            proptest::collection::btree_set(0u32..10, 1..=5),
            1..=8,
        ),
        seed in 0u64..u64::MAX,
    ) {
        // The input: every generator, random faces of it, and duplicates,
        // shuffled. The vendored proptest does not shrink, so every failure
        // message carries the seed that rebuilds the input.
        let mut rng = TestRng::seeded(seed);
        let mut input: Vec<Simplex> = Vec::new();
        for g in &generators {
            let g = Simplex::new(g.iter().copied().map(VertexId));
            let faces = g.faces();
            for _ in 0..rng.below(4) {
                input.push(faces[rng.below(faces.len() as u64) as usize].clone());
            }
            for _ in 0..=rng.below(2) {
                input.push(g.clone());
            }
        }
        for i in (1..input.len()).rev() {
            input.swap(i, rng.below(i as u64 + 1) as usize);
        }

        let bulk = Complex::from_facets(input.clone());
        let mut fold = Complex::new();
        for s in &input {
            fold.insert(s.clone());
        }
        prop_assert_eq!(&bulk, &fold, "seed {seed}: complexes differ");
        prop_assert_eq!(bulk.facets(), fold.facets(), "seed {seed}: facets differ");
        prop_assert_eq!(bulk.vertex_count(), fold.vertex_count(), "seed {seed}: vertex counts");
        prop_assert_eq!(bulk.simplex_count(), fold.simplex_count(), "seed {seed}: simplex counts");
        // Membership agrees on every simplex over the vertex universe.
        let universe = Simplex::new((0u32..10).map(VertexId));
        for mask in 1u32..(1 << 10) {
            if mask.count_ones() > 6 {
                continue;
            }
            let probe = Simplex::new(
                universe.iter().filter(|v| mask & (1 << v.0) != 0),
            );
            prop_assert_eq!(
                bulk.contains(&probe),
                fold.contains(&probe),
                "seed {seed}: membership of {probe:?}"
            );
        }
    }
}
