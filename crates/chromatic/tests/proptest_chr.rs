//! Property-based tests for the chromatic machinery: ordered partitions,
//! the `Chr` facet law, geometry containment, and terminating-subdivision
//! invariants.

use proptest::prelude::*;

use gact_chromatic::{
    chr, chr_identity, chr_relative, compose_carriers, fubini, ordered_partitions,
    standard_simplex, top_simplex, TerminatingSubdivision, VertexAlloc,
};
use gact_topology::{Complex, Simplex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ordered_partitions_are_valid_and_counted(n in 1usize..=5) {
        let items: Vec<u32> = (0..n as u32).collect();
        let parts = ordered_partitions(&items);
        prop_assert_eq!(parts.len() as u64, fubini(n));
        for p in &parts {
            let mut all: Vec<u32> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(&all, &items);
            prop_assert!(p.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn chr_facet_law(n in 1usize..=3) {
        let (s, g) = standard_simplex(n);
        let sd = chr(&s, &g);
        prop_assert_eq!(
            sd.complex.complex().count_of_dim(n) as u64,
            fubini(n + 1)
        );
        // Rainbow coloring and carrier containment.
        for f in sd.complex.complex().iter_dim(n) {
            prop_assert_eq!(sd.complex.chi(f).len(), n + 1);
        }
        for (v, car) in &sd.vertex_carrier {
            prop_assert!(g.point_in_simplex(sd.geometry.coord(*v), car));
        }
    }

    #[test]
    fn chr_relative_interpolates(n in 1usize..=2, face_mask in 1u32..7) {
        // Terminating a face produces a complex between Chr (nothing
        // stable) and the identity (everything stable).
        let (s, g) = standard_simplex(n);
        let verts: Vec<u32> = (0..=n as u32).filter(|i| face_mask >> i & 1 == 1).collect();
        if verts.is_empty() || verts.len() > n + 1 {
            return Ok(());
        }
        let stable_simplex = Simplex::from_iter(verts.into_iter());
        let stable = Complex::from_facets([stable_simplex]);
        let mut alloc = VertexAlloc::above(s.complex());
        let sd = chr_relative(&s, &g, &stable, &mut alloc);
        let full = chr(&s, &g);
        prop_assert!(
            sd.complex.complex().count_of_dim(n)
                <= full.complex.complex().count_of_dim(n)
        );
        prop_assert!(sd.complex.complex().count_of_dim(n) >= 1);
        // Stable simplices survive.
        prop_assert!(stable.is_subcomplex_of(sd.complex.complex()));
        // Subdivision is still a disk (Euler characteristic preserved).
        prop_assert_eq!(
            sd.complex.complex().euler_characteristic(),
            s.complex().euler_characteristic()
        );
    }

    // ---- equivalence properties pinning the facet-table representation ----

    #[test]
    fn chr_iter_fubini_facet_law(n in 1usize..=2, m in 1usize..=3) {
        // #facets of Chr^m of an n-simplex is fubini(n+1)^m, and the
        // subdivision stays pure with Euler characteristic 1 (a disk).
        let (s, g) = standard_simplex(n);
        let sd = gact_chromatic::chr_iter(&s, &g, m);
        let c = sd.complex.complex();
        prop_assert_eq!(
            c.count_of_dim(n) as u64,
            fubini(n + 1).pow(m as u32)
        );
        prop_assert!(c.is_pure_of_dim(n));
        prop_assert_eq!(c.euler_characteristic(), 1);
    }

    #[test]
    fn carrier_of_simplex_is_union_of_vertex_carriers(n in 1usize..=2, m in 1usize..=2) {
        let (s, g) = standard_simplex(n);
        let sd = gact_chromatic::chr_iter(&s, &g, m);
        let top = gact_chromatic::top_simplex(n);
        for simplex in sd.complex.complex().iter() {
            let carrier = sd.simplex_carrier(simplex);
            // Definition: union over the vertices' carriers.
            let mut manual: Option<Simplex> = None;
            for v in simplex.iter() {
                let vc = &sd.vertex_carrier[&v];
                manual = Some(match manual {
                    None => vc.clone(),
                    Some(acc) => acc.union(vc),
                });
            }
            prop_assert_eq!(&carrier, &manual.unwrap());
            // Carriers land in the base complex.
            prop_assert!(carrier.is_face_of(&top));
            prop_assert!(s.complex().contains(&carrier));
        }
    }

    #[test]
    fn chr_restriction_to_face_is_chr_of_face(face_mask in 1u32..7) {
        // Chr(s) ∩ Chr(t) = Chr(t) for a face t of the standard 2-simplex:
        // the restriction has fubini(|t|) top simplices of dimension
        // dim(t).
        let (s, g) = standard_simplex(2);
        let sd = chr(&s, &g);
        let verts: Vec<u32> = (0..3u32).filter(|i| face_mask >> i & 1 == 1).collect();
        let t = Simplex::from_iter(verts.into_iter());
        let restr = sd.restriction_to_face(&t);
        prop_assert_eq!(restr.count_of_dim(t.dim()) as u64, fubini(t.card()));
        prop_assert!(restr.is_pure_of_dim(t.dim()));
        prop_assert!(restr.is_subcomplex_of(sd.complex.complex()));
    }

    #[test]
    fn terminating_subdivision_stable_monotone(stages in 1usize..=2, seed_coord in 0.1f64..0.45) {
        // Whatever we stabilize stays stable and keeps its vertex ids.
        let (s, g) = standard_simplex(2);
        let mut t = TerminatingSubdivision::new(&s, &g);
        t.advance();
        let mut previous = t.stable_complex().clone();
        for _ in 0..stages {
            let geometry = t.geometry().clone();
            t.stabilize_where(|sim| {
                sim.iter().all(|v| geometry.coord(v).iter().all(|&x| x >= seed_coord))
            });
            let now = t.stable_complex().clone();
            prop_assert!(previous.is_subcomplex_of(&now));
            t.advance();
            prop_assert!(now.is_subcomplex_of(t.current().complex()));
            previous = now;
        }
        // Carriers always point into the base.
        for v in t.current().complex().vertex_set() {
            prop_assert!(s.complex().contains(t.carrier(v)));
        }
    }
}

// Non-simplex bases: `Chr` of the binary pseudosphere-like complex (two
// triangles glued along an edge) subdivides each facet independently and
// agrees on the shared face.
#[test]
fn chr_of_glued_triangles() {
    use gact_chromatic::{ChromaticComplex, Color};
    use gact_topology::VertexId;

    let complex = Complex::from_facets([
        Simplex::from_iter([0u32, 1, 2]),
        Simplex::from_iter([1u32, 2, 3]),
    ]);
    let colors = [
        (VertexId(0), Color(0)),
        (VertexId(1), Color(1)),
        (VertexId(2), Color(2)),
        (VertexId(3), Color(0)),
    ];
    let cc = ChromaticComplex::new(complex, colors).unwrap();
    let mut g = gact_topology::Geometry::new(3);
    g.set(VertexId(0), vec![1.0, 0.0, 0.0]);
    g.set(VertexId(1), vec![0.0, 1.0, 0.0]);
    g.set(VertexId(2), vec![0.0, 0.0, 1.0]);
    g.set(VertexId(3), vec![-1.0, 1.0, 1.0]); // mirrored across edge {1,2}
    let sd = gact_chromatic::chr(&cc, &g);
    // 13 + 13 triangles, sharing the subdivided edge {1,2} (3 sub-edges).
    assert_eq!(sd.complex.complex().count_of_dim(2), 26);
    let shared = sd
        .complex
        .complex()
        .iter_dim(1)
        .filter(|e| sd.simplex_carrier(e) == Simplex::from_iter([1u32, 2]))
        .count();
    assert_eq!(shared, 3, "glued edge must subdivide consistently");
    // Still a disk (two triangles glued along an edge ≃ a square).
    assert_eq!(sd.complex.complex().euler_characteristic(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chr_relative_keeps_stable_faces_and_base_carriers(
        n in 1usize..=3,
        depth in 1usize..=2,
        face_mask in 0u32..16,
    ) {
        // Random stable face (possibly empty ⇒ plain Chr), iterated to
        // `depth` so fresh-id allocation is exercised across stages.
        let (s, g) = standard_simplex(n);
        let verts: Vec<u32> = (0..=n as u32).filter(|i| face_mask >> i & 1 == 1).collect();
        let stable = if verts.is_empty() {
            Complex::new()
        } else {
            Complex::from_facets([Simplex::from_iter(verts.into_iter())])
        };
        let top = top_simplex(n);
        let mut alloc = VertexAlloc::above(s.complex());
        let mut sd = chr_identity(&s, &g);
        for _ in 0..depth {
            let next = chr_relative(&sd.complex, &sd.geometry, &stable, &mut alloc);
            // A key `(p, seen)` keeps p's id exactly when `seen` is a
            // singleton or a stable simplex; every other key is a fresh
            // vertex of p's color inside `seen`.
            for ((p, seen), id) in &next.key_index {
                prop_assert!(seen.contains(*p));
                prop_assert_eq!(*id == *p, seen.card() == 1 || stable.contains(seen));
                prop_assert_eq!(next.complex.color(*id), sd.complex.color(*p));
            }
            sd = compose_carriers(sd, next);
            // Stable simplices survive with their original vertex ids, and
            // their vertices carry themselves.
            prop_assert!(stable.is_subcomplex_of(sd.complex.complex()));
            for v in stable.vertex_set() {
                prop_assert_eq!(&sd.vertex_carrier[&v], &Simplex::vertex(v));
            }
            // Every vertex carrier is a face of the base simplex whose
            // realization contains the vertex.
            for (v, car) in &sd.vertex_carrier {
                prop_assert!(car.is_face_of(&top));
                prop_assert!(g.point_in_simplex(sd.geometry.coord(*v), car));
            }
        }
    }
}
