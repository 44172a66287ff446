//! The run dynamics and `Chr` share one position rule: along every
//! two-round schedule of three processes, `Run::positions` puts each
//! participant on the coordinates of the `Chr^k` vertex of its view.
//!
//! After round 1 the match is bit for bit. After round 2 the two sides add
//! the same weighted terms in different orders — `Chr` in vertex-id order
//! of the seen `Chr¹` vertices, the run in process order — so a sum may
//! differ in its last bit; the test allows exactly that one unit in the
//! last place and nothing more.

use std::collections::HashMap;

use gact_chromatic::standard_simplex;
use gact_iis::{
    chr_chain, enumerate_schedules, run_subdivision_vertices, ProcessId, ProcessSet, Run,
};
use gact_topology::VertexId;

/// Distance in units in the last place between two non-negative floats.
fn ulps(a: f64, b: f64) -> u64 {
    assert!(
        a >= 0.0 && b >= 0.0,
        "positions lie in the standard simplex"
    );
    a.to_bits().abs_diff(b.to_bits())
}

#[test]
fn positions_are_the_coordinates_of_chr_vertices() {
    let (base, geometry) = standard_simplex(2);
    let chain = chr_chain(&base, &geometry, 2);
    let omega: HashMap<ProcessId, VertexId> = (0..3u8)
        .map(|i| (ProcessId(i), VertexId(u32::from(i))))
        .collect();
    let schedules = enumerate_schedules(ProcessSet::full(3), 2);
    assert_eq!(schedules.len(), 325); // 13 first rounds × (13 + 3·3 + 3·1)
    for rounds in &schedules {
        // The schedule is the run's prefix; its last round repeats.
        let run = Run::new(3, [rounds[0].clone()], [rounds[1].clone()]).expect("nested schedule");
        let vertices = run_subdivision_vertices(rounds, &omega, &chain);
        for (k, positions) in run.positions().take(2).enumerate() {
            let round_vertices = &vertices[k + 1];
            assert_eq!(positions.len(), round_vertices.len());
            let tolerance = k as u64; // 0 ulps after round 1, 1 after round 2
            for (p, x) in &positions {
                let expected = chain[k].geometry.coord(round_vertices[p]);
                assert_eq!(x.len(), expected.len());
                assert!(
                    x.iter()
                        .zip(expected)
                        .all(|(&a, &b)| ulps(a, b) <= tolerance),
                    "{p} after round {} of {rounds:?}: {x:?} vs Chr vertex {expected:?}",
                    k + 1
                );
            }
        }
    }
}
