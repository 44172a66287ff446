//! Nested views (paper §2.1 and §4.3) with hash-consing, and the
//! correspondence between views and vertices of iterated chromatic
//! subdivisions.
//!
//! `view(p_i, ω, 0) = {(p_i, v)}` for the input vertex `v` of `p_i`, and
//! `view(p_i, ω, k)` is the set of `(k−1)`-views of the processes `p_i`
//! sees in round `k`. One refinement over the paper's shorthand: snapshot
//! entries are *writer-tagged* `(process, view)` pairs, matching the
//! operational IS semantics (a snapshot reveals who wrote what). Without
//! the tag, "I saw p_j whose view equals mine" would collapse onto "I saw
//! only myself", breaking the bijection with subdivision vertices that the
//! proof of Theorem 6.1 relies on. Views are interned in a [`ViewArena`]
//! so equal views share one id, which makes the "same view ⇔ same
//! subdivision vertex" bijection directly testable.

use std::collections::HashMap;

use gact_chromatic::{ChromaticComplex, ChromaticSubdivision};
use gact_topology::{Simplex, VertexId};

use crate::process::{ProcessId, ProcessSet};
use crate::round::Round;

/// Identifier of an interned view.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ViewId(pub u32);

/// A view node: either an initial `(process, input value)` pair or a
/// snapshot — the set of views the process saw in its latest round.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ViewNode {
    /// `view(p, ω, 0)`: the process with its input value.
    Input {
        /// The process.
        pid: ProcessId,
        /// An opaque input value identifier.
        value: u32,
    },
    /// A snapshot view: the writer-tagged sub-views seen, sorted by
    /// process.
    Snap(Vec<(ProcessId, ViewId)>),
}

/// Hash-consing arena for views.
#[derive(Clone, Debug, Default)]
pub struct ViewArena {
    nodes: Vec<ViewNode>,
    index: HashMap<ViewNode, ViewId>,
}

impl ViewArena {
    /// An empty arena.
    pub fn new() -> Self {
        ViewArena::default()
    }

    /// Number of distinct views interned.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns a node, returning its id (the same id for equal nodes).
    pub fn intern(&mut self, node: ViewNode) -> ViewId {
        let node = match node {
            ViewNode::Snap(mut entries) => {
                entries.sort_unstable();
                entries.dedup();
                ViewNode::Snap(entries)
            }
            leaf => leaf,
        };
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = ViewId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.index.insert(node, id);
        id
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this arena.
    pub fn node(&self, id: ViewId) -> &ViewNode {
        &self.nodes[id.0 as usize]
    }

    /// Whether `needle` occurs nested anywhere inside `haystack`
    /// (including equality). This is the "appears in" relation behind the
    /// intuition for `fast(r)` in §2.1.
    pub fn occurs_in(&self, needle: ViewId, haystack: ViewId) -> bool {
        if needle == haystack {
            return true;
        }
        match self.node(haystack) {
            ViewNode::Input { .. } => false,
            ViewNode::Snap(subs) => subs.iter().any(|&(_, s)| self.occurs_in(needle, s)),
        }
    }
}

/// The views of all participants along a run prefix: `views[k][p]` is
/// `view(p, ω, k)`; entry present iff `p` participates in round `k`
/// (`k = 0` rows cover all of `part`).
pub fn run_views(
    rounds: &[Round],
    inputs: &HashMap<ProcessId, u32>,
    arena: &mut ViewArena,
) -> Vec<HashMap<ProcessId, ViewId>> {
    let part: ProcessSet = match rounds.first() {
        Some(r) => r.participants(),
        None => inputs.keys().copied().collect(),
    };
    let mut current: HashMap<ProcessId, ViewId> = part
        .iter()
        .map(|p| {
            let value = *inputs
                .get(&p)
                .unwrap_or_else(|| panic!("no input for participant {p}"));
            (p, arena.intern(ViewNode::Input { pid: p, value }))
        })
        .collect();
    let mut out = vec![current.clone()];
    for round in rounds {
        let mut next: HashMap<ProcessId, ViewId> = HashMap::new();
        for p in round.participants().iter() {
            let seen = round.seen_by(p);
            let subs: Vec<(ProcessId, ViewId)> = seen.iter().map(|q| (q, current[&q])).collect();
            next.insert(p, arena.intern(ViewNode::Snap(subs)));
        }
        // Non-participants keep their last view (they simply take no step),
        // but we only *record* participants, matching the paper's
        // definition of view(p, k) existing only when p ∈ S_k.
        out.push(next.clone());
        for (p, v) in next {
            current.insert(p, v);
        }
    }
    out
}

/// The chain of iterated chromatic subdivisions `Chr(C), Chr²(C), …` used
/// to locate views as subdivision vertices.
pub fn chr_chain(
    base: &ChromaticComplex,
    geometry: &gact_topology::Geometry,
    depth: usize,
) -> Vec<ChromaticSubdivision> {
    let mut out: Vec<ChromaticSubdivision> = Vec::with_capacity(depth);
    for k in 0..depth {
        let (c, g) = match k {
            0 => (base, geometry),
            _ => {
                let prev = &out[k - 1];
                (&prev.complex, &prev.geometry)
            }
        };
        out.push(gact_chromatic::chr(c, g));
    }
    out
}

/// Locates each participant's view after each round as a vertex of the
/// corresponding iterated subdivision: `simplices[k][p]` is the vertex of
/// `Chr^k(ω)` of color `p` determined by the run prefix (paper §4.3, proof
/// of Theorem 6.1).
///
/// `omega` assigns every process of the first round's participant set its
/// input vertex in the base complex.
///
/// # Panics
///
/// Panics if the chain is shorter than the prefix, or if a participant has
/// no input vertex.
pub fn run_subdivision_vertices(
    rounds: &[Round],
    omega: &HashMap<ProcessId, VertexId>,
    chain: &[ChromaticSubdivision],
) -> Vec<HashMap<ProcessId, VertexId>> {
    assert!(chain.len() >= rounds.len(), "subdivision chain too short");
    let part: ProcessSet = match rounds.first() {
        Some(r) => r.participants(),
        None => omega.keys().copied().collect(),
    };
    let mut current: HashMap<ProcessId, VertexId> = part
        .iter()
        .map(|p| {
            (
                p,
                *omega
                    .get(&p)
                    .unwrap_or_else(|| panic!("no input vertex for {p}")),
            )
        })
        .collect();
    let mut out = vec![current.clone()];
    for (k, round) in rounds.iter().enumerate() {
        let sd = &chain[k];
        let mut next = HashMap::new();
        for p in round.participants().iter() {
            let seen = round.seen_by(p);
            let seen_simplex = Simplex::new(seen.iter().map(|q| current[&q]));
            let key = (current[&p], seen_simplex);
            let v = *sd
                .key_index
                .get(&key)
                .unwrap_or_else(|| panic!("missing subdivision vertex for {key:?}"));
            next.insert(p, v);
        }
        out.push(next.clone());
        for (p, v) in next {
            current.insert(p, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gact_chromatic::standard_simplex;

    fn pid(i: u8) -> ProcessId {
        ProcessId(i)
    }

    fn round(blocks: &[&[u8]]) -> Round {
        Round::from_blocks(
            blocks
                .iter()
                .map(|b| b.iter().map(|&i| pid(i)).collect::<Vec<_>>()),
        )
        .unwrap()
    }

    fn identity_inputs(n: usize) -> HashMap<ProcessId, u32> {
        (0..n as u8).map(|i| (pid(i), i as u32)).collect()
    }

    #[test]
    fn interning_dedups() {
        let mut a = ViewArena::new();
        let l0 = a.intern(ViewNode::Input {
            pid: pid(0),
            value: 7,
        });
        let l0b = a.intern(ViewNode::Input {
            pid: pid(0),
            value: 7,
        });
        assert_eq!(l0, l0b);
        let s1 = a.intern(ViewNode::Snap(vec![(pid(0), l0)]));
        let s2 = a.intern(ViewNode::Snap(vec![(pid(0), l0), (pid(0), l0)]));
        assert_eq!(s1, s2); // dedup inside snapshots
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn same_block_same_view_content() {
        let mut a = ViewArena::new();
        let views = run_views(&[round(&[&[0, 1]])], &identity_inputs(2), &mut a);
        // Both processes saw {view(p0,0), view(p1,0)}: equal view ids.
        assert_eq!(views[1][&pid(0)], views[1][&pid(1)]);
    }

    #[test]
    fn order_matters_for_views() {
        let mut a = ViewArena::new();
        let v1 = run_views(&[round(&[&[0], &[1]])], &identity_inputs(2), &mut a);
        let v2 = run_views(&[round(&[&[1], &[0]])], &identity_inputs(2), &mut a);
        // p0 solo-first sees only itself; going second it sees both.
        assert_ne!(v1[1][&pid(0)], v2[1][&pid(0)]);
        // p0's view when first is the same as in the fair... no — when
        // first it sees {p0} only, same as running solo.
        let solo = run_views(&[round(&[&[0]])], &identity_inputs(1), &mut a);
        assert_eq!(v1[1][&pid(0)], solo[1][&pid(0)]);
    }

    #[test]
    fn occurs_in_tracks_information_flow() {
        let mut a = ViewArena::new();
        let views = run_views(
            &[round(&[&[0], &[1]]), round(&[&[0], &[1]])],
            &identity_inputs(2),
            &mut a,
        );
        let v0_init = views[0][&pid(0)];
        // p1 sees p0's information; not vice versa.
        assert!(a.occurs_in(v0_init, views[2][&pid(1)]));
        let v1_init = views[0][&pid(1)];
        assert!(!a.occurs_in(v1_init, views[2][&pid(0)]));
    }

    #[test]
    fn views_biject_with_subdivision_vertices_depth_2() {
        // Exhaustively check over all 2-round wait-free schedules of 2
        // processes: two (process, view) pairs are equal iff the
        // corresponding Chr^k vertices are equal.
        let n = 1usize; // processes p0, p1
        let (base, geom) = standard_simplex(n);
        let chain = chr_chain(&base, &geom, 2);
        let omega: HashMap<ProcessId, VertexId> = (0..=n as u8)
            .map(|i| (pid(i), VertexId(i as u32)))
            .collect();
        let full = ProcessSet::full(n + 1);
        // Depth-indexed: the bijection is between depth-k views and
        // vertices of Chr^k. (Across depths, a solo process's view at
        // depth k sits at its base vertex — Chr identifies (p,{p}) with p.)
        let mut seen_pairs: Vec<(usize, (ProcessId, ViewId), VertexId)> = Vec::new();
        let mut arena = ViewArena::new();
        for r1 in Round::enumerate(full) {
            for r2 in Round::enumerate(full) {
                let rounds = [r1.clone(), r2.clone()];
                let views = run_views(&rounds, &identity_inputs(n + 1), &mut arena);
                let verts = run_subdivision_vertices(&rounds, &omega, &chain);
                for k in 0..=2 {
                    for (p, v) in &views[k] {
                        seen_pairs.push((k, (*p, *v), verts[k][p]));
                    }
                }
            }
        }
        // Bijection check at each depth: same (pid, view) -> same vertex,
        // distinct views -> distinct vertices.
        let mut by_view: HashMap<(usize, (ProcessId, ViewId)), VertexId> = HashMap::new();
        let mut by_vertex: HashMap<(usize, VertexId), (ProcessId, ViewId)> = HashMap::new();
        for (k, key, vert) in seen_pairs {
            if let Some(prev) = by_view.insert((k, key), vert) {
                assert_eq!(prev, vert, "same view mapped to two vertices");
            }
            if let Some(prev) = by_vertex.insert((k, vert), key) {
                assert_eq!(prev, key, "same vertex for two distinct views");
            }
        }
    }

    #[test]
    fn subdivision_vertices_span_a_simplex_of_chr_k() {
        // The views of all processes after each round form a simplex of the
        // k-th subdivision (the run's configuration simplex).
        let n = 2usize;
        let (base, geom) = standard_simplex(n);
        let chain = chr_chain(&base, &geom, 2);
        let omega: HashMap<ProcessId, VertexId> = (0..=n as u8)
            .map(|i| (pid(i), VertexId(i as u32)))
            .collect();
        let rounds = [round(&[&[1], &[0, 2]]), round(&[&[0, 1, 2]])];
        let verts = run_subdivision_vertices(&rounds, &omega, &chain);
        for k in 1..=2 {
            let simplex = Simplex::new(verts[k].values().copied());
            assert!(
                chain[k - 1].complex.complex().contains(&simplex),
                "round-{k} configuration is not a simplex"
            );
        }
    }
}
