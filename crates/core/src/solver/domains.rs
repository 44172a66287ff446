//! The task-independent half of a map problem's setup: dense vertex
//! renumbering, interned carriers, constraint lists, adjacency.
//!
//! Everything in [`DomainTables`] depends only on the domain complex and
//! its carriers — not on the task — so a cross-query sweep (see
//! `gact::cache::QueryCache`) computes these tables once per
//! `(protocol complex, round)` and replays them for every task queried
//! against that domain.

use std::collections::HashMap;

use gact_chromatic::ChromaticComplex;
use gact_topology::{Simplex, SimplexArena, VertexId};

/// Upper bound on the cardinality of a single domain simplex the dense
/// consistency buffer supports (matches `Simplex::faces`' own limit).
pub(crate) const MAX_CARD: usize = 28;

/// The carrier of a simplex: the union of its vertices' carriers.
pub(crate) fn simplex_carrier(s: &Simplex, vertex_carrier: &HashMap<VertexId, Simplex>) -> Simplex {
    let mut it = s.iter();
    let mut acc = vertex_carrier[&it.next().expect("non-empty")].clone();
    for v in it {
        acc = acc.union(&vertex_carrier[&v]);
    }
    acc
}

/// The task-independent half of a map problem's setup, precomputed once
/// per domain complex and reusable across every task queried against it.
///
/// Everything here depends only on the domain complex and its carriers —
/// not on the task: the dense vertex renumbering, the interned-carrier
/// table (carriers in arena order, referenced by `u32` id), the constraint
/// simplices with their carrier ids, the per-vertex constraint index, and
/// the 1-skeleton adjacency used by the variable-ordering heuristic. A
/// cross-query sweep (see `gact::cache::QueryCache`) computes these tables
/// once per `(protocol complex, round)` and replays them for every task in
/// the sweep; [`super::solve`] builds them inline for one-shot callers.
/// Both paths run the same search, so results are identical.
#[derive(Debug)]
pub struct DomainTables {
    /// Domain vertices in ascending order (the dense renumbering).
    pub(crate) vertices: Vec<VertexId>,
    /// Dense domain-vertex id per `VertexId.0` (sentinel `u32::MAX`).
    pub(crate) dense: Vec<u32>,
    /// Interned carrier id per dense vertex id.
    pub(crate) vertex_cids: Vec<u32>,
    /// Distinct carrier simplices in arena (first-intern) order; a `u32`
    /// carrier id indexes this table.
    pub(crate) carriers: Vec<Simplex>,
    /// Constraint simplices (dim ≥ 1) with their interned carrier ids.
    pub(crate) simplices: Vec<(Simplex, u32)>,
    /// Constraint indices touching each dense vertex id.
    pub(crate) per_vertex: Vec<Vec<u32>>,
    /// 1-skeleton adjacency (dense ids), for the variable order.
    pub(crate) neighbours: Vec<Vec<u32>>,
}

impl DomainTables {
    /// Number of constraint simplices (dimension ≥ 1).
    pub fn constraint_count(&self) -> usize {
        self.simplices.len()
    }

    /// Number of domain vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }
}

/// Builds the [`DomainTables`] of a domain complex with vertex carriers —
/// the task-independent setup work of [`super::solve`], exposed so sweeps
/// can do it once per domain and share the result across queries.
pub fn prepare_domain(
    domain: &ChromaticComplex,
    vertex_carrier: &HashMap<VertexId, Simplex>,
) -> DomainTables {
    // Dense renumbering of the domain vertices (vertex ids are allocated
    // densely by the subdivision machinery, so the lookup table is small).
    let vertices: Vec<VertexId> = domain.complex().vertex_set().into_iter().collect();
    let n = vertices.len();
    let max_id = vertices.last().map(|v| v.0 as usize + 1).unwrap_or(0);
    let mut dense = vec![u32::MAX; max_id];
    for (i, v) in vertices.iter().enumerate() {
        dense[v.0 as usize] = i as u32;
    }

    // Carriers interned in first-encounter order: per-vertex carriers in
    // vertex order, then constraint carriers in complex iteration order —
    // the same order the one-shot solver used to intern them, so the
    // arena ids (and hence every downstream table) are unchanged.
    let mut arena = SimplexArena::new();
    let mut carriers: Vec<Simplex> = Vec::new();
    let mut intern = |carrier: &Simplex, carriers: &mut Vec<Simplex>| -> u32 {
        let id = arena.intern(carrier);
        if id.index() == carriers.len() {
            carriers.push(carrier.clone());
        }
        id.0
    };
    let vertex_cids: Vec<u32> = vertices
        .iter()
        .map(|v| intern(&vertex_carrier[v], &mut carriers))
        .collect();

    // Constraint simplices (dim ≥ 1) with carriers memoized per interned
    // simplex, and the per-vertex constraint index.
    let mut simplices: Vec<(Simplex, u32)> = Vec::new();
    let mut per_vertex: Vec<Vec<u32>> = vec![Vec::new(); n];
    for s in domain.complex().iter() {
        if s.dim() == 0 {
            continue;
        }
        assert!(
            s.card() <= MAX_CARD,
            "domain simplex too large for the solver"
        );
        let carrier = simplex_carrier(s, vertex_carrier);
        let cid = intern(&carrier, &mut carriers);
        let si = simplices.len() as u32;
        for v in s.iter() {
            per_vertex[dense[v.0 as usize] as usize].push(si);
        }
        simplices.push((s.clone(), cid));
    }

    let mut neighbours: Vec<Vec<u32>> = vec![Vec::new(); n];
    for e in domain.complex().iter_dim(1) {
        let vs = e.vertices();
        let (i, j) = (dense[vs[0].0 as usize], dense[vs[1].0 as usize]);
        neighbours[i as usize].push(j);
        neighbours[j as usize].push(i);
    }

    DomainTables {
        vertices,
        dense,
        vertex_cids,
        carriers,
        simplices,
        per_vertex,
        neighbours,
    }
}
