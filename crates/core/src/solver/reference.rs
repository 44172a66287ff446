//! The pre-layered chronological engine, kept as an equivalence oracle.
//!
//! This is the solver as it existed before the propagate layer: per-vertex
//! domain construction straight off the `Δ` images (hint applied to the
//! full candidate list), adjacency-guided variable ordering, and the
//! depth-first search of the search layer with the constraint lists in
//! their natural order — **no propagation, no constraint reordering**.
//!
//! The layered engine ([`super::solve`]) is required to return
//! byte-identical verdicts *and maps* to this oracle for every input and
//! thread count; the `solver_equivalence` regression tests pin the two
//! against each other across task × domain families. Keeping the oracle
//! in-tree (rather than as a git archaeology exercise) makes that pin an
//! executable property instead of a changelog claim.

use gact_chromatic::ChromaticComplex;
use gact_tasks::Task;
use gact_topology::{Complex, VertexId};

use super::domains::{prepare_domain, DomainTables};
use super::search::{run_search, variable_order};
use super::{DomainHint, MapProblem, SolveOutcome, SolveStats};
use gact_chromatic::SimplicialMap;

/// [`super::solve`]'s behaviour before the propagate layer existed: the
/// chronological-backtracking oracle. One-shot: prepares the domain
/// tables inline.
pub fn solve_reference(problem: &MapProblem<'_>, domain_hint: Option<&DomainHint>) -> SolveOutcome {
    let tables = prepare_domain(problem.domain, problem.vertex_carrier);
    solve_reference_with_tables(&tables, problem.domain, problem.task, domain_hint)
}

/// [`solve_reference`] against precomputed [`DomainTables`] (also the
/// layered engine's small-instance bypass): builds the `Δ`-image table
/// and the per-vertex candidate domains (hint applied to the full list),
/// orders variables, and searches — with no propagation pass.
pub fn solve_reference_with_tables(
    tables: &DomainTables,
    domain: &ChromaticComplex,
    task: &Task,
    domain_hint: Option<&DomainHint>,
) -> SolveOutcome {
    let a = domain;
    let n = tables.vertices.len();

    // Δ images per interned carrier id: one `Δ` lookup (no clone — the
    // image complexes are borrowed from the task) per distinct carrier;
    // constraints refer to their carrier by `u32` into this table.
    let empty_image = Complex::new();
    let images: Vec<&Complex> = tables
        .carriers
        .iter()
        .map(|carrier| task.allowed_ref(carrier).unwrap_or(&empty_image))
        .collect();

    // Vertex domains: same-colored output vertices allowed by the vertex's
    // carrier, with the caller's hint applied to the full list; one pass
    // in vertex order, exiting at the first empty domain.
    let mut domains: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    for (&v, &cid) in tables.vertices.iter().zip(&tables.vertex_cids) {
        let color = a.color(v);
        let mut cands: Vec<VertexId> = images[cid as usize]
            .vertex_set()
            .into_iter()
            .filter(|&w| task.output.color(w) == color)
            .collect();
        if let Some(hint) = domain_hint {
            cands = hint(v, &cands);
        }
        if cands.is_empty() {
            return SolveOutcome::Unsatisfiable(SolveStats::default());
        }
        domains.push(cands);
    }

    let sizes: Vec<usize> = domains.iter().map(|d| d.len()).collect();
    let order = variable_order(&sizes, &tables.neighbours, &tables.vertices);

    let (found, stats) = run_search(
        &domains,
        &tables.dense,
        &tables.simplices,
        &tables.per_vertex,
        &images,
        &order,
        SolveStats::default(),
        None,
    );
    if let Some(assignment) = found {
        let map = SimplicialMap::new(
            tables
                .vertices
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, assignment[i])),
        );
        debug_assert!(map.validate_chromatic(a, &task.output).is_ok());
        SolveOutcome::Map(map, stats)
    } else {
        SolveOutcome::Unsatisfiable(stats)
    }
}
