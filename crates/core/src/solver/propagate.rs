//! The propagation layer: class-level candidate pruning and an AC-3-style
//! generalized-arc-consistency fixpoint, run before any search.
//!
//! ## What gets pruned, and why it is safe
//!
//! Every rule here removes only **dead values** — candidates that appear
//! in no complete solution of the problem:
//!
//! * *class-level pruning* (the memoized
//!   [`gact_tasks::CompiledTask::class_domains`]): a candidate absent
//!   from every row of its constraint's support table (an exact
//!   per-constraint generalized arc consistency against the initial
//!   domains) satisfies that constraint in no assignment;
//! * the *component prune* folded into the class tables: the image of a
//!   constraint simplex is itself a simplex, hence path-connected, so a
//!   candidate whose whole component of `Δ(carrier)` supports no row is
//!   dead — the Saraph–Herlihy–Gafni connectivity argument, decided with
//!   [`gact_topology::connectivity::is_k_connected`] at compile time;
//! * the *fixpoint* (AC-3 over the constraint hypergraph, scheduled along
//!   the coface adjacency index): re-revising a constraint against
//!   already-pruned neighbour domains only ever removes values whose
//!   every supporting row has lost some other entry — again dead.
//!
//! Removing dead values cannot change the first solution a fixed-order
//! DFS reaches (dead candidates contribute no solutions, and surviving
//! candidates keep their relative order), which is how the layered engine
//! stays byte-identical to the reference solver while skipping most of
//! its search.
//!
//! ## Class structure and cross-round transfer
//!
//! Constraints are grouped by [`PlanClass`] — carrier plus per-color
//! member carriers, all in terms of the *base* input complex — so one
//! support-table scan serves every structurally identical constraint. The
//! same classes recur at every round of an incremental `Chr^m` sweep, so
//! the class tables (and the dead values they record) transfer across
//! rounds through the shared [`gact_tasks::CompiledTask`]. The distinct
//! class tables of a round are compiled through
//! [`gact_parallel::par_map`] — across workers when more than one thread
//! is effective, inline otherwise — and come back in class order, so the
//! result is deterministic for every thread count.

use std::collections::VecDeque;
use std::sync::Arc;

use gact_chromatic::{ChromaticComplex, Color};
use gact_tasks::{ClassKey, CompiledTask};
use gact_topology::VertexId;

use super::domains::DomainTables;

/// The task-independent propagation schedule of one domain complex:
/// constraint classes, member columns, and the vertex→constraint index
/// the fixpoint walks. Cacheable per `(protocol complex, round)` — see
/// `gact::cache::QueryCache::propagation_plan` — and replayed against
/// every task queried on that domain.
#[derive(Debug)]
pub struct PropagationPlan {
    /// Distinct constraint classes, first-encounter order.
    pub(crate) classes: Vec<PlanClass>,
    /// Class id per constraint (indexes `classes`).
    pub(crate) class_of: Vec<u32>,
    /// Per constraint: member dense vertex ids in ascending color order
    /// (the column order of the class's support table).
    pub(crate) columns: Vec<Vec<u32>>,
    /// Per dense vertex: the constraints touching it (for the fixpoint
    /// worklist).
    pub(crate) touching: Vec<Vec<u32>>,
}

/// A constraint class in domain-carrier terms: the constraint's interned
/// carrier id plus, per member in ascending color order, the member's
/// color and own carrier id (both ids index [`DomainTables`]' carrier
/// table, which is task-independent).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanClass {
    /// Interned (domain-table) carrier id of the constraint simplex.
    pub carrier: u32,
    /// Per member, ascending by color: color and interned carrier id of
    /// the member vertex's own carrier.
    pub members: Vec<(Color, u32)>,
}

impl PropagationPlan {
    /// Number of distinct constraint classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

/// Builds the [`PropagationPlan`] of a prepared domain. Task-independent:
/// only the domain complex's colors and the tables' interned carriers are
/// consulted.
pub fn prepare_plan(tables: &DomainTables, domain: &ChromaticComplex) -> PropagationPlan {
    let n = tables.vertices.len();
    let colors: Vec<Color> = tables.vertices.iter().map(|&v| domain.color(v)).collect();
    let mut classes: Vec<PlanClass> = Vec::new();
    let mut class_ids: std::collections::HashMap<PlanClass, u32> = std::collections::HashMap::new();
    let mut class_of: Vec<u32> = Vec::with_capacity(tables.simplices.len());
    let mut columns: Vec<Vec<u32>> = Vec::with_capacity(tables.simplices.len());
    let mut touching: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (k, (s, cid)) in tables.simplices.iter().enumerate() {
        let mut cols: Vec<u32> = s.iter().map(|v| tables.dense[v.0 as usize]).collect();
        cols.sort_unstable_by_key(|&vi| colors[vi as usize]);
        let key = PlanClass {
            carrier: *cid,
            members: cols
                .iter()
                .map(|&vi| (colors[vi as usize], tables.vertex_cids[vi as usize]))
                .collect(),
        };
        let id = *class_ids.entry(key.clone()).or_insert_with(|| {
            classes.push(key);
            classes.len() as u32 - 1
        });
        class_of.push(id);
        for &vi in &cols {
            touching[vi as usize].push(k as u32);
        }
        columns.push(cols);
    }
    PropagationPlan {
        classes,
        class_of,
        columns,
        touching,
    }
}

/// The result of a propagation pass: shared initial buckets, per-vertex
/// liveness over bucket positions, prune counters, and per-constraint
/// conflict weights for the search layer's constraint scheduling.
pub(crate) struct Propagation {
    /// Initial candidate bucket per dense vertex (shared allocations).
    pub buckets: Vec<Arc<Vec<VertexId>>>,
    /// Liveness flag per bucket position, per dense vertex.
    pub live: Vec<Vec<bool>>,
    /// Values pruned (class pass + fixpoint).
    pub prunes: u64,
    /// Subset of `prunes` due to the connectivity/component argument.
    pub component_prunes: u64,
    /// Per-constraint prune attribution, for conflict-weighted constraint
    /// scheduling in the search layer.
    pub weights: Vec<u64>,
    /// Whether some domain emptied (the problem is unsatisfiable).
    pub empty: bool,
}

/// The task-side inputs the propagation fixpoint needs from a domain:
/// the domain→compiled carrier-id translation and the shared initial
/// buckets. Computed by [`initial_buckets`] *before* any plan is built,
/// so an instance refuted by an empty initial domain never pays for a
/// propagation plan at all.
pub(crate) struct BucketStage {
    /// Compiled-task carrier id per domain-table carrier id.
    pub cid_map: Vec<u32>,
    /// Initial candidate bucket per dense vertex (shared allocations).
    pub buckets: Vec<Arc<Vec<VertexId>>>,
}

impl BucketStage {
    /// Whether some vertex has an empty initial domain (immediate
    /// unsatisfiability, mirroring the reference engine's early exit).
    pub fn any_empty(&self) -> bool {
        self.buckets.iter().any(|b| b.is_empty())
    }
}

/// Builds the [`BucketStage`] of one task against a prepared domain:
/// carrier translation plus one shared bucket per vertex (colors read
/// straight off the domain complex — no plan required).
pub(crate) fn initial_buckets(
    tables: &DomainTables,
    domain: &ChromaticComplex,
    compiled: &CompiledTask<'_>,
) -> BucketStage {
    let cid_map: Vec<u32> = tables
        .carriers
        .iter()
        .map(|c| compiled.carrier_id(c))
        .collect();
    let buckets: Vec<Arc<Vec<VertexId>>> = tables
        .vertices
        .iter()
        .enumerate()
        .map(|(i, &v)| compiled.bucket(cid_map[tables.vertex_cids[i] as usize], domain.color(v)))
        .collect();
    BucketStage { cid_map, buckets }
}

/// Runs class-level pruning plus the AC-3 fixpoint for one task against a
/// prepared domain. Deterministic for every thread count (only the class
/// table *compilation* fans out; application order is fixed).
pub(crate) fn propagate(
    tables: &DomainTables,
    plan: &PropagationPlan,
    compiled: &CompiledTask<'_>,
    stage: BucketStage,
) -> Propagation {
    let n = tables.vertices.len();
    let m = tables.simplices.len();
    let BucketStage { cid_map, buckets } = stage;

    let mut out = Propagation {
        live: buckets.iter().map(|b| vec![true; b.len()]).collect(),
        buckets,
        prunes: 0,
        component_prunes: 0,
        weights: vec![0; m],
        empty: false,
    };
    if out.buckets.iter().any(|b| b.is_empty()) {
        out.empty = true;
        return out;
    }

    // Compile the distinct class tables — across workers when the pool is
    // live, in class order either way.
    let keys: Vec<ClassKey> = plan
        .classes
        .iter()
        .map(|c| ClassKey {
            carrier: cid_map[c.carrier as usize],
            members: c
                .members
                .iter()
                .map(|&(color, cid)| (color, cid_map[cid as usize]))
                .collect(),
        })
        .collect();
    let class_tables: Vec<Arc<gact_tasks::ClassDomains>> =
        gact_parallel::par_map(&keys, |k| compiled.class_domains(k));

    // Class pass: apply each constraint's memoized dead values. Classes
    // that prune nothing (the common case on permissive carrier maps)
    // are skipped without touching their members' flags, and only
    // vertices whose domain actually shrank mark their constraints
    // dirty for the fixpoint below.
    let mut counts: Vec<usize> = out.live.iter().map(|l| l.len()).collect();
    let mut dirty = vec![false; n];
    for k in 0..m {
        let class = &class_tables[plan.class_of[k] as usize];
        if class.prunes == 0 {
            continue;
        }
        for (j, &vi) in plan.columns[k].iter().enumerate() {
            let vi = vi as usize;
            let live = &mut out.live[vi];
            for (i, flag) in live.iter_mut().enumerate() {
                if *flag && !class.supported[j][i] {
                    *flag = false;
                    counts[vi] -= 1;
                    out.prunes += 1;
                    out.weights[k] += 1;
                    dirty[vi] = true;
                    if class.component_dead[j][i] {
                        out.component_prunes += 1;
                    }
                }
            }
            if counts[vi] == 0 {
                out.empty = true;
                return out;
            }
        }
    }

    // AC-3 fixpoint over the constraint hypergraph: re-revise constraints
    // whose member domains shrank until nothing changes. The seed is the
    // dirty set only — a constraint none of whose members shrank below
    // its class table's assumptions revises to exactly the class result,
    // which the pass above already applied, so re-revising it would be a
    // no-op. In particular a fully clean class pass skips the fixpoint
    // outright.
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut queued = vec![false; m];
    for (vi, flag) in dirty.iter().enumerate() {
        if !flag {
            continue;
        }
        for &k in &plan.touching[vi] {
            // Non-exhaustive classes (the row-count gate) recorded no
            // rows: revising them would wrongly prune everything, and
            // they carry no information — never enqueue them.
            if !queued[k as usize] && class_tables[plan.class_of[k as usize] as usize].exhaustive {
                queued[k as usize] = true;
                queue.push_back(k);
            }
        }
    }
    let mut support: Vec<Vec<bool>> = Vec::new();
    while let Some(k) = queue.pop_front() {
        let k = k as usize;
        queued[k] = false;
        let class = &class_tables[plan.class_of[k] as usize];
        let cols = &plan.columns[k];
        support.clear();
        support.extend(
            cols.iter()
                .map(|&vi| vec![false; out.live[vi as usize].len()]),
        );
        'rows: for row in class.position_rows() {
            for (j, &pos) in row.iter().enumerate() {
                if !out.live[cols[j] as usize][pos as usize] {
                    continue 'rows;
                }
            }
            for (j, &pos) in row.iter().enumerate() {
                support[j][pos as usize] = true;
            }
        }
        for (j, &vi) in cols.iter().enumerate() {
            let vi = vi as usize;
            let mut shrank = false;
            let live = &mut out.live[vi];
            for (i, flag) in live.iter_mut().enumerate() {
                if *flag && !support[j][i] {
                    *flag = false;
                    counts[vi] -= 1;
                    out.prunes += 1;
                    out.weights[k] += 1;
                    shrank = true;
                }
            }
            if counts[vi] == 0 {
                out.empty = true;
                return out;
            }
            if shrank {
                for &other in &plan.touching[vi] {
                    if other as usize != k
                        && !queued[other as usize]
                        && class_tables[plan.class_of[other as usize] as usize].exhaustive
                    {
                        queued[other as usize] = true;
                        queue.push_back(other);
                    }
                }
            }
        }
    }
    out
}

impl Propagation {
    /// Materializes the pruned domain of vertex `vi` (ascending
    /// subsequence of its initial bucket).
    pub(crate) fn domain_of(&self, vi: usize) -> Vec<VertexId> {
        self.buckets[vi]
            .iter()
            .zip(&self.live[vi])
            .filter(|&(_, &alive)| alive)
            .map(|(&w, _)| w)
            .collect()
    }

    /// Initial (pre-prune) domain sizes, the input of the variable-order
    /// heuristic (kept identical to the reference engine's).
    pub(crate) fn initial_sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.len()).collect()
    }
}
