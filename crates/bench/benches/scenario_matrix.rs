//! Scenario-matrix throughput: the `rounds-sweep` family (round bounds
//! m ∈ {1,2,3} over one base complex) run with the shared cross-query
//! cache versus cold per-cell caches.
//!
//! The cached variant must beat the cold baseline by ≥ 2×: every cell of
//! the family subdivides the same standard triangle, so the shared cache
//! builds each `Chr^m` stage (and its solver domain tables) once for the
//! whole matrix while the cold run rebuilds them per cell.

use criterion::{criterion_group, criterion_main, Criterion};
use gact::cache::QueryCache;
use gact::control::SolveControl;
use gact_scenarios::{cells_for, run_matrix_cold, run_matrix_controlled};

fn bench_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_matrix");
    group.sample_size(10);
    let cells = cells_for("rounds-sweep").expect("registered family");

    group.bench_function("rounds_sweep_cached", |b| {
        b.iter(|| {
            // Fresh cache per sweep: measures intra-sweep sharing, not
            // warm-start luck.
            let cache = QueryCache::new();
            run_matrix_controlled(&cells, &cache, &SolveControl::new())
        });
    });

    group.bench_function("rounds_sweep_cold", |b| {
        b.iter(|| run_matrix_cold(&cells));
    });

    group.finish();
}

criterion_group!(benches, bench_matrix);
criterion_main!(benches);
