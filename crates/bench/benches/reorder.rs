//! Criterion bench: restore-recipe construction and stream permutation —
//! the zMesh-specific overhead the paper's F7/F8 experiments account for.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use zmesh::{GroupingMode, OrderingPolicy, RestoreRecipe};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;

fn bench_reorder(c: &mut Criterion) {
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Small);
    let tree = &ds.tree;
    let n = tree.cell_count() as u64;

    let mut g = c.benchmark_group("recipe_build");
    g.throughput(Throughput::Elements(n));
    for policy in OrderingPolicy::ALL {
        g.bench_function(policy.label(), |b| {
            b.iter(|| RestoreRecipe::build(black_box(tree), policy, GroupingMode::Chained))
        });
    }
    g.finish();

    // Benchmark-scale meshes: the trees a `pack` or cold open decodes and
    // rebuilds the recipe for (Chained = every cell carries a point). The
    // two stages of a cold open, each alone.
    for (name, big) in [
        (
            "blast2d",
            datasets::blast2d(StorageMode::AllCells, Scale::Standard),
        ),
        (
            "cluster3d",
            datasets::cluster3d(StorageMode::AllCells, Scale::Standard),
        ),
    ] {
        let cells = big.tree.cell_count() as u64;
        let mut g = c.benchmark_group(format!("recipe_build/standard_{name}"));
        g.throughput(Throughput::Elements(cells));
        for policy in [OrderingPolicy::ZOrder, OrderingPolicy::Hilbert] {
            g.bench_function(policy.label(), |b| {
                b.iter(|| RestoreRecipe::build(black_box(&big.tree), policy, GroupingMode::Chained))
            });
        }
        g.finish();

        let metadata = big.tree.structure_bytes();
        let mut g = c.benchmark_group("metadata/tree_rebuild");
        g.throughput(Throughput::Elements(cells));
        g.bench_function(format!("standard_{name}"), |b| {
            b.iter(|| zmesh_amr::AmrTree::from_structure_bytes(black_box(&metadata)).unwrap())
        });
        g.finish();
    }

    let recipe = RestoreRecipe::build(tree, OrderingPolicy::Hilbert, GroupingMode::Chained);
    let values = ds.primary().values().to_vec();
    let stream = recipe.apply(&values);
    let mut g = c.benchmark_group("permute");
    g.throughput(Throughput::Bytes(n * 8));
    g.bench_function("apply", |b| b.iter(|| recipe.apply(black_box(&values))));
    g.bench_function("invert", |b| b.iter(|| recipe.invert(black_box(&stream))));
    g.finish();

    let metadata = tree.structure_bytes();
    let mut g = c.benchmark_group("metadata");
    g.throughput(Throughput::Elements(n));
    g.bench_function("tree_rebuild", |b| {
        b.iter(|| zmesh_amr::AmrTree::from_structure_bytes(black_box(&metadata)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_reorder);
criterion_main!(benches);
