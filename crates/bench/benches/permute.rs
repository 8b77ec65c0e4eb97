//! Criterion micro-benchmarks for the six construction algorithms
//! (the statistical companion to Figures 6.1/6.2; the `figures` binary
//! produces the full sweeps), plus the `cliff` group: sequential
//! cycle-leader builds at a perfect and a non-perfect size side by side,
//! which prices the Chapter-5 overflow-stripping pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ist_bench::sorted_keys;
use ist_core::{permute_in_place, permute_in_place_seq, Algorithm, Layout};

fn bench_permute(c: &mut Criterion) {
    let mut group = c.benchmark_group("permute");
    group.sample_size(10);
    let n = (1usize << 18) - 1;
    let combos = [
        ("involution_bst", Layout::Bst, Algorithm::Involution),
        (
            "involution_btree",
            Layout::Btree { b: 8 },
            Algorithm::Involution,
        ),
        ("involution_veb", Layout::Veb, Algorithm::Involution),
        ("cycle_leader_bst", Layout::Bst, Algorithm::CycleLeader),
        (
            "cycle_leader_btree",
            Layout::Btree { b: 8 },
            Algorithm::CycleLeader,
        ),
        ("cycle_leader_veb", Layout::Veb, Algorithm::CycleLeader),
    ];
    for (name, layout, algo) in combos {
        group.bench_function(BenchmarkId::new("seq", name), |bch| {
            bch.iter_batched(
                || sorted_keys(n),
                |mut v| permute_in_place_seq(&mut v, layout, algo).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_function(BenchmarkId::new("par", name), |bch| {
            bch.iter_batched(
                || sorted_keys(n),
                |mut v| permute_in_place(&mut v, layout, algo).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_cliff(c: &mut Criterion) {
    let mut group = c.benchmark_group("cliff");
    group.sample_size(10);
    // (name, layout, perfect size, non-perfect size); the row names carry
    // the size so ns/elem can be read off the JSON.
    let cases = [
        ("bst", Layout::Bst, (1usize << 19) - 1, 3 << 18),
        (
            "btree8",
            Layout::Btree { b: 8 },
            9usize.pow(6) - 1,
            (1 << 19) - 1,
        ),
        (
            "btree16",
            Layout::Btree { b: 16 },
            17usize.pow(4) - 1,
            (1 << 16) - 1,
        ),
    ];
    for (name, layout, perfect, nonperfect) in cases {
        for (kind, n) in [("perfect", perfect), ("nonperfect", nonperfect)] {
            group.bench_function(BenchmarkId::new(format!("{name}/{kind}"), n), |bch| {
                bch.iter_batched(
                    || sorted_keys(n),
                    |mut v| permute_in_place_seq(&mut v, layout, Algorithm::CycleLeader).unwrap(),
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_permute, bench_cliff);
criterion_main!(benches);
