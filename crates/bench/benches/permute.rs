//! Criterion micro-benchmarks for the six construction algorithms
//! (the statistical companion to Figures 6.1/6.2; the `figures` binary
//! produces the full sweeps), plus the `cliff` group: sequential
//! cycle-leader builds at a perfect and a non-perfect size side by side,
//! which prices the Chapter-5 overflow-stripping pass.
//!
//! Set `IST_BENCH_SMOKE=1` to shrink the inputs and sample counts (CI
//! report mode). The smoke size still exceeds the `2^13`-element grains
//! of the parallel involution rounds and `Ram` gathers, so a `par` row
//! slower than its `seq` row shows up in the report. At both sizes every
//! rotation and block swap moves fewer than `ist_shuffle`'s `PAR_WORK`
//! (`2^18`) elements and runs on the calling thread; the `rotation`
//! group in `benches/ablation.rs` times the parallel split.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ist_bench::sorted_keys;
use ist_core::{permute_in_place, permute_in_place_seq, Algorithm, Layout};

fn smoke() -> bool {
    std::env::var_os("IST_BENCH_SMOKE").is_some()
}

fn bench_permute(c: &mut Criterion) {
    let mut group = c.benchmark_group("permute");
    group.sample_size(if smoke() { 3 } else { 10 });
    let n = if smoke() {
        (1usize << 16) - 1
    } else {
        (1 << 18) - 1
    };
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
    group.sample_size(if smoke() { 3 } else { 10 });
    // (name, layout, perfect size, non-perfect size); the row names carry
    // the size so ns/elem can be read off the JSON.
    // Exponents of the sizes: 2^e2 (BST and the b=8 non-perfect size),
    // 9^e9 and 17^e17 (the perfect B-tree sizes).
    let (e2, e9, e17) = if smoke() { (15, 5, 3) } else { (19, 6, 4) };
    let cases = [
        ("bst", Layout::Bst, (1usize << e2) - 1, 3 << (e2 - 1)),
        (
            "btree8",
            Layout::Btree { b: 8 },
            9usize.pow(e9) - 1,
            (1 << e2) - 1,
        ),
        (
            "btree16",
            Layout::Btree { b: 16 },
            17usize.pow(e17) - 1,
            (1 << (e2 - 3)) - 1,
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
