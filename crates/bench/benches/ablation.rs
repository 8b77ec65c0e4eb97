//! Ablation benches for the implementation choices where the paper
//! offers alternatives; each pair runs on identical inputs:
//!
//! * transpose-optimized gather (§4.2) vs the plain cycle gather,
//! * hardware (`reverse_bits`) vs software bit reversal — the paper's
//!   `T_REV₂` parameter,
//! * the parallel block-swap rotation (`rotate_right_par`, Gries–Mills
//!   swaps split per thread) vs the sequential `slice::rotate_right`,
//! * equidistant gather vs its naive r-round reference on identical
//!   inputs.
//!
//! Set `IST_BENCH_SMOKE=1` to shrink the inputs and sample counts (CI
//! report mode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ist_bench::sorted_keys;
use ist_bits::{rev2, rev2_software};
use ist_gather::{equidistant_gather, equidistant_gather_transposed, gather_len};
use ist_shuffle::{rotate_right, rotate_right_par};

fn smoke() -> bool {
    std::env::var_os("IST_BENCH_SMOKE").is_some()
}

fn bench_gather_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("gather_variants");
    group.sample_size(if smoke() { 3 } else { 10 });
    let xs: &[u32] = if smoke() { &[8] } else { &[8, 10] };
    for &x in xs {
        let r = (1usize << x) - 1;
        let n = gather_len(r, r);
        group.bench_function(BenchmarkId::new("cycles", r), |bch| {
            bch.iter_batched(
                || sorted_keys(n),
                |mut v| equidistant_gather(&mut v, r, r),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_function(BenchmarkId::new("transposed", r), |bch| {
            bch.iter_batched(
                || sorted_keys(n),
                |mut v| equidistant_gather_transposed(&mut v, r),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_bit_reversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("t_rev2");
    let xs: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
    group.bench_function("hardware", |bch| {
        bch.iter(|| {
            let mut acc = 0u64;
            for &x in &xs {
                acc ^= rev2(30, std::hint::black_box(x) & 0x3fff_ffff);
            }
            acc
        })
    });
    group.bench_function("software", |bch| {
        bch.iter(|| {
            let mut acc = 0u64;
            for &x in &xs {
                acc ^= rev2_software(30, std::hint::black_box(x) & 0x3fff_ffff);
            }
            acc
        })
    });
    group.finish();
}

fn bench_rotation(c: &mut Criterion) {
    let mut group = c.benchmark_group("rotation");
    group.sample_size(if smoke() { 3 } else { 10 });
    // Smoke mode keeps the full size (about 1 ms a rotation): the first
    // block-swap step of `rotate_right_par` then carries the 123_457-element
    // side 7 times, 864_199 swaps, above `ist_shuffle`'s `PAR_WORK` (2^18),
    // so the split across threads is what gets timed. Smaller sizes run
    // on the calling thread.
    let n = 1usize << 20;
    group.bench_function("std_rotate", |bch| {
        bch.iter_batched(
            || sorted_keys(n),
            |mut v| rotate_right(&mut v, 123_457),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("block_swap_par", |bch| {
        bch.iter_batched(
            || sorted_keys(n),
            |mut v| rotate_right_par(&mut v, 123_457),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gather_variants,
    bench_bit_reversal,
    bench_rotation
);
criterion_main!(benches);
