//! Cross-backend equivalence: every (layout, algorithm, backend)
//! combination must produce output bit-identical to
//! [`reference_permutation`], for perfect and non-perfect sizes.
//!
//! This is the contract that makes the cost simulators meaningful: the
//! PEM and GPU backends drive the *same* generic construction code as
//! the production `Ram` backend (`ist_core::algorithms`), so if any
//! backend diverged from the oracle — or from the others — the "the
//! simulators measure the real algorithms" claim would be false.

use implicit_search_trees::gpu_sim::{Gpu, GpuConfig};
use implicit_search_trees::pem_sim::{PemConfig, TrackedArray};
use implicit_search_trees::{construct, reference_permutation, Algorithm, Layout, Ram, Searcher};

/// Perfect sizes for binary layouts (2^d − 1), B-tree-perfect sizes for a
/// couple of B values, and decidedly non-perfect sizes.
fn sizes() -> Vec<usize> {
    vec![
        1, 2, 3, 4, 7, 8, 15, 26, 27, 63, 80, 100, 255, 256, 624, 625, 1000, 4095, 4096, 5000,
        8191, 12_345, 70_000,
    ]
}

fn layouts() -> Vec<Layout> {
    vec![
        Layout::Bst,
        Layout::Veb,
        Layout::Btree { b: 1 },
        Layout::Btree { b: 4 },
        Layout::Btree { b: 8 },
        Layout::Btree { b: 16 },
    ]
}

fn check_all_backends(n: usize) {
    let sorted: Vec<u64> = (0..n as u64).collect();
    for layout in layouts() {
        let expect = reference_permutation(&sorted, layout);
        for algorithm in Algorithm::ALL {
            let tag = format!("n={n} {layout:?} {algorithm:?}");

            let mut ram_seq = sorted.clone();
            construct(&mut Ram::seq(&mut ram_seq), layout, algorithm).unwrap();
            assert_eq!(ram_seq, expect, "Ram(seq) {tag}");

            let mut ram_par = sorted.clone();
            construct(&mut Ram::par(&mut ram_par), layout, algorithm).unwrap();
            assert_eq!(ram_par, expect, "Ram(par) {tag}");

            for p in [1usize, 3] {
                let mut pem = TrackedArray::from_sorted(n, PemConfig { m: 256, b: 16, p });
                construct(&mut pem, layout, algorithm).unwrap();
                assert_eq!(pem.data(), &expect[..], "Pem(p={p}) {tag}");
            }

            let mut gpu = Gpu::from_sorted(n, GpuConfig::default());
            construct(&mut gpu, layout, algorithm).unwrap();
            assert_eq!(gpu.data, expect, "Gpu {tag}");
        }
    }
}

#[test]
fn all_backends_match_oracle_small_and_nonperfect() {
    for n in sizes() {
        if n <= 1024 {
            check_all_backends(n);
        }
    }
}

#[test]
fn all_backends_match_oracle_large() {
    for n in sizes() {
        if n > 1024 {
            check_all_backends(n);
        }
    }
}

/// The GPU block-local path (subtrees under BLOCK_LOCAL keys handled by
/// one launch via a sequential Ram over the region) must cross the
/// threshold without changing the permutation.
#[test]
fn gpu_block_local_threshold_is_seamless() {
    use implicit_search_trees::gpu_sim::kernels::BLOCK_LOCAL;
    for n in [BLOCK_LOCAL - 1, 2 * BLOCK_LOCAL - 1, 4 * BLOCK_LOCAL - 1] {
        let sorted: Vec<u64> = (0..n as u64).collect();
        let expect = reference_permutation(&sorted, Layout::Veb);
        for algorithm in Algorithm::ALL {
            let mut gpu = Gpu::from_sorted(n, GpuConfig::default());
            construct(&mut gpu, Layout::Veb, algorithm).unwrap();
            assert_eq!(gpu.data, expect, "n={n} {algorithm:?}");
        }
    }
}

/// Layouts built by the cost backends are served by the same query
/// engine as production layouts: batched queries over a simulator-built
/// array are bit-identical to the scalar loop over the Ram-built one.
#[test]
fn backend_built_layouts_serve_identical_batched_queries() {
    let n = 2000usize;
    let sorted: Vec<u64> = (0..n as u64).map(|x| 2 * x).collect();
    let queries: Vec<u64> = (0..4 * n as u64).step_by(3).collect();
    for layout in layouts() {
        let mut ram = sorted.clone();
        construct(&mut Ram::par(&mut ram), layout, Algorithm::Involution).unwrap();
        let ram_s = Searcher::for_layout(&ram, layout);
        let expect = ram_s.batch_search_seq(&queries);

        let mut pem = TrackedArray::from_sorted(
            n,
            PemConfig {
                m: 256,
                b: 16,
                p: 2,
            },
        );
        construct(&mut pem, layout, Algorithm::Involution).unwrap();
        // PEM stores 0..n; remap the queries onto its key space.
        let pem_data: Vec<u64> = pem.data().to_vec();
        let pem_s = Searcher::for_layout(&pem_data, layout);
        let pem_queries: Vec<u64> = queries.iter().map(|q| q / 2).collect();
        assert_eq!(
            pem_s.batch_search(&pem_queries),
            pem_s.batch_search_seq(&pem_queries),
            "{layout:?} pem"
        );

        let gpu = {
            let mut g = Gpu::from_sorted(n, GpuConfig::default());
            construct(&mut g, layout, Algorithm::Involution).unwrap();
            g.data
        };
        let gpu_scaled: Vec<u64> = gpu.iter().map(|x| 2 * x).collect();
        let gpu_s = Searcher::for_layout(&gpu_scaled, layout);
        assert_eq!(gpu_s.batch_search(&queries), expect, "{layout:?} gpu");
        assert_eq!(
            gpu_s.batch_search_pipelined(&queries),
            expect,
            "{layout:?} gpu pipelined"
        );
    }
}

/// Cost backends actually charge something on every non-trivial run —
/// a regression guard against silently skipping the accounting when
/// driving the shared algorithms.
#[test]
fn cost_backends_charge_costs() {
    let n = (1usize << 12) - 1;
    for layout in layouts() {
        for algorithm in Algorithm::ALL {
            let mut pem = TrackedArray::from_sorted(
                n,
                PemConfig {
                    m: 256,
                    b: 16,
                    p: 2,
                },
            );
            construct(&mut pem, layout, algorithm).unwrap();
            assert!(
                pem.stats().total() > 0,
                "PEM charged nothing: {layout:?} {algorithm:?}"
            );

            let mut gpu = Gpu::from_sorted(n, GpuConfig::default());
            construct(&mut gpu, layout, algorithm).unwrap();
            let cost = gpu.cost();
            assert!(
                cost.launches > 0 && cost.transactions > 0,
                "GPU charged nothing: {layout:?} {algorithm:?}"
            );
        }
    }
}

/// Cliff guard for the non-perfect stripping pass: a cycle-leader B-tree
/// build at a non-perfect size costs at most 2x the PEM block I/Os per
/// element of the nearest perfect size. A stripping pass built from
/// modular `J` involution rounds, whose swaps scatter across the array,
/// costs 2.3x (b = 8) and 4.7x (b = 16) here.
#[test]
fn nonperfect_btree_build_has_no_io_cliff() {
    let io_per_elem = |n: usize, b: usize| {
        let cfg = PemConfig {
            m: 256,
            b: 16,
            p: 2,
        };
        let mut pem = TrackedArray::from_sorted(n, cfg);
        construct(&mut pem, Layout::Btree { b }, Algorithm::CycleLeader).unwrap();
        pem.stats().total() as f64 / n as f64
    };
    // (b, perfect size (b+1)^m − 1, non-perfect size above it)
    for (b, perfect, nonperfect) in [(8usize, 6560usize, 8191usize), (16, 4912, 8191)] {
        let ratio = io_per_elem(nonperfect, b) / io_per_elem(perfect, b);
        assert!(
            ratio <= 2.0,
            "b={b}: {nonperfect} keys cost {ratio:.2}x the I/Os per element of {perfect}"
        );
    }
}
