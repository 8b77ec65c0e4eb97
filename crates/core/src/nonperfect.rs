//! Extensions to non-perfect (complete) trees — Chapter 5.
//!
//! Sorted input of arbitrary size forms a complete tree whose last level
//! holds `L` *overflow* leaves. Construction first moves those leaves, in
//! place, to the array's suffix, leaving the `I` full-level elements
//! sorted in the prefix; the perfect-tree algorithms then run on the
//! prefix. The resulting array format is
//!
//! ```text
//! [ perfect layout of I elements | L overflow leaves, sorted ]
//! ```
//!
//! which is exactly what [`ist_layout::complete`] describes and what
//! `ist-query` searches (on falling off the perfect tree at in-order gap
//! `g`, the query probes the overflow suffix).
//!
//! The stripping pass is implemented once, generically, in
//! [`crate::algorithms`] (so the PEM and GPU cost backends replay it
//! too); this module instantiates it on plain slices. It is built from
//! the Chapter-3 extended equidistant gather plus circular shifts, and
//! both [`crate::Algorithm`]s share it: the involution builds strip
//! their overflow with the same gather-based pass as the cycle-leader
//! builds.
//!
//! **Documented deviation from the paper:** for the vEB layout the paper
//! re-interleaves overflow leaves into the recursive bottom subtrees so
//! that the final array is a pure vEB layout of the complete tree. We
//! instead keep the `[perfect | overflow]` format for all three layouts.
//! This preserves in-placeness, the asymptotic work/depth bounds (the
//! stripping pass matches the paper's), and query correctness, at the
//! cost of one extra cache line touched per query that ends in the
//! suffix. The README section "Array format for arbitrary sizes"
//! records this substitution.

use crate::algorithms;
use ist_layout::{complete::BtreeCompleteShape, CompleteShape};
use ist_machine::Ram;

/// Move the `L` overflow leaves of a complete **binary** tree to the
/// array suffix, leaving the `I` full elements sorted in the prefix.
///
/// In sorted order the overflow leaves sit at even positions
/// `0, 2, …, 2(L−1)`, interleaved with their parents; this is the
/// `B = 1` case of [`strip_overflow_btree`]. `O(N + L log L)` work.
pub fn strip_overflow_binary<T: Send>(data: &mut [T], shape: CompleteShape, par: bool) {
    debug_assert_eq!(data.len(), shape.len());
    algorithms::strip_overflow_binary(&mut Ram::with_mode(data, par), shape);
}

/// Move the `L` overflow leaves of a complete **B-tree** to the array
/// suffix.
///
/// The overflow region interleaves `q = ⌊L/B⌋` full leaf nodes with their
/// parents' keys (`[B leaves | parent] × q`), followed by `s = L mod B`
/// leftover leaves. `q` splits into base-`(B+1)` digit blocks of
/// `(B+1)^j` groups; one extended equidistant gather per block hoists its
/// parents, one circular shift per block appends its leaves to the
/// leaves collected so far, and two final shifts move
/// `[leaves | partial]` to the back. `O(N + L log_{B+1} L)` work, no
/// modular index arithmetic.
pub fn strip_overflow_btree<T: Send>(data: &mut [T], shape: BtreeCompleteShape, par: bool) {
    debug_assert_eq!(data.len(), shape.len());
    algorithms::strip_overflow_btree(&mut Ram::with_mode(data, par), shape);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: stable partition into [full elements | overflow leaves].
    fn reference_binary(n: usize) -> Vec<usize> {
        let shape = CompleteShape::new(n);
        let mut out: Vec<usize> = (0..n).filter(|&i| !shape.is_overflow(i)).collect();
        out.extend((0..n).filter(|&i| shape.is_overflow(i)));
        out
    }

    fn reference_btree(n: usize, b: usize) -> Vec<usize> {
        let shape = BtreeCompleteShape::new(n, b);
        let mut out: Vec<usize> = (0..n).filter(|&i| !shape.is_overflow(i)).collect();
        out.extend((0..n).filter(|&i| shape.is_overflow(i)));
        out
    }

    /// Strip `n` keys sequentially and in parallel; both must match
    /// the stable-partition reference.
    fn check_binary(n: usize) {
        let shape = CompleteShape::new(n);
        let expect = reference_binary(n);
        let mut a: Vec<usize> = (0..n).collect();
        strip_overflow_binary(&mut a, shape, false);
        assert_eq!(a, expect, "seq n={n}");
        let mut p: Vec<usize> = (0..n).collect();
        strip_overflow_binary(&mut p, shape, true);
        assert_eq!(p, expect, "par n={n}");
    }

    #[test]
    fn binary_all_sizes() {
        for n in 1..700usize {
            check_binary(n);
        }
    }

    /// [`check_binary`] for a B-tree with `b` keys per node.
    fn check_btree(n: usize, b: usize) {
        let shape = BtreeCompleteShape::new(n, b);
        let expect = reference_btree(n, b);
        let mut a: Vec<usize> = (0..n).collect();
        strip_overflow_btree(&mut a, shape, false);
        assert_eq!(a, expect, "seq n={n} b={b}");
        let mut p: Vec<usize> = (0..n).collect();
        strip_overflow_btree(&mut p, shape, true);
        assert_eq!(p, expect, "par n={n} b={b}");
    }

    #[test]
    fn btree_all_sizes() {
        for b in [1usize, 2, 3, 8, 16] {
            for n in 1..400usize {
                check_btree(n, b);
            }
        }
    }

    /// The pass splits the `q` full overflow nodes into base-`(b+1)`
    /// digit blocks: hit `q` one below (every digit `b`), at and one
    /// above a power of `b+1`, each with an empty and a non-empty
    /// partial node, over the smallest and (below 2^18 keys) the next
    /// perfect prefix.
    #[test]
    fn btree_digit_edge_cases() {
        for b in [1usize, 2, 3, 8, 16] {
            let k = b + 1;
            for j in 0..4u32 {
                let p = k.pow(j);
                for q in [p - 1, p, p + 1] {
                    for s in [0, 1, b - 1] {
                        if s >= b {
                            continue;
                        }
                        let m = (1..).find(|&m| q < k.pow(m)).unwrap();
                        for levels in [m, m + 1] {
                            if levels > m && k.pow(levels) > 1 << 18 {
                                continue;
                            }
                            let n = k.pow(levels) - 1 + q * b + s;
                            let shape = BtreeCompleteShape::new(n, b);
                            assert_eq!(
                                (shape.full_overflow_nodes(), shape.partial_node_len()),
                                (q, s),
                                "n={n} b={b}"
                            );
                            check_btree(n, b);
                        }
                    }
                }
            }
        }
    }

    /// Sizes of at least 2^16 keys, so the parallel `Ram` paths (spawned
    /// tasks, parallel gathers and rotations) run and must agree with the
    /// sequential ones.
    #[test]
    fn seq_and_par_agree_on_large_sizes() {
        for n in [(1usize << 16) + 1, (1 << 17) + 12_345, (1 << 18) - 2] {
            check_binary(n);
        }
        for b in [2usize, 8, 16] {
            for n in [1usize << 16, 100_003, (1 << 18) - 1] {
                check_btree(n, b);
            }
        }
    }

    #[test]
    fn suffix_is_sorted_and_prefix_is_sorted() {
        let n = 12345usize;
        let shape = CompleteShape::new(n);
        let mut v: Vec<usize> = (0..n).collect();
        strip_overflow_binary(&mut v, shape, true);
        let i = shape.full_count();
        assert!(v[..i].windows(2).all(|w| w[0] < w[1]));
        assert!(v[i..].windows(2).all(|w| w[0] < w[1]));
    }
}
