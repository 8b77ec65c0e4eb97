//! The six construction algorithms, written **once**, generic over
//! [`Machine`].
//!
//! Every algorithm below is expressed in the primitives the paper
//! analyzes — involution swap rounds (Chapter 2), equidistant gathers
//! (Chapter 3), circular shifts, and recursive subtree tasks — so the
//! same control flow drives:
//!
//! * the production [`Ram`] backend (what
//!   [`crate::permute_in_place`] uses),
//! * the PEM I/O counter (`ist-pem-sim`'s `TrackedArray`), and
//! * the SIMT cost model (`ist-gpu-sim`'s `Gpu`).
//!
//! Earlier revisions carried three hand-synchronized copies of these
//! algorithms (production + two instrumented replays); the simulators'
//! claim to measure "the real algorithms" now holds by construction.
//! Backend outputs are bit-identical — `tests/machine_equivalence.rs`
//! asserts every (layout, algorithm, backend) combination against
//! [`crate::reference_permutation`], for perfect and non-perfect sizes.
//!
//! All indices are global to the machine's array; recursive algorithms
//! carry explicit region offsets (`lo`) so cost backends observe true
//! addresses.

use ist_bits::{ilog2_floor, rev2, rev_k};
use ist_layout::{complete::BtreeCompleteShape, veb_split, CompleteShape};
use ist_machine::{GatherMode, IndexArith, Machine, Ram, Region};
use ist_shuffle::j_involution;

use crate::{Algorithm, Error, Layout};

/// Permute the machine's sorted array in place into `layout` using
/// `algorithm`. Handles arbitrary sizes (non-perfect trees use the
/// Chapter-5 `[perfect | overflow]` extension) on **every** backend.
///
/// This is the single entry point behind [`crate::permute_in_place`],
/// `ist-pem-sim`'s kernels and `ist-gpu-sim`'s kernels.
pub fn construct<M: Machine>(m: &mut M, layout: Layout, algorithm: Algorithm) -> Result<(), Error> {
    if matches!(layout, Layout::Btree { b: 0 }) {
        return Err(Error::ZeroNodeCapacity);
    }
    let n = m.len();
    if n <= 1 {
        return Ok(());
    }
    match layout {
        Layout::Bst | Layout::Veb => {
            let shape = CompleteShape::new(n);
            if !shape.is_perfect() {
                strip_overflow_binary(m, shape);
            }
            let d = shape.full_levels();
            match (layout, algorithm) {
                (Layout::Bst, Algorithm::Involution) => involution_bst(m, d),
                (Layout::Bst, Algorithm::CycleLeader) => cycle_leader_btree(m, 1, d),
                (Layout::Veb, Algorithm::Involution) => involution_veb(m, 0, d),
                (Layout::Veb, Algorithm::CycleLeader) => cycle_leader_veb(m, 0, d),
                _ => unreachable!(),
            }
        }
        Layout::Btree { b } => {
            let shape = BtreeCompleteShape::new(n, b);
            if !shape.is_perfect() {
                strip_overflow_btree(m, shape);
            }
            let levels = shape.full_node_levels();
            match algorithm {
                Algorithm::Involution => involution_btree(m, b, levels),
                Algorithm::CycleLeader => cycle_leader_btree(m, b, levels),
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shared permutation rounds (the Ξ₁ / Ξ₂ factorizations of Yang et al.)
// ---------------------------------------------------------------------

/// One padded `k`-way un-shuffle of `[lo, lo + k^digits − 1)` via the
/// digit-reversal involutions Ξ₁ (`rev_k(digits)` then `rev_k(digits−1)`
/// on 1-indexed padded positions). Internal keys land in the prefix.
fn padded_unshuffle_pow<M: Machine>(m: &mut M, lo: usize, k: usize, digits: u32) {
    let n_cur = k.pow(digits) - 1;
    let kk = k as u64;
    m.involution_round(
        lo,
        lo + n_cur,
        IndexArith::RevK { k: kk, m: digits },
        move |s| lo + (rev_k(kk, digits, (s - lo + 1) as u64) - 1) as usize,
    );
    m.involution_round(
        lo,
        lo + n_cur,
        IndexArith::RevK {
            k: kk,
            m: digits - 1,
        },
        move |s| lo + (rev_k(kk, digits - 1, (s - lo + 1) as u64) - 1) as usize,
    );
}

/// One padded `k`-way un-shuffle of `[lo, lo + len)` via the `J`
/// involutions Ξ₂ (`J_k` then `J_1` on 1-indexed padded positions,
/// modulus `len`); works for any padded size `len + 1` divisible by `k`.
fn padded_unshuffle_mod<M: Machine>(m: &mut M, lo: usize, len: usize, k: usize) {
    let nm1 = len as u64; // padded size K = len + 1, modulus K − 1 = len
    let kk = k as u64;
    m.involution_round(lo, lo + len, IndexArith::Jmap { len }, move |s| {
        lo + (j_involution(kk, nm1, (s - lo + 1) as u64) - 1) as usize
    });
    m.involution_round(lo, lo + len, IndexArith::Jmap { len }, move |s| {
        lo + (j_involution(1, nm1, (s - lo + 1) as u64) - 1) as usize
    });
}

/// `k`-way perfect shuffle of `[lo, hi)` via Ξ₂ (`J_1` then `J_k` on
/// 0-indexed positions, modulus `hi − lo − 1`).
fn shuffle_mod_rounds<M: Machine>(m: &mut M, lo: usize, hi: usize, k: usize) {
    let len = hi - lo;
    if len <= 1 || k <= 1 {
        return;
    }
    debug_assert_eq!(len % k, 0);
    let nm1 = (len - 1) as u64;
    let kk = k as u64;
    m.involution_round(lo, hi, IndexArith::Jmap { len }, move |s| {
        lo + j_involution(1, nm1, (s - lo) as u64) as usize
    });
    m.involution_round(lo, hi, IndexArith::Jmap { len }, move |s| {
        lo + j_involution(kk, nm1, (s - lo) as u64) as usize
    });
}

// ---------------------------------------------------------------------
// Chapter 2: involution-based constructions
// ---------------------------------------------------------------------

/// Involution-based BST construction (§2.1, after Fich et al.): exactly
/// two rounds of disjoint swaps over `[0, 2^d − 1)`.
pub fn involution_bst<M: Machine>(m: &mut M, d: u32) {
    let n = (1usize << d) - 1;
    m.involution_round(0, n, IndexArith::Rev2 { d }, move |s| {
        (rev2(d, (s + 1) as u64) - 1) as usize
    });
    m.involution_round(0, n, IndexArith::Rev2 { d }, move |s| {
        let p = (s + 1) as u64;
        (rev2(ilog2_floor(p), p) - 1) as usize
    });
}

/// Involution-based B-tree construction (§2.2, after Yang et al.):
/// per level, a padded `(B+1)`-way un-shuffle pulls internal keys to the
/// front, a `B`-way shuffle regroups the leaf lists into leaf nodes, and
/// the loop recurses on the internal prefix. `levels` is the node height
/// `m` with `(b+1)^m − 1` total keys.
pub fn involution_btree<M: Machine>(m: &mut M, b: usize, levels: u32) {
    let k = b + 1;
    let mut mm = levels;
    while mm >= 2 {
        let n_cur = k.pow(mm) - 1;
        padded_unshuffle_pow(m, 0, k, mm);
        let r = k.pow(mm - 1) - 1;
        if b >= 2 {
            shuffle_mod_rounds(m, r, n_cur, b);
        }
        mm -= 1;
    }
}

/// Involution-based vEB construction (§2.3) of the `2^d − 1` element
/// region at `lo`: one B-tree level step with `B = 2^⌊d/2⌋ − 1` separates
/// the top subtree from the bottom subtrees, then all subtrees recurse.
pub fn involution_veb<M: Machine>(m: &mut M, lo: usize, d: u32) {
    if d <= 1 {
        return;
    }
    let n_cur = (1usize << d) - 1;
    let threshold = m.local_threshold();
    if threshold > 0 && n_cur <= threshold {
        return m.local_task(lo, n_cur, |region| {
            involution_veb(&mut Ram::seq(region), 0, d)
        });
    }
    let (t, bb) = veb_split(d);
    let k = 1usize << bb;
    let r = (1usize << t) - 1;
    let l = k - 1;
    // Separate top keys (every k-th) to the front. The padded size 2^d is
    // a power of k iff bb | d: use Ξ₁ (digit reversals) when it is, Ξ₂
    // (J maps) otherwise.
    if d.is_multiple_of(bb) {
        padded_unshuffle_pow(m, lo, k, d / bb);
    } else {
        padded_unshuffle_mod(m, lo, n_cur, k);
    }
    // Interleave the l leaf-slot lists into bottom subtrees of l
    // consecutive keys each.
    if l >= 2 {
        shuffle_mod_rounds(m, lo + r, lo + n_cur, l);
    }
    // Recurse on the top subtree and every bottom subtree.
    let mut tasks = Vec::with_capacity(r + 2);
    tasks.push(Region::new(lo, r, t));
    for q in 0..=r {
        tasks.push(Region::new(lo + r + q * l, l, bb));
    }
    m.run_tasks(tasks, |mm, reg| involution_veb(mm, reg.lo, reg.tag));
}

// ---------------------------------------------------------------------
// Chapter 3: cycle-leader constructions
// ---------------------------------------------------------------------

/// Cycle-leader vEB construction (§3.1) of the `2^d − 1` element region
/// at `lo`: one equidistant gather separates the top subtree from the
/// bottom subtrees (odd heights gather two halves and join them with one
/// circular shift), then all subtrees recurse.
pub fn cycle_leader_veb<M: Machine>(m: &mut M, lo: usize, d: u32) {
    if d <= 1 {
        return;
    }
    let n_cur = (1usize << d) - 1;
    let threshold = m.local_threshold();
    if threshold > 0 && n_cur <= threshold {
        return m.local_task(lo, n_cur, |region| {
            cycle_leader_veb(&mut Ram::seq(region), 0, d)
        });
    }
    let (t, bb) = veb_split(d);
    let r = (1usize << t) - 1;
    let l = (1usize << bb) - 1;
    if t == bb {
        // Even number of levels: r = l, gather directly.
        m.gather(lo, r, l, GatherMode::Standalone);
    } else {
        // Odd: r = 2l + 1. Gather each half (a perfect tree of d − 1
        // levels with square shape l × l) — the halves are disjoint, so
        // they run as parallel tasks — then one circular shift joins the
        // two gathered tops around the median.
        let half = (n_cur - 1) / 2;
        m.run_tasks(
            vec![
                Region::new(lo, half, ()),
                Region::new(lo + half + 1, half, ()),
            ],
            move |mm, reg| mm.gather(reg.lo, l, l, GatherMode::Standalone),
        );
        // Region [lo+l, lo+l+half+1) = [rest_left | median | top_right];
        // shift the last l + 1 elements (median + right top) to its front.
        m.rotate_right(lo + l, lo + l + half + 1, l + 1);
    }
    let mut tasks = Vec::with_capacity(r + 2);
    tasks.push(Region::new(lo, r, t));
    for q in 0..=r {
        tasks.push(Region::new(lo + r + q * l, l, bb));
    }
    m.run_tasks(tasks, |mm, reg| cycle_leader_veb(mm, reg.lo, reg.tag));
}

/// Cycle-leader B-tree construction (§3.2): per level, the extended
/// equidistant gather hoists all internal keys to the front, then the
/// internal prefix recurses (iteratively). With `b = 1` this is the BST
/// construction of §3.3.
pub fn cycle_leader_btree<M: Machine>(m: &mut M, b: usize, levels: u32) {
    let mut mm = levels;
    while mm >= 2 {
        extended_gather(m, 0, b, mm, true);
        mm -= 1;
    }
}

/// The extended equidistant gather (`r > l`, §3.2) on the
/// `(b+1)^levels − 1` element region at `lo`: recursively gather each of
/// the `b + 1` partitions, then hoist all internal keys with one chunked
/// gather. `representative` marks the recursion path that carries the
/// per-depth fixed costs on launch-charging backends (the paper's §6
/// per-depth kernel batching).
fn extended_gather<M: Machine>(m: &mut M, lo: usize, b: usize, levels: u32, representative: bool) {
    let k = b + 1;
    match levels {
        0 | 1 => (),
        2 => m.gather(lo, b, b, GatherMode::Batched { representative }),
        _ => {
            let c = k.pow(levels - 2); // chunk size C = (B+1)^{levels-2}
            let part_len = c * k;
            // Partition 0 has C·k − 1 elements (standard pattern);
            // partitions 1..=b start with an internal element followed by
            // a standard pattern — the regions below skip it.
            let mut tasks = Vec::with_capacity(k);
            tasks.push(Region::new(lo, part_len - 1, representative));
            for p in 1..k {
                let start = lo + part_len - 1 + (p - 1) * part_len;
                tasks.push(Region::new(start + 1, part_len - 1, false));
            }
            m.run_tasks(tasks, |mm, reg| {
                extended_gather(mm, reg.lo, b, levels - 1, reg.tag)
            });
            // Hoist: from offset C−1 the region reads, in chunk units,
            // [L₀ (b) | I₁ | L₁ (b) | … | I_b | L_b (b)] — the exact
            // gather pattern with r = l = b.
            m.gather_chunks(lo + c - 1, b, b, c, GatherMode::Batched { representative });
        }
    }
}

// ---------------------------------------------------------------------
// Chapter 5: non-perfect (complete) tree extensions
// ---------------------------------------------------------------------

/// Move the `L` overflow leaves of a complete **binary** tree to the
/// array suffix, leaving the full-level elements sorted in the prefix.
///
/// In sorted order the overflow leaves sit at even positions
/// `0, 2, …, 2(L−1)`, interleaved with their parents: the `b = 1` case
/// of [`strip_overflow_btree`] with `L` groups `[leaf | parent]`.
pub fn strip_overflow_binary<M: Machine>(m: &mut M, shape: CompleteShape) {
    debug_assert_eq!(m.len(), shape.len());
    strip_overflow(m, 1, shape.overflow(), 0);
}

/// Move the `L` overflow leaves of a complete **B-tree** to the array
/// suffix, leaving the full-level elements sorted in the prefix.
///
/// The overflow region interleaves `q = ⌊L/B⌋` full leaf nodes with
/// their parents' keys (`[B leaves | parent] × q`), followed by the
/// `s = L mod B` keys of the partial node.
pub fn strip_overflow_btree<M: Machine>(m: &mut M, shape: BtreeCompleteShape) {
    debug_assert_eq!(m.len(), shape.len());
    let (q, s) = (shape.full_overflow_nodes(), shape.partial_node_len());
    strip_overflow(m, shape.b(), q, s);
}

/// The stripping pass behind both entry points, built from the Chapter-3
/// gather: `[b leaves | parent] × q | s partial leaves | rest` becomes
/// `[parents | rest | leaves | partial]`.
///
/// `q` splits into its base-`(b+1)` digits, largest first, as blocks of
/// `(b+1)^j` groups. A block minus its last parent is a perfect region
/// of `(b+1)^{j+1} − 1` keys, so one extended gather hoists the block's
/// parents to its front; the blocks are disjoint and gather as parallel
/// tasks. One circular shift per block then moves the block's leaves
/// behind the leaves collected so far. The gathers do the perfect-tree
/// pass's work on the overflow, `O(L log_{b+1} q)`; each shift moves the
/// block and at most `q` parents collected so far.
fn strip_overflow<M: Machine>(m: &mut M, b: usize, q: usize, s: usize) {
    let l = q * b + s;
    if l == 0 {
        return;
    }
    let k = b + 1;
    let mut blocks = Vec::new();
    let (mut groups, mut levels) = (1usize, 1u32);
    while groups <= q / k {
        groups *= k;
        levels += 1;
    }
    let (mut lo, mut left) = (0, q);
    while left > 0 {
        while groups > left {
            groups /= k;
            levels -= 1;
        }
        // Only the first (largest) block carries the per-depth fixed
        // costs: it reaches every depth the smaller blocks do.
        blocks.push(Region::new(lo, groups * k - 1, (levels, blocks.is_empty())));
        lo += groups * k;
        left -= groups;
    }
    m.run_tasks(blocks.clone(), |mm, reg| {
        let (levels, representative) = reg.tag;
        extended_gather(mm, reg.lo, b, levels, representative)
    });
    // [leaves | parents | block parents | block leaves | last parent]
    // -> [leaves | block leaves | parents | block parents | last parent]
    let mut leaves = 0;
    for block in &blocks {
        let block_leaves = (block.len + 1) / k * b;
        m.rotate_right(leaves, block.lo + block.len, block_leaves);
        leaves += block_leaves;
    }
    // [leaves | parents (q) | partial (s) | rest]
    // -> [leaves | partial | parents | rest]
    if q > 0 && s > 0 {
        m.rotate_right(q * b, q * k + s, s);
    }
    // [overflow leaves (L) | full elements] -> [full | overflow].
    let n = m.len();
    m.rotate_right(0, n, n - l);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::reference_permutation;

    /// Ξ₁ and Ξ₂ must implement the same permutation on power sizes.
    #[test]
    fn padded_unshuffle_variants_agree() {
        let k = 4usize;
        let digits = 5u32;
        let n = k.pow(digits) - 1;
        let mut a: Vec<u32> = (0..n as u32).collect();
        let mut b = a.clone();
        padded_unshuffle_pow(&mut Ram::seq(&mut a), 0, k, digits);
        padded_unshuffle_mod(&mut Ram::seq(&mut b), 0, n, k);
        assert_eq!(a, b);
        // And internal keys (every k-th, 1-indexed) land sorted in front.
        for (idx, &v) in a[..k.pow(digits - 1) - 1].iter().enumerate() {
            assert_eq!(v as usize, (idx + 1) * k - 1);
        }
    }

    /// The machine rounds reproduce `ist_shuffle`'s slice shuffles.
    #[test]
    fn shuffle_rounds_match_slice_shuffles() {
        let k = 3usize;
        let n = k * 41;
        let pad = 5usize;
        let mut via_machine: Vec<u32> = (0..(pad + n) as u32).collect();
        let mut via_slices = via_machine.clone();
        shuffle_mod_rounds(&mut Ram::seq(&mut via_machine), pad, pad + n, k);
        ist_shuffle::shuffle_mod(&mut via_slices[pad..], k);
        assert_eq!(via_machine, via_slices);
    }

    /// `construct` on a sequential Ram matches the oracle for a sweep of
    /// perfect and non-perfect sizes (the cross-backend sweep lives in
    /// `tests/machine_equivalence.rs`).
    #[test]
    fn construct_matches_oracle() {
        for n in [1usize, 2, 3, 7, 10, 26, 63, 100, 255, 729, 1000] {
            let sorted: Vec<u64> = (0..n as u64).collect();
            for layout in [
                Layout::Bst,
                Layout::Veb,
                Layout::Btree { b: 2 },
                Layout::Btree { b: 8 },
            ] {
                let expect = reference_permutation(&sorted, layout);
                for algorithm in Algorithm::ALL {
                    let mut got = sorted.clone();
                    construct(&mut Ram::seq(&mut got), layout, algorithm).unwrap();
                    assert_eq!(got, expect, "n={n} {layout:?} {algorithm:?}");
                }
            }
        }
    }
}
