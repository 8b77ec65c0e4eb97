//! In-place circular shifts (rotations) and block swaps.
//!
//! The paper writes a circular shift as three reversals,
//! `rotate_left(A, c) = reverse(reverse(A[0..c]) ++ reverse(A[c..n]))`:
//! three rounds of disjoint swaps, `O(1)` depth, which §4.2 blocks into
//! `B`-element groups for `O(N / (P·B))` I/Os. The PEM and GPU cost
//! models (`ist-pem-sim`, `ist-gpu-sim`) still price a rotation that way.
//!
//! On a real machine a reversal is a per-element swap between two
//! cursors running in opposite directions, which does not vectorise, and
//! the identity makes three such passes. The parallel entry points here
//! use the Gries–Mills block-swap rotation instead: swap the smaller side
//! into its final place with one contiguous block swap, then rotate what
//! is left. Every block swap is a `ptr::swap_nonoverlapping` over
//! contiguous memory and puts one of its two blocks in its final place,
//! so a rotation makes at most `n` element swaps and needs no scratch
//! buffer. Consecutive swaps that carry the same block through the array
//! are batched into one fork, and the block's width is cut into one
//! contiguous column piece per thread, so a rotation forks at most once
//! per step of Euclid's algorithm on its two side lengths. Once the
//! smaller side drops below `PAR_CUTOFF` the rest goes to
//! `slice::rotate_left`.

use ist_perm::SharedSlice;
use rayon::prelude::*;

/// A rotation whose smaller side is shorter than this is finished by
/// `slice::rotate_left`.
const PAR_CUTOFF: usize = 1 << 14;

/// A run of block swaps is split across threads only when it swaps at
/// least this many elements. Spawning a helper costs tens of
/// microseconds in `ist-parallel`, about what one core needs to swap
/// `2^17` elements, so smaller runs are faster on the calling thread.
const PAR_WORK: usize = 1 << 18;

/// Circular shift left by `c` positions: element at index `i` moves to
/// index `(i + n − c) mod n`. Equivalently, the first `c` elements move to
/// the back.
///
/// # Examples
/// ```
/// use ist_shuffle::rotate_left;
/// let mut v = vec![1, 2, 3, 4, 5];
/// rotate_left(&mut v, 2);
/// assert_eq!(v, vec![3, 4, 5, 1, 2]);
/// ```
#[inline]
pub fn rotate_left<T>(data: &mut [T], c: usize) {
    let n = data.len();
    if n == 0 {
        return;
    }
    data.rotate_left(c % n);
}

/// Circular shift right by `c` positions: element at index `i` moves to
/// index `(i + c) mod n`.
///
/// # Examples
/// ```
/// use ist_shuffle::rotate_right;
/// let mut v = vec![1, 2, 3, 4, 5];
/// rotate_right(&mut v, 2);
/// assert_eq!(v, vec![4, 5, 1, 2, 3]);
/// ```
#[inline]
pub fn rotate_right<T>(data: &mut [T], c: usize) {
    let n = data.len();
    if n == 0 {
        return;
    }
    data.rotate_right(c % n);
}

/// Parallel circular shift left by `c`, by Gries–Mills block swaps (see
/// the [module docs](self)).
///
/// Matches [`rotate_left`] exactly; in place, no allocation.
///
/// # Examples
/// ```
/// use ist_shuffle::{rotate_left, rotate_left_par};
/// let mut a: Vec<u32> = (0..50_000).collect();
/// let mut b = a.clone();
/// rotate_left(&mut a, 12345);
/// rotate_left_par(&mut b, 12345);
/// assert_eq!(a, b);
/// ```
pub fn rotate_left_par<T: Send>(data: &mut [T], c: usize) {
    let n = data.len();
    if n == 0 {
        return;
    }
    let mut c = c % n;
    let shared = SharedSlice::new(data);
    // What is left to do: rotate `[lo, hi)` left by `c`, i.e. turn
    // `[A | B]` with `|A| = c` into `[B | A]`.
    let (mut lo, mut hi) = (0, n);
    loop {
        let (a, b) = (c, hi - lo - c);
        if a.min(b) < PAR_CUTOFF {
            // SAFETY: `[lo, hi)` lies inside `data`, and no other view of
            // it is used again.
            unsafe { shared.slice_mut(lo, hi - lo) }.rotate_left(c);
            return;
        }
        if a <= b {
            // A moves to the end of the range: swap it with the last `a`
            // elements, carry what comes back into the `a` before those,
            // and so on while a whole block of B is left.
            let q = b / a;
            // SAFETY: destinations `[hi − (k+1)·a, hi − k·a)` for
            // `k < q` lie in `[lo + a, hi)`, disjoint from the carried
            // block `[lo, lo + a)`; `data` is borrowed exclusively.
            unsafe { carry_block(&shared, lo, a, q, |k| hi - (k + 1) * a) };
            hi -= q * a;
        } else {
            // Mirror image: B moves to the front, one `b`-block of A at a
            // time, always swapping through the last `b` elements.
            let q = a / b;
            // SAFETY: destinations `[lo + k·b, lo + (k+1)·b)` for `k < q`
            // lie in `[lo, hi − b)`, disjoint from the carried block
            // `[hi − b, hi)`; `data` is borrowed exclusively.
            unsafe { carry_block(&shared, hi - b, b, q, |k| lo + k * b) };
            lo += q * b;
            c -= q * b;
        }
    }
}

/// Parallel circular shift right by `c`. See [`rotate_left_par`].
///
/// # Examples
/// ```
/// use ist_shuffle::{rotate_right, rotate_right_par};
/// let mut a: Vec<u32> = (0..50_000).collect();
/// let mut b = a.clone();
/// rotate_right(&mut a, 777);
/// rotate_right_par(&mut b, 777);
/// assert_eq!(a, b);
/// ```
pub fn rotate_right_par<T: Send>(data: &mut [T], c: usize) {
    let n = data.len();
    if n == 0 {
        return;
    }
    let c = c % n;
    rotate_left_par(data, n - c);
}

/// Swap two equal-length disjoint regions `[a, a+len)` and `[b, b+len)` of
/// `data`, one contiguous piece per thread. Used by the chunked gather
/// (swapping `C`-element chunks) and by Figure 6.4's "swap first half with
/// second half" baseline.
///
/// # Panics
/// Panics if the regions overlap or are out of bounds.
///
/// # Examples
/// ```
/// use ist_shuffle::rotate::swap_regions_par;
/// let mut v = vec![1, 2, 3, 4, 5, 6];
/// swap_regions_par(&mut v, 0, 4, 2);
/// assert_eq!(v, vec![5, 6, 3, 4, 1, 2]);
/// ```
pub fn swap_regions_par<T: Send>(data: &mut [T], a: usize, b: usize, len: usize) {
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    assert!(
        b <= data.len() && len <= data.len() - b,
        "region out of bounds"
    );
    // Cannot overflow: a + len ≤ b + len ≤ data.len().
    assert!(a + len <= b, "regions overlap");
    // SAFETY: both regions are in bounds and disjoint (asserted above),
    // and `data` is borrowed exclusively.
    unsafe { carry_block(&SharedSlice::new(data), a, len, 1, |_| b) };
}

/// Swap the block `[src, src + w)` with `[dst(0), dst(0) + w)`, then with
/// `[dst(1), dst(1) + w)`, and so on for `q` destinations, carrying the
/// block's contents through each in turn.
///
/// When the run swaps at least `PAR_WORK` elements the block is cut into
/// one contiguous column piece per thread, and each piece runs all `q`
/// swaps on its columns. Column `i` only touches offset `i` of each
/// block, so the pieces are disjoint and their results do not depend on
/// scheduling.
///
/// # Safety
/// Every destination block must lie inside `data` and be disjoint from
/// `[src, src + w)`, which must lie inside `data` too, and no other task
/// may touch any of these blocks during the call.
unsafe fn carry_block<T: Send>(
    data: &SharedSlice<'_, T>,
    src: usize,
    w: usize,
    q: usize,
    dst: impl Fn(usize) -> usize + Sync,
) {
    let pieces = if w * q < PAR_WORK {
        1
    } else {
        rayon::current_num_threads()
    };
    (0..pieces).into_par_iter().for_each(|t| {
        let (x, y) = (w * t / pieces, w * (t + 1) / pieces);
        for k in 0..q {
            // SAFETY: the caller guarantees both blocks in bounds and
            // disjoint from each other; columns `[x, y)` of both belong
            // to this piece alone.
            unsafe { data.swap_range(src + x, dst(k) + x, y - x) };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_inverses() {
        for n in [1usize, 2, 5, 100, 1 << 15] {
            for c in [0usize, 1, n / 3, n - 1, n, n + 7] {
                let orig: Vec<usize> = (0..n).collect();
                let mut v = orig.clone();
                rotate_left(&mut v, c);
                rotate_right(&mut v, c);
                assert_eq!(v, orig, "n={n} c={c}");
            }
        }
    }

    #[test]
    fn rotate_semantics_index_map() {
        let n = 11usize;
        let mut v: Vec<usize> = (0..n).collect();
        rotate_left(&mut v, 4);
        for i in 0..n {
            // element originally at i now at (i + n - 4) % n
            assert_eq!(v[(i + n - 4) % n], i);
        }
        let mut w: Vec<usize> = (0..n).collect();
        rotate_right(&mut w, 4);
        for i in 0..n {
            assert_eq!(w[(i + 4) % n], i);
        }
    }

    #[test]
    fn par_matches_seq_large() {
        let n = (1 << 16) + 13;
        for c in [0usize, 1, 12345, n - 1] {
            let mut a: Vec<u64> = (0..n as u64).collect();
            let mut b = a.clone();
            rotate_left(&mut a, c);
            rotate_left_par(&mut b, c);
            assert_eq!(a, b, "c={c}");
        }
    }

    /// Run `f` on pools of 1 to 4 threads, so the column pieces split
    /// unevenly and (where a helper is free) run concurrently.
    fn on_pools(f: impl Fn(usize) + Sync) {
        for p in 1..=4 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(p)
                .build()
                .unwrap();
            pool.install(|| f(p));
        }
    }

    fn check_rotations(n: usize, c: usize, p: usize) {
        let orig: Vec<u64> = (0..n as u64).collect();
        let (mut want, mut got) = (orig.clone(), orig.clone());
        rotate_left(&mut want, c);
        rotate_left_par(&mut got, c);
        assert_eq!(got, want, "left n={n} c={c} p={p}");
        let (mut want, mut got) = (orig.clone(), orig);
        rotate_right(&mut want, c);
        rotate_right_par(&mut got, c);
        assert_eq!(got, want, "right n={n} c={c} p={p}");
    }

    #[test]
    fn gries_mills_branches_match_slice_rotate() {
        let (k, w) = (PAR_CUTOFF, PAR_WORK);
        on_pools(|p| {
            for (n, c) in [
                // a < b: thirty carried swaps, split across threads, then
                // a remainder below the cutoff.
                (2 * w + 3, k + 1),
                // a > b: the mirror image.
                (2 * w + 3, 2 * w + 3 - (k + 1)),
                // a == b: one split swap, then nothing left.
                (2 * w, w),
                // a == b above the cutoff but below the split size.
                (2 * k + 2, k + 1),
                // Two split Euclid phases (a < b, then a > b).
                (3 * w + 21, w + 8),
                // Several unsplit phases above the cutoff.
                (8 * k + 21, 3 * k + 8),
            ] {
                check_rotations(n, c, p);
            }
        });
    }

    #[test]
    fn smaller_side_at_the_cutoff() {
        let n = 4 * PAR_CUTOFF + 7;
        on_pools(|p| {
            for s in [PAR_CUTOFF - 1, PAR_CUTOFF, PAR_CUTOFF + 1] {
                check_rotations(n, s, p);
                check_rotations(n, n - s, p);
            }
        });
    }

    #[test]
    fn degenerate_shift_amounts() {
        on_pools(|p| {
            for n in [1usize, 2, 100, 3 * PAR_CUTOFF + 5] {
                for c in [0, 1, n - 1, n, n + 7] {
                    check_rotations(n, c, p);
                }
            }
        });
    }

    #[test]
    fn swap_regions_par_matches_sequential_swap() {
        // PAR_WORK + 1 is a multiple of none of 2, 3, 4; PAR_WORK − 1
        // stays on the calling thread.
        for len in [PAR_WORK - 1, PAR_WORK + 1] {
            let n = 2 * len + 11;
            on_pools(|p| {
                for (a, b) in [(0, len + 11), (len + 5, 2), (3, n - len)] {
                    let mut want: Vec<u64> = (0..n as u64).collect();
                    let mut got = want.clone();
                    for i in 0..len {
                        want.swap(a + i, b + i);
                    }
                    swap_regions_par(&mut got, a, b, len);
                    assert_eq!(got, want, "len={len} a={a} b={b} p={p}");
                }
            });
        }
    }

    #[test]
    fn swap_regions_basic() {
        let mut v: Vec<u32> = (0..10).collect();
        swap_regions_par(&mut v, 6, 0, 4); // order-insensitive
        assert_eq!(v, vec![6, 7, 8, 9, 4, 5, 0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn swap_regions_rejects_lengths_that_would_wrap() {
        let mut v = vec![0u8; 10];
        swap_regions_par(&mut v, 1, 0, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn swap_regions_rejects_overlap() {
        let mut v = vec![0u8; 10];
        swap_regions_par(&mut v, 0, 3, 4);
    }
}
