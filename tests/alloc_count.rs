//! Allocation-count regression test for the rebuild hot path.
//!
//! `StaticMap::build_presorted` is the only construction work on
//! `DynamicMap`'s writer path (seals and tier merges both funnel into
//! it), so an accidental intermediate copy there — e.g. permuting into
//! a scratch `Vec` and then relocating into the aligned buffer — would
//! tax every compaction. The build must allocate exactly **one**
//! payload-sized buffer per array (keys, values): the aligned
//! destination the layout scatter writes into directly.
//!
//! The in-place constructions make the stronger promise the paper's
//! title does: `permute_in_place` allocates no buffer proportional to
//! `n` at all, so a rotation or gather that reached for an O(n) scratch
//! copy would fail here.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`; the tests take [`ARMED`] so only one
//! of them counts at a time.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counts allocations at least `THRESHOLD` bytes (0 = disarmed). The
/// size gate filters out incidental small allocations (thread-spawn
/// packets from the parallel scatter, test-harness bookkeeping) so the
/// count isolates payload-sized buffers.
struct CountingAlloc;

static THRESHOLD: AtomicUsize = AtomicUsize::new(0);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Held while a test has the counter armed; the counter is global, so
/// two tests counting at once would see each other's allocations.
static ARMED: Mutex<()> = Mutex::new(());

// SAFETY: pure pass-through to `System` plus a counter — allocation
// behavior (size, alignment, validity of returned pointers) is exactly
// the system allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` under the caller's layout
    // contract, unchanged.
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        let t = THRESHOLD.load(Ordering::Relaxed);
        if t != 0 && layout.size() >= t {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: delegates to `System.dealloc` under the caller's
    // pointer/layout contract, unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: same pointer and layout the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn rebuild_hot_path_allocates_once_per_array() {
    use implicit_search_trees::{Algorithm, QueryKind, StaticMap};

    let _armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    let n = 1usize << 16;
    let payload = n * size_of::<u64>();
    let keys: Vec<u64> = (0..n as u64).collect();
    let vals: Vec<u64> = (0..n as u64).map(|x| x * 7).collect();

    for kind in [
        QueryKind::Bst,
        QueryKind::Btree(8),
        QueryKind::Btree(16),
        QueryKind::Veb,
    ] {
        let (k, v) = (keys.clone(), vals.clone()); // cloned while disarmed
        BIG_ALLOCS.store(0, Ordering::SeqCst);
        THRESHOLD.store(payload, Ordering::SeqCst);
        let map = StaticMap::build_presorted(k, v, kind, Algorithm::CycleLeader);
        THRESHOLD.store(0, Ordering::SeqCst);
        let map = map.unwrap();
        assert_eq!(
            BIG_ALLOCS.load(Ordering::SeqCst),
            2,
            "{kind:?}: rebuild must allocate exactly the 2 aligned destination buffers"
        );
        assert_eq!(map.len(), n);
    }

    // The sorted (zero-copy adoption) path allocates nothing at all.
    let (k, v) = (keys.clone(), vals.clone());
    BIG_ALLOCS.store(0, Ordering::SeqCst);
    THRESHOLD.store(payload, Ordering::SeqCst);
    let map = StaticMap::build_presorted(k, v, QueryKind::Sorted, Algorithm::CycleLeader);
    THRESHOLD.store(0, Ordering::SeqCst);
    assert_eq!(
        BIG_ALLOCS.load(Ordering::SeqCst),
        0,
        "Sorted: zero-copy adoption must not allocate"
    );
    assert_eq!(map.unwrap().len(), n);
}

#[test]
fn parallel_in_place_construction_allocates_no_large_buffer() {
    use implicit_search_trees::{permute_in_place, reference_permutation, Algorithm, Layout};

    let _armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    // 2^20 is a non-perfect size for every layout below, so the overflow
    // strip's rotations run as well as the perfect-tree construction.
    let n = 1usize << 20;
    let threshold = n * size_of::<u64>() / 16;
    let keys: Vec<u64> = (0..n as u64).collect();

    for layout in [Layout::Bst, Layout::Veb, Layout::Btree { b: 16 }] {
        let mut data = keys.clone(); // cloned while disarmed
        BIG_ALLOCS.store(0, Ordering::SeqCst);
        THRESHOLD.store(threshold, Ordering::SeqCst);
        let built = permute_in_place(&mut data, layout, Algorithm::CycleLeader);
        THRESHOLD.store(0, Ordering::SeqCst);
        built.unwrap();
        assert_eq!(
            BIG_ALLOCS.load(Ordering::SeqCst),
            0,
            "{layout:?}: in-place construction allocated a buffer of at least {threshold} bytes"
        );
        assert!(
            data == reference_permutation(&keys, layout),
            "{layout:?}: wrong layout"
        );
    }
}
