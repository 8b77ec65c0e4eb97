//! `build_lookup`: the paper's library path. Sorted keys `2·i` are
//! permuted in place by the parallel cycle-leader algorithms, then
//! answer uniformly drawn rank lookups through the pipelined batch
//! engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ist_core::algorithms::{
    cycle_leader_btree, cycle_leader_veb, strip_overflow_binary, strip_overflow_btree,
};
use ist_core::{
    permute_in_place, reference_permutation, Algorithm, GatherMode, IndexArith, Layout, Machine,
    Ram, Region,
};
use ist_layout::complete::BtreeCompleteShape;
use ist_layout::CompleteShape;
use ist_query::Searcher;

use crate::trace::{summarize, Tracer, ROOT};
use crate::util::{geomean, host_steal, median, percentile, proc_cpu, proc_status, secs, Rng};
use crate::{Args, Outcome};

/// Keys per layout: about 10x a 2-core host's L2, and non-perfect for
/// every layout measured (2^22 − 1 < n < 2^23 − 1 and 17^5 − 1 < n <
/// 17^6 − 1), so the overflow-stripping pass always runs.
pub const N: usize = 5_000_000;
/// Lookups per layout per round.
const Q: usize = 1 << 20;
/// Keys per batched lookup call (one latency sample each).
const CALL: usize = 4096;
/// Input generations timed for `setup_s` (its median is reported).
const SETUPS: usize = 3;

pub const LAYOUTS: [(&str, Layout); 3] = [
    ("bst", Layout::Bst),
    ("veb", Layout::Veb),
    ("btree16", Layout::Btree { b: 16 }),
];

pub const PRIMITIVES: [&str; 5] = [
    "involution_round",
    "gather",
    "gather_chunks",
    "rotate_right",
    "local_task",
];

fn inputs(seed: u64) -> (Vec<u64>, Vec<u64>) {
    let sorted: Vec<u64> = (0..N as u64).map(|i| 2 * i).collect();
    let mut rng = Rng::new(seed, 0);
    let queries: Vec<u64> = (0..Q).map(|_| rng.below(2 * N as u64)).collect();
    (sorted, queries)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut generated = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let g = std::hint::black_box(inputs(args.seed));
        setup.push(secs(t));
        generated = Some(g);
    }
    let (sorted, queries) = generated.expect("at least one setup");
    let expected: Vec<Vec<u64>> = LAYOUTS
        .iter()
        .map(|&(_, layout)| reference_permutation(&sorted, layout))
        .collect();

    let mut buf = sorted.clone();
    let mut build_ns: Vec<Vec<f64>> = vec![Vec::new(); LAYOUTS.len()];
    let mut lookup_ns: Vec<Vec<f64>> = vec![Vec::new(); LAYOUTS.len()];
    let mut rebuild_s = Vec::new();
    let mut call_ms = Vec::new();
    let (mut lookup_keys, mut lookup_s) = (0u64, 0.0f64);
    let mut inject = args.inject_wrong_answer;
    let mut lookup_cpu_s = 0.0;
    let steal0 = host_steal();
    let start = Instant::now();
    while rebuild_s.is_empty() || secs(start) < args.seconds {
        let mut round_build = 0.0;
        for (li, &(_, layout)) in LAYOUTS.iter().enumerate() {
            buf.copy_from_slice(&sorted);
            let t = Instant::now();
            permute_in_place(&mut buf, layout, Algorithm::CycleLeader)
                .expect("valid layout parameters");
            let b = secs(t);
            round_build += b;
            build_ns[li].push(b * 1e9 / N as f64);
            out.attempted += 1;
            if buf != expected[li] {
                out.wrong(format!(
                    "{layout:?}: permutation differs from the reference"
                ));
            }

            let searcher = Searcher::for_layout(&buf, layout);
            let mut layout_s = 0.0;
            let cpu0 = proc_cpu(std::process::id());
            for chunk in queries.chunks(CALL) {
                let t = Instant::now();
                let mut ranks = searcher.batch_rank(std::hint::black_box(chunk));
                let s = secs(t);
                layout_s += s;
                call_ms.push(s * 1e3);
                if std::mem::take(&mut inject) {
                    ranks[0] += 1;
                }
                out.attempted += chunk.len() as u64;
                // Keys are 2i, so exactly ceil(x / 2) of them lie below x.
                if let Some(i) = (0..chunk.len()).find(|&i| ranks[i] as u64 != chunk[i].div_ceil(2))
                {
                    out.wrong(format!(
                        "{layout:?}: rank({}) = {}, expected {}",
                        chunk[i],
                        ranks[i],
                        chunk[i].div_ceil(2)
                    ));
                }
            }
            let cpu1 = proc_cpu(std::process::id());
            lookup_cpu_s += (cpu1.user_s + cpu1.sys_s) - (cpu0.user_s + cpu0.sys_s);
            lookup_ns[li].push(layout_s * 1e9 / queries.len() as f64);
            lookup_keys += queries.len() as u64;
            lookup_s += layout_s;
        }
        rebuild_s.push(round_build);
    }
    let steal1 = host_steal();
    let steal_share = (steal1.0 - steal0.0) / (steal1.1 - steal0.1).max(1.0);

    let per_layout_build: Vec<f64> = build_ns.iter().map(|v| median(v)).collect();
    let per_layout_lookup: Vec<f64> = lookup_ns.iter().map(|v| median(v)).collect();
    call_ms.sort_by(f64::total_cmp);
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup), "s");
    m.set("build_ns_per_elem", geomean(&per_layout_build), "ns");
    m.set("p50_ms", percentile(&call_ms, 0.5), "ms");
    m.set(
        "cpu_us_per_op",
        lookup_cpu_s * 1e6 / lookup_keys as f64,
        "us",
    );
    m.set("peak_rss_mb", proc_status("self").0, "MB");
    m.set("recover_s", median(&rebuild_s), "s");

    let l = &mut out.layer;
    for (li, &(name, _)) in LAYOUTS.iter().enumerate() {
        l.set(
            format!("build.ns_per_elem.{name}"),
            per_layout_build[li],
            "ns",
        );
        l.set(
            format!("lookup.ns_per_key.{name}"),
            per_layout_lookup[li],
            "ns",
        );
    }
    l.set("lookup.p99_ms", percentile(&call_ms, 0.99), "ms");
    l.set("lookup.keys_per_s", lookup_keys as f64 / lookup_s, "1/s");
    let wide = Searcher::for_layout(&buf, Layout::Btree { b: 16 }).is_wide();
    l.set(
        "query.wide_route.btree16",
        f64::from(u8::from(wide)),
        "bool",
    );

    out.record.push(("n".into(), N.to_string()));
    out.record
        .push(("lookups_per_round".into(), (Q * LAYOUTS.len()).to_string()));
    out.record
        .push(("rounds".into(), rebuild_s.len().to_string()));
    out.record
        .push(("call_samples".into(), call_ms.len().to_string()));
    out.record
        .push(("setup_samples".into(), SETUPS.to_string()));
    out.record
        .push(("host_steal_share".into(), format!("{steal_share:.4}")));
    let per_layout = LAYOUTS
        .iter()
        .enumerate()
        .map(|(li, (name, _))| {
            format!(
                "\"{name}\": {{\"build_ns_per_elem\": {:.3}, \"lookup_ns_per_key\": {:.3}}}",
                per_layout_build[li], per_layout_lookup[li]
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    out.record
        .push(("per_layout".into(), format!("{{{per_layout}}}")));

    if args.trace {
        traced_builds(&sorted, &expected, &per_layout_build, &mut out);
    }
    out
}

/// One more build per layout under the timing `Machine` wrapper, with
/// the overflow-stripping pass and the perfect-tree pass as separate
/// spans.
fn traced_builds(sorted: &[u64], expected: &[Vec<u64>], untraced_ns: &[f64], out: &mut Outcome) {
    let mut buf = sorted.to_vec();
    let (mut traced_total, mut untraced_total) = (0.0, 0.0);
    for (li, &(name, layout)) in LAYOUTS.iter().enumerate() {
        buf.copy_from_slice(sorted);
        let tracer = Tracer::new();
        let prims = PrimTotals::default();
        let t = Instant::now();
        construct_traced(&mut buf, layout, &tracer, &prims);
        traced_total += secs(t);
        untraced_total += untraced_ns[li] * N as f64 * 1e-9;
        if buf != expected[li] {
            out.wrong(format!(
                "{layout:?}: traced permutation differs from the reference"
            ));
        }
        let spans = tracer.take();
        let sum = summarize(&spans);
        let l = &mut out.layer;
        let mut moved = 0;
        for (i, prim) in PRIMITIVES.iter().enumerate() {
            // Relaxed: read after the build has joined every worker.
            let nanos = prims.slots[i].nanos.load(Ordering::Relaxed);
            let elems = prims.slots[i].elems.load(Ordering::Relaxed);
            l.set(
                format!("machine.{prim}.self_s.{name}"),
                nanos as f64 * 1e-9,
                "s",
            );
            l.set(
                format!("machine.{prim}.elems.{name}"),
                elems as f64,
                "count",
            );
            moved += elems;
        }
        let phase = |p: &str| sum.get(p).map_or(0.0, |e| e.1);
        l.set(format!("core.strip_s.{name}"), phase("core.strip"), "s");
        l.set(format!("core.main_s.{name}"), phase("core.main"), "s");
        l.set(
            format!("core.moves_per_elem.{name}"),
            moved as f64 / N as f64,
            "count",
        );
        out.spans.extend(spans);
    }
    out.layer.set(
        "trace.overhead_share",
        traced_total / untraced_total - 1.0,
        "share",
    );
}

/// `ist_core::construct` for the cycle-leader family, rebuilt from the
/// crate's public passes so each pass gets its own span.
fn construct_traced(data: &mut [u64], layout: Layout, tracer: &Tracer, prims: &PrimTotals) {
    let n = data.len();
    tracer.span("build", ROOT, |build| match layout {
        Layout::Bst | Layout::Veb => {
            let shape = CompleteShape::new(n);
            if !shape.is_perfect() {
                tracer.span("core.strip", build, |_| {
                    strip_overflow_binary(&mut Timed::new(data, prims), shape)
                });
            }
            let d = shape.full_levels();
            tracer.span("core.main", build, |_| {
                let mut m = Timed::new(data, prims);
                if layout == Layout::Bst {
                    cycle_leader_btree(&mut m, 1, d);
                } else {
                    cycle_leader_veb(&mut m, 0, d);
                }
            });
        }
        Layout::Btree { b } => {
            let shape = BtreeCompleteShape::new(n, b);
            if !shape.is_perfect() {
                tracer.span("core.strip", build, |_| {
                    strip_overflow_btree(&mut Timed::new(data, prims), shape)
                });
            }
            let levels = shape.full_node_levels();
            tracer.span("core.main", build, |_| {
                cycle_leader_btree(&mut Timed::new(data, prims), b, levels)
            });
        }
    });
}

/// Per-primitive totals, indexed like [`PRIMITIVES`]: time spent in
/// calls (summed over threads) and elements the calls covered. A build
/// makes millions of primitive calls, so they are counted here rather
/// than kept as spans.
#[derive(Default)]
pub struct PrimTotals {
    slots: [PrimSlot; 5],
}

/// One primitive's counters, on a cache line of their own so threads
/// timing different primitives do not contend.
#[derive(Default)]
#[repr(align(64))]
struct PrimSlot {
    nanos: AtomicU64,
    elems: AtomicU64,
}

/// A [`Machine`] over the parallel [`Ram`] backend that times every
/// primitive call into [`PrimTotals`].
pub struct Timed<'a, 'p, T> {
    ram: Ram<'a, T>,
    prims: &'p PrimTotals,
}

impl<'a, 'p, T: Send> Timed<'a, 'p, T> {
    pub fn new(data: &'a mut [T], prims: &'p PrimTotals) -> Self {
        Timed {
            ram: Ram::par(data),
            prims,
        }
    }

    fn timed(&mut self, prim: usize, work: usize, f: impl FnOnce(&mut Ram<'a, T>)) {
        let start = Instant::now();
        f(&mut self.ram);
        let nanos = start.elapsed().as_nanos() as u64;
        // Relaxed: statistics only, read after the build completes.
        let slot = &self.prims.slots[prim];
        slot.nanos.fetch_add(nanos, Ordering::Relaxed);
        slot.elems.fetch_add(work as u64, Ordering::Relaxed);
    }
}

impl<'a, 'p, T: Send> Machine for Timed<'a, 'p, T> {
    type Elem = T;

    fn len(&self) -> usize {
        self.ram.len()
    }

    fn involution_round<F>(&mut self, lo: usize, hi: usize, arith: IndexArith, f: F)
    where
        F: Fn(usize) -> usize + Sync,
    {
        self.timed(0, hi - lo, |m| m.involution_round(lo, hi, arith, f));
    }

    fn gather(&mut self, lo: usize, r: usize, l: usize, mode: GatherMode) {
        self.timed(1, r + (r + 1) * l, |m| m.gather(lo, r, l, mode));
    }

    fn gather_chunks(&mut self, lo: usize, r: usize, l: usize, chunk: usize, mode: GatherMode) {
        self.timed(2, (r + (r + 1) * l) * chunk, |m| {
            m.gather_chunks(lo, r, l, chunk, mode)
        });
    }

    fn rotate_right(&mut self, lo: usize, hi: usize, amount: usize) {
        self.timed(3, hi - lo, |m| m.rotate_right(lo, hi, amount));
    }

    fn run_tasks<K, F>(&mut self, tasks: Vec<Region<K>>, f: F)
    where
        K: Send + Sync,
        F: Fn(&mut Self, &Region<K>) + Sync,
    {
        let prims = self.prims;
        self.ram.run_tasks(tasks, |ram, task| {
            // Each task gets its own wrapper around the backend's view;
            // the view goes back once the task is done.
            let view = std::mem::replace(ram, Ram::seq(&mut []));
            let mut timed = Timed { ram: view, prims };
            f(&mut timed, task);
            *ram = timed.ram;
        });
    }

    fn local_threshold(&self) -> usize {
        self.ram.local_threshold()
    }

    fn local_task<F>(&mut self, lo: usize, len: usize, f: F)
    where
        F: FnOnce(&mut [T]),
    {
        self.timed(4, len, |m| m.local_task(lo, len, f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_construction_matches_the_reference() {
        for n in [1000usize, 4097, 70_000] {
            let sorted: Vec<u64> = (0..n as u64).collect();
            for (_, layout) in LAYOUTS {
                let mut v = sorted.clone();
                let tracer = Tracer::new();
                let prims = PrimTotals::default();
                construct_traced(&mut v, layout, &tracer, &prims);
                assert_eq!(
                    v,
                    reference_permutation(&sorted, layout),
                    "{layout:?} n={n}"
                );
                let sum = summarize(&tracer.take());
                assert!(sum.contains_key("core.main"));
                let elems: u64 = prims
                    .slots
                    .iter()
                    .map(|s| s.elems.load(Ordering::Relaxed))
                    .sum();
                assert!(elems > 0);
            }
        }
    }
}
