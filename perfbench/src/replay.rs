//! The traced run of the served workloads: the op stream the load
//! generator sent is replayed in-process through `ShardedMap`'s public
//! calls, cut into ticks the size the server formed, with a span
//! around every call. `serve_ingest` replays into a store through a
//! counting `Vfs`, and once more into a `MemVfs` that is power-cycled
//! (unsynced bytes dropped) and reopened for an audit.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ist_dynamic::MAX_SEALED_RUNS;
use ist_serve::ServeMap;
use ist_store::{CrashModel, FsyncPolicy, MemVfs, ReadFile, StdVfs, StoreConfig, Vfs, VfsFile};

use crate::served::{
    build_preloaded, decode_state, encode_value, initial_state, FinalSet, History, Kind, OpGen,
    OpSpec, Spec, State, PRELOAD,
};
use crate::trace::{summarize, Span, Tracer, ROOT};
use crate::util::{percentile, secs};
use crate::{Args, Outcome};

// ---------------------------------------------------------------------------
// Counting Vfs
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    wal_bytes: AtomicU64,
    run_bytes: AtomicU64,
    dir_syncs: AtomicU64,
    /// Duration of every file sync, seconds.
    syncs: Mutex<Vec<f64>>,
}

impl Counters {
    fn snapshot(&self) -> (u64, u64, u64, usize) {
        // Relaxed: plain statistics, read after the writers are done.
        (
            self.wal_bytes.load(Ordering::Relaxed),
            self.run_bytes.load(Ordering::Relaxed),
            self.dir_syncs.load(Ordering::Relaxed),
            self.syncs.lock().expect("sync list poisoned").len(),
        )
    }
}

/// A [`Vfs`] that counts bytes written to WAL and run files, times
/// every fsync (as a `store.fsync` span under the replay's current
/// span) and counts directory syncs.
struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counters: Arc<Counters>,
    tracer: Arc<Tracer>,
}

#[derive(Clone, Copy)]
enum FileKind {
    Wal,
    Run,
    Other,
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    kind: FileKind,
    counters: Arc<Counters>,
    tracer: Arc<Tracer>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        // Relaxed: statistics only.
        match self.kind {
            FileKind::Wal => self
                .counters
                .wal_bytes
                .fetch_add(n as u64, Ordering::Relaxed),
            FileKind::Run => self
                .counters
                .run_bytes
                .fetch_add(n as u64, Ordering::Relaxed),
            FileKind::Other => 0,
        };
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync(&mut self) -> io::Result<()> {
        let tracer = &self.tracer;
        let id = tracer.open();
        let parent = tracer.current();
        let start = tracer.now();
        let r = self.inner.sync();
        let end = tracer.now();
        tracer.record(Span {
            id,
            parent,
            name: "store.fsync",
            start,
            end,
        });
        self.counters
            .syncs
            .lock()
            .expect("sync list poisoned")
            .push((end - start) as f64 * 1e-9);
        r
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let kind = if name.starts_with("wal-") {
            FileKind::Wal
        } else if name.starts_with("run-") {
            FileKind::Run
        } else {
            FileKind::Other
        };
        Ok(Box::new(CountingFile {
            inner: self.inner.create(path)?,
            kind,
            counters: Arc::clone(&self.counters),
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn ReadFile>> {
        self.inner.open_read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Relaxed: statistics only.
        self.counters.dir_syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_dir(dir)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// One replayed request: the op and, for inserts, its value version.
type Replayed = (OpSpec, u64);

/// Regenerate what each connection sent, phase by phase, interleaved
/// round-robin across connections.
fn regenerate(seed: u64, spec: &Spec, sent: &[[u64; 3]]) -> Vec<Replayed> {
    let mut versions = vec![0u64; sent.len()];
    let mut ops = Vec::new();
    for phase in 0..3 {
        let mut gens: Vec<OpGen> = (0..sent.len())
            .map(|c| OpGen::new(seed, phase as u64, c, spec))
            .collect();
        let longest = sent.iter().map(|s| s[phase]).max().unwrap_or(0);
        for i in 0..longest {
            for (c, gen) in gens.iter_mut().enumerate() {
                if i < sent[c][phase] {
                    let op = gen.next();
                    if op.kind == Kind::Insert {
                        versions[c] += 1;
                    }
                    ops.push((op, versions[c]));
                }
            }
        }
    }
    ops
}

#[derive(Default)]
struct TickStats {
    ticks: u64,
    read_ticks: u64,
    reads: u64,
    writes: u64,
    user_bytes: u64,
    sealed_max: usize,
    compacting: u64,
    stalls: u64,
}

/// Time `f` as a span when tracing; otherwise just run it.
fn span<R>(tr: Option<&Tracer>, name: &'static str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
    match tr {
        Some(t) => t.span(name, parent, f),
        None => f(ROOT),
    }
}

/// Apply the stream tick by tick as the coalescing server does: fold
/// the tick's writes last-wins into one delta, apply it through the
/// bulk calls, take a snapshot when the tick wrote, then answer the
/// tick's reads as three batched calls. Gets are checked against the
/// tick-exact oracle.
fn replay_ticks(
    map: &mut ServeMap,
    ops: &[Replayed],
    tick: usize,
    tr: Option<&Tracer>,
    out: &mut Outcome,
) -> TickStats {
    let mut st = TickStats::default();
    let mut oracle: HashMap<u64, State> = HashMap::new();
    let mut snap = map.snapshot();
    for chunk in ops.chunks(tick) {
        span(tr, "tick", ROOT, |tick_id| {
            st.ticks += 1;
            let mut delta: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
            for (op, version) in chunk {
                match op.kind {
                    Kind::Insert => {
                        delta.insert(op.key, Some(encode_value(op.key, *version)));
                        st.user_bytes += 24;
                    }
                    Kind::Remove => {
                        delta.insert(op.key, None);
                        st.user_bytes += 8;
                    }
                    _ => continue,
                }
                st.writes += 1;
            }
            if !delta.is_empty() {
                if map.sealed_runs() >= MAX_SEALED_RUNS {
                    st.stalls += 1;
                }
                let mut inserts = Vec::new();
                let mut removes = Vec::new();
                for (k, v) in delta {
                    let version = v
                        .as_ref()
                        .map(|v| u64::from_le_bytes(v[8..16].try_into().expect("16-byte value")));
                    oracle.insert(k, version);
                    match v {
                        Some(v) => inserts.push((k, v)),
                        None => removes.push(k),
                    }
                }
                span(tr, "shard.apply", tick_id, |apply| {
                    span(tr, "shard.batch_insert", apply, |_| {
                        map.batch_insert(inserts)
                    });
                    span(tr, "shard.batch_remove", apply, |_| {
                        map.batch_remove(&removes)
                    });
                });
                snap = span(tr, "shard.snapshot", tick_id, |_| map.snapshot());
            }
            st.sealed_max = st.sealed_max.max(map.sealed_runs());
            st.compacting += u64::from(map.compaction_in_flight());

            let gets: Vec<u64> = chunk
                .iter()
                .filter(|o| o.0.kind == Kind::Get)
                .map(|o| o.0.key)
                .collect();
            let ranks: Vec<u64> = chunk
                .iter()
                .filter(|o| o.0.kind == Kind::Rank)
                .map(|o| o.0.key)
                .collect();
            let ranges: Vec<(u64, u64)> = chunk
                .iter()
                .filter(|o| o.0.kind == Kind::Range)
                .map(|o| (o.0.key, o.0.hi))
                .collect();
            let reads = gets.len() + ranks.len() + ranges.len();
            if reads > 0 {
                st.read_ticks += 1;
                st.reads += reads as u64;
            }
            if !gets.is_empty() {
                let values = span(tr, "query.get", tick_id, |_| snap.batch_get(&gets));
                for (k, v) in gets.iter().zip(values) {
                    let want = oracle.get(k).copied().unwrap_or_else(|| initial_state(*k));
                    let got = decode_state(*k, v.map(Vec::as_slice));
                    if got != Ok(want) {
                        out.wrong(format!("replay get({k}) = {got:?}, expected {want:?}"));
                    }
                }
            }
            if !ranks.is_empty() {
                std::hint::black_box(span(tr, "query.rank", tick_id, |_| snap.batch_rank(&ranks)));
            }
            if !ranges.is_empty() {
                std::hint::black_box(span(tr, "query.range_count", tick_id, |_| {
                    snap.batch_range_count(&ranges)
                }));
            }
        });
    }
    st
}

/// Histories of the replayed writes, every one applied.
fn histories(ops: &[Replayed]) -> HashMap<u64, History> {
    let mut h: HashMap<u64, History> = HashMap::new();
    for (op, version) in ops {
        match op.kind {
            Kind::Insert => h.entry(op.key).or_default().push((Some(*version), true)),
            Kind::Remove => h.entry(op.key).or_default().push((None, true)),
            _ => {}
        }
    }
    h
}

/// Check a reopened map against the final state of `ops`.
fn audit_map(map: &ServeMap, ops: &[Replayed], out: &mut Outcome) {
    let hist = histories(ops);
    let finals = FinalSet::new(&[&hist]);
    if map.len() as u64 != finals.len() {
        out.wrong(format!(
            "recovered {} keys, expected {}",
            map.len(),
            finals.len()
        ));
    }
    for (k, writes) in &hist {
        let want = writes.last().map_or(initial_state(*k), |w| w.0);
        let got = decode_state(*k, map.get(k).map(Vec::as_slice));
        if got != Ok(want) {
            out.wrong(format!("recovered get({k}) = {got:?}, expected {want:?}"));
        }
    }
    for x in (0..2 * PRELOAD).step_by(4099) {
        if map.rank(&x) as u64 != finals.rank(x) {
            out.wrong(format!(
                "recovered rank({x}) = {}, expected {}",
                map.rank(&x),
                finals.rank(x)
            ));
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn persist(map: &mut ServeMap, dir: &Path, vfs: Arc<dyn Vfs>) {
    let cfg = StoreConfig::with_vfs(vfs).fsync(FsyncPolicy::Always);
    if let Err(e) = map.persist_to(dir, cfg) {
        eprintln!("perfbench: replay persist to {}: {e}", dir.display());
        std::process::exit(2);
    }
}

pub fn run(
    args: &Args,
    spec: &Spec,
    sent: &[[u64; 3]],
    tick: usize,
    dir: &Path,
    out: &mut Outcome,
) {
    let mut ops = regenerate(args.seed, spec, sent);
    ops.truncate(spec.replay_ops);
    let plain_dir: PathBuf = dir.join("replay-plain");
    let traced_dir: PathBuf = dir.join("replay-traced");

    // Untraced replay: the baseline for the tracing overhead.
    let mut map = build_preloaded();
    if spec.durable {
        persist(&mut map, &plain_dir, Arc::new(StdVfs));
    }
    let t = Instant::now();
    replay_ticks(&mut map, &ops, tick, None, out);
    let plain_s = secs(t);
    drop(map);
    let _ = std::fs::remove_dir_all(&plain_dir);

    // Traced replay.
    let tracer = Arc::new(Tracer::new());
    let counters = Arc::new(Counters::default());
    let vfs: Arc<dyn Vfs> = Arc::new(CountingVfs {
        inner: Arc::new(StdVfs),
        counters: Arc::clone(&counters),
        tracer: Arc::clone(&tracer),
    });
    let mut map = build_preloaded();
    if spec.durable {
        persist(&mut map, &traced_dir, Arc::clone(&vfs));
    }
    let before = counters.snapshot();
    let t = Instant::now();
    let st = replay_ticks(&mut map, &ops, tick, Some(&tracer), out);
    let traced_s = secs(t);
    let after = counters.snapshot();
    let q = Instant::now();
    map.quiesce();
    let quiesce_s = secs(q);
    let lens = map.shard_lens();
    let live = map.len() as f64;
    drop(map);

    let l = &mut out.layer;
    l.set("trace.overhead_share", traced_s / plain_s - 1.0, "share");
    let spans = tracer.take();
    let sum = summarize(&spans);
    let per_call = |name: &str| sum.get(name).map_or(0.0, |e| e.1 * 1e6 / e.0.max(1) as f64);
    l.set("query.get.us_per_call", per_call("query.get"), "us");
    l.set("query.rank.us_per_call", per_call("query.rank"), "us");
    l.set(
        "query.range_count.us_per_call",
        per_call("query.range_count"),
        "us",
    );
    l.set(
        "query.keys_per_call",
        st.reads as f64 / st.read_ticks.max(1) as f64,
        "count",
    );
    let apply_s = sum.get("shard.apply").map_or(0.0, |e| e.1);
    l.set(
        "shard.apply_us_per_write",
        apply_s * 1e6 / st.writes.max(1) as f64,
        "us",
    );
    l.set("shard.snapshot_us", per_call("shard.snapshot"), "us");
    let mean = lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64;
    let max = lens.iter().copied().max().unwrap_or(0) as f64;
    l.set("shard.imbalance", max / mean.max(1.0), "ratio");
    l.set("dynamic.sealed_runs.max", st.sealed_max as f64, "count");
    l.set(
        "dynamic.compacting_share",
        st.compacting as f64 / st.ticks.max(1) as f64,
        "share",
    );
    l.set("dynamic.stall_ticks", st.stalls as f64, "count");
    l.set("dynamic.quiesce_s", quiesce_s, "s");
    out.record.push(("replay_tick".into(), tick.to_string()));
    out.record
        .push(("replay_ops".into(), ops.len().to_string()));
    out.record
        .push(("replay_untraced_s".into(), format!("{plain_s:.6}")));
    out.record
        .push(("replay_traced_s".into(), format!("{traced_s:.6}")));

    if spec.durable {
        let user = st.user_bytes.max(1) as f64;
        l.set(
            "store.wal_bytes_per_user_byte",
            (after.0 - before.0) as f64 / user,
            "ratio",
        );
        l.set(
            "store.run_bytes_per_user_byte",
            (after.1 - before.1) as f64 / user,
            "ratio",
        );
        l.set("store.dir_syncs", (after.2 - before.2) as f64, "count");
        let mut syncs_us: Vec<f64> = counters.syncs.lock().expect("sync list poisoned")
            [before.3..after.3]
            .iter()
            .map(|s| s * 1e6)
            .collect();
        syncs_us.sort_by(f64::total_cmp);
        l.set(
            "store.fsyncs_per_tick",
            syncs_us.len() as f64 / st.ticks.max(1) as f64,
            "count",
        );
        l.set("store.fsync_us.p50", percentile(&syncs_us, 0.5), "us");
        l.set("store.fsync_us.p99", percentile(&syncs_us, 0.99), "us");
        // Live user bytes: key plus value (24 for written, 16 for
        // preloaded keys; 24 bounds it above).
        l.set(
            "store.space_amp",
            dir_bytes(&traced_dir) as f64 / (live * 24.0).max(1.0),
            "ratio",
        );
        let t = Instant::now();
        match ServeMap::open_with(&traced_dir, StoreConfig::with_vfs(vfs)) {
            Ok(reopened) => {
                l.set("store.open_s", secs(t), "s");
                audit_map(&reopened, &ops, out);
            }
            Err(e) => out.wrong(format!("reopen of the traced replay store failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&traced_dir);
        out.record
            .push(("replay_fsyncs".into(), syncs_us.len().to_string()));
        power_cycle_audit(&ops, tick, out);
    }
    out.spans.extend(spans);
}

/// Replay into a `MemVfs`, drop every unsynced byte, reopen, audit.
fn power_cycle_audit(ops: &[Replayed], tick: usize, out: &mut Outcome) {
    let mem = MemVfs::new();
    let root = PathBuf::from("power-cycle");
    let mut map = build_preloaded();
    persist(&mut map, &root, Arc::new(mem.clone()));
    replay_ticks(&mut map, ops, tick, None, out);
    drop(map);
    mem.power_cycle(CrashModel::DropUnsynced);
    let cfg = StoreConfig::with_vfs(Arc::new(mem)).fsync(FsyncPolicy::Always);
    match ServeMap::open_with(&root, cfg) {
        Ok(reopened) => audit_map(&reopened, ops, out),
        Err(e) => out.wrong(format!("reopen after power cycle failed: {e}")),
    }
}
