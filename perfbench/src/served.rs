//! `serve_read` and `serve_ingest`: the stock `serve` binary in its own
//! process, driven over loopback TCP.
//!
//! Each connection thread owns one connection and the keys
//! `k % conns == c`, so it alone writes them and can check every get of
//! them against the tick group-commit contract: a get returns the state
//! after some write sent between the last write sent before it and the
//! last write sent before its reply was read.
//!
//! Phases, on one absolute timeline shared by the connections: an
//! untimed closed-loop warm-up (enough writes for seals and merges to
//! cycle), an open-loop phase at a fixed rate timed from each request's
//! scheduled send, then a closed-loop saturation phase with a fixed
//! in-flight window per connection. A post-run audit reads back every
//! written key and probes rank/range_count against the exact final
//! key set; `serve_ingest` SIGKILLs the server, reopens its directory
//! and repeats the audit.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Barrier, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ist_core::Layout;
use ist_serve::proto::{decode_reply, encode_request, Op, ReplyBody, Request};
use ist_serve::ServeMap;

use crate::replay;
use crate::util::{
    host_steal, json_str, median, percentile, proc_cpu, proc_status, secs, ProcCpu, Rng,
};
use crate::{Args, Outcome};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Read,
    Ingest,
}

/// Keys preloaded into the server (`0..PRELOAD`, value = key LE).
pub const PRELOAD: u64 = 1 << 20;
pub const SHARDS: usize = 4;
/// Server launches timed for `setup_s`; the last one serves the run.
const SETUPS: usize = 3;
/// In-process preload builds timed for `build_ns_per_elem`.
const BUILDS: usize = 8;
/// Kill-and-relaunch cycles timed for `recover_s`.
const RESTARTS: usize = 3;
/// A request unanswered this long after the end of its phase fails.
const DEADLINE: Duration = Duration::from_secs(5);
/// Widest range_count request.
const RANGE_WIDTH: u64 = 2048;

/// Where runs keep server data and spans, inside the checkout.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// The traffic of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub conns: usize,
    /// Percent of requests that write (80% insert / 20% remove); reads
    /// are 60% get / 25% rank / 15% range_count.
    pub write_pct: u64,
    /// Aggregate open-loop rate, requests per second.
    pub rate: f64,
    /// Closed-loop in-flight requests per connection.
    pub window: usize,
    /// Requests of the untimed closed-loop warm-up, all connections.
    pub warm_up_ops: u64,
    /// The traced run replays at most this many requests of the stream.
    pub replay_ops: usize,
    pub durable: bool,
}

impl Spec {
    pub fn of(w: Workload) -> Spec {
        // A sender and a receiver thread per connection, at most one
        // thread per core.
        let conns = (std::thread::available_parallelism().map_or(1, |n| n.get()) / 2).max(1);
        match w {
            Workload::Read => Spec {
                conns,
                write_pct: 5,
                rate: 1000.0,
                window: 32,
                warm_up_ops: 40_000,
                replay_ops: 60_000,
                durable: false,
            },
            Workload::Ingest => Spec {
                conns,
                write_pct: 90,
                rate: 500.0,
                window: 32,
                warm_up_ops: 10_000,
                replay_ops: 20_000,
                durable: true,
            },
        }
    }

    fn server_flags(&self, dir: Option<&Path>) -> Vec<String> {
        let mut f: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &SHARDS.to_string(),
            "--preload",
            &PRELOAD.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(d) = dir {
            f.extend(["--data-dir".into(), d.display().to_string()]);
            f.extend(["--fsync".into(), "always".into()]);
        }
        f
    }
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Rank,
    Range,
    Insert,
    Remove,
}

impl Kind {
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Insert | Kind::Remove)
    }
}

/// One generated operation: `key` (and `hi` for ranges).
#[derive(Clone, Copy, Debug)]
pub struct OpSpec {
    pub kind: Kind,
    pub key: u64,
    pub hi: u64,
}

/// The deterministic op stream of connection `c`; the replay
/// regenerates it from the same seed.
#[derive(Clone)]
pub struct OpGen {
    rng: Rng,
    c: u64,
    conns: u64,
    write_pct: u64,
}

impl OpGen {
    pub fn new(seed: u64, phase: u64, c: usize, spec: &Spec) -> Self {
        OpGen {
            rng: Rng::new(seed, 1 + phase * 64 + c as u64),
            c: c as u64,
            conns: spec.conns as u64,
            write_pct: spec.write_pct,
        }
    }

    fn owned_key(&mut self) -> u64 {
        self.c + self.conns * self.rng.below(2 * PRELOAD / self.conns)
    }

    pub fn next(&mut self) -> OpSpec {
        let roll = self.rng.below(100);
        let sub = self.rng.below(100);
        let kind = if roll < self.write_pct {
            if sub < 80 {
                Kind::Insert
            } else {
                Kind::Remove
            }
        } else if sub < 60 {
            Kind::Get
        } else if sub < 85 {
            Kind::Rank
        } else {
            Kind::Range
        };
        let (key, hi) = match kind {
            Kind::Rank => (self.rng.below(2 * PRELOAD), 0),
            Kind::Range => {
                let lo = self.rng.below(2 * PRELOAD);
                (lo, lo + self.rng.below(RANGE_WIDTH))
            }
            _ => (self.owned_key(), 0),
        };
        OpSpec { kind, key, hi }
    }
}

/// A key's state: `None` absent, `Some(0)` its preloaded value,
/// `Some(v)` the value of write version `v`.
pub type State = Option<u64>;

pub fn initial_state(key: u64) -> State {
    (key < PRELOAD).then_some(0)
}

/// Inserted values carry the key and a per-connection version.
pub fn encode_value(key: u64, version: u64) -> Vec<u8> {
    let mut v = key.to_le_bytes().to_vec();
    v.extend_from_slice(&version.to_le_bytes());
    v
}

/// The state a get reply names, or `Err` for bytes no write produced.
pub fn decode_state(key: u64, value: Option<&[u8]>) -> Result<State, ()> {
    match value {
        None => Ok(None),
        Some(v) if v == key.to_le_bytes() => Ok(Some(0)),
        Some(v) if v.len() == 16 && v[..8] == key.to_le_bytes() => {
            let version = u64::from_le_bytes(v[8..].try_into().map_err(|_| ())?);
            if version == 0 {
                Err(())
            } else {
                Ok(Some(version))
            }
        }
        Some(_) => Err(()),
    }
}

/// Writes sent for one key, in order: `(state after it, acked)`.
pub type History = Vec<(State, bool)>;

// ---------------------------------------------------------------------------
// Server process
// ---------------------------------------------------------------------------

/// A running `serve` process; killed and waited for on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Launch and wait for `listening on <addr>`; returns the server
    /// and the seconds from spawn until it listened.
    pub fn launch(bin: &Path, flags: &[String]) -> io::Result<(Server, f64)> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(reader),
        };
        let limit = Instant::now() + Duration::from_secs(60);
        loop {
            let left = limit.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("listening on ") {
                        let addr = rest.split_whitespace().next().unwrap_or("");
                        server.addr = addr.parse().map_err(|_| {
                            io::Error::new(ErrorKind::InvalidData, format!("bad address {addr}"))
                        })?;
                        return Ok((server, secs(t)));
                    }
                }
                Err(_) => {
                    return Err(io::Error::new(
                        ErrorKind::TimedOut,
                        "server exited or did not listen within 60 s",
                    ))
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL and reap (what dropping the server does).
    pub fn kill(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_write_timeout(Some(DEADLINE))?;
    Ok(s)
}

// ---------------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------------

/// A request in flight.
struct Pending {
    id: u64,
    sched: Instant,
    op: OpSpec,
    /// Gets: writes to the key sent before this request. Writes: this
    /// write's index in the key's history.
    idx: usize,
    /// Its latency belongs to the open-loop measurement.
    timed: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Send at `start + i · interval`.
    Open(Duration),
    /// Keep `window` requests in flight until `ops` have been sent.
    Closed { window: usize, ops: u64 },
}

/// Per-connection results.
#[derive(Default)]
pub struct ConnStats {
    /// Every timed request: scheduled send, latency ms, is a write.
    pub samples: Vec<(Instant, f64, bool)>,
    pub late_ms: Vec<f64>,
    pub backlog_end: u64,
    /// When each saturation-phase reply was read.
    pub sat_at: Vec<Instant>,
    /// Seconds the saturation phase actually ran on this connection
    /// (it starts once the open phase has drained).
    pub sat_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub wrong_count: u64,
    /// Socket reads that returned at least one reply, and the replies.
    pub reads: u64,
    pub replies: u64,
    /// Ops sent per phase (warm-up, open, saturation), for the replay.
    pub sent: [u64; 3],
    pub hist: HashMap<u64, History>,
}

/// State a connection's sender and receiver threads share.
#[derive(Default)]
struct Shared {
    inflight: VecDeque<Pending>,
    st: ConnStats,
    next_id: u64,
    version: u64,
    /// Replies read before this instant count toward saturation
    /// throughput.
    sat_end: Option<Instant>,
    inject: bool,
    /// The connection dropped; the sender stops.
    dead: bool,
    /// The sender is done; the receiver exits.
    done: bool,
}

impl Shared {
    /// Encode `op` into `wbuf` and put it in flight.
    fn enqueue(&mut self, op: OpSpec, sched: Instant, timed: bool, wbuf: &mut Vec<u8>) {
        let id = self.next_id;
        self.next_id += 1;
        let (wire, idx) = match op.kind {
            Kind::Get => (
                Op::Get { key: op.key },
                self.st.hist.get(&op.key).map_or(0, Vec::len),
            ),
            Kind::Rank => (Op::Rank { key: op.key }, 0),
            Kind::Range => (
                Op::RangeCount {
                    lo: op.key,
                    hi: op.hi,
                },
                0,
            ),
            Kind::Insert => {
                self.version += 1;
                let h = self.st.hist.entry(op.key).or_default();
                h.push((Some(self.version), false));
                let value = encode_value(op.key, self.version);
                (Op::Insert { key: op.key, value }, h.len() - 1)
            }
            Kind::Remove => {
                let h = self.st.hist.entry(op.key).or_default();
                h.push((None, false));
                (Op::Remove { key: op.key }, h.len() - 1)
            }
        };
        encode_request(
            &Request {
                req_id: id,
                op: wire,
            },
            wbuf,
        );
        self.st.attempted += 1;
        self.inflight.push_back(Pending {
            id,
            sched,
            op,
            idx,
            timed,
        });
    }

    /// A dropped connection fails everything in flight.
    fn drop_connection(&mut self) {
        self.dead = true;
        self.fail_inflight();
    }

    fn fail_inflight(&mut self) {
        self.st.failed += self.inflight.len() as u64;
        self.inflight.clear();
    }

    /// Match one reply frame to its request and check it; `false` when
    /// the stream can no longer be trusted.
    fn on_reply(&mut self, frame: &[u8], now: Instant) -> bool {
        let Ok(rep) = decode_reply(frame) else {
            return false;
        };
        // Replies come in request order; a request skipped over was
        // never answered. A reply older than the oldest request in
        // flight answers one already failed at its deadline.
        while self.inflight.front().is_some_and(|p| p.id < rep.req_id) {
            self.inflight.pop_front();
            self.st.failed += 1;
        }
        let Some(p) = self.inflight.front() else {
            return true;
        };
        if p.id != rep.req_id {
            return true;
        }
        let p = self.inflight.pop_front().expect("front exists");
        let ok = match (p.op.kind, &rep.body) {
            (Kind::Get, ReplyBody::Value(v)) => {
                self.check_get(&p, v.as_deref());
                true
            }
            (Kind::Rank | Kind::Range, ReplyBody::Count(_)) => true,
            (Kind::Insert | Kind::Remove, ReplyBody::Ack) => {
                if let Some(h) = self.st.hist.get_mut(&p.op.key) {
                    h[p.idx].1 = true;
                }
                true
            }
            // Anything else, including reply kinds this benchmark does
            // not know yet (an error or busy reply), is a failure.
            _ => false,
        };
        if !ok {
            self.st.failed += 1;
            return true;
        }
        if self.sat_end.is_some_and(|end| now < end) {
            self.st.sat_at.push(now);
        }
        if p.timed {
            let ms = now.saturating_duration_since(p.sched).as_secs_f64() * 1e3;
            self.st.samples.push((p.sched, ms, p.op.kind.is_write()));
        }
        true
    }

    fn check_get(&mut self, p: &Pending, value: Option<&[u8]>) {
        let key = p.op.key;
        let mut got = decode_state(key, value);
        if std::mem::take(&mut self.inject) {
            got = Ok(Some(u64::MAX));
        }
        let hist = self.st.hist.get(&key).map_or(&[][..], Vec::as_slice);
        // Writes sent before the get, up to those sent before its reply
        // was read, are all allowed to be visible.
        let mut allowed: Vec<State> = Vec::new();
        if p.idx == 0 {
            allowed.push(initial_state(key));
        }
        allowed.extend(hist[p.idx.saturating_sub(1)..].iter().map(|h| h.0));
        if !got.is_ok_and(|s| allowed.contains(&s)) {
            self.st.wrong_count += 1;
            if self.st.wrong.len() < 5 {
                self.st
                    .wrong
                    .push(format!("get({key}) returned {got:?}, allowed {allowed:?}"));
            }
        }
    }
}

/// One connection: a sender thread that follows the schedule and a
/// receiver thread that blocks on the socket, so neither a send nor a
/// reply waits on the other.
#[derive(Default)]
struct Conn {
    shared: Mutex<Shared>,
    cv: Condvar,
}

impl Conn {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("connection state poisoned")
    }

    /// Wait on the condition variable until `until`.
    fn wait_until<'a>(&self, g: MutexGuard<'a, Shared>, until: Instant) -> MutexGuard<'a, Shared> {
        let left = until.saturating_duration_since(Instant::now());
        self.cv
            .wait_timeout(g, left)
            .expect("connection state poisoned")
            .0
    }

    fn write(&self, stream: &mut TcpStream, wbuf: &mut Vec<u8>) {
        if !wbuf.is_empty() && stream.write_all(wbuf).is_err() {
            self.lock().drop_connection();
            self.cv.notify_all();
        }
        wbuf.clear();
    }

    /// Send one phase over `[start, end)`, then wait for its replies
    /// until the deadline.
    #[allow(clippy::too_many_arguments)]
    fn phase(
        &self,
        stream: &mut TcpStream,
        gen: &mut OpGen,
        mode: Mode,
        start: Instant,
        end: Instant,
        slot: usize,
        timed: bool,
    ) {
        let mut wbuf = Vec::with_capacity(1 << 12);
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        if slot == 2 {
            let mut g = self.lock();
            g.sat_end = Some(end);
            g.st.sat_s = end.saturating_duration_since(Instant::now()).as_secs_f64();
        }
        match mode {
            Mode::Open(interval) => {
                for i in 0u32.. {
                    let sched = start + interval * i;
                    if sched >= end {
                        break;
                    }
                    std::thread::sleep(sched.saturating_duration_since(Instant::now()));
                    let mut g = self.lock();
                    if g.dead {
                        break;
                    }
                    g.enqueue(gen.next(), sched, timed, &mut wbuf);
                    g.st.sent[slot] += 1;
                    let late = Instant::now().saturating_duration_since(sched);
                    g.st.late_ms.push(late.as_secs_f64() * 1e3);
                    drop(g);
                    self.write(stream, &mut wbuf);
                }
            }
            Mode::Closed { window, ops } => loop {
                let mut g = self.lock();
                while !g.dead && g.inflight.len() >= window && Instant::now() < end {
                    g = self.wait_until(g, end);
                }
                if g.dead || Instant::now() >= end || g.st.sent[slot] >= ops {
                    break;
                }
                while g.inflight.len() < window && g.st.sent[slot] < ops {
                    g.enqueue(gen.next(), Instant::now(), false, &mut wbuf);
                    g.st.sent[slot] += 1;
                }
                drop(g);
                self.write(stream, &mut wbuf);
            },
        }
        if matches!(mode, Mode::Open(_)) {
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
        }
        let mut g = self.lock();
        if timed {
            g.st.backlog_end += g.inflight.len() as u64;
        }
        let deadline = end.min(Instant::now()) + DEADLINE;
        while !g.inflight.is_empty() && !g.dead && Instant::now() < deadline {
            g = self.wait_until(g, deadline);
        }
        g.fail_inflight();
    }

    /// Read replies until the sender is done or the connection drops.
    fn receive(&self, mut stream: TcpStream) {
        let mut rbuf: Vec<u8> = Vec::with_capacity(1 << 16);
        let mut chunk = vec![0u8; 1 << 16];
        if stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
        {
            self.lock().drop_connection();
            self.cv.notify_all();
            return;
        }
        loop {
            let n = match stream.read(&mut chunk) {
                Ok(0) => None,
                Ok(n) => Some(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    let g = self.lock();
                    if g.done || g.dead {
                        return;
                    }
                    continue;
                }
                Err(_) => None,
            };
            let now = Instant::now();
            let mut g = self.lock();
            let Some(n) = n else {
                if !g.done {
                    g.drop_connection();
                }
                drop(g);
                self.cv.notify_all();
                return;
            };
            rbuf.extend_from_slice(&chunk[..n]);
            let (mut at, mut handled) = (0, 0);
            let mut trusted = true;
            while rbuf.len() >= at + 4 {
                let len =
                    u32::from_le_bytes(rbuf[at..at + 4].try_into().expect("4 bytes")) as usize;
                if rbuf.len() < at + 4 + len {
                    break;
                }
                trusted &= g.on_reply(&rbuf[at + 4..at + 4 + len], now);
                at += 4 + len;
                handled += 1;
                if !trusted {
                    break;
                }
            }
            rbuf.drain(..at);
            if handled > 0 {
                g.st.reads += 1;
                g.st.replies += handled;
            }
            if !trusted {
                g.drop_connection();
                drop(g);
                self.cv.notify_all();
                return;
            }
            drop(g);
            self.cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Pipelined script (audit)
// ---------------------------------------------------------------------------

/// Send `ops` over one connection with a window of requests in flight;
/// each reply, or `None` if it never came.
fn pipelined(addr: SocketAddr, ops: &[Op]) -> Vec<Option<ReplyBody>> {
    const WINDOW: usize = 256;
    let mut replies: Vec<Option<ReplyBody>> = vec![None; ops.len()];
    let Ok(mut stream) = connect(addr) else {
        return replies;
    };
    if stream.set_read_timeout(Some(DEADLINE)).is_err() {
        return replies;
    }
    let (mut sent, mut got) = (0usize, 0usize);
    let (mut rbuf, mut wbuf) = (Vec::new(), Vec::new());
    let mut chunk = [0u8; 1 << 16];
    while got < ops.len() {
        while sent < ops.len() && sent - got < WINDOW {
            encode_request(
                &Request {
                    req_id: sent as u64,
                    op: ops[sent].clone(),
                },
                &mut wbuf,
            );
            sent += 1;
        }
        if !wbuf.is_empty() {
            if stream.write_all(&wbuf).is_err() {
                break;
            }
            wbuf.clear();
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
        }
        let mut at = 0;
        while rbuf.len() >= at + 4 {
            let len = u32::from_le_bytes(rbuf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if rbuf.len() < at + 4 + len {
                break;
            }
            if let Ok(rep) = decode_reply(&rbuf[at + 4..at + 4 + len]) {
                if let Some(slot) = replies.get_mut(rep.req_id as usize) {
                    *slot = Some(rep.body);
                }
            }
            at += 4 + len;
            got += 1;
        }
        rbuf.drain(..at);
    }
    replies
}

/// The exact final key set implied by complete histories.
pub struct FinalSet {
    /// Preloaded keys whose final state is absent, sorted.
    removed: Vec<u64>,
    /// Keys above the preload whose final state is present, sorted.
    added: Vec<u64>,
}

impl FinalSet {
    pub fn new(hists: &[&HashMap<u64, History>]) -> FinalSet {
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        for h in hists {
            for (&k, writes) in h.iter() {
                let last = writes.last().map_or(initial_state(k), |w| w.0);
                match (k < PRELOAD, last.is_some()) {
                    (true, false) => removed.push(k),
                    (false, true) => added.push(k),
                    _ => {}
                }
            }
        }
        removed.sort_unstable();
        added.sort_unstable();
        FinalSet { removed, added }
    }

    pub fn rank(&self, x: u64) -> u64 {
        x.min(PRELOAD) - self.removed.partition_point(|&k| k < x) as u64
            + self.added.partition_point(|&k| k < x) as u64
    }

    pub fn range_count(&self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            0
        } else {
            self.rank(hi) - self.rank(lo)
        }
    }

    pub fn len(&self) -> u64 {
        PRELOAD - self.removed.len() as u64 + self.added.len() as u64
    }
}

/// Read back every written key and probe rank/range_count. A key whose
/// last writes were never acknowledged may show any state from its last
/// acknowledged write on; rank probes are exact only when no write is
/// uncertain, and are skipped otherwise.
fn audit(addr: SocketAddr, hists: &[&HashMap<u64, History>], seed: u64, out: &mut Outcome) {
    let mut ops = Vec::new();
    let mut expect: Vec<Vec<State>> = Vec::new();
    let mut uncertain = false;
    for h in hists {
        let mut keys: Vec<&u64> = h.keys().collect();
        keys.sort_unstable();
        for &k in keys {
            let writes = &h[&k];
            let last_acked = writes.iter().rposition(|w| w.1);
            let mut allowed: Vec<State> = Vec::new();
            if last_acked.is_none() {
                allowed.push(initial_state(k));
            }
            allowed.extend(writes[last_acked.unwrap_or(0)..].iter().map(|w| w.0));
            uncertain |= last_acked != Some(writes.len() - 1);
            ops.push(Op::Get { key: k });
            expect.push(allowed);
        }
    }
    let finals = FinalSet::new(hists);
    let mut rng = Rng::new(seed, 999);
    let probes: Vec<(u64, u64)> = (0..2000)
        .map(|_| {
            let lo = rng.below(2 * PRELOAD + 1);
            (lo, lo + rng.below(4 * RANGE_WIDTH))
        })
        .collect();
    if !uncertain {
        for &(lo, hi) in &probes {
            ops.push(Op::Rank { key: lo });
            ops.push(Op::RangeCount { lo, hi });
        }
    }
    let replies = pipelined(addr, &ops);
    out.attempted += ops.len() as u64;
    for (i, (op, rep)) in ops.iter().zip(&replies).enumerate() {
        let what = match (op, rep) {
            (_, None) => {
                out.failed += 1;
                continue;
            }
            (Op::Get { key }, Some(ReplyBody::Value(v))) => {
                match decode_state(*key, v.as_deref()) {
                    Ok(s) if expect[i].contains(&s) => continue,
                    got => format!(
                        "audit get({key}) = {got:?}, expected one of {:?}",
                        expect[i]
                    ),
                }
            }
            (Op::Rank { key }, Some(ReplyBody::Count(c))) => {
                if *c == finals.rank(*key) {
                    continue;
                }
                format!("audit rank({key}) = {c}, expected {}", finals.rank(*key))
            }
            (Op::RangeCount { lo, hi }, Some(ReplyBody::Count(c))) => {
                if *c == finals.range_count(*lo, *hi) {
                    continue;
                }
                format!(
                    "audit range_count({lo}, {hi}) = {c}, expected {}",
                    finals.range_count(*lo, *hi)
                )
            }
            _ => {
                out.failed += 1;
                continue;
            }
        };
        out.wrong(what);
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

fn preload_pairs() -> (Vec<u64>, Vec<Vec<u8>>) {
    let keys: Vec<u64> = (0..PRELOAD).collect();
    let vals = keys.iter().map(|k| k.to_le_bytes().to_vec()).collect();
    (keys, vals)
}

/// The served index build, timed in-process: the same
/// `ServeMap::build` the server runs on its preload.
pub fn build_preloaded() -> ServeMap {
    let (keys, vals) = preload_pairs();
    ServeMap::build(keys, vals, Layout::Veb, SHARDS).expect("valid build configuration")
}

/// Time `count` in-process preload builds, ns per key.
fn time_builds(count: usize, ns: &mut Vec<f64>) {
    for _ in 0..count {
        let (keys, vals) = preload_pairs();
        let t = Instant::now();
        let map = ServeMap::build(keys, vals, Layout::Veb, SHARDS).expect("valid build");
        ns.push(secs(t) * 1e9 / PRELOAD as f64);
        drop(std::hint::black_box(map));
    }
}

/// Measured phase lengths in seconds: open loop, saturation.
fn phase_lengths(seconds: f64) -> [f64; 2] {
    [0.65 * seconds, 0.35 * seconds]
}

/// The warm-up sends a fixed number of requests (not a fixed time), so
/// every run leaves the server with the same amount of compaction work.
const WARM_UP_LIMIT: Duration = Duration::from_secs(30);

/// Wait until the server has finished the compactions the warm-up
/// started (at most 10% of a core busy over 100 ms), up to 5 s, so
/// they do not spill into the timed phase. Returns the seconds waited.
fn settle(pid: u32) -> f64 {
    let start = Instant::now();
    let busy = |c: ProcCpu| c.user_s + c.sys_s;
    let mut before = busy(proc_cpu(pid));
    while secs(start) < 5.0 {
        std::thread::sleep(Duration::from_millis(100));
        let now = busy(proc_cpu(pid));
        if now - before <= 0.0101 {
            break;
        }
        before = now;
    }
    secs(start)
}

/// Latency statistics are taken per window of this length and the
/// median over windows is reported, so one stall moves one window.
const LATENCY_WINDOW_S: f64 = 1.0;
/// Saturation throughput is counted per window of this length.
const THROUGHPUT_WINDOW_S: f64 = 0.5;
/// Windows with fewer samples are left out of the medians.
const MIN_WINDOW_SAMPLES: usize = 200;

/// Median over windows of the per-window `p`-quantile; also the
/// number of windows used.
/// Per-window `p`-quantiles of `(seconds, value)` samples, for windows
/// holding at least [`MIN_WINDOW_SAMPLES`] samples.
fn per_window(samples: &[(f64, f64)], window_s: f64, p: f64) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at, v) in samples {
        let w = (at / window_s) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(v);
    }
    windows
        .iter_mut()
        .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
        .map(|w| {
            w.sort_by(f64::total_cmp);
            percentile(w, p)
        })
        .collect()
}

pub fn run(args: &Args, workload: Workload) -> Outcome {
    let mut out = Outcome::default();
    let spec = Spec::of(workload);
    let dir = run_dir();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fatal(&format!("cannot create {}: {e}", dir.display()));
    }
    let data_dir = |i: usize| spec.durable.then(|| dir.join(format!("data-{i}")));

    // Half the builds before the load and half after it, so the median
    // spans the run.
    let mut build_ns = Vec::new();
    time_builds(BUILDS / 2, &mut build_ns);

    // Set-up: launch until listening and connected, several times.
    let mut setup = Vec::new();
    let mut serving = None;
    for i in 0..SETUPS {
        let flags = spec.server_flags(data_dir(i).as_deref());
        let t = Instant::now();
        let (server, _) = Server::launch(&args.serve_bin, &flags)
            .unwrap_or_else(|e| fatal(&format!("launch {}: {e}", args.serve_bin.display())));
        let streams: Vec<TcpStream> = (0..spec.conns)
            .map(|_| connect(server.addr).unwrap_or_else(|e| fatal(&format!("connect: {e}"))))
            .collect();
        setup.push(secs(t));
        if i + 1 < SETUPS {
            drop(streams);
            server.kill();
            if let Some(d) = data_dir(i) {
                let _ = std::fs::remove_dir_all(d);
            }
        } else {
            serving = Some((server, streams, flags));
        }
    }
    let (server, streams, flags) = serving.expect("at least one launch");
    let pid = server.pid();

    let [open, sat] = phase_lengths(args.seconds);
    let interval = Duration::from_secs_f64(spec.conns as f64 / spec.rate);
    let warm_ops = spec.warm_up_ops / spec.conns as u64;
    // The measured timeline starts once every connection has finished
    // its warm-up.
    let after_warm_up = Barrier::new(spec.conns + 1);
    let timeline: Mutex<Option<[Instant; 3]>> = Mutex::new(None);
    let warm_start = Instant::now();
    let (mut warm, mut settle_s) = (0.0, 0.0);

    let mut cpu = [ProcCpu::default(); 3];
    let mut steal = [(0.0, 0.0); 3];
    let conns: Vec<Conn> = (0..spec.conns).map(|_| Conn::default()).collect();
    if args.inject_wrong_answer {
        conns[0].lock().inject = true;
    }
    let [t1, _, t3] = std::thread::scope(|s| {
        for (c, (conn, stream)) in conns.iter().zip(streams).enumerate() {
            let reader = stream
                .try_clone()
                .unwrap_or_else(|e| fatal(&format!("clone socket: {e}")));
            s.spawn(move || conn.receive(reader));
            let (seed, barrier, timeline) = (args.seed, &after_warm_up, &timeline);
            s.spawn(move || {
                let mut stream = stream;
                let mut gens: Vec<OpGen> = (0..3).map(|p| OpGen::new(seed, p, c, &spec)).collect();
                let warm = Mode::Closed {
                    window: spec.window,
                    ops: warm_ops,
                };
                let now = Instant::now();
                conn.phase(
                    &mut stream,
                    &mut gens[0],
                    warm,
                    now,
                    now + WARM_UP_LIMIT,
                    0,
                    false,
                );
                barrier.wait();
                barrier.wait();
                let [t1, t2, t3] = timeline
                    .lock()
                    .expect("timeline poisoned")
                    .expect("timeline set");
                conn.phase(
                    &mut stream,
                    &mut gens[1],
                    Mode::Open(interval),
                    t1,
                    t2,
                    1,
                    true,
                );
                let sat = Mode::Closed {
                    window: spec.window,
                    ops: u64::MAX,
                };
                conn.phase(&mut stream, &mut gens[2], sat, t2, t3, 2, false);
                conn.lock().done = true;
            });
        }
        after_warm_up.wait();
        warm = secs(warm_start);
        settle_s = settle(pid);
        let t1 = Instant::now() + Duration::from_millis(20);
        let t2 = t1 + Duration::from_secs_f64(open);
        let times = [t1, t2, t2 + Duration::from_secs_f64(sat)];
        *timeline.lock().expect("timeline poisoned") = Some(times);
        after_warm_up.wait();
        for ((sample, host), at) in cpu.iter_mut().zip(steal.iter_mut()).zip(times) {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            *sample = proc_cpu(pid);
            *host = host_steal();
        }
        times
    });
    let (rss_mb, threads) = proc_status(&pid.to_string());
    let stats: Vec<ConnStats> = conns
        .into_iter()
        .map(|c| c.shared.into_inner().expect("connection state poisoned").st)
        .collect();

    // Latency samples as (seconds after the open phase began, ms).
    let since = |at: Instant, from: Instant| at.saturating_duration_since(from).as_secs_f64();
    let mut all: Vec<(f64, f64)> = Vec::new();
    let (mut read_ms, mut write_ms) = (Vec::new(), Vec::new());
    for st in &stats {
        for &(sched, ms, write) in &st.samples {
            all.push((since(sched, t1), ms));
            if write { &mut write_ms } else { &mut read_ms }.push(ms);
        }
    }
    let mut late_ms: Vec<f64> = stats
        .iter()
        .flat_map(|s| s.late_ms.iter().copied())
        .collect();
    for v in [&mut read_ms, &mut write_ms, &mut late_ms] {
        v.sort_by(f64::total_cmp);
    }
    let window_p50 = per_window(&all, LATENCY_WINDOW_S, 0.5);
    let steal_share = (steal[1].0 - steal[0].0) / (steal[1].1 - steal[0].1).max(1.0);
    out.record
        .push(("host_steal_share_open".into(), format!("{steal_share:.4}")));
    // Saturation windows start once every connection has begun it.
    let sat_start = t3 - Duration::from_secs_f64(stats.iter().map(|s| s.sat_s).fold(sat, f64::min));
    let sat_full = (since(t3, sat_start) / THROUGHPUT_WINDOW_S) as usize;
    let mut sat_counts = vec![0.0; sat_full];
    for st in &stats {
        for &at in &st.sat_at {
            if let Some(c) =
                sat_counts.get_mut((since(at, sat_start) / THROUGHPUT_WINDOW_S) as usize)
            {
                if at >= sat_start {
                    *c += 1.0 / THROUGHPUT_WINDOW_S;
                }
            }
        }
    }
    let sat_done: usize = stats.iter().map(|s| s.sat_at.len()).sum();
    let open_done = all.len();
    for st in &stats {
        out.attempted += st.attempted;
        out.failed += st.failed;
        out.wrong_count += st.wrong_count;
        out.wrong
            .extend(st.wrong.iter().take(5 - out.wrong.len().min(5)).cloned());
    }
    let (load_attempted, load_failed) = (out.attempted, out.failed);

    let hists: Vec<&HashMap<u64, History>> = stats.iter().map(|s| &s.hist).collect();
    audit(server.addr, &hists, args.seed, &mut out);

    // Restarts: SIGKILL, relaunch on the same state (re-preload when
    // memory-only, reopen when durable); the first reopen is audited.
    server.kill();
    let restart_flags = spec.server_flags(data_dir(SETUPS - 1).as_deref());
    let mut restart_s = Vec::new();
    for i in 0..RESTARTS {
        let (again, listen_s) = Server::launch(&args.serve_bin, &restart_flags)
            .unwrap_or_else(|e| fatal(&format!("relaunch: {e}")));
        restart_s.push(listen_s);
        if spec.durable && i == 0 {
            audit(again.addr, &hists, args.seed, &mut out);
        }
        again.kill();
    }

    time_builds(BUILDS - BUILDS / 2, &mut build_ns);
    let cpu_s =
        |a: usize, b: usize| (cpu[b].user_s + cpu[b].sys_s) - (cpu[a].user_s + cpu[a].sys_s);
    let open_cpu_us = cpu_s(0, 1) * 1e6 / open_done.max(1) as f64;
    let sat_cpu_us = cpu_s(1, 2) * 1e6 / sat_done.max(1) as f64;
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup), "s");
    m.set("build_ns_per_elem", median(&build_ns), "ns");
    m.set("p50_ms", median(&window_p50), "ms");
    m.set("cpu_us_per_op", open_cpu_us, "us");
    m.set("peak_rss_mb", rss_mb, "MB");
    m.set("recover_s", median(&restart_s), "s");

    let l = &mut out.layer;
    l.set("serve.sat_cpu_us_per_op", sat_cpu_us, "us");
    l.set("serve.max_ops_s", median(&sat_counts), "1/s");
    l.set(
        "serve.sys_share",
        (cpu[2].sys_s - cpu[0].sys_s) / cpu_s(0, 2).max(1e-9),
        "share",
    );
    let ops = (open_done + sat_done).max(1) as f64;
    l.set(
        "serve.ctxsw_per_op",
        (cpu[2].ctxsw - cpu[0].ctxsw) / ops,
        "count",
    );
    l.set("serve.threads", threads, "count");
    let reads: u64 = stats.iter().map(|s| s.reads).sum();
    let replies: u64 = stats.iter().map(|s| s.replies).sum();
    let replies_per_read = replies as f64 / reads.max(1) as f64;
    l.set("serve.replies_per_read", replies_per_read, "count");
    l.set("serve.read_p50_ms", percentile(&read_ms, 0.5), "ms");
    l.set("serve.read_p99_ms", percentile(&read_ms, 0.99), "ms");
    l.set("serve.write_p50_ms", percentile(&write_ms, 0.5), "ms");
    l.set("serve.write_p99_ms", percentile(&write_ms, 0.99), "ms");
    l.set("gen.late_ms.p99", percentile(&late_ms, 0.99), "ms");
    l.set(
        "gen.backlog_end",
        stats.iter().map(|s| s.backlog_end).sum::<u64>() as f64,
        "count",
    );
    let failed_frac = load_failed as f64 / load_attempted.max(1) as f64;
    l.set("serve.failed_frac", failed_frac, "share");

    let r = &mut out.record;
    r.push(("server_flags".into(), json_str(&flags.join(" "))));
    r.push(("server_config".into(), json_str("ServerConfig::default()")));
    let fsync = if spec.durable {
        "always"
    } else {
        "none (memory only)"
    };
    r.push(("fsync".into(), json_str(fsync)));
    r.push((
        "traffic".into(),
        format!(
            "{{\"conns\": {}, \"rate_ops_s\": {}, \"window\": {}, \"write_pct\": {}, \"warm_up_ops\": {}}}",
            spec.conns, spec.rate, spec.window, spec.write_pct, spec.warm_up_ops
        ),
    ));
    r.push((
        "phase_s".into(),
        format!("{{\"warm_up\": {warm}, \"settle\": {settle_s}, \"open\": {open}, \"saturation\": {sat}}}"),
    ));
    r.push((
        "samples".into(),
        format!(
            "{{\"latency\": {open_done}, \"latency_windows\": {}, \"read\": {}, \"write\": {}, \
             \"throughput_windows\": {}, \"setup\": {SETUPS}, \"build\": {BUILDS}, \"restart\": {RESTARTS}}}",
            window_p50.len(),
            read_ms.len(),
            write_ms.len(),
            sat_counts.len()
        ),
    ));
    r.push((
        "whole_phase".into(),
        format!(
            "{{\"read_p50_ms\": {:.4}, \"read_p99_ms\": {:.4}, \"write_p50_ms\": {:.4}, \
             \"write_p99_ms\": {:.4}, \"failed_frac\": {failed_frac:.6}, \"saturation_ops_s\": {:.1}}}",
            percentile(&read_ms, 0.5),
            percentile(&read_ms, 0.99),
            percentile(&write_ms, 0.5),
            percentile(&write_ms, 0.99),
            sat_done as f64 / since(t3, sat_start).max(1e-3)
        ),
    ));

    if args.trace {
        let sent: Vec<[u64; 3]> = stats.iter().map(|s| s.sent).collect();
        let tick = ((replies_per_read * spec.conns as f64).round() as usize).max(1);
        replay::run(args, &spec, &sent, tick, &dir, &mut out);
    }
    for i in 0..SETUPS {
        if let Some(d) = data_dir(i) {
            let _ = std::fs::remove_dir_all(d);
        }
    }
    out
}

fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_states_round_trip() {
        assert_eq!(decode_state(5, None), Ok(None));
        assert_eq!(decode_state(5, Some(&5u64.to_le_bytes())), Ok(Some(0)));
        assert_eq!(decode_state(5, Some(&encode_value(5, 9))), Ok(Some(9)));
        assert!(decode_state(5, Some(&encode_value(6, 9))).is_err());
        assert!(decode_state(5, Some(b"junk")).is_err());
    }

    #[test]
    fn final_set_counts_match_a_btreeset() {
        let mut h: HashMap<u64, History> = HashMap::new();
        h.insert(3, vec![(None, true)]);
        h.insert(PRELOAD + 10, vec![(Some(1), true)]);
        h.insert(PRELOAD + 20, vec![(Some(2), true), (None, true)]);
        let f = FinalSet::new(&[&h]);
        let mut set: std::collections::BTreeSet<u64> = (0..PRELOAD).collect();
        set.remove(&3);
        set.insert(PRELOAD + 10);
        for x in [0, 3, 4, 100, PRELOAD, PRELOAD + 11, PRELOAD + 30] {
            assert_eq!(f.rank(x), set.range(..x).count() as u64, "rank({x})");
        }
        assert_eq!(
            f.range_count(2, PRELOAD + 11),
            set.range(2..PRELOAD + 11).count() as u64
        );
        assert_eq!(f.len(), set.len() as u64);
    }

    /// The get check fires on a wrong answer and accepts every state
    /// the group-commit window allows.
    #[test]
    fn get_check_fires_on_a_wrong_answer() {
        let mut sh = Shared::default();
        let key = PRELOAD + 8;
        sh.st
            .hist
            .insert(key, vec![(Some(1), true), (Some(2), false)]);
        let p = Pending {
            id: 0,
            sched: Instant::now(),
            op: OpSpec {
                kind: Kind::Get,
                key,
                hi: 0,
            },
            idx: 1,
            timed: false,
        };
        sh.check_get(&p, Some(&encode_value(key, 1)));
        sh.check_get(&p, Some(&encode_value(key, 2)));
        assert_eq!(sh.st.wrong_count, 0);
        sh.check_get(&p, None); // the key was written before the get
        assert_eq!(sh.st.wrong_count, 1);
        sh.inject = true;
        sh.check_get(&p, Some(&encode_value(key, 2)));
        assert_eq!(sh.st.wrong_count, 2);
    }

    /// A reply of the wrong kind fails its request; a request the
    /// server skipped fails too; neither is a wrong answer.
    #[test]
    fn unexpected_replies_count_as_failures() {
        use ist_serve::proto::{encode_reply, Reply};
        let mut sh = Shared::default();
        let mut wbuf = Vec::new();
        let get = OpSpec {
            kind: Kind::Get,
            key: 4,
            hi: 0,
        };
        for _ in 0..3 {
            sh.enqueue(get, Instant::now(), false, &mut wbuf);
        }
        let frame = |req_id: u64, body: ReplyBody| {
            let mut out = Vec::new();
            encode_reply(&Reply { req_id, body }, &mut out);
            out[4..].to_vec()
        };
        // A count where a value was expected.
        assert!(sh.on_reply(&frame(0, ReplyBody::Count(1)), Instant::now()));
        assert_eq!(sh.st.failed, 1);
        // Request 1 never answered: the reply to 2 fails it.
        let value = ReplyBody::Value(Some(4u64.to_le_bytes().to_vec()));
        assert!(sh.on_reply(&frame(2, value), Instant::now()));
        assert_eq!(sh.st.failed, 2);
        assert_eq!(sh.st.wrong_count, 0);
        assert!(sh.inflight.is_empty());
        // Bytes that are not a reply end the connection.
        assert!(!sh.on_reply(&[9, 9], Instant::now()));
    }
}
