//! The repository benchmark. One workload per run:
//!
//! ```text
//! perfbench --workload <build_lookup|serve_read|serve_ingest> --seed N
//!           --seconds S --trace <0|1> --serve-bin PATH [--inject-wrong-answer]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the run record (host, commit, seed, server flags, sample counts).
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a traced run plus its overhead. The exit code
//! is 1 when any answer was wrong, 2 on a usage error.

mod build_lookup;
mod replay;
mod served;
mod trace;
mod util;

use std::path::PathBuf;

use trace::Span;
use util::{host_record, json_str, Metrics};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    /// Corrupt one answer before it is checked: the run must then
    /// report `correct: false` and exit non-zero (the audit self-test).
    pub inject_wrong_answer: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// First wrong answers seen (kept short).
    pub wrong: Vec<String>,
    pub wrong_count: u64,
    /// Extra run-record members: `(key, JSON value)`.
    pub record: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn wrong(&mut self, what: String) {
        self.wrong_count += 1;
        if self.wrong.len() < 5 {
            self.wrong.push(what);
        }
    }
}

pub const WORKLOADS: [&str; 3] = ["build_lookup", "serve_read", "serve_ingest"];

pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("build_ns_per_elem", "ns"),
    ("p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("recover_s", "s"),
];

/// Every per-layer metric, in the order printed, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for (layout, _) in build_lookup::LAYOUTS {
        for prim in build_lookup::PRIMITIVES {
            v.push((format!("machine.{prim}.self_s.{layout}"), "s"));
            v.push((format!("machine.{prim}.elems.{layout}"), "count"));
        }
        v.push((format!("core.strip_s.{layout}"), "s"));
        v.push((format!("core.main_s.{layout}"), "s"));
        v.push((format!("core.moves_per_elem.{layout}"), "count"));
        v.push((format!("build.ns_per_elem.{layout}"), "ns"));
        v.push((format!("lookup.ns_per_key.{layout}"), "ns"));
    }
    let fixed: [(&str, &'static str); 36] = [
        ("lookup.p99_ms", "ms"),
        ("lookup.keys_per_s", "1/s"),
        ("query.wide_route.btree16", "bool"),
        ("query.get.us_per_call", "us"),
        ("query.rank.us_per_call", "us"),
        ("query.range_count.us_per_call", "us"),
        ("query.keys_per_call", "count"),
        ("shard.apply_us_per_write", "us"),
        ("shard.snapshot_us", "us"),
        ("shard.imbalance", "ratio"),
        ("dynamic.sealed_runs.max", "count"),
        ("dynamic.compacting_share", "share"),
        ("dynamic.stall_ticks", "count"),
        ("dynamic.quiesce_s", "s"),
        ("store.wal_bytes_per_user_byte", "ratio"),
        ("store.run_bytes_per_user_byte", "ratio"),
        ("store.fsyncs_per_tick", "count"),
        ("store.fsync_us.p50", "us"),
        ("store.fsync_us.p99", "us"),
        ("store.dir_syncs", "count"),
        ("store.space_amp", "ratio"),
        ("store.open_s", "s"),
        ("serve.max_ops_s", "1/s"),
        ("serve.sat_cpu_us_per_op", "us"),
        ("serve.sys_share", "share"),
        ("serve.ctxsw_per_op", "count"),
        ("serve.threads", "count"),
        ("serve.replies_per_read", "count"),
        ("serve.read_p50_ms", "ms"),
        ("serve.read_p99_ms", "ms"),
        ("serve.write_p50_ms", "ms"),
        ("serve.write_p99_ms", "ms"),
        ("gen.late_ms.p99", "ms"),
        ("gen.backlog_end", "count"),
        ("serve.failed_frac", "share"),
        ("trace.overhead_share", "share"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed N --seconds S \
         --trace <0|1> --serve-bin PATH [--inject-wrong-answer]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::new(),
        inject_wrong_answer: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-wrong-answer" {
            args.inject_wrong_answer = true;
            continue;
        }
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 60.0)
                    .unwrap_or_else(|| usage("--seconds must be in (0, 60]"))
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(val),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage("unknown or missing --workload");
    }
    args
}

fn main() {
    let args = parse_args();
    let mut out = match args.workload.as_str() {
        "build_lookup" => build_lookup::run(&args),
        "serve_read" => served::run(&args, served::Workload::Read),
        _ => served::run(&args, served::Workload::Ingest),
    };

    for w in &out.wrong {
        eprintln!("perfbench: WRONG ANSWER: {w}");
    }
    if !out.spans.is_empty() {
        write_spans(&args, &out.spans);
    }

    let metrics = if args.trace {
        let mut m = Metrics::default();
        for (name, unit) in per_layer_names() {
            m.set(name.clone(), out.layer.get(&name).unwrap_or(0.0), unit);
        }
        m
    } else {
        let mut m = Metrics::default();
        for (name, unit) in END_TO_END {
            m.set(name, out.metrics.get(name).unwrap_or(0.0), unit);
        }
        m
    };

    out.record
        .push(("workload".into(), json_str(&args.workload)));
    out.record.push(("seed".into(), args.seed.to_string()));
    out.record
        .push(("run_seconds".into(), args.seconds.to_string()));
    out.record
        .push(("trace".into(), u8::from(args.trace).to_string()));
    out.record
        .push(("wrong_answers".into(), out.wrong_count.to_string()));
    let record: Vec<String> = out
        .record
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!(
        "{{\"record\": {{{}, {}}}}}",
        host_record(),
        record.join(", ")
    );

    let correct = out.wrong_count == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics.to_json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Spans of a traced run, one TSV per workload under `.bench_run/`.
fn write_spans(args: &Args, spans: &[Span]) {
    let mut text = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
    trace::to_tsv(spans, &mut text);
    let dir = served::run_dir();
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this program prints are the names `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metric_names_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = spec.split(&format!("\"{section}\"")).nth(1).expect(section);
            let body = &body[..body.find(']').expect("closing bracket")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry.split(&format!("\"{key}\"")).nth(1).expect(key);
                        rest.split('"').nth(1).expect("string value").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layer);
        let workloads: Vec<String> = spec
            .split("\"workloads\"")
            .nth(1)
            .and_then(|b| b.split(']').next())
            .expect("workloads")
            .split("\"name\"")
            .skip(1)
            .map(|r| r.split('"').nth(1).expect("name").to_string())
            .collect();
        assert!(workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())));
    }
}
