//! Small shared pieces: a seeded generator, percentiles, the metric
//! list printed as JSON, `/proc` readers and the host fingerprint.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: a tiny, seedable, deterministic generator. The same
/// seed and stream give the same inputs on every host.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `stream` under `seed`; distinct streams are
    /// independent enough for workload generation.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in
/// `[0, 1]`); 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (logs / values.len().max(1) as f64).exp()
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// An ordered list of named metrics, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => {
                m.1 = value;
                m.2 = unit;
            }
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        s.push('}');
        s
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits (Rust's shortest round-trip form).
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Fields of `/proc/<pid>/status` (or `self`) as `(VmHWM MiB, threads)`.
pub fn proc_status(pid: &str) -> (f64, f64) {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let field = |key: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field("VmHWM:") / 1024.0, field("Threads:"))
}

/// CPU time and context switches of a process, summed over its live
/// threads.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcCpu {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctxsw: f64,
}

pub fn proc_cpu(pid: u32) -> ProcCpu {
    // utime/stime are fields 14/15 of /proc/<pid>/stat, in clock ticks
    // (USER_HZ, 100 on Linux); the command name may contain spaces, so
    // parse after the closing parenthesis.
    const TICKS: f64 = 100.0;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / TICKS;
    let mut ctxsw = 0.0;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for t in tasks.flatten() {
            let text = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
            for l in text.lines() {
                if let Some(v) = l
                    .strip_prefix("voluntary_ctxt_switches:")
                    .or_else(|| l.strip_prefix("nonvoluntary_ctxt_switches:"))
                {
                    ctxsw += v.trim().parse::<f64>().unwrap_or(0.0);
                }
            }
        }
    }
    // After ')' the fields start at field 3 (state), so utime (14) is
    // index 11 and stime (15) index 12.
    ProcCpu {
        user_s: tick(11),
        sys_s: tick(12),
        ctxsw,
    }
}

/// Host-wide CPU time stolen by the hypervisor and total CPU time, in
/// clock ticks since boot (`/proc/stat`); their deltas give the steal
/// share over an interval.
pub fn host_steal() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (
        fields.get(7).copied().unwrap_or(0.0),
        fields.iter().take(8).sum(),
    )
}

/// Host fingerprint and commit, as JSON object members.
pub fn host_record() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|r| r.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut feats: Vec<&str> = Vec::new();
    macro_rules! feat {
        ($($f:literal),*) => {$( if cfg!(target_feature = $f) { feats.push($f); } )*};
    }
    feat!("sse2", "sse4.2", "popcnt", "avx", "avx2", "bmi2", "avx512f", "neon");
    format!(
        "\"cpu\": {}, \"nproc\": {}, \"target_features\": {}, \"git_rev\": {}",
        json_str(&model),
        nproc,
        json_str(&feats.join(",")),
        json_str(&git_rev(Path::new(".")))
    )
}

/// The commit checked out at `root`, read from `.git` inside it only
/// (the benchmark reads nothing outside its checkout); `unknown` when
/// the checkout is not a git repository.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).below(10)).collect();
        let mut r = Rng::new(7, 1);
        let b: Vec<u64> = (0..4).map(|_| r.below(10)).collect();
        assert_eq!(a[0], b[0]);
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
    }
}
