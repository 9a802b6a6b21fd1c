//! Metric names, the run report, noise provenance, and the output
//! format: one human-readable line per metric, a provenance line, and
//! a last line holding the JSON result.

use std::path::Path;
use std::process::Command;

/// End-to-end metrics: every workload reports each of them, measured
/// with tracing off. Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("p50_us", "us"),
    ("index_bytes_per_key", "B"),
    ("data_bytes_per_key", "B"),
];

/// Per-layer metrics reported by a traced run. Must match `per_layer`
/// in `BENCHMARK.json`. A metric of a layer that a workload does not
/// reach reads 0 on that workload; [`owned_per_layer`] lists which
/// ones each workload measures.
pub const PER_LAYER: &[(&str, &str)] = &[
    // alex-core index
    ("core.get_ns", "ns"),
    ("core.insert_ns", "ns"),
    ("core.scan_ns", "ns"),
    ("core.comparisons_per_lookup", "count"),
    ("core.direct_hit_frac", "fraction"),
    ("core.pred_err_mean", "slots"),
    ("core.depth", "count"),
    ("core.data_nodes", "count"),
    ("core.shifts_per_insert", "count"),
    ("core.expansions", "count"),
    ("core.splits", "count"),
    ("core.retrains", "count"),
    // alex-core epoch/delta
    ("epoch.leaf_clones_per_write", "count"),
    ("epoch.delta_hit_frac", "fraction"),
    ("epoch.flushes", "count"),
    ("epoch.retired_pending", "count"),
    ("epoch.delta_cap", "count"),
    // alex-wal
    ("wal.insert_ns", "ns"),
    ("wal.get_ns", "ns"),
    ("wal.commit_ns", "ns"),
    ("wal.appended", "count"),
    ("wal.commits", "count"),
    ("wal.syncs", "count"),
    ("wal.bytes_per_insert", "B"),
    ("disk_bytes_per_key", "B"),
    ("wal.snapshot_s", "s"),
    ("recovery_s", "s"),
    ("recovery.snapshot_load_s", "s"),
    ("recovery.replay_s", "s"),
    ("recovery.replayed", "count"),
    ("recovery.replay_leaf_clones", "count"),
    // alex-server + alex-sharded
    ("server.submit_ns", "ns"),
    ("server.backend_ns", "ns"),
    ("server.queue_wait_ns", "ns"),
    ("server.handoff_ns", "ns"),
    ("server.batch_occupancy", "ops/batch"),
    ("server.coalesced_frac", "fraction"),
    ("server.queue_depth_mean", "count"),
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    // tails of the end-to-end latency: diagnostics, too noisy on a
    // shared host to bound
    ("p99_us", "us"),
    ("p999_us", "us"),
    // the tracing itself
    ("trace.overhead_frac", "fraction"),
];

/// The per-layer metrics each workload measures (the rest read 0).
#[cfg(test)]
pub fn owned_per_layer(workload: &str) -> Vec<&'static str> {
    let own: &[&str] = match workload {
        "index-mixed" => &["core."],
        "durable-write" => &["epoch.", "wal.", "recovery", "disk_"],
        "serve-closed" => &["server."],
        _ => &["server.", "loadgen."],
    };
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| {
            ["p99_us", "p999_us", "trace."]
                .iter()
                .chain(own)
                .any(|p| name.starts_with(p))
        })
        .filter(|name| !(workload == "serve-open" && *name == "server.handoff_ns"))
        .collect()
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, including the post-run checks.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Measured values by name (end-to-end, per-layer, diagnostics).
    pub values: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The JSON result line: end-to-end metrics, or per-layer metrics
    /// on a traced run (0 for a layer the workload does not reach).
    pub fn json(&self, traced: bool) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        let mut correct = self.failed == 0 && self.attempted > 0;
        for &(name, unit) in names {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => {
                    correct = false;
                    0.0
                }
            };
            // JSON has no NaN or infinity: a non-finite value is a bug.
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host conditions that explain a noisy run.
pub struct Provenance {
    steal_before: Option<u64>,
}

impl Provenance {
    pub fn start() -> Self {
        Provenance {
            steal_before: steal_ticks(),
        }
    }

    /// One line: steal ticks during the run, cores, commit, profile.
    pub fn finish(self, root: &Path) -> String {
        let steal = match (self.steal_before, steal_ticks()) {
            (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
            _ => "unavailable".to_string(),
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        format!(
            "provenance: steal_ticks={steal} nproc={nproc} commit={} profile={profile}",
            git_commit(root)
        )
    }
}

/// Total `steal` ticks of all CPUs from `/proc/stat`: time the host
/// gave this machine's virtual CPUs to someone else.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// The checked-out commit, when the benchmark runs inside a git
/// checkout; git is not asked otherwise, so it cannot report a
/// repository that merely encloses this directory.
fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let workloads = ["index-mixed", "durable-write", "serve-closed", "serve-open"];
        let ours: Vec<&str> = workloads
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(declared, ours);
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = &json[json
                .find(&format!("\"name\": \"{name}\""))
                .expect("declared")..];
            let entry = &entry[..entry.find('}').expect("object end")];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
    }

    #[test]
    fn json_line_has_every_metric_and_flags_missing_ones() {
        let mut r = Report::default();
        r.check(true);
        for &(name, unit) in END_TO_END {
            r.set(name, 1.5, unit);
        }
        let line = r.json(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"p50_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        r.values.pop();
        assert!(r.json(false).starts_with("{\"correct\": false"));
        assert!(r
            .json(true)
            .contains("\"trace.overhead_frac\": {\"value\": 0.0"));
    }
}
