//! Input generation and window statistics shared by the workloads.

use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

use crate::report::{steal_ticks, Report};
use crate::trace::{median, quantile};

/// Set-up is repeated this many times per run and the median reported.
pub const SETUP_REPS: usize = 11;

/// Seed of the key sets. The datasets are fixed, as the paper's are;
/// `--seed` draws the workload over them: which keys are read or
/// scanned, the order of the inserts and operations, scan lengths and
/// arrival times. (Drawing the datasets from `--seed` too would make
/// the Zipf hot set, and with it throughput, vary by a fifth between
/// seeds.)
pub const DATASET_SEED: u64 = 2020;

/// Where runs put their scratch files and span dumps.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A key's payload: a fixed mix of its bits, so every expected value is
/// known without a map.
pub fn payload(bits: u64) -> u64 {
    let mut z = bits.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1334_11EB);
    z ^ (z >> 31)
}

pub trait BenchKey: Copy + PartialOrd {
    fn bits(self) -> u64;
}

impl BenchKey for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl BenchKey for u64 {
    fn bits(self) -> u64 {
        self
    }
}

/// The loaded pairs (sorted) and the keys held out for inserts (in
/// generation order, which is random).
pub struct KeySet<K> {
    /// Loaded keys in random order: the key choice draws from these.
    pub loaded: Vec<K>,
    pub pairs: Vec<(K, u64)>,
    pub held_out: Vec<K>,
}

/// Split `n_loaded + n_held` unique shuffled keys into loaded pairs and
/// held-out keys, the latter in an order drawn from `rng`.
pub fn key_set<K: BenchKey>(mut keys: Vec<K>, n_loaded: usize, rng: &mut StdRng) -> KeySet<K> {
    let mut held_out = keys.split_off(n_loaded);
    held_out.shuffle(rng);
    let mut pairs: Vec<(K, u64)> = keys.iter().map(|&k| (k, payload(k.bits()))).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("generated keys are not NaN"));
    KeySet {
        loaded: keys,
        pairs,
        held_out,
    }
}

/// `n` operation kinds with exactly `counts[i]` of kind `i` (the
/// remainder goes to kind 0), in random order.
pub fn exact_mix(rng: &mut StdRng, n: usize, counts: &[usize]) -> Vec<u8> {
    let mut kinds = Vec::with_capacity(n);
    for (kind, &c) in counts.iter().enumerate().skip(1) {
        kinds.extend(std::iter::repeat_n(kind as u8, c));
    }
    assert!(kinds.len() <= n, "mix counts exceed the op count");
    kinds.resize(n, 0);
    kinds.shuffle(rng);
    kinds
}

/// `expected` (sorted) against what an index iteration produced.
pub fn contents_match<K: BenchKey>(expected: &[(K, u64)], got: &[(K, u64)]) -> bool {
    expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|(a, b)| a.0.bits() == b.0.bits() && a.1 == b.1)
}

/// The loaded pairs plus `inserted`, sorted: what the index must hold.
pub fn expected_contents<K: BenchKey>(pairs: &[(K, u64)], inserted: &[K]) -> Vec<(K, u64)> {
    let mut all = pairs.to_vec();
    all.extend(inserted.iter().map(|&k| (k, payload(k.bits()))));
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("generated keys are not NaN"));
    all
}

/// Per-window figures; the run reports their medians over the calm
/// windows, so a host stall that spoils a few windows does not move
/// the result.
///
/// A window opened with [`Windows::begin`] also records the host's
/// steal ticks during it: CPU time the host gave this machine's virtual
/// CPUs to someone else. Calm windows are those that lost no more than
/// the median window did: a window measured while the host took the
/// CPU away measures the host.
#[derive(Debug, Default)]
pub struct Windows {
    pub throughput: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub p999_us: Vec<f64>,
    /// Steal ticks per window; empty when windows were not opened with
    /// [`Windows::begin`], and then every window is calm.
    steal: Vec<u64>,
    steal_at_begin: Option<u64>,
}

impl Windows {
    /// Open a window: call before its timer starts.
    pub fn begin(&mut self) {
        self.steal_at_begin = steal_ticks();
    }

    /// One window of `ops` operations taking `elapsed`, with latency
    /// samples in ns. Call after its timer stopped.
    pub fn add(&mut self, ops: usize, elapsed: Duration, latencies_ns: &mut [f64]) {
        if let (Some(a), Some(b)) = (self.steal_at_begin.take(), steal_ticks()) {
            self.steal.push(b.saturating_sub(a));
        }
        self.throughput.push(ops as f64 / elapsed.as_secs_f64());
        self.p50_us.push(quantile(latencies_ns, 0.50) / 1e3);
        self.p99_us.push(quantile(latencies_ns, 0.99) / 1e3);
        self.p999_us.push(quantile(latencies_ns, 0.999) / 1e3);
    }

    /// Indices of the calm windows.
    fn calm(&self) -> Vec<usize> {
        let n = self.p50_us.len();
        if self.steal.len() != n {
            return (0..n).collect();
        }
        let mut steal: Vec<f64> = self.steal.iter().map(|&s| s as f64).collect();
        let limit = median(&mut steal);
        (0..n).filter(|&i| self.steal[i] as f64 <= limit).collect()
    }

    fn calm_median(&self, of: &[f64]) -> f64 {
        median(&mut self.calm().into_iter().map(|i| of[i]).collect::<Vec<_>>())
    }

    pub fn median_throughput(&self) -> f64 {
        self.calm_median(&self.throughput)
    }

    pub fn median_p50_us(&self) -> f64 {
        self.calm_median(&self.p50_us)
    }

    /// Report throughput and latency medians under the end-to-end names.
    pub fn report(&self, report: &mut Report) {
        if !self.throughput.is_empty() {
            report.set("throughput_ops_s", self.median_throughput(), "ops/s");
        }
        report.set("p50_us", self.median_p50_us(), "us");
        report.set("p99_us", self.calm_median(&self.p99_us), "us");
        report.set("p999_us", self.calm_median(&self.p999_us), "us");
        report.set("windows", self.p50_us.len() as f64, "count");
        report.set("windows.calm", self.calm().len() as f64, "count");
    }
}

/// Median of set-up durations, as `setup_s`.
pub fn report_setup(report: &mut Report, setups: &[Duration]) {
    let mut secs: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    report.set("setup_s", median(&mut secs), "s");
}

/// `1 - traced / untraced` for a higher-is-better headline, or
/// `traced / untraced - 1` for a lower-is-better one: how much worse
/// the traced run read.
pub fn overhead(untraced: f64, traced: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        1.0 - traced / untraced
    } else {
        traced / untraced - 1.0
    }
}

/// Uniform index in `0..n`.
pub fn pick(rng: &mut StdRng, n: usize) -> usize {
    rng.random_range(0..n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Medians skip the windows the host stole more from than from the
    /// median window; without steal readings every window counts.
    #[test]
    fn medians_skip_windows_the_host_interrupted() {
        let mut w = Windows::default();
        for ms in [10, 40, 40, 10, 30] {
            w.add(1_000, Duration::from_millis(ms), &mut [1_000.0]);
        }
        assert!((w.median_throughput() - 1_000.0 / 0.030).abs() < 1e-6);
        w.steal = vec![0, 9, 7, 1, 0];
        assert_eq!(w.calm(), vec![0, 3, 4]);
        assert!((w.median_throughput() - 100_000.0).abs() < 1e-6);
    }
}
