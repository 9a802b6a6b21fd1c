//! Memory-budgeted streaming scale runs: bulk-load through the
//! `SortedBlocks` streaming generator under an explicit
//! `--mem-budget-mb` cap, sweeping the key count ×10 per step.
//!
//! The point of the run is the *loader's* memory profile, not the
//! index's: the full key set is never materialized in one `Vec`.
//! Keys arrive as globally sorted blocks, shard boundaries are fixed
//! up front from the generator's pilot quantile table
//! (`SortedBlocks::boundary_estimates`), and
//! `ShardedAlex::bulk_load_blocks` stages at most one shard's pairs
//! at a time. The bin accounts for every transient buffer it and the
//! loader hold — pilot table, peak block, peak shard staging buffer,
//! probe set, boundary list — and **asserts** the sum stays under the
//! budget. (The resident index itself necessarily holds all n keys;
//! its size is reported separately, alongside the process `VmHWM`
//! where `/proc` is available.)
//!
//! Each step also runs a zipfian read phase against a rank-strided
//! probe set, then demonstrates read-skew rebalancing: per-shard
//! lookup tallies feed `rebalance_plan`, `apply_rebalance` re-cuts
//! the boundaries, and the same zipfian sequence is replayed to show
//! the hot-shard lookup spread (max/mean) narrowing.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig_scale -- \
//!     --keys-start 100000 --steps 3 --mem-budget-mb 256
//! # machine-readable, diffable across PRs:
//! cargo run -p alex-bench --release --bin fig_scale -- --csv
//! ```
//!
//! Expected shape: `load_keys_per_sec` and `read_ops_per_sec` stay
//! near-flat as keys grow ×10 per step (the streaming loader is O(1)
//! in transient memory and linear in work; reads are O(depth) which
//! grows only logarithmically), while `transient_peak_mb` stays under
//! the budget at every step. `lookup_spread_after` lands well below
//! `lookup_spread_before` on every step with real skew.

use std::time::Instant;

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, ReportFormat, METRIC_CSV_HEADER};
use alex_bench::DEFAULT_SEED;
use alex_core::AlexConfig;
use alex_datasets::{SortedBlocks, Zipf};
use alex_sharded::ShardedAlex;

const RUN: &str = "fig_scale";

/// Bytes per streamed (key, payload) pair.
const PAIR_BYTES: usize = core::mem::size_of::<(u64, u64)>();

/// Pilot quantile table held by `SortedBlocks` (see its docs).
const PILOT_BYTES: usize = 65_536 * 8;

/// Probe-set size for the read phase: keys kept at a fixed rank
/// stride during streaming, so reads never need the full key set
/// either.
const PROBE_KEYS: usize = 65_536;

/// Max/mean of per-shard lookup deltas — 1.0 is perfectly even.
fn lookup_spread(deltas: &[u64]) -> f64 {
    let max = deltas.iter().copied().max().unwrap_or(0) as f64;
    let mean = deltas.iter().sum::<u64>() as f64 / deltas.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Per-shard lookup counts.
fn shard_lookups(index: &ShardedAlex<u64, u64>) -> Vec<u64> {
    index.shard_read_stats().iter().map(|s| s.lookups).collect()
}

/// `VmHWM` (peak RSS) in bytes, where `/proc` exists; 0 elsewhere.
fn vm_hwm_bytes() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: usize = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

struct StepResult {
    n: usize,
    shards: usize,
    load_secs: f64,
    read_secs: f64,
    reads: usize,
    peak_block_bytes: usize,
    staging_peak_bytes: usize,
    transient_bytes: usize,
    index_bytes: usize,
    spread_before: f64,
    spread_after: f64,
    moved_keys: usize,
}

impl StepResult {
    fn report(&self, format: ReportFormat, budget_mb: usize) {
        let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
        let load_tp = self.n as f64 / self.load_secs.max(1e-12);
        let read_tp = self.reads as f64 / self.read_secs.max(1e-12);
        let label = format!("n={}", self.n);
        match format {
            ReportFormat::Csv => {
                emit_metric(RUN, &label, "load_keys_per_sec", format!("{load_tp:.0}"));
                emit_metric(RUN, &label, "read_ops_per_sec", format!("{read_tp:.0}"));
                emit_metric(RUN, &label, "shards", self.shards);
                emit_metric(RUN, &label, "peak_block_bytes", self.peak_block_bytes);
                emit_metric(RUN, &label, "staging_peak_bytes", self.staging_peak_bytes);
                emit_metric(
                    RUN,
                    &label,
                    "transient_peak_mb",
                    format!("{:.2}", mb(self.transient_bytes)),
                );
                emit_metric(RUN, &label, "budget_mb", budget_mb);
                emit_metric(RUN, &label, "index_mb", format!("{:.2}", mb(self.index_bytes)));
                emit_metric(
                    RUN,
                    &label,
                    "lookup_spread_before",
                    format!("{:.2}", self.spread_before),
                );
                emit_metric(
                    RUN,
                    &label,
                    "lookup_spread_after",
                    format!("{:.2}", self.spread_after),
                );
                emit_metric(RUN, &label, "rebalance_moved_keys", self.moved_keys);
            }
            ReportFormat::Table => {
                println!(
                    "{:<12} {:>7} {:>14.0} {:>14.0} {:>12.2} {:>10.2} {:>8.2} {:>8.2} {:>10}",
                    label,
                    self.shards,
                    load_tp,
                    read_tp,
                    mb(self.transient_bytes),
                    mb(self.index_bytes),
                    self.spread_before,
                    self.spread_after,
                    self.moved_keys,
                );
            }
        }
    }
}

/// One keys-count step: stream-load under the budget, zipfian reads,
/// rebalance, replay.
fn run_step(n: usize, budget_bytes: usize, reads: usize, rounds: usize, seed: u64) -> StepResult {
    // Shard count: aim the *average* staging buffer at budget/8 so a
    // skew-inflated worst shard (lognormal quantile cuts are rough)
    // still fits; block size: at most budget/8 of pairs per block.
    let shards = (n * PAIR_BYTES).div_ceil((budget_bytes / 8).max(1)).max(4);
    let block_size = ((budget_bytes / 8) / PAIR_BYTES).clamp(1024, 1 << 20);

    let stream = SortedBlocks::lognormal(n, block_size, seed);
    let boundaries = stream.boundary_estimates(shards);
    let shards = boundaries.len() + 1; // observable effective count

    // Wrap the stream: pair each key with its rank, keep a strided
    // probe set for the read phase, track the peak block footprint.
    let probe_stride = (n / PROBE_KEYS).max(1);
    let mut probe: Vec<u64> = Vec::with_capacity(n.div_ceil(probe_stride).min(PROBE_KEYS + 1));
    let mut peak_block_bytes = 0usize;
    let mut rank = 0usize;
    let load_start = Instant::now();
    let index = {
        // Borrows end with this scope so the accounting below can
        // read `probe`/`peak_block_bytes` again.
        let probe = &mut probe;
        let peak = &mut peak_block_bytes;
        let rank = &mut rank;
        let blocks = stream.map(move |block| {
            *peak = (*peak).max(block.len() * PAIR_BYTES);
            block
                .into_iter()
                .map(|k| {
                    if (*rank).is_multiple_of(probe_stride) {
                        probe.push(k);
                    }
                    *rank += 1;
                    (k, *rank as u64)
                })
                .collect::<Vec<(u64, u64)>>()
        });
        ShardedAlex::bulk_load_blocks(blocks, boundaries, AlexConfig::ga_armi())
    };
    let load_secs = load_start.elapsed().as_secs_f64();
    assert_eq!(index.len(), n, "every streamed key must land");

    // Transient accounting: everything the loader + this bin held
    // beyond the resident index. The staging buffer inside
    // `bulk_load_blocks` peaks at the largest shard it built.
    let staging_peak_bytes =
        index.shard_lens().into_iter().max().unwrap_or(0) * PAIR_BYTES;
    let transient_bytes = PILOT_BYTES
        + peak_block_bytes
        + staging_peak_bytes
        + probe.len() * 8
        + index.boundaries().len() * 8;
    assert!(
        transient_bytes <= budget_bytes,
        "transient load memory {transient_bytes}B exceeds the {budget_bytes}B budget \
         (n={n}, shards={shards}, block={block_size})"
    );

    // Zipfian read phase: rank 0 (the most popular) is the smallest
    // probe key, so the lookup mass piles onto the low shards.
    let mut zipf = Zipf::new(probe.len(), seed ^ 0x5CA1E);
    let before_phase = shard_lookups(&index);
    let read_start = Instant::now();
    for _ in 0..reads {
        let key = probe[zipf.next_rank()];
        std::hint::black_box(index.get(&key));
    }
    let read_secs = read_start.elapsed().as_secs_f64();
    let after_phase = shard_lookups(&index);
    let deltas: Vec<u64> =
        after_phase.iter().zip(&before_phase).map(|(a, b)| a - b).collect();
    let spread_before = lookup_spread(&deltas);

    // Rebalance on the observed skew, then replay the same zipfian
    // sequence against the re-cut boundaries. Several rounds: the
    // planner spreads each shard's lookup mass uniformly over its
    // keys, while zipfian mass is front-loaded within the hot shard,
    // so each round overshoots geometrically less.
    let mut index = index;
    let mut moved_keys = 0;
    let mut spread_after = spread_before;
    for _ in 0..rounds {
        let Some(plan) = index.rebalance_plan() else { break };
        moved_keys += index.apply_rebalance(&plan).moved_keys;
        let mut zipf = Zipf::new(probe.len(), seed ^ 0x5CA1E);
        let before_phase = shard_lookups(&index);
        for _ in 0..reads {
            let key = probe[zipf.next_rank()];
            std::hint::black_box(index.get(&key));
        }
        let after_phase = shard_lookups(&index);
        let deltas: Vec<u64> =
            after_phase.iter().zip(&before_phase).map(|(a, b)| a - b).collect();
        spread_after = lookup_spread(&deltas);
    }

    let size = index.size_report();
    StepResult {
        n,
        shards,
        load_secs,
        read_secs,
        reads,
        peak_block_bytes,
        staging_peak_bytes,
        transient_bytes,
        index_bytes: size.index_bytes + size.data_bytes,
        spread_before,
        spread_after,
        moved_keys,
    }
}

fn main() {
    let args = Args::parse(&[
        "keys-start",
        "steps",
        "mem-budget-mb",
        "reads",
        "rebalance-rounds",
        "seed",
        "csv",
    ]);
    let keys_start = args.usize("keys-start", 100_000);
    let steps = args.usize("steps", 3);
    let budget_mb = args.usize("mem-budget-mb", 256);
    let reads = args.usize("reads", 200_000);
    let rounds = args.usize("rebalance-rounds", 4);
    let seed = args.u64("seed", DEFAULT_SEED);
    let format = ReportFormat::from_flag(args.flag("csv"));
    let budget_bytes = budget_mb * 1024 * 1024;

    if format == ReportFormat::Csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!(
            "Streaming scale sweep: {steps} steps from {keys_start} keys (x10 each), \
             {budget_mb} MiB transient budget, {reads} zipfian reads per step"
        );
        println!(
            "{:<12} {:>7} {:>14} {:>14} {:>12} {:>10} {:>8} {:>8} {:>10}",
            "step", "shards", "load keys/s", "read ops/s", "transientMB", "indexMB",
            "spread", "after", "moved"
        );
    }

    let mut n = keys_start;
    for _ in 0..steps {
        let result = run_step(n, budget_bytes, reads, rounds, seed);
        result.report(format, budget_mb);
        n *= 10;
    }

    if format == ReportFormat::Csv {
        emit_metric(RUN, "process", "vm_hwm_mb", format!("{:.1}", vm_hwm_bytes() as f64 / (1024.0 * 1024.0)));
    } else {
        println!(
            "\nprocess VmHWM: {:.1} MiB (resident index included; the budget governs \
             transient load memory)",
            vm_hwm_bytes() as f64 / (1024.0 * 1024.0)
        );
        println!("shape: load and read throughput stay near-flat across x10 steps; spread narrows after rebalance");
    }
}
