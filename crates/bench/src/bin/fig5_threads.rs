//! Thread scalability (the paper's §7 follow-up direction): aggregate
//! throughput of the YCSB mixes served by `ShardedAlex` as worker
//! threads grow. Two baselines are reported: the plain single-threaded
//! `AlexIndex` driver (`AlexIndex st` — no locks, no shard routing),
//! and `ShardedAlex` at 1 thread (`1 threads`, the speedup
//! denominator); the gap between those two is the locking/routing
//! overhead the sharding layer costs.
//!
//! Open-loop serving latency (Poisson arrivals through the
//! `alex-server` worker pool) is `server_loadgen --rate`'s job.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig5_threads -- \
//!     --max-threads 8 --keys 1000000 --ops 1000000 --workload read-only
//! # machine-readable, diffable across PRs:
//! cargo run -p alex-bench --release --bin fig5_threads -- --csv
//! ```

use alex_bench::cli::Args;
use alex_bench::harness::{emit_rows, run_alex, split_init, ReportFormat, Row, CSV_HEADER};
use alex_bench::{DEFAULT_INIT_KEYS, DEFAULT_OPS, DEFAULT_SEED};
use alex_core::AlexConfig;
use alex_datasets::longitudes_keys;
use alex_sharded::ShardedAlex;
use alex_workloads::{run_workload_mt, WorkloadKind, WorkloadSpec};

fn main() {
    let args = Args::parse(&[
        "keys",
        "ops",
        "seed",
        "max-threads",
        "shards",
        "workload",
        "csv",
    ]);
    let n = args.usize("keys", DEFAULT_INIT_KEYS);
    let ops = args.usize("ops", DEFAULT_OPS);
    let seed = args.u64("seed", DEFAULT_SEED);
    let max_threads = args.usize("max-threads", 8);
    let shards = args.usize("shards", max_threads.max(2));
    let workload = args.string("workload", "read-only");
    let format = ReportFormat::from_flag(args.flag("csv"));

    let kinds: Vec<WorkloadKind> = WorkloadKind::parse_selection(&workload);

    if format == ReportFormat::Csv {
        println!("{CSV_HEADER}");
    } else {
        println!(
            "Thread scalability: ShardedAlex[{shards}] on longitudes ({n} init keys, {ops} ops/run)"
        );
    }

    for kind in kinds {
        // Read-only initializes with the full dataset; mixes with
        // inserts hold back a pool large enough for every thread.
        let total = if kind == WorkloadKind::ReadOnly { n } else { n + ops };
        let keys = longitudes_keys(total, seed);
        let (init_keys, inserts) = split_init(keys, n);
        let data: Vec<(f64, u64)> = init_keys.iter().map(|&k| (k, k.to_bits())).collect();

        let mut rows = Vec::new();
        // True single-threaded baseline: plain AlexIndex, no locks.
        let mut st = run_alex(
            &data,
            &init_keys,
            &inserts,
            AlexConfig::ga_armi(),
            kind,
            ops,
            |k| k.to_bits(),
        );
        st.label = "AlexIndex st".to_string();
        rows.push(st);
        let mut threads = 1usize;
        while threads <= max_threads {
            // Fresh index per run: insert-bearing mixes mutate it.
            let index = ShardedAlex::bulk_load(&data, shards, AlexConfig::ga_armi());
            let spec = WorkloadSpec::new(kind, ops);
            let report = run_workload_mt(&index, &init_keys, &inserts, &spec, threads, |k| {
                k.to_bits()
            });
            rows.push(Row::from_report(&report, Some(format!("{threads} threads"))));
            threads *= 2;
        }
        emit_rows(
            &format!("fig5_threads/{}", kind.name()),
            &rows,
            "1 threads",
            format,
        );
        if format == ReportFormat::Table {
            let base = rows
                .iter()
                .find(|r| r.label == "1 threads")
                .expect("1-thread run always present")
                .throughput;
            let best = rows.last().expect("at least one run");
            println!(
                "speedup at {}: {:.2}x over 1 thread ({})",
                best.label,
                best.throughput / base,
                kind.name()
            );
        }
    }
    if format == ReportFormat::Table {
        println!("\npaper shape: read-dominated mixes scale near-linearly until shards contend");
    }
}
