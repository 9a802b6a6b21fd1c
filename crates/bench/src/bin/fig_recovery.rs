//! Recovery cost of the durability subsystem: how long a crashed
//! `DurableAlex` takes to come back as a function of the WAL tail it
//! must replay past the newest leaf snapshot.
//!
//! For each tail length the run bulk-creates an index (which writes a
//! snapshot immediately), appends that many logged inserts with fsync
//! off, simulates a crash by dropping the handle, and times
//! `DurableAlex::open` — snapshot page load plus run-batched tail
//! replay. The `tail=0` row isolates the pure snapshot-load floor.
//! Reported per row: `recovery_ms`, `replayed`, `replay_ops_per_sec`
//! (replayed records per second of recovery), `wal_bytes`, and
//! `append_ops_per_sec` for the logging side of the same tail.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig_recovery -- \
//!     --keys 200000 --max-tail 200000
//! # machine-readable, diffable across PRs:
//! cargo run -p alex-bench --release --bin fig_recovery -- --csv
//! ```
//!
//! Expected shape: recovery time is flat at the snapshot-load floor
//! for short tails and grows linearly in the tail length; replay
//! throughput approaches batch-insert throughput because maximal
//! sorted runs go through `bulk_insert` rather than point upserts.

use std::time::Instant;

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, ReportFormat, METRIC_CSV_HEADER};
use alex_core::AlexConfig;
use alex_wal::tempdir::TempDir;
use alex_wal::{DurableAlex, SyncPolicy, WalOptions};

const RUN: &str = "fig_recovery";

fn wal_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| {
            e.file_name().to_str().is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .map(|e| e.metadata().unwrap().len())
        .sum()
}

fn main() {
    let args = Args::parse(&["keys", "max-tail", "csv"]);
    let n = args.usize("keys", 200_000);
    let max_tail = args.usize("max-tail", n);
    let format = ReportFormat::from_flag(args.flag("csv"));

    let config = AlexConfig::ga_armi().with_splitting();
    let opts = WalOptions {
        sync: SyncPolicy::Never, // measure CPU + page cache, not the disk
        group_commit_ops: 64,
        ..WalOptions::default()
    };
    let init: Vec<(u64, u64)> = (0..n as u64).map(|k| (2 * k, k)).collect();
    let tails: Vec<usize> =
        [0usize, max_tail / 16, max_tail / 4, max_tail].into_iter().filter(|t| *t <= max_tail).collect();

    if format == ReportFormat::Csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!("Recovery cost: {n} snapshotted keys, WAL tail sweep (fsync off)");
        println!(
            "{:<14} {:>12} {:>12} {:>18} {:>12} {:>18}",
            "tail", "recovery_ms", "replayed", "replay_ops_per_sec", "wal_kb", "append_ops_per_sec"
        );
    }

    for tail in tails {
        let dir = TempDir::new("fig-recovery");
        let index = DurableAlex::create(dir.path(), &init, config, opts)
            .expect("create on a fresh temp dir");

        // The logged tail: odd keys interleaved between the loaded
        // evens, so replay exercises real model adjustments.
        let t = Instant::now();
        for j in 0..tail as u64 {
            index.insert(2 * j + 1, j).expect("fresh odd key");
        }
        index.flush_wal().expect("flush");
        let append_secs = t.elapsed().as_secs_f64();
        drop(index); // crash

        let bytes = wal_bytes(dir.path());
        let t = Instant::now();
        let (back, report) =
            DurableAlex::<u64, u64>::open(dir.path(), config, opts).expect("recover");
        let recovery_secs = t.elapsed().as_secs_f64();
        assert_eq!(back.len(), n + tail, "recovery must land every record");
        assert_eq!(report.replayed, tail, "tail replay must skip the snapshotted prefix");

        let label = format!("tail={tail}");
        let recovery_ms = recovery_secs * 1e3;
        let replay_rate = report.replayed as f64 / recovery_secs.max(1e-12);
        let append_rate = tail as f64 / append_secs.max(1e-12);
        match format {
            ReportFormat::Csv => {
                emit_metric(RUN, &label, "recovery_ms", format!("{recovery_ms:.2}"));
                emit_metric(RUN, &label, "replayed", report.replayed);
                emit_metric(RUN, &label, "replay_ops_per_sec", format!("{replay_rate:.0}"));
                emit_metric(RUN, &label, "wal_bytes", bytes);
                emit_metric(RUN, &label, "append_ops_per_sec", format!("{append_rate:.0}"));
            }
            ReportFormat::Table => {
                println!(
                    "{:<14} {:>12.2} {:>12} {:>18.0} {:>12} {:>18.0}",
                    label,
                    recovery_ms,
                    report.replayed,
                    replay_rate,
                    bytes / 1024,
                    append_rate
                );
            }
        }
    }

    if format == ReportFormat::Table {
        println!("\nshape: flat snapshot-load floor at tail=0, then linear in tail length");
    }
}
