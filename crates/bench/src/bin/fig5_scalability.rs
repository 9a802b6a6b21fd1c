//! Figure 5a: scalability — read-heavy throughput on longitudes as the
//! number of initialization keys grows.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig5_scalability -- --max-keys 2000000
//! ```
//! `--csv` emits machine-readable rows for diffing across PRs.

use alex_bench::cli::Args;
use alex_bench::harness::{emit_rows, run_alex, run_btree_grid, split_init, ReportFormat, CSV_HEADER};
use alex_bench::{DEFAULT_OPS, DEFAULT_SEED};
use alex_core::AlexConfig;
use alex_datasets::longitudes_keys;
use alex_workloads::WorkloadKind;

fn main() {
    let args = Args::parse(&["max-keys", "ops", "seed", "csv"]);
    let max_keys = args.usize("max-keys", 2_000_000);
    let ops = args.usize("ops", DEFAULT_OPS / 2);
    let seed = args.u64("seed", DEFAULT_SEED);
    let format = ReportFormat::from_flag(args.flag("csv"));

    if format == ReportFormat::Csv {
        println!("{CSV_HEADER}");
    } else {
        println!("Figure 5a: read-heavy throughput vs init size (longitudes)\n");
        println!(
            "{:<12} {:>14} {:>14} {:>10}",
            "init keys", "ALEX ops/s", "B+Tree ops/s", "speedup"
        );
    }
    let mut init = max_keys / 16;
    while init <= max_keys {
        // Generate init + insert stream (5% of ops are inserts).
        let keys = longitudes_keys(init + ops / 10, seed);
        let (init_keys, inserts) = split_init(keys, init);
        let data: Vec<(f64, u64)> = init_keys.iter().map(|&k| (k, k.to_bits())).collect();
        let alex = run_alex(
            &data,
            &init_keys,
            &inserts,
            AlexConfig::ga_armi(),
            WorkloadKind::ReadHeavy,
            ops,
            |k| k.to_bits(),
        );
        let btree = run_btree_grid(
            &data,
            &init_keys,
            &inserts,
            &[128],
            WorkloadKind::ReadHeavy,
            ops,
            |k| k.to_bits(),
        );
        match format {
            ReportFormat::Table => println!(
                "{:<12} {:>14.0} {:>14.0} {:>9.2}x",
                init,
                alex.throughput,
                btree.throughput,
                alex.throughput / btree.throughput
            ),
            ReportFormat::Csv => emit_rows(
                &format!("fig5_scalability/{init}"),
                &[alex, btree],
                "B+Tree",
                format,
            ),
        }
        init *= 2;
    }
    if format == ReportFormat::Table {
        println!("\npaper shape: ALEX stays above B+Tree and decays slowly with scale (Fig 5a)");
    }
}
