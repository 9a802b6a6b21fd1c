//! Figure 5c: the adversarial sequential-insert pattern — every new key
//! is larger than all existing keys, so inserts always hit the
//! right-most leaf. The paper reports ALEX up to 11× *slower* than the
//! B+Tree here, with ALEX-PMA-ARMI the least-bad variant.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig5_sequential -- --keys 500000
//! ```

use alex_bench::cli::Args;
use alex_bench::harness::{emit_rows, run_alex, run_btree_grid, split_init, ReportFormat, CSV_HEADER};
use alex_bench::{DEFAULT_OPS, DEFAULT_SEED};
use alex_core::AlexConfig;
use alex_datasets::sequential_keys;
use alex_workloads::WorkloadKind;

fn main() {
    let args = Args::parse(&["keys", "ops", "seed", "csv"]);
    let n = args.usize("keys", 500_000);
    let ops = args.usize("ops", DEFAULT_OPS);
    let _ = args.u64("seed", DEFAULT_SEED);
    let format = ReportFormat::from_flag(args.flag("csv"));
    if format == ReportFormat::Csv {
        println!("{CSV_HEADER}");
    }

    // Init on the first quarter; the insert stream continues the strict
    // ascent.
    let keys = sequential_keys(n, 16);
    let (init_keys, inserts) = split_init(keys, n / 4);
    let data: Vec<(u64, u64)> = init_keys.iter().map(|&k| (k, k)).collect();
    let kind = WorkloadKind::WriteHeavy;

    let rows = vec![
        run_alex(
            &data,
            &init_keys,
            &inserts,
            AlexConfig::pma_armi().with_splitting(),
            kind,
            ops,
            |&k| k,
        ),
        run_alex(
            &data,
            &init_keys,
            &inserts,
            AlexConfig::ga_armi().with_splitting(),
            kind,
            ops,
            |&k| k,
        ),
        run_btree_grid(&data, &init_keys, &inserts, &[64, 128], kind, ops, |&k| k),
    ];
    let title = match format {
        ReportFormat::Table => {
            format!("Figure 5c sequential inserts / write-heavy ({} init keys)", n / 4)
        }
        ReportFormat::Csv => "fig5_sequential/write-heavy".to_string(),
    };
    emit_rows(&title, &rows, "B+Tree", format);
    if format == ReportFormat::Table {
        println!("\npaper shape: B+Tree wins decisively; ALEX-PMA-ARMI is the best ALEX variant (Fig 5c)");
    }
}
