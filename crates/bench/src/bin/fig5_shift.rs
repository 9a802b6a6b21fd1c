//! Figure 5b: dataset distribution shift — initialize on the low half
//! of the sorted key domain, insert only the (disjoint) high half.
//! ALEX uses node splitting on inserts here (§5.2.5).
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig5_shift -- --keys 1000000
//! ```

use alex_bench::cli::Args;
use alex_bench::harness::{emit_rows, run_alex, run_btree_grid, ReportFormat, CSV_HEADER};
use alex_bench::{DEFAULT_INIT_KEYS, DEFAULT_OPS, DEFAULT_SEED};
use alex_core::AlexConfig;
use alex_datasets::{longitudes_keys, sorted};
use alex_workloads::WorkloadKind;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["keys", "ops", "seed", "csv"]);
    let n = args.usize("keys", DEFAULT_INIT_KEYS);
    let ops = args.usize("ops", DEFAULT_OPS);
    let seed = args.u64("seed", DEFAULT_SEED);
    let format = ReportFormat::from_flag(args.flag("csv"));
    if format == ReportFormat::Csv {
        println!("{CSV_HEADER}");
    }

    // Paper: sort the keys, shuffle the first half and the rest
    // separately; init on the first half, insert the rest. Init and
    // insert domains are completely disjoint.
    let keys = sorted(longitudes_keys(n, seed));
    let half = n / 2;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut low = keys[..half].to_vec();
    let mut high = keys[half..].to_vec();
    low.shuffle(&mut rng);
    high.shuffle(&mut rng);
    let init_sorted = sorted(low);
    let data: Vec<(f64, u64)> = init_sorted.iter().map(|&k| (k, k.to_bits())).collect();

    for kind in [WorkloadKind::ReadHeavy, WorkloadKind::WriteHeavy] {
        let rows = vec![
            run_alex(
                &data,
                &init_sorted,
                &high,
                AlexConfig::ga_armi().with_splitting(),
                kind,
                ops,
                |k| k.to_bits(),
            ),
            run_btree_grid(&data, &init_sorted, &high, &[64, 128], kind, ops, |k| k.to_bits()),
        ];
        let title = match format {
            ReportFormat::Table => {
                format!("Figure 5b distribution shift / {} ({} init keys)", kind.name(), half)
            }
            ReportFormat::Csv => format!("fig5_shift/{}", kind.name()),
        };
        emit_rows(&title, &rows, "B+Tree", format);
    }
    if format == ReportFormat::Table {
        println!("\npaper shape: ALEX stays competitive with B+Tree under moderate shift (Fig 5b)");
    }
}
