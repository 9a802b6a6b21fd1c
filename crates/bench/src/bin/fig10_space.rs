//! Figure 10: data-space sweep — read-heavy throughput as ALEX's data
//! storage overhead grows from 20% through the B+Tree-like 43% up to
//! 2× and 3×. More gaps mean fewer fully-packed regions (faster) until
//! cache pressure wins (diminishing or negative returns on
//! easy-to-model datasets).
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig10_space -- --keys 1000000
//! ```

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, run_alex, split_init, METRIC_CSV_HEADER};
use alex_bench::{DEFAULT_INIT_KEYS, DEFAULT_OPS, DEFAULT_SEED};
use alex_core::{AlexConfig, AlexKey, NodeParams};
use alex_datasets::{lognormal_keys, longitudes_keys, longlat_keys, ycsb_keys, Dataset, Payload};
use alex_workloads::WorkloadKind;

fn main() {
    let args = Args::parse(&["keys", "ops", "seed", "csv"]);
    let n = args.usize("keys", DEFAULT_INIT_KEYS);
    let ops = args.usize("ops", DEFAULT_OPS / 2);
    let seed = args.u64("seed", DEFAULT_SEED);
    let csv = args.flag("csv");

    if csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!("Figure 10: read-heavy throughput vs data space overhead\n");
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10}   (ops/sec)",
            "dataset", "20%", "43%", "2x", "3x"
        );
    }
    for ds in Dataset::ALL {
        match ds {
            Dataset::Longitudes => {
                sweep::<f64, u64>(ds, longitudes_keys(n, seed), ops, csv, |k| k.to_bits())
            }
            Dataset::Longlat => sweep::<f64, u64>(ds, longlat_keys(n, seed), ops, csv, |k| k.to_bits()),
            Dataset::Lognormal => sweep::<u64, u64>(ds, lognormal_keys(n, seed), ops, csv, |&k| k),
            Dataset::Ycsb => {
                sweep::<u64, Payload<80>>(ds, ycsb_keys(n, seed), ops, csv, |&k| Payload::from_seed(k))
            }
        }
    }
    if !csv {
        println!("\npaper shape: more space usually helps, with diminishing (or negative, at 3x on");
        println!("lognormal/YCSB) returns; longlat barely improves (Fig 10, §5.3.1)");
    }
}

fn sweep<K, V>(ds: Dataset, keys: Vec<K>, ops: usize, csv: bool, mv: impl Fn(&K) -> V + Copy)
where
    K: AlexKey,
    V: Clone + Default,
{
    let n = keys.len();
    let (init_keys, inserts) = split_init(keys, n * 3 / 4);
    let data: Vec<(K, V)> = init_keys.iter().map(|k| (*k, mv(k))).collect();
    let mut cells = Vec::new();
    for (label, overhead) in [("20%", 0.2), ("43%", 0.43), ("2x", 2.0), ("3x", 3.0)] {
        let cfg = AlexConfig::ga_armi().with_node_params(NodeParams::with_space_overhead(overhead));
        let row = run_alex(&data, &init_keys, &inserts, cfg, WorkloadKind::ReadHeavy, ops, mv);
        if csv {
            emit_metric("fig10", ds.name(), &format!("ops_per_sec@{label}"), format!("{:.0}", row.throughput));
        }
        cells.push(row.throughput);
    }
    if !csv {
        println!(
            "{:<14} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            ds.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
}
