//! Table 1: dataset characteristics (scaled; see DESIGN.md).
//!
//! ```sh
//! cargo run -p alex-bench --release --bin table1_datasets -- --keys 1000000
//! # the FixedStr URL dataset instead of the paper's numeric four:
//! cargo run -p alex-bench --release --bin table1_datasets -- --keys string --n 200000
//! ```

use alex_api::FixedStr;
use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, METRIC_CSV_HEADER};
use alex_bench::DEFAULT_SEED;
use alex_datasets::{lognormal_keys, longitudes_keys, longlat_keys, url_keys, ycsb_keys, Dataset};

fn main() {
    let args = Args::parse(&["keys", "n", "seed", "csv"]);
    // `--keys` is either a count (the numeric datasets) or the literal
    // `string` (the FixedStr URL dataset, count via `--n`).
    let string_keys = args.string("keys", "") == "string";
    let n = if string_keys {
        args.usize("n", 200_000)
    } else {
        args.usize("keys", 200_000)
    };
    let seed = args.u64("seed", DEFAULT_SEED);
    let csv = args.flag("csv");

    if string_keys {
        return string_table(n, seed, csv);
    }
    if csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!("Table 1: Dataset Characteristics (scaled to {n} keys; paper used 190M-1B)\n");
        println!(
            "{:<14} {:>10} {:>12} {:>10} {:>12} {:>14}",
            "dataset", "num keys", "key type", "payload", "total MiB", "key range"
        );
    }
    for ds in Dataset::ALL {
        let (min, max, count) = match ds {
            Dataset::Longitudes => min_max_f64(&longitudes_keys(n, seed)),
            Dataset::Longlat => min_max_f64(&longlat_keys(n, seed)),
            Dataset::Lognormal => min_max_u64(&lognormal_keys(n, seed)),
            Dataset::Ycsb => min_max_u64(&ycsb_keys(n, seed)),
        };
        let total_bytes = count * (8 + ds.payload_size());
        if csv {
            emit_metric("table1", ds.name(), "num_keys", count);
            emit_metric("table1", ds.name(), "payload_bytes", ds.payload_size());
            emit_metric("table1", ds.name(), "total_bytes", total_bytes);
            emit_metric("table1", ds.name(), "key_min", format!("{min:.6e}"));
            emit_metric("table1", ds.name(), "key_max", format!("{max:.6e}"));
        } else {
            println!(
                "{:<14} {:>10} {:>12} {:>9}B {:>12.1} {:>14}",
                ds.name(),
                count,
                ds.key_type(),
                ds.payload_size(),
                total_bytes as f64 / (1 << 20) as f64,
                format!("[{min:.3e}, {max:.3e}]"),
            );
        }
    }
    if !csv {
        println!("\nread-only init size = full dataset; read-write init size = 1/4 (paper: 50M of 200M)");
    }
}

/// The string-key variant of the table: one row for the URL-shaped
/// `FixedStr<32>` dataset, with the key range shown as text.
fn string_table(n: usize, seed: u64, csv: bool) {
    let keys = url_keys::<32>(n, seed);
    let count = keys.len();
    let min = keys.iter().min().expect("non-empty");
    let max = keys.iter().max().expect("non-empty");
    let key_bytes = FixedStr::<32>::WIDTH;
    let payload = 8;
    let total_bytes = count * (key_bytes + payload);
    if csv {
        println!("{METRIC_CSV_HEADER}");
        emit_metric("table1", "urls", "num_keys", count);
        emit_metric("table1", "urls", "key_bytes", key_bytes);
        emit_metric("table1", "urls", "payload_bytes", payload);
        emit_metric("table1", "urls", "total_bytes", total_bytes);
        emit_metric("table1", "urls", "key_min", min.to_text());
        emit_metric("table1", "urls", "key_max", max.to_text());
    } else {
        println!("Table 1 (string keys): URL dataset characteristics ({n} keys requested)\n");
        println!(
            "{:<14} {:>10} {:>12} {:>10} {:>12}   key range",
            "dataset", "num keys", "key type", "payload", "total MiB"
        );
        println!(
            "{:<14} {:>10} {:>12} {:>9}B {:>12.1}   [{:?}, {:?}]",
            "urls",
            count,
            format!("{key_bytes}B str"),
            payload,
            total_bytes as f64 / (1 << 20) as f64,
            min.to_text(),
            max.to_text(),
        );
    }
}

fn min_max_f64(keys: &[f64]) -> (f64, f64, usize) {
    let min = keys.iter().copied().fold(f64::INFINITY, f64::min);
    let max = keys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, max, keys.len())
}

fn min_max_u64(keys: &[u64]) -> (f64, f64, usize) {
    let min = *keys.iter().min().expect("non-empty") as f64;
    let max = *keys.iter().max().expect("non-empty") as f64;
    (min, max, keys.len())
}
