//! Figure 7: prediction-error histograms. The Learned Index's errors
//! mode around 8–32 positions with a long right tail; ALEX's
//! model-based inserts leave most keys exactly where predicted, both
//! right after initialization and after further inserts.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig7_prediction_error -- --keys 1000000
//! ```

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, METRIC_CSV_HEADER};
use alex_bench::{DEFAULT_INIT_KEYS, DEFAULT_SEED};
use alex_core::{AlexConfig, AlexIndex};
use alex_datasets::{longitudes_keys, sorted};
use alex_learned_index::LearnedIndex;

fn main() {
    let args = Args::parse(&["keys", "seed", "csv"]);
    let n = args.usize("keys", DEFAULT_INIT_KEYS);
    let seed = args.u64("seed", DEFAULT_SEED);
    let insert_extra = n / 5; // "after 20M inserts" on a 100M init, scaled
    let csv = args.flag("csv");
    if csv {
        println!("{METRIC_CSV_HEADER}");
    }

    let keys = longitudes_keys(n + insert_extra, seed);
    let (init, extra) = keys.split_at(n);
    let init_sorted = sorted(init.to_vec());
    let data: Vec<(f64, u64)> = init_sorted.iter().map(|&k| (k, 0)).collect();

    // (a) Learned Index after initialization.
    let li = LearnedIndex::bulk_load(&data, (n / 1000).max(16));
    print_histogram("Learned Index (after init)", &li.prediction_errors(), csv);

    // (b) ALEX after initialization.
    let mut alex = AlexIndex::bulk_load(&data, AlexConfig::ga_armi());
    print_histogram("ALEX-GA-ARMI (after init)", &alex.prediction_errors(), csv);

    // (c) ALEX after 20% more inserts.
    for &k in extra {
        alex.insert(k, 0).expect("generator produces unique keys");
    }
    print_histogram(
        &format!("ALEX-GA-ARMI (after {insert_extra} inserts)"),
        &alex.prediction_errors(),
        csv,
    );

    if !csv {
        println!("\npaper shape: LI mode at 8-32 with a long tail; ALEX mode at 0, tail gone (Fig 7)");
    }
}

/// Log-scale buckets: 0, 1, 2, 3-4, 5-8, ..., like the paper's x-axis.
fn print_histogram(label: &str, errors: &[usize], csv: bool) {
    let mut buckets = [0usize; 24];
    for &e in errors {
        let b = match e {
            0 => 0,
            _ => (usize::BITS - (e).leading_zeros()) as usize, // 1->1, 2->2, 3..4->3, 5..8->4? (log2 ceil)
        };
        buckets[b.min(23)] += 1;
    }
    if csv {
        emit_metric("fig7", label, "mean_err", format!("{:.2}", mean(errors)));
    } else {
        println!("\n{label}: {} keys, mean error {:.2}", errors.len(), mean(errors));
    }
    for (b, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let range = match b {
            0 => "0".to_string(),
            1 => "1".to_string(),
            _ => format!("{}-{}", (1usize << (b - 1)) + 1, 1usize << b),
        };
        let pct = 100.0 * count as f64 / errors.len() as f64;
        if csv {
            emit_metric("fig7", label, &format!("err_{range}"), count);
        } else {
            println!("  err {:>12}: {:>8} ({:>5.1}%) {}", range, count, pct, bar(pct));
        }
    }
}

fn mean(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<usize>() as f64 / xs.len() as f64
}

fn bar(pct: f64) -> String {
    "#".repeat((pct / 2.0).round() as usize)
}
