//! Figure 12 (Appendix B): leaf-size distributions under static vs.
//! adaptive RMI initialization on longitudes. Static RMI wastes leaves
//! (near-empty models) and produces oversized leaves prone to
//! fully-packed regions; adaptive RMI concentrates leaves just under
//! the max-keys bound.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig12_leaf_sizes -- --keys 1000000
//! ```

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, METRIC_CSV_HEADER};
use alex_bench::{DEFAULT_INIT_KEYS, DEFAULT_SEED};
use alex_core::{AlexConfig, AlexIndex};
use alex_datasets::{longitudes_keys, sorted};

fn main() {
    let args = Args::parse(&["keys", "seed", "max-node-keys", "csv"]);
    let n = args.usize("keys", DEFAULT_INIT_KEYS);
    let seed = args.u64("seed", DEFAULT_SEED);
    let max_keys = args.usize("max-node-keys", 8192);
    let csv = args.flag("csv");
    if csv {
        println!("{METRIC_CSV_HEADER}");
    }

    let keys = sorted(longitudes_keys(n, seed));
    let data: Vec<(f64, u64)> = keys.iter().map(|&k| (k, 0)).collect();

    let num_static_leaves = (n / max_keys).max(4);
    for (label, cfg) in [
        ("static RMI", AlexConfig::ga_srmi(num_static_leaves)),
        ("adaptive RMI", AlexConfig::ga_armi().with_max_node_keys(max_keys)),
    ] {
        let index = AlexIndex::bulk_load(&data, cfg);
        let sizes = index.leaf_sizes();
        print_distribution(label, &sizes, max_keys, csv);
    }
    if !csv {
        println!("\npaper shape: static RMI has both wasted (tiny) and oversized leaves; adaptive RMI");
        println!("caps every leaf at max-keys with far fewer wasted leaves (Fig 12, App. B)");
    }
}

fn print_distribution(label: &str, sizes: &[usize], max_keys: usize, csv: bool) {
    let wasted = sizes.iter().filter(|&&s| s < max_keys / 64).count();
    let oversized = sizes.iter().filter(|&&s| s > max_keys).count();
    let max = sizes.iter().copied().max().unwrap_or(0);
    if csv {
        emit_metric("fig12", label, "leaves", sizes.len());
        emit_metric("fig12", label, "wasted", wasted);
        emit_metric("fig12", label, "oversized", oversized);
        emit_metric("fig12", label, "largest", max);
        return;
    }
    println!(
        "\n{label}: {} leaves, {} wasted (<{} keys), {} over the {}-key bound, largest {}",
        sizes.len(),
        wasted,
        max_keys / 64,
        oversized,
        max_keys,
        max
    );
    // Histogram in max_keys/8 buckets.
    let bucket_w = (max_keys / 8).max(1);
    let num_buckets = max / bucket_w + 1;
    let mut hist = vec![0usize; num_buckets + 1];
    for &s in sizes {
        hist[s / bucket_w] += 1;
    }
    for (b, &count) in hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        println!(
            "  {:>8}-{:<8} {:>6} {}",
            b * bucket_w,
            (b + 1) * bucket_w - 1,
            count,
            "#".repeat((count * 40 / sizes.len()).max(1))
        );
    }
}
