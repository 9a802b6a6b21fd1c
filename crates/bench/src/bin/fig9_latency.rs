//! Figure 9: insert-latency distribution over 1000-insert minibatches
//! on a write-only longitudes workload. Static RMI lets individual
//! nodes grow huge, so an expansion-triggering insert stalls the batch
//! (up to 200× tail inflation in the paper); adaptive RMI bounds node
//! sizes and keeps tail latencies near the B+Tree's.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig9_latency -- --keys 500000
//! ```

use std::time::Instant;

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, percentile, split_init, METRIC_CSV_HEADER};
use alex_bench::DEFAULT_SEED;
use alex_btree::BPlusTree;
use alex_core::{AlexConfig, AlexIndex};
use alex_datasets::longitudes_keys;

const MINIBATCH: usize = 1000;

fn main() {
    let args = Args::parse(&["keys", "seed", "csv"]);
    let n = args.usize("keys", 500_000);
    let seed = args.u64("seed", DEFAULT_SEED);
    let csv = args.flag("csv");

    let keys = longitudes_keys(n, seed);
    let (init_keys, inserts) = split_init(keys, n / 5);
    let data: Vec<(f64, u64)> = init_keys.iter().map(|&k| (k, 0)).collect();

    if csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!(
            "Figure 9: write-only insert latency per {MINIBATCH}-insert minibatch ({} inserts)\n",
            inserts.len()
        );
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>12}",
            "index", "median us", "p99 us", "p99.9 us", "max us"
        );
    }

    let srmi_leaves = (init_keys.len() / 8192).max(4);
    for cfg in [AlexConfig::pma_srmi(srmi_leaves), AlexConfig::ga_armi().with_splitting()] {
        let mut alex = AlexIndex::bulk_load(&data, cfg);
        let mut lat = Vec::new();
        for chunk in inserts.chunks(MINIBATCH) {
            let t = Instant::now();
            for &k in chunk {
                alex.insert(k, 0).expect("unique keys");
            }
            lat.push(t.elapsed().as_secs_f64() * 1e6);
        }
        report(&cfg.variant_name(), &mut lat, csv);
    }

    let mut tree = BPlusTree::bulk_load(&data, 128, 128, 0.7);
    let mut lat = Vec::new();
    for chunk in inserts.chunks(MINIBATCH) {
        let t = Instant::now();
        for &k in chunk {
            tree.insert(k, 0);
        }
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report("B+Tree", &mut lat, csv);

    if !csv {
        println!("\npaper shape: PMA-SRMI has low medians but tail latencies up to 200x GA-ARMI's;");
        println!("GA-ARMI tails are competitive with B+Tree (Fig 9, §5.3)");
    }
}

fn report(label: &str, lat: &mut [f64], csv: bool) {
    if csv {
        for (metric, p) in [("p50_us", 0.5), ("p99_us", 0.99), ("p999_us", 0.999), ("max_us", 1.0)] {
            emit_metric("fig9", label, metric, format!("{:.1}", percentile(lat, p)));
        }
    } else {
        println!(
            "{:<16} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            label,
            percentile(lat, 0.5),
            percentile(lat, 0.99),
            percentile(lat, 0.999),
            percentile(lat, 1.0),
        );
    }
}
