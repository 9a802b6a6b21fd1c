//! Ablation of §3.2's *model-based insertion* (the paper's fourth
//! difference from the Learned Index; footnote 1: "model-based
//! insertion has much better search performance because it reduces the
//! misprediction error of the models").
//!
//! Same index, same data, same gaps — the only change is whether node
//! (re)builds place keys at their model-predicted slots or spread them
//! uniformly. Also compares the §7 search alternatives on the resulting
//! arrays (exponential vs pure interpolation search).
//!
//! ```sh
//! cargo run -p alex-bench --release --bin ablation_model_based -- --keys 1000000
//! ```

use std::time::Instant;

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, METRIC_CSV_HEADER};
use alex_bench::{DEFAULT_INIT_KEYS, DEFAULT_SEED};
use alex_core::search::interpolation_search_lower_bound;
use alex_core::{AlexConfig, AlexIndex};
use alex_datasets::{longitudes_keys, sorted, ScrambledZipf};

fn main() {
    let args = Args::parse(&["keys", "lookups", "seed", "csv"]);
    let n = args.usize("keys", DEFAULT_INIT_KEYS);
    let lookups = args.usize("lookups", 500_000);
    let seed = args.u64("seed", DEFAULT_SEED);
    let csv = args.flag("csv");

    let keys = sorted(longitudes_keys(n, seed));
    let data: Vec<(f64, u64)> = keys.iter().map(|&k| (k, 0)).collect();

    if csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!("Ablation: model-based vs uniform placement ({n} longitudes keys, {lookups} Zipf lookups)\n");
        println!(
            "{:<24} {:>10} {:>12} {:>14} {:>12}",
            "placement", "ns/lookup", "direct hits", "cmp/lookup", "mean |err|"
        );
    }
    for (label, cfg) in [
        ("model-based (ALEX)", AlexConfig::ga_armi()),
        ("uniform (ablated)", AlexConfig::ga_armi().without_model_based_inserts()),
    ] {
        let index = AlexIndex::bulk_load(&data, cfg);
        let mut zipf = ScrambledZipf::new(n, seed);
        let probes: Vec<f64> = (0..lookups).map(|_| keys[zipf.next_rank()]).collect();
        let t = Instant::now();
        let mut hits = 0usize;
        for k in &probes {
            hits += usize::from(index.get(k).is_some());
        }
        let ns = t.elapsed().as_nanos() as f64 / lookups as f64;
        assert_eq!(hits, lookups);
        let (l, cmp, direct) = index.read_stats();
        let errs = index.prediction_errors();
        let mean_err = errs.iter().sum::<usize>() as f64 / errs.len() as f64;
        if csv {
            emit_metric("ablation", label, "ns_per_lookup", format!("{ns:.0}"));
            emit_metric("ablation", label, "direct_hit_pct", format!("{:.1}", 100.0 * direct as f64 / l as f64));
            emit_metric("ablation", label, "cmp_per_lookup", format!("{:.2}", cmp as f64 / l as f64));
            emit_metric("ablation", label, "mean_abs_err", format!("{mean_err:.2}"));
        } else {
            println!(
                "{:<24} {:>10.0} {:>11.1}% {:>14.2} {:>12.2}",
                label,
                ns,
                100.0 * direct as f64 / l as f64,
                cmp as f64 / l as f64,
                mean_err
            );
        }
    }

    // Search-method side of the ablation (§7): pure interpolation
    // search over the dense sorted array vs ALEX's model + exponential
    // search.
    let mut zipf = ScrambledZipf::new(n, seed ^ 1);
    let probes: Vec<f64> = (0..lookups).map(|_| keys[zipf.next_rank()]).collect();
    let t = Instant::now();
    let mut acc = 0usize;
    for k in &probes {
        acc = acc.wrapping_add(interpolation_search_lower_bound(&keys, *k).pos);
    }
    core::hint::black_box(acc);
    let interp_ns = t.elapsed().as_nanos() as f64 / lookups as f64;
    if csv {
        emit_metric("ablation", "interpolation search", "ns_per_lookup", format!("{interp_ns:.0}"));
    } else {
        println!("\npure interpolation search over the dense array: {interp_ns:.0} ns/lookup");
        println!("paper claim (§3.2, §7): model-based placement cuts misprediction error, and");
        println!("linear models + exponential search beat pure interpolation search");
    }
}
