//! Figure 8: shifts per insert. The Learned Index's gap-less dense
//! array shifts half the array per insert; the PMA layout and the
//! adaptive RMI each cut shifts by an order of magnitude or more by
//! avoiding (PMA) or bounding (ARMI) fully-packed regions.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig8_shifts -- --keys 400000
//! ```

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, split_init, METRIC_CSV_HEADER};
use alex_bench::DEFAULT_SEED;
use alex_core::{AlexConfig, AlexIndex};
use alex_datasets::longitudes_keys;
use alex_learned_index::{DeltaLearnedIndex, LearnedIndex};

fn main() {
    let args = Args::parse(&["keys", "seed", "csv"]);
    let n = args.usize("keys", 400_000);
    let seed = args.u64("seed", DEFAULT_SEED);
    let csv = args.flag("csv");

    let keys = longitudes_keys(n, seed);
    let (init_keys, inserts) = split_init(keys, n / 2);
    let data: Vec<(f64, u64)> = init_keys.iter().map(|&k| (k, 0)).collect();

    if csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!(
            "Figure 8: average shifts per insert ({} init keys, {} inserts, longitudes)\n",
            init_keys.len(),
            inserts.len()
        );
        println!(
            "{:<16} {:>14} {:>18} {:>14}",
            "index", "shifts/insert", "rebalance moves", "expansions"
        );
    }

    // Learned Index: one dense sorted array, naive shifting inserts.
    let mut li = LearnedIndex::bulk_load(&data, (init_keys.len() / 1000).max(16));
    for &k in &inserts {
        li.insert(k, 0);
    }
    let li_stats = li.stats();
    if csv {
        emit_metric(
            "fig8",
            "Learned Index",
            "shifts_per_insert",
            format!("{:.1}", li_stats.shifts as f64 / li_stats.inserts as f64),
        );
    } else {
        println!(
            "{:<16} {:>14.1} {:>18} {:>14}",
            "Learned Index",
            li_stats.shifts as f64 / li_stats.inserts as f64,
            "-",
            "-"
        );
    }

    // Static RMI with coarse partitions (large, skew-prone leaves) vs
    // adaptive RMI with a tight per-leaf bound — the §5.3 comparison.
    // Delta-index Learned Index (§2.3's suggested alternative): no
    // per-insert shifts, but periodic O(n) merge moves.
    let mut dli = DeltaLearnedIndex::bulk_load(&data, (init_keys.len() / 1000).max(16));
    for &k in &inserts {
        dli.insert(k, 0);
    }
    let (merges, moves) = dli.merge_stats();
    if csv {
        emit_metric(
            "fig8",
            "LI + delta",
            "shifts_per_insert",
            format!("{:.1}", moves as f64 / inserts.len() as f64),
        );
        emit_metric("fig8", "LI + delta", "merges", merges);
    } else {
        println!(
            "{:<16} {:>14.1} {:>18} {:>14}",
            "LI + delta",
            moves as f64 / inserts.len() as f64,
            format!("{merges} merges"),
            "-"
        );
    }

    let srmi_leaves = (init_keys.len() / 16384).max(4);
    for cfg in [
        AlexConfig::ga_srmi(srmi_leaves),
        AlexConfig::pma_srmi(srmi_leaves),
        AlexConfig::ga_armi().with_max_node_keys(2048),
        AlexConfig::pma_armi().with_max_node_keys(2048),
    ] {
        let mut alex = AlexIndex::bulk_load(&data, cfg);
        for &k in &inserts {
            alex.insert(k, 0).expect("unique keys");
        }
        let w = alex.write_stats();
        if csv {
            let label = cfg.variant_name();
            emit_metric("fig8", &label, "shifts_per_insert", format!("{:.2}", w.shifts_per_insert()));
            emit_metric("fig8", &label, "rebalance_moves", w.rebalance_moves);
            emit_metric("fig8", &label, "expansions", w.expansions);
        } else {
            println!(
                "{:<16} {:>14.2} {:>18} {:>14}",
                cfg.variant_name(),
                w.shifts_per_insert(),
                w.rebalance_moves,
                w.expansions
            );
        }
    }

    if !csv {
        println!("\npaper shape: LI worst by orders of magnitude; PMA cuts GA-SRMI shifts ~45x;");
        println!("ARMI cuts GA shifts ~37x; with ARMI the GA/PMA gap closes (Fig 8, §5.3)");
    }
}
