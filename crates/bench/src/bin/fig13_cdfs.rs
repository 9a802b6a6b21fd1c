//! Figures 13 & 14 (Appendix C): dataset CDFs, global and zoomed. The
//! zoomed views show why longlat is hard: its local CDF is a step
//! function (one step per longitude strip), while longitudes stays
//! smooth at every scale.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig13_cdfs -- --keys 200000 --points 20
//! ```

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, METRIC_CSV_HEADER};
use alex_bench::DEFAULT_SEED;
use alex_datasets::{
    cdf_points, lognormal_keys, longitudes_keys, longlat_keys, sorted, ycsb_keys, zoomed_cdf_points,
    Dataset,
};

fn main() {
    let args = Args::parse(&["keys", "points", "seed", "csv"]);
    let n = args.usize("keys", 200_000);
    let points = args.usize("points", 16);
    let seed = args.u64("seed", DEFAULT_SEED);
    let csv = args.flag("csv");

    if csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!("Figure 13: global CDFs ({n} keys, {points} sample points)\n");
    }
    for ds in Dataset::ALL {
        match ds {
            Dataset::Longitudes => print_cdf_f64(ds, &sorted(longitudes_keys(n, seed)), points, csv),
            Dataset::Longlat => print_cdf_f64(ds, &sorted(longlat_keys(n, seed)), points, csv),
            Dataset::Lognormal => print_cdf_u64(ds, &sorted(lognormal_keys(n, seed)), points, csv),
            Dataset::Ycsb => print_cdf_u64(ds, &sorted(ycsb_keys(n, seed)), points, csv),
        }
    }

    if !csv {
        println!("\nFigure 14: zoomed CDFs (10% and 0.2%/0.03% rank windows around the median)\n");
    }
    let lon = sorted(longitudes_keys(n, seed));
    let ll = sorted(longlat_keys(n, seed));
    print_zoom("longitudes 10%", &lon, 0.50, 0.60, points, csv);
    print_zoom("longlat 10%", &ll, 0.50, 0.60, points, csv);
    print_zoom("longitudes 0.2%", &lon, 0.510, 0.512, points, csv);
    print_zoom("longlat 0.03%", &ll, 0.5110, 0.5113, points, csv);
    if !csv {
        println!("\npaper shape: globally similar, but longlat's local CDF is a step function (App. C)");
    }
}

fn print_cdf_f64(ds: Dataset, keys: &[f64], points: usize, csv: bool) {
    if !csv {
        println!("{}:", ds.name());
    }
    for (k, c) in cdf_points(keys, points) {
        if csv {
            emit_metric("fig13", ds.name(), &format!("cdf@{k:.4}"), format!("{c:.3}"));
        } else {
            println!("  key {k:>18.4}  cdf {c:.3}");
        }
    }
}

fn print_cdf_u64(ds: Dataset, keys: &[u64], points: usize, csv: bool) {
    if !csv {
        println!("{}:", ds.name());
    }
    for (k, c) in cdf_points(keys, points) {
        if csv {
            emit_metric("fig13", ds.name(), &format!("cdf@{k}"), format!("{c:.3}"));
        } else {
            println!("  key {k:>18}  cdf {c:.3}");
        }
    }
}

fn print_zoom(label: &str, keys: &[f64], lo: f64, hi: f64, points: usize, csv: bool) {
    if !csv {
        println!("{label}:");
    }
    let pts = zoomed_cdf_points(keys, lo, hi, points);
    // A step function shows up as repeated near-identical keys with
    // jumping CDF; quantify with the ratio of distinct key "strips".
    for (k, c) in &pts {
        if csv {
            emit_metric("fig14", label, &format!("cdf@{k:.4}"), format!("{c:.5}"));
        } else {
            println!("  key {k:>18.4}  cdf {c:.5}");
        }
    }
}
