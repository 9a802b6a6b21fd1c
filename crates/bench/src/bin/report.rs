//! `report`: collate benchmark CSV outputs into one Markdown table.
//!
//! The `fig_*` binaries each emit one of two CSV schemas under
//! `--csv` (the throughput schema `run,label,ops_per_sec,...` or the
//! metric schema `run,label,metric,value`). Reviewing a perf PR means
//! diffing the *shape* of those outputs before and after — which is
//! tedious across a dozen files. This bin reads two directories of
//! `--csv` outputs (e.g. `benchmarks/` at the base commit and a fresh
//! run), joins rows by `(file, run, label, metric)`, and renders one
//! Markdown table with the ratio per row.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig4_workloads -- --csv > /tmp/run-b/BENCH_fig4.csv
//! cargo run -p alex-bench --release --bin report -- --a benchmarks --b /tmp/run-b
//! ```
//!
//! With only `--a`, renders that directory as a table (no diff
//! column). Lines starting with `#` are provenance comments (the
//! committed baselines note the arena flavour this way) and are
//! skipped.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use alex_bench::cli::Args;

/// `(file, run, label, metric) -> value`, ordered for stable output.
type Rows = BTreeMap<(String, String, String, String), String>;

fn main() {
    let args = Args::parse(&["a", "b"]);
    let a_dir = args.string("a", "benchmarks");
    let b_dir = args.string("b", "");

    let a = load_dir(Path::new(&a_dir));
    if a.is_empty() {
        eprintln!("no CSV rows under {a_dir}");
        std::process::exit(1);
    }
    if b_dir.is_empty() {
        println!("# Benchmark shapes: `{a_dir}`\n");
        println!("| file | run | label | metric | value |");
        println!("|---|---|---|---|---|");
        for ((file, run, label, metric), v) in &a {
            println!("| {file} | {run} | {label} | {metric} | {v} |");
        }
        return;
    }

    let b = load_dir(Path::new(&b_dir));
    println!("# Benchmark shape diff: `{a_dir}` (A) vs `{b_dir}` (B)\n");
    println!("| file | run | label | metric | A | B | B/A |");
    println!("|---|---|---|---|---|---|---|");
    let keys: BTreeMap<_, ()> =
        a.keys().chain(b.keys()).cloned().map(|k| (k, ())).collect();
    for (key, ()) in &keys {
        let (file, run, label, metric) = key;
        let va = a.get(key).map(String::as_str);
        let vb = b.get(key).map(String::as_str);
        let ratio = match (va.and_then(parse_num), vb.and_then(parse_num)) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:.2}", y / x),
            _ => "—".to_string(),
        };
        println!(
            "| {file} | {run} | {label} | {metric} | {} | {} | {ratio} |",
            va.unwrap_or("—"),
            vb.unwrap_or("—"),
        );
    }
}

fn parse_num(s: &str) -> Option<f64> {
    s.trim().parse().ok()
}

/// Parse every `*.csv` under `dir` (both emitter schemas), keyed for
/// joining. In the throughput schema each numeric column becomes its
/// own metric row, so the two schemas land in one namespace.
fn load_dir(dir: &Path) -> Rows {
    let mut rows = Rows::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return rows;
    };
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    files.sort();
    for path in files {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let file = path.file_stem().unwrap_or_default().to_string_lossy().into_owned();
        let mut header: Vec<String> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let cells: Vec<&str> = line.split(',').map(str::trim).collect();
            if cells.len() >= 3 && cells[0] == "run" && cells[1] == "label" {
                header = cells.iter().map(|c| c.to_string()).collect();
                continue;
            }
            if header.is_empty() || cells.len() != header.len() {
                continue; // malformed row; skip rather than abort the report
            }
            let (run, label) = (cells[0].to_string(), cells[1].to_string());
            if header.get(2).map(String::as_str) == Some("metric") {
                rows.insert(
                    (file.clone(), run, label, cells[2].to_string()),
                    cells.get(3).unwrap_or(&"").to_string(),
                );
            } else {
                for (name, value) in header.iter().zip(cells.iter()).skip(2) {
                    rows.insert(
                        (file.clone(), run.clone(), label.clone(), name.clone()),
                        value.to_string(),
                    );
                }
            }
        }
    }
    rows
}
