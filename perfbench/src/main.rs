//! The repository benchmark: four workloads from the embedded index to
//! served requests, each run through the workspace's public APIs with
//! every answer checked. See `README.md` for the workloads, metrics and
//! what is deliberately not measured.
//!
//! Output: one `name = value unit` line per measured figure, a
//! provenance line, and, last, one JSON object with `correct`,
//! `attempted`, `failed` and the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics).

mod cli;
mod common;
mod durable_write;
mod index_mixed;
mod report;
mod serve;
mod trace;

use std::path::Path;

use report::{Provenance, Report};

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let provenance = Provenance::start();
    let report = run(&args);
    for (name, value, unit) in &report.values {
        println!("{name} = {value} {unit}");
    }
    println!("op_error_rate = {} fraction", report.error_rate());
    println!(
        "{}",
        provenance.finish(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
    );
    println!("{}", report.json(args.trace));
}

/// Run one workload and return what it measured.
fn run(args: &cli::Args) -> Report {
    trace::now_ns(); // start the span clock before any input exists
    let mut report = Report::default();
    match args.workload {
        "index-mixed" => index_mixed::run(args, &mut report),
        "durable-write" => durable_write::run(args, &mut report),
        "serve-closed" => serve::run(args, &mut report, false),
        "serve-open" => serve::run(args, &mut report, true),
        other => unreachable!("the command line admits no workload {other:?}"),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at tiny size: each emits the end-to-end metrics
    /// and, traced, the per-layer metrics of its layers, and no
    /// operation fails.
    #[test]
    fn every_workload_emits_its_metrics_without_errors() {
        for &workload in cli::WORKLOADS {
            for trace in [false, true] {
                let args = cli::Args {
                    workload,
                    seed: 3,
                    seconds: 1,
                    trace,
                    tiny: true,
                };
                let report = run(&args);
                assert_eq!(report.failed, 0, "{workload}: failed operations");
                assert_eq!(report.error_rate(), 0.0, "{workload}: op_error_rate");
                assert!(report.attempted > 0);
                for &(name, _) in report::END_TO_END {
                    let v = report
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload}: no {name}"));
                    assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
                }
                if trace {
                    for name in report::owned_per_layer(workload) {
                        let v = report
                            .get(name)
                            .unwrap_or_else(|| panic!("{workload}: no {name}"));
                        assert!(v.is_finite(), "{workload}: {name} = {v}");
                    }
                }
                let json = report.json(trace);
                assert!(
                    json.starts_with("{\"correct\": true,"),
                    "{workload}: {json}"
                );
            }
        }
    }

    /// The single-threaded counters repeat exactly for a seed.
    #[test]
    fn single_threaded_counters_repeat() {
        for (workload, counters) in [
            (
                "index-mixed",
                &[
                    "core.shifts_per_insert",
                    "core.expansions",
                    "core.splits",
                    "core.data_nodes",
                ][..],
            ),
            (
                "durable-write",
                &[
                    "epoch.leaf_clones_per_write",
                    "wal.commits",
                    "recovery.replay_leaf_clones",
                ][..],
            ),
        ] {
            let args = cli::Args {
                workload,
                seed: 5,
                seconds: 1,
                trace: true,
                tiny: true,
            };
            let (a, b) = (run(&args), run(&args));
            for &name in counters {
                assert_eq!(a.get(name), b.get(name), "{workload}: {name}");
            }
        }
    }
}
