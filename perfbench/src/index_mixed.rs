//! `index-mixed`: the embedded index alone. An exclusive `AlexIndex`
//! (GA-ARMI, default dense arena) bulk-loaded with `longlat` keys runs
//! 90% scrambled-Zipf `get`, 5% `scan_from` of 1..=100 keys and 5%
//! inserts of held-out keys, on one thread.
//!
//! A run repeats one fixed round of operations on fresh clones of the
//! loaded index until its time is up and reports medians over rounds,
//! so every round does the same work and the counters of a round repeat
//! exactly for a given seed.

use std::time::{Duration, Instant};

use alex_core::{AlexConfig, AlexIndex};
use alex_datasets::{longlat_keys, ScrambledZipf};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cli::Args;
use crate::common::{
    contents_match, exact_mix, expected_contents, key_set, overhead, payload, pick, report_setup,
    Windows, DATASET_SEED, SETUP_REPS,
};
use crate::report::Report;
use crate::trace::{NoSpans, Probe, Spans};

const GET: u8 = 0;
const SCAN: u8 = 1;
// Kind 2, the rest: insert.

/// One operation in every this many is timed for the latency figures.
const SAMPLE_EVERY: usize = 8;

#[derive(Clone, Copy)]
struct Op {
    kind: u8,
    len: u8,
    key: f64,
}

pub fn run(args: &Args, report: &mut Report) {
    let (n_keys, round_ops, min_rounds) = if args.tiny {
        (20_000, 4_000, 2)
    } else {
        (2_000_000, 1_000_000, 3)
    };
    let n_inserts = round_ops / 20;
    let n_scans = round_ops / 20;

    // Inputs, all drawn from the seed before anything is timed.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x1DE7);
    let keys = key_set(
        longlat_keys(n_keys + n_inserts, DATASET_SEED),
        n_keys,
        &mut rng,
    );
    let max_loaded = keys.pairs.last().expect("non-empty").0;
    let mut zipf = ScrambledZipf::new(n_keys, args.seed ^ 0x21FF);
    let mut held = keys.held_out.iter();
    let ops: Vec<Op> = exact_mix(&mut rng, round_ops, &[0, n_scans, n_inserts])
        .into_iter()
        .map(|kind| match kind {
            GET => Op {
                kind,
                len: 0,
                key: keys.loaded[zipf.next_rank()],
            },
            SCAN => Op {
                kind,
                len: rng.random_range(1..=100u32) as u8,
                key: keys.loaded[pick(&mut rng, n_keys)],
            },
            _ => Op {
                kind,
                len: 0,
                key: *held.next().expect("one held-out key per insert"),
            },
        })
        .collect();
    let expected = expected_contents(&keys.pairs, &keys.held_out);

    // Set-up: bulk load, repeated.
    let mut setups = Vec::new();
    let mut base = None;
    for _ in 0..SETUP_REPS {
        drop(base.take());
        let t = Instant::now();
        base = Some(AlexIndex::bulk_load(&keys.pairs, AlexConfig::ga_armi()));
        setups.push(t.elapsed());
    }
    let base = base.expect("loaded");
    report.check(base.len() == n_keys);
    report_setup(report, &setups);

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut untraced = Windows::default();
    let mut traced = Windows::default();
    let mut rounds = 0;
    let mut last = None;
    loop {
        let trace_this = args.trace && rounds % 2 == 1;
        drop(last.take());
        let mut index = base.clone();
        let mut lat = Vec::with_capacity(round_ops / SAMPLE_EVERY + 1);
        let failed = if trace_this {
            let mut spans = Spans::with_capacity(round_ops);
            let first_traced = traced.throughput.is_empty();
            traced.begin();
            let (elapsed, failed) = run_round(&mut index, &ops, &mut spans, max_loaded, &mut lat);
            traced.add(round_ops, elapsed, &mut lat);
            if first_traced {
                report_layers(report, &index, &spans);
                report.check(spans.write_tsv(args.workload, args.seed).is_ok());
            }
            failed
        } else {
            untraced.begin();
            let (elapsed, failed) = run_round(&mut index, &ops, &mut NoSpans, max_loaded, &mut lat);
            untraced.add(round_ops, elapsed, &mut lat);
            failed
        };
        report.attempted += round_ops as u64;
        report.failed += failed;
        report.check(index.len() == n_keys + n_inserts);
        rounds += 1;
        last = Some(index);
        let enough = rounds >= if args.trace { 2 } else { min_rounds };
        if enough && started.elapsed() >= budget {
            break;
        }
    }
    let index = last.expect("at least one round");
    let got: Vec<(f64, u64)> = index.iter().map(|(k, v)| (*k, *v)).collect();
    report.check(contents_match(&expected, &got));

    let size = index.size_report();
    report.set(
        "index_bytes_per_key",
        size.index_bytes as f64 / index.len() as f64,
        "B",
    );
    report.set(
        "data_bytes_per_key",
        size.data_bytes as f64 / index.len() as f64,
        "B",
    );
    untraced.report(report);
    report.set("rounds", rounds as f64, "count");
    if args.trace {
        let frac = overhead(
            untraced.median_throughput(),
            traced.median_throughput(),
            true,
        );
        report.set("trace.overhead_frac", frac, "fraction");
    }
}

/// Run the round's operations against `index`, checking every answer.
/// Returns the elapsed time and the number of wrong answers.
fn run_round<P: Probe>(
    index: &mut AlexIndex<f64, u64>,
    ops: &[Op],
    probe: &mut P,
    max_loaded: f64,
    lat: &mut Vec<f64>,
) -> (Duration, u64) {
    let start = Instant::now();
    let mut failed = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let timer = (i % SAMPLE_EVERY == 0).then(Instant::now);
        let id = i as u64;
        let ok = match op.kind {
            GET => {
                probe.span("core.get", id, || index.get(&op.key).copied())
                    == Some(payload(op.key.to_bits()))
            }
            SCAN => {
                let (mut good, mut last) = (true, None::<f64>);
                let n = probe.span("core.scan", id, || {
                    index.scan_from(&op.key, op.len as usize, |k, v| {
                        good &= last.map_or(*k == op.key, |prev| *k > prev)
                            && *v == payload(k.to_bits());
                        last = Some(*k);
                    })
                });
                // A short scan must have run off the end of the index.
                good && (n == op.len as usize || last.is_some_and(|k| k >= max_loaded))
            }
            _ => probe
                .span("core.insert", id, || {
                    index.insert(op.key, payload(op.key.to_bits()))
                })
                .is_ok(),
        };
        if let Some(t) = timer {
            lat.push(t.elapsed().as_nanos() as f64);
        }
        failed += u64::from(!ok);
    }
    (start.elapsed(), failed)
}

/// Per-layer figures of the first traced round.
fn report_layers(report: &mut Report, index: &AlexIndex<f64, u64>, spans: &Spans) {
    report.set("core.get_ns", spans.median_ns("core.get"), "ns");
    report.set("core.insert_ns", spans.median_ns("core.insert"), "ns");
    report.set("core.scan_ns", spans.median_ns("core.scan"), "ns");
    let (lookups, comparisons, direct) = index.read_stats();
    let lookups = lookups.max(1) as f64;
    report.set(
        "core.comparisons_per_lookup",
        comparisons as f64 / lookups,
        "count",
    );
    report.set("core.direct_hit_frac", direct as f64 / lookups, "fraction");
    let errs = index.prediction_errors();
    report.set(
        "core.pred_err_mean",
        errs.iter().sum::<usize>() as f64 / errs.len().max(1) as f64,
        "slots",
    );
    report.set("core.depth", index.depth() as f64, "count");
    report.set("core.data_nodes", index.num_data_nodes() as f64, "count");
    let w = index.write_stats();
    report.set("core.shifts_per_insert", w.shifts_per_insert(), "count");
    report.set("core.expansions", w.expansions as f64, "count");
    report.set("core.splits", w.splits as f64, "count");
    report.set("core.retrains", w.retrains as f64, "count");
}
