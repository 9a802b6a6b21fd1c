//! `durable-write`: `DurableAlex` over `lognormal` keys with
//! `SyncPolicy::Never` and a group commit of 64 records, on one thread.
//! The mix is 50% uniform `get` and 50% inserts of fresh keys in random
//! order; one `snapshot()` runs at the midpoint. Then the handle is
//! dropped without flushing (a simulated crash), `DurableAlex::open` is
//! timed, and the recovered contents are checked against the
//! benchmark's own record.
//!
//! A run repeats that round in fresh directories until its time is up;
//! every round does the same work, so its counters repeat exactly for a
//! seed. Only the first round of an untraced run goes on past the
//! operations to the crash and the checked recovery, which take longer
//! than the operations themselves; the rounds after the first are there
//! to give the throughput and latency medians more samples. A traced
//! run recovers in every round, for the recovery timings.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use alex_core::AlexConfig;
use alex_datasets::lognormal_keys;
use alex_wal::{DurableAlex, SyncPolicy, WalOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cli::Args;
use crate::common::{
    contents_match, exact_mix, expected_contents, key_set, out_dir, overhead, payload, pick,
    report_setup, KeySet, Windows, DATASET_SEED, SETUP_REPS,
};
use crate::report::Report;
use crate::trace::{median, NoSpans, Probe, Spans};

const GET: u8 = 0;

/// Records buffered before the log commits.
const GROUP_COMMIT: usize = 64;

/// One insert in every this many is timed for `p50_us`, which is the
/// median insert latency: in a 50/50 mix the median of all calls falls
/// in the gap between the get and the insert modes, where it jumps.
const SAMPLE_EVERY: usize = 4;

/// Throughput and latency are taken per window of this many ops.
const WINDOWS_PER_ROUND: usize = 16;

#[derive(Clone, Copy)]
struct Op {
    insert: bool,
    key: u64,
}

fn options() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Never,
        group_commit_ops: GROUP_COMMIT,
        ..WalOptions::default()
    }
}

/// What one round measured besides its windows.
struct Round {
    setup: Duration,
    snapshot_s: f64,
    /// Rounds that crashed and recovered: `(snapshot_load_s, recovery_s)`.
    recovery: Option<(f64, f64)>,
    /// Traced rounds: for each insert, whether it advanced the commit
    /// counter.
    committed: Vec<bool>,
}

pub fn run(args: &Args, report: &mut Report) {
    let (n_keys, round_ops, min_rounds) = if args.tiny {
        (20_000, 4_000, 2)
    } else {
        (2_000_000, 800_000, 3)
    };
    let n_inserts = round_ops / 2;

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xD0AB);
    let keys = key_set(
        lognormal_keys(n_keys + n_inserts, DATASET_SEED),
        n_keys,
        &mut rng,
    );
    let mut held = keys.held_out.iter();
    let ops: Vec<Op> = exact_mix(&mut rng, round_ops, &[0, n_inserts])
        .into_iter()
        .map(|kind| match kind {
            GET => Op {
                insert: false,
                key: keys.loaded[pick(&mut rng, n_keys)],
            },
            _ => Op {
                insert: true,
                key: *held.next().expect("one held-out key per insert"),
            },
        })
        .collect();

    // Unique per run, also when tests run workloads side by side.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run_id = RUNS.fetch_add(1, Ordering::Relaxed);
    let work = out_dir().join(format!("work-{}-{run_id}", std::process::id()));
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut untraced = Windows::default();
    let mut traced = Windows::default();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let trace_this = args.trace && rounds.len() % 2 == 1;
        let dir = work.join(format!("round-{}", rounds.len()));
        let first = rounds.is_empty();
        let recover = first || args.trace;
        let round = if trace_this {
            let mut spans = Spans::with_capacity(round_ops + 1);
            let first_traced = traced.throughput.is_empty();
            let r = run_round(
                &dir,
                &keys,
                &ops,
                &mut spans,
                &mut traced,
                report,
                first,
                recover,
            );
            if first_traced {
                report_spans(report, &spans, &r.committed);
                report.check(spans.write_tsv(args.workload, args.seed).is_ok());
            }
            r
        } else {
            run_round(
                &dir,
                &keys,
                &ops,
                &mut NoSpans,
                &mut untraced,
                report,
                first,
                recover,
            )
        };
        let _ = fs::remove_dir_all(&dir);
        rounds.push(round);
        let enough = rounds.len() >= if args.trace { 2 } else { min_rounds };
        if enough && started.elapsed() >= budget {
            break;
        }
    }
    // More set-ups than rounds, for a steady median.
    let mut setups: Vec<Duration> = rounds.iter().map(|r| r.setup).collect();
    while setups.len() < SETUP_REPS {
        let dir = work.join(format!("setup-{}", setups.len()));
        let t = Instant::now();
        let db = DurableAlex::create(&dir, &keys.pairs, AlexConfig::ga_armi(), options());
        setups.push(t.elapsed());
        report.check(db.is_ok_and(|db| db.len() == n_keys));
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&work);
    report_setup(report, &setups);
    let recoveries: Vec<(f64, f64)> = rounds.iter().filter_map(|r| r.recovery).collect();
    let snapshot_load_s = median(&mut recoveries.iter().map(|r| r.0).collect::<Vec<_>>());
    let recovery_s = median(&mut recoveries.iter().map(|r| r.1).collect::<Vec<_>>());
    report.set("recovery_s", recovery_s, "s");
    report.set("recovery.snapshot_load_s", snapshot_load_s, "s");
    report.set("recovery.replay_s", recovery_s - snapshot_load_s, "s");
    let snapshot_s = median(&mut rounds.iter().map(|r| r.snapshot_s).collect::<Vec<_>>());
    report.set("wal.snapshot_s", snapshot_s, "s");
    untraced.report(report);
    report.set("rounds", rounds.len() as f64, "count");
    if args.trace {
        let frac = overhead(
            untraced.median_throughput(),
            traced.median_throughput(),
            true,
        );
        report.set("trace.overhead_frac", frac, "fraction");
    }
}

/// One round in `dir`: create, run `ops` with a snapshot at the
/// midpoint and check the length; then, if `recover`, crash, recover
/// and check the contents. Counters of the first round go into
/// `report`.
#[allow(clippy::too_many_arguments)]
fn run_round<P: Probe>(
    dir: &Path,
    keys: &KeySet<u64>,
    ops: &[Op],
    probe: &mut P,
    windows: &mut Windows,
    report: &mut Report,
    first: bool,
    recover: bool,
) -> Round {
    let main = dir.join("main");
    let copy = dir.join("after-snapshot");
    let _ = fs::remove_dir_all(dir);
    let config = AlexConfig::ga_armi();

    let t = Instant::now();
    let db = DurableAlex::create(&main, &keys.pairs, config, options())
        .expect("create the durable index");
    let setup = t.elapsed();

    let mid = ops.len() / 2;
    let window = (ops.len() / WINDOWS_PER_ROUND).max(1);
    assert_eq!(mid % window, 0, "a window must not straddle the snapshot");
    let inserted: Vec<u64> = ops.iter().filter(|op| op.insert).map(|op| op.key).collect();
    let mut snapshot_s = 0.0;
    let mut wal_bytes_after_snapshot = 0;
    let mut committed: Vec<bool> = Vec::new();
    for (w, chunk) in ops.chunks(window).enumerate() {
        let offset = w * window;
        if offset == mid {
            let t = Instant::now();
            let ok = probe
                .span("wal.snapshot", mid as u64, || db.snapshot())
                .is_ok();
            snapshot_s = t.elapsed().as_secs_f64();
            report.check(ok);
            if recover {
                copy_dir(&main, &copy).expect("copy the directory after the snapshot");
                wal_bytes_after_snapshot = dir_bytes(&main, "wal-");
            }
        }
        let mut lat = Vec::with_capacity(chunk.len() / SAMPLE_EVERY);
        windows.begin();
        let start = Instant::now();
        let mut failed = 0u64;
        for (j, op) in chunk.iter().enumerate() {
            let id = (offset + j) as u64;
            let timer = (op.insert && j % SAMPLE_EVERY == 0).then(Instant::now);
            let ok = if op.insert {
                let before = if P::TRACED { db.wal_stats().commits } else { 0 };
                let ok = matches!(
                    probe.span("wal.insert", id, || db.insert(op.key, payload(op.key))),
                    Ok(true)
                );
                if P::TRACED {
                    committed.push(db.wal_stats().commits > before);
                }
                ok
            } else {
                probe.span("wal.get", id, || db.get(&op.key)) == Some(payload(op.key))
            };
            if let Some(t) = timer {
                lat.push(t.elapsed().as_nanos() as f64);
            }
            failed += u64::from(!ok);
        }
        let elapsed = start.elapsed();
        windows.add(chunk.len(), elapsed, &mut lat);
        report.attempted += chunk.len() as u64;
        report.failed += failed;
    }
    let inserted_before_snapshot = ops[..mid].iter().filter(|op| op.insert).count();

    if first {
        let wal = db.wal_stats();
        report.set("wal.appended", wal.appended as f64, "count");
        report.set("wal.commits", wal.commits as f64, "count");
        report.set("wal.syncs", wal.syncs as f64, "count");
        let writes = db.index().write_stats();
        let inserts = inserted.len().max(1) as f64;
        report.set(
            "epoch.leaf_clones_per_write",
            writes.leaf_clones as f64 / inserts,
            "count",
        );
        report.set(
            "epoch.delta_hit_frac",
            writes.delta_hits as f64 / inserts,
            "fraction",
        );
        report.set("epoch.flushes", writes.flushes as f64, "count");
        report.set(
            "epoch.retired_pending",
            db.index().epoch_stats().pending as f64,
            "count",
        );
        report.set(
            "epoch.delta_cap",
            db.index().current_delta_capacity() as f64,
            "count",
        );
        let size = db.index().size_report();
        report.set(
            "index_bytes_per_key",
            size.index_bytes as f64 / db.len() as f64,
            "B",
        );
        report.set(
            "data_bytes_per_key",
            size.data_bytes as f64 / db.len() as f64,
            "B",
        );
        let disk = dir_bytes(&main, "");
        report.set("disk_bytes_per_key", disk as f64 / db.len() as f64, "B");
    }
    report.check(db.len() == keys.pairs.len() + inserted.len());
    if !recover {
        return Round {
            setup,
            snapshot_s,
            recovery: None,
            committed,
        };
    }
    let wal_bytes_at_crash = dir_bytes(&main, "wal-");
    drop(db); // the crash: buffered records are lost

    let t = Instant::now();
    let from_snapshot = DurableAlex::<u64, u64>::open(&copy, config, options());
    let snapshot_load_s = t.elapsed().as_secs_f64();
    report.check(
        from_snapshot.is_ok_and(|(db, _)| db.len() == keys.pairs.len() + inserted_before_snapshot),
    );

    let t = Instant::now();
    let (recovered, recovery) =
        DurableAlex::<u64, u64>::open(&main, config, options()).expect("recover");
    let recovery_s = t.elapsed().as_secs_f64();

    // The crash may lose only the uncommitted tail of the inserts:
    // the recovered index holds exactly a prefix of them.
    let kept = recovered.len().saturating_sub(keys.pairs.len());
    report.check(
        kept <= inserted.len()
            && inserted.len() - kept < GROUP_COMMIT
            && kept >= inserted_before_snapshot,
    );
    let expected = expected_contents(&keys.pairs, &inserted[..kept.min(inserted.len())]);
    let mut got = Vec::with_capacity(recovered.len());
    recovered.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
    report.check(contents_match(&expected, &got));
    if first {
        report.set("recovery.replayed", recovery.replayed as f64, "count");
        report.set(
            "recovery.replay_leaf_clones",
            recovered.index().write_stats().leaf_clones as f64,
            "count",
        );
        let logged = kept.saturating_sub(inserted_before_snapshot).max(1);
        let bytes = wal_bytes_at_crash.saturating_sub(wal_bytes_after_snapshot);
        report.set("wal.bytes_per_insert", bytes as f64 / logged as f64, "B");
    }
    Round {
        setup,
        snapshot_s,
        recovery: Some((snapshot_load_s, recovery_s)),
        committed,
    }
}

/// Span medians of the first traced round. `wal.commit_ns` is the
/// median insert that advanced the commit counter minus the median one
/// that did not.
fn report_spans(report: &mut Report, spans: &Spans, committed: &[bool]) {
    report.set("wal.insert_ns", spans.median_ns("wal.insert"), "ns");
    report.set("wal.get_ns", spans.median_ns("wal.get"), "ns");
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for (d, &c) in spans.durations("wal.insert").into_iter().zip(committed) {
        if c {
            with.push(d);
        } else {
            without.push(d);
        }
    }
    report.set(
        "wal.commit_ns",
        median(&mut with) - median(&mut without),
        "ns",
    );
}

/// Total size of the files in `dir` whose names start with `prefix`.
fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
