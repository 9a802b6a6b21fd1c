//! Figure 11: exponential vs. bounded binary search. Searches run over
//! perfectly uniform integers with a *synthetic* prediction error: the
//! hint is displaced from the true position by exactly `err` slots.
//! Exponential search costs grow with `log(err)`; bounded binary search
//! pays its full window regardless, so it only wins at large errors.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig11_search_methods -- --keys 10000000
//! ```

use std::time::Instant;

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, METRIC_CSV_HEADER};
use alex_bench::DEFAULT_SEED;
use alex_core::search::{bounded_binary_lower_bound, exponential_search_lower_bound};
use alex_datasets::uniform_dense_keys;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let args = Args::parse(&["keys", "searches", "seed", "csv"]);
    let n = args.usize("keys", 10_000_000);
    let searches = args.usize("searches", 1_000_000);
    let seed = args.u64("seed", DEFAULT_SEED);
    let csv = args.flag("csv");

    let keys = uniform_dense_keys(n);
    let mut rng = StdRng::seed_from_u64(seed);
    // Pre-draw the target positions.
    let targets: Vec<usize> = (0..searches).map(|_| rng.random_range(0..n)).collect();

    if csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!(
            "Figure 11: ns/search vs synthetic prediction error ({n} uniform keys, {searches} searches)\n"
        );
        println!(
            "{:>8} {:>14} {:>16} {:>16} {:>16}",
            "error", "exponential", "binary(err 64)", "binary(err 1k)", "binary(err 16k)"
        );
    }

    let mut err = 1usize;
    while err <= 65536 {
        let exp = time_ns(&targets, |&pos| {
            let hint = displaced(pos, err, n);
            exponential_search_lower_bound(&keys, &keys[pos], hint).pos
        });
        let b64 = time_ns(&targets, |&pos| {
            let hint = displaced(pos, err.min(64), n);
            bounded_binary_lower_bound(&keys, &keys[pos], hint.saturating_sub(64), hint + 64).pos
        });
        let b1k = time_ns(&targets, |&pos| {
            let hint = displaced(pos, err.min(1024), n);
            bounded_binary_lower_bound(&keys, &keys[pos], hint.saturating_sub(1024), hint + 1024).pos
        });
        let b16k = time_ns(&targets, |&pos| {
            let hint = displaced(pos, err.min(16384), n);
            bounded_binary_lower_bound(&keys, &keys[pos], hint.saturating_sub(16384), hint + 16384).pos
        });
        if csv {
            for (label, ns) in [
                ("exponential", exp),
                ("binary-64", b64),
                ("binary-1k", b1k),
                ("binary-16k", b16k),
            ] {
                emit_metric("fig11", label, &format!("ns_per_search@err{err}"), format!("{ns:.1}"));
            }
        } else {
            println!("{err:>8} {exp:>14.1} {b64:>16.1} {b1k:>16.1} {b16k:>16.1}");
        }
        err *= 4;
    }
    if !csv {
        println!("\npaper shape: exponential grows with log(error); each bounded binary search is flat");
        println!("at its window cost, so exponential wins whenever the model error is small (Fig 11)");
    }
}

#[inline]
fn displaced(pos: usize, err: usize, n: usize) -> usize {
    // Alternate displacement direction by position parity.
    if pos.is_multiple_of(2) {
        (pos + err).min(n - 1)
    } else {
        pos.saturating_sub(err)
    }
}

fn time_ns(targets: &[usize], mut f: impl FnMut(&usize) -> usize) -> f64 {
    let t = Instant::now();
    let mut acc = 0usize;
    for pos in targets {
        acc = acc.wrapping_add(f(pos));
    }
    core::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / targets.len() as f64
}
