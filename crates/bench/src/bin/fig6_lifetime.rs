//! Figure 6: lifetime study — insert and lookup time over the life of
//! the index, from a small initialization through many inserts, for
//! three ALEX variants and the B+Tree, on longitudes and longlat.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig6_lifetime -- \
//!     --dataset longitudes --keys 1000000
//! ```

use std::time::Instant;

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, METRIC_CSV_HEADER};
use alex_bench::DEFAULT_SEED;
use alex_btree::BPlusTree;
use alex_core::{AlexConfig, AlexIndex};
use alex_datasets::{longitudes_keys, longlat_keys, sorted, ScrambledZipf};

const INIT_FRACTION: usize = 100; // init with n/100 keys, as the paper inits 1M of 200M

/// The two operations the lifetime study times.
trait LifetimeIndex {
    fn do_insert(&mut self, k: f64, v: u64);
    fn do_lookup(&self, k: &f64) -> bool;
}

impl LifetimeIndex for AlexIndex<f64, u64> {
    fn do_insert(&mut self, k: f64, v: u64) {
        self.insert(k, v).expect("unique keys");
    }

    fn do_lookup(&self, k: &f64) -> bool {
        self.get(k).is_some()
    }
}

impl LifetimeIndex for BPlusTree<f64, u64> {
    fn do_insert(&mut self, k: f64, v: u64) {
        self.insert(k, v);
    }

    fn do_lookup(&self, k: &f64) -> bool {
        self.get(k).is_some()
    }
}

fn main() {
    let args = Args::parse(&["keys", "seed", "dataset", "batches", "csv"]);
    let n = args.usize("keys", 1_000_000);
    let seed = args.u64("seed", DEFAULT_SEED);
    let dataset = args.string("dataset", "longitudes");
    let batches = args.usize("batches", 10);
    let csv = args.flag("csv");

    let keys = match dataset.as_str() {
        "longitudes" => longitudes_keys(n, seed),
        "longlat" => longlat_keys(n, seed),
        other => panic!("--dataset must be longitudes or longlat, got {other:?}"),
    };
    let init = (n / INIT_FRACTION).max(1000);
    let (init_keys, inserts) = {
        let mut ks = keys;
        let rest = ks.split_off(init);
        (sorted(ks), rest)
    };
    let data: Vec<(f64, u64)> = init_keys.iter().map(|&k| (k, k.to_bits())).collect();
    let batch = (inserts.len() / batches).max(1);

    if csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!(
            "Figure 6 lifetime study on {dataset}: init {init} keys, {} inserts in {batches} batches\n",
            inserts.len()
        );
    }

    for (label, cfg) in [
        ("ALEX-GA-ARMI", Some(AlexConfig::ga_armi().with_splitting())),
        ("ALEX-PMA-SRMI", Some(AlexConfig::pma_srmi((init / 4096).max(4)))),
        ("ALEX-PMA-ARMI", Some(AlexConfig::pma_armi().with_splitting())),
        ("B+Tree", None),
    ] {
        let run = format!("fig6/{dataset}");
        if !csv {
            println!("{label}:");
            println!("  {:>10} {:>16} {:>16}", "keys", "ns/insert", "ns/lookup");
        }
        match cfg {
            Some(cfg) => {
                let mut index = AlexIndex::bulk_load(&data, cfg);
                run_lifetime(&mut index, &inserts, batch, &init_keys, seed, &run, label, csv);
            }
            None => {
                let mut tree = BPlusTree::bulk_load(&data, 128, 128, 0.7);
                run_lifetime(&mut tree, &inserts, batch, &init_keys, seed, &run, label, csv);
            }
        }
        if !csv {
            println!();
        }
    }
    if !csv {
        println!("paper shape (longitudes): ALEX-GA-ARMI lookups ~4x faster than B+Tree and flat over");
        println!("time; ALEX-PMA-ARMI fluctuates periodically (nodes expand in unison). On longlat no");
        println!("ALEX variant matches B+Tree insert time (Fig 6, §5.2.6).");
    }
}

#[allow(clippy::too_many_arguments)] // one call site; mirrors the table columns
fn run_lifetime<I: LifetimeIndex>(
    index: &mut I,
    inserts: &[f64],
    batch: usize,
    init_keys: &[f64],
    seed: u64,
    run: &str,
    label: &str,
    csv: bool,
) {
    let mut pool: Vec<f64> = init_keys.to_vec();
    let mut zipf = ScrambledZipf::new(pool.len(), seed);
    let lookups_per_pause = 10_000;
    for chunk in inserts.chunks(batch) {
        let t0 = Instant::now();
        for &k in chunk {
            index.do_insert(k, k.to_bits());
        }
        let insert_ns = t0.elapsed().as_nanos() as f64 / chunk.len() as f64;
        pool.extend_from_slice(chunk);
        zipf.extend_to(pool.len());
        let t1 = Instant::now();
        let mut hits = 0usize;
        for _ in 0..lookups_per_pause {
            let k = pool[zipf.next_rank()];
            hits += usize::from(index.do_lookup(&k));
        }
        let lookup_ns = t1.elapsed().as_nanos() as f64 / lookups_per_pause as f64;
        assert_eq!(hits, lookups_per_pause, "every sampled key must be present");
        if csv {
            emit_metric(run, label, &format!("ns_insert@{}", pool.len()), format!("{insert_ns:.0}"));
            emit_metric(run, label, &format!("ns_lookup@{}", pool.len()), format!("{lookup_ns:.0}"));
        } else {
            println!("  {:>10} {:>16.0} {:>16.0}", pool.len(), insert_ns, lookup_ns);
        }
    }
}
