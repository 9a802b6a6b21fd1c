//! Differential suite for the serving tier: every response produced
//! by the batching worker pool must be **byte-identical** (under the
//! wire codec) to the response a serial `LockedBTreeMap` oracle gives
//! for the same operation sequence — coalescing point ops into
//! `get_many`/`bulk_insert` runs is an optimization, never a
//! semantics change.
//!
//! Three angles:
//!
//! 1. **Serial**: one client, strict call/response over dependent
//!    sequences (insert → get → remove → get the same key, scans,
//!    batches straddling shard boundaries).
//! 2. **Pipelined**: one client submits windows of in-flight point
//!    and batch ops without waiting. Same-key ops share a shard queue
//!    (FIFO), so submission order is the serial order the oracle
//!    applies.
//! 3. **Concurrent**: many client threads, each writing a private
//!    key range while reading the shared preload, so every thread's
//!    expected responses are deterministic. After shutdown, the
//!    quiescent index must equal the oracle pair-for-pair.

use std::sync::Arc;

use alex_repro::alex_api::{
    Composite, ConcurrentIndex, IndexRead, InsertError, LockedBTreeMap, SentinelKey,
};
use alex_repro::alex_core::AlexConfig;
use alex_repro::alex_server::{
    encode_response, DurableShardedAlex, Request, Response, Server, ServerConfig,
    REJECT_UNSUPPORTED_KEY,
};
use alex_repro::alex_sharded::ShardedAlex;
use alex_repro::alex_wal::tempdir::TempDir;
use alex_repro::alex_wal::{SyncPolicy, WalCodec, WalOptions};

type Req = Request<u64, u64>;

/// Apply one request to the oracle with exactly the server's
/// semantics: first-writer-wins inserts, reserved-key refusals,
/// inclusive-start scans, batch inserts that dedupe against both the
/// map and the batch — and batches refused whole on a sentinel tail.
fn oracle_exec<K>(oracle: &LockedBTreeMap<K, u64>, request: &Request<K, u64>) -> Response<K, u64>
where
    K: Ord + Copy + SentinelKey + Send + Sync + core::fmt::Debug,
{
    match request {
        Request::Get { key } => Response::Value(oracle.get(key)),
        Request::Insert { key, value } => match ConcurrentIndex::insert(oracle, *key, *value) {
            Ok(()) => Response::Inserted(true),
            Err(InsertError::DuplicateKey) => Response::Inserted(false),
            Err(_) => Response::Rejected(REJECT_UNSUPPORTED_KEY),
        },
        Request::Remove { key } => Response::Removed(ConcurrentIndex::remove(oracle, key)),
        Request::Scan { start, limit } => {
            let mut out = Vec::new();
            oracle.scan_from(start, *limit as usize, &mut |k, v| out.push((*k, *v)));
            Response::Entries(out)
        }
        Request::BatchGet { keys } => {
            Response::Values(keys.iter().map(|k| oracle.get(k)).collect())
        }
        Request::BatchInsert { pairs } => {
            if pairs.last().is_some_and(|(k, _)| k.is_sentinel()) {
                return Response::Rejected(REJECT_UNSUPPORTED_KEY);
            }
            Response::InsertedCount(
                pairs
                    .iter()
                    .filter(|(k, v)| ConcurrentIndex::insert(oracle, *k, *v).is_ok())
                    .count() as u64,
            )
        }
    }
}

/// Byte-level equality under the wire codec — the strongest form of
/// "the client cannot tell the difference".
fn assert_same_bytes<K: WalCodec + core::fmt::Debug>(
    op_id: u64,
    got: &Response<K, u64>,
    want: &Response<K, u64>,
    context: &str,
) {
    let mut got_bytes = Vec::new();
    let mut want_bytes = Vec::new();
    encode_response(op_id, got, &mut got_bytes);
    encode_response(op_id, want, &mut want_bytes);
    assert_eq!(got_bytes, want_bytes, "{context}: op {op_id}: {got:?} != oracle {want:?}");
}

fn preload(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| (k * 2 + 1, k * 31)).collect()
}

type TestServer = Server<u64, u64, ShardedAlex<u64, u64>>;

fn serve(
    pairs: &[(u64, u64)],
    shards: usize,
    max_batch: usize,
) -> (TestServer, LockedBTreeMap<u64, u64>) {
    let index = ShardedAlex::bulk_load(pairs, shards, AlexConfig::ga_armi());
    let server = Server::start(index, ServerConfig { queue_capacity: 256, max_batch });
    (server, LockedBTreeMap::from_pairs(pairs))
}

/// A deterministic xorshift so the suite needs no RNG plumbing.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 27)
}

#[test]
fn serial_dependent_sequences_match_the_oracle_byte_for_byte() {
    let pairs = preload(4000);
    let (server, oracle) = serve(&pairs, 4, 32);
    let client = server.client();

    let mut ops: Vec<Req> = Vec::new();
    for i in 0..600u64 {
        let r = mix(i) % 100;
        let hot = 20_000 + (mix(i * 7) % 500); // private write range
        let cold = (mix(i * 13) % 4000) * 2 + 1; // preload key
        ops.push(match r {
            0..=39 => Request::Get { key: if r.is_multiple_of(2) { cold } else { hot } },
            40..=59 => Request::Insert { key: hot, value: i },
            60..=69 => Request::Remove { key: hot },
            70..=79 => Request::Scan { start: cold.saturating_sub(10), limit: (r - 65) as u32 },
            80..=89 => {
                let mut keys: Vec<u64> =
                    (0..20).map(|j| (mix(i * 100 + j) % 4500) * 2 + 1).collect();
                keys.sort_unstable();
                Request::BatchGet { keys }
            }
            _ => {
                // Duplicate keys within the batch exercise the
                // first-wins dedupe; overlap with `hot` exercises the
                // presence check.
                let mut pairs: Vec<(u64, u64)> =
                    (0..15).map(|j| (20_000 + (mix(i * 31 + j) % 600), i * 100 + j)).collect();
                pairs.sort_by_key(|p| p.0);
                Request::BatchInsert { pairs }
            }
        });
    }
    for (op_id, request) in ops.into_iter().enumerate() {
        let want = oracle_exec(&oracle, &request);
        let got = client.call(request);
        assert_same_bytes(op_id as u64, &got, &want, "serial");
    }
    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len(), "quiescent length");
}

#[test]
fn pipelined_windows_preserve_per_key_order() {
    let pairs = preload(2000);
    let (server, oracle) = serve(&pairs, 4, 16);
    let client = server.client();

    // Windows of in-flight ops. Dependent ops on the same key land in
    // the same shard queue, so FIFO per queue == submission order;
    // cross-key point ops commute. Scans are excluded (they read
    // cross-shard state mid-window).
    const WINDOW: usize = 32;
    let mut op_id = 0u64;
    for w in 0..40u64 {
        let mut window = Vec::with_capacity(WINDOW);
        for i in 0..WINDOW as u64 {
            let k = 50_000 + (mix(w * 1000 + i) % 64); // tiny hot set: heavy same-key traffic
            let request = match mix(w * 77 + i) % 5 {
                0 => Request::Insert { key: k, value: w * 100 + i },
                1 => Request::Get { key: k },
                2 => Request::Remove { key: k },
                3 => {
                    let mut keys: Vec<u64> = (0..8).map(|j| 50_000 + (mix(i * 9 + j) % 64)).collect();
                    keys.sort_unstable();
                    Request::BatchGet { keys }
                }
                _ => {
                    let mut ps: Vec<(u64, u64)> =
                        (0..6).map(|j| (50_000 + (mix(i * 11 + j) % 64), j)).collect();
                    ps.sort_by_key(|p| p.0);
                    Request::BatchInsert { pairs: ps }
                }
            };
            let want = oracle_exec(&oracle, &request);
            window.push((op_id, client.submit(request), want));
            op_id += 1;
        }
        for (id, pending, want) in window {
            assert_same_bytes(id, &pending.wait(), &want, "pipelined");
        }
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_responses_and_a_consistent_quiescent_state() {
    let pairs = preload(6000);
    let (server, oracle) = serve(&pairs, 4, 64);
    let oracle = Arc::new(oracle);
    const CLIENTS: u64 = 4;
    const OPS: u64 = 1500;

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let client = server.client();
            let oracle = Arc::clone(&oracle);
            scope.spawn(move || {
                // Private write range per client: expected responses
                // stay deterministic under full concurrency because
                // no other thread touches these keys, and reads of
                // the preload see immutable state.
                let base = 1_000_000 + c * 100_000;
                const WINDOW: usize = 24;
                let mut window = Vec::with_capacity(WINDOW);
                for i in 0..OPS {
                    let op_id = c * OPS + i;
                    let private = base + mix(c * 31 + i) % 200;
                    let shared = (mix(i * 3 + c) % 6000) * 2 + 1;
                    let request = match mix(c * 1000 + i) % 10 {
                        0..=3 => Request::Get { key: shared },
                        4..=5 => Request::Insert { key: private, value: op_id },
                        6 => Request::Remove { key: private },
                        7 => Request::Get { key: private },
                        8 => {
                            let mut keys: Vec<u64> =
                                (0..10).map(|j| base + mix(i * 7 + j) % 200).collect();
                            keys.sort_unstable();
                            Request::BatchGet { keys }
                        }
                        _ => {
                            let mut ps: Vec<(u64, u64)> = (0..8)
                                .map(|j| (base + mix(i * 17 + j) % 200, op_id * 10 + j))
                                .collect();
                            ps.sort_by_key(|p| p.0);
                            Request::BatchInsert { pairs: ps }
                        }
                    };
                    let want = oracle_exec(&oracle, &request);
                    window.push((op_id, client.submit(request), want));
                    if window.len() == WINDOW {
                        for (id, pending, want) in window.drain(..) {
                            assert_same_bytes(id, &pending.wait(), &want, "concurrent");
                        }
                    }
                }
                for (id, pending, want) in window.drain(..) {
                    assert_same_bytes(id, &pending.wait(), &want, "concurrent tail");
                }
            });
        }
    });

    // Quiescent equality: after a graceful shutdown the index and the
    // oracle hold exactly the same pairs.
    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len(), "quiescent length");
    let mut index_pairs = Vec::with_capacity(index.len());
    index.scan_from(&0, usize::MAX, |k, v| index_pairs.push((*k, *v)));
    let mut oracle_pairs = Vec::with_capacity(oracle.len());
    oracle.scan_from(&0, usize::MAX, &mut |k: &u64, v: &u64| oracle_pairs.push((*k, *v)));
    assert_eq!(index_pairs, oracle_pairs, "quiescent pair-for-pair equality");
}

#[test]
fn batch_requests_straddling_every_boundary_match_the_oracle() {
    let pairs = preload(8000);
    let (server, oracle) = serve(&pairs, 8, 32);
    let client = server.client();
    // One giant batch touching every shard, with misses interleaved.
    let mut keys: Vec<u64> = (0..2000).map(|i| i * 8 + (i % 3)).collect();
    keys.sort_unstable();
    let request = Request::BatchGet { keys };
    let want = oracle_exec(&oracle, &request);
    assert_same_bytes(0, &client.call(request), &want, "boundary batch get");

    let mut ps: Vec<(u64, u64)> = (0..2000).map(|i| (i * 7 + (i % 2), i)).collect();
    ps.sort_by_key(|p| p.0);
    ps.dedup_by_key(|p| p.0);
    let request = Request::BatchInsert { pairs: ps };
    let want = oracle_exec(&oracle, &request);
    assert_same_bytes(1, &client.call(request), &want, "boundary batch insert");

    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len());
}

// ----------------------------------------------------------------------
// Multi-tenant serving over composite (tenant, key) keys
// ----------------------------------------------------------------------

type TenantKey = Composite<u64>;

/// Concurrent per-tenant clients over a `(tenant, key)` composite
/// index: tenant-major ordering makes the shard pool multi-tenant —
/// each tenant's keyspace is a contiguous key range, so a tenant's
/// dependent ops land in FIFO shard queues and its expected responses
/// stay deterministic under full concurrency. Every response must be
/// byte-identical to the `LockedBTreeMap` oracle's, and the quiescent
/// index must equal the oracle pair-for-pair.
#[test]
fn multi_tenant_composite_clients_match_the_oracle_byte_for_byte() {
    const TENANTS: u64 = 6;
    const OPS: u64 = 1200;
    // Preload: every tenant owns even keys 0..2000 (tenant-major order
    // keeps the pairs sorted for bulk_load).
    let pairs: Vec<(TenantKey, u64)> = (0..TENANTS)
        .flat_map(|t| (0..1000u64).map(move |k| (Composite::new(t, k * 2), t * 1_000_000 + k)))
        .collect();
    let index = ShardedAlex::bulk_load(&pairs, 4, AlexConfig::ga_armi());
    let server = Server::start(index, ServerConfig { queue_capacity: 256, max_batch: 32 });
    let oracle = Arc::new(LockedBTreeMap::from_pairs(&pairs));

    std::thread::scope(|scope| {
        for t in 0..TENANTS {
            let client = server.client();
            let oracle = Arc::clone(&oracle);
            scope.spawn(move || {
                // Each client writes only its own tenant's odd keys, so
                // no other thread can perturb its expected responses;
                // reads of any tenant's preloaded evens see immutable
                // state.
                const WINDOW: usize = 16;
                let mut window = Vec::with_capacity(WINDOW);
                for i in 0..OPS {
                    let op_id = t * OPS + i;
                    let own = |k: u64| Composite::new(t, k);
                    let private = mix(t * 31 + i) % 400 * 2 + 1;
                    let other_tenant = mix(i) % TENANTS;
                    let shared = Composite::new(other_tenant, (mix(i * 3 + t) % 1100) * 2);
                    let request = match mix(t * 1000 + i) % 10 {
                        0..=2 => Request::Get { key: shared },
                        3..=4 => Request::Insert { key: own(private), value: op_id },
                        5 => Request::Remove { key: own(private) },
                        6 => Request::Get { key: own(private) },
                        7 => {
                            // A sorted batch read crossing tenants is
                            // still deterministic on preloaded evens.
                            let mut keys: Vec<TenantKey> = (0..TENANTS)
                                .map(|ot| Composite::new(ot, (mix(i * 7 + ot) % 1100) * 2))
                                .collect();
                            keys.sort_unstable();
                            Request::BatchGet { keys }
                        }
                        _ => {
                            let mut ps: Vec<(TenantKey, u64)> = (0..8)
                                .map(|j| (own(mix(i * 17 + j) % 400 * 2 + 1), op_id * 10 + j))
                                .collect();
                            ps.sort_by_key(|p| p.0);
                            Request::BatchInsert { pairs: ps }
                        }
                    };
                    let want = oracle_exec(&oracle, &request);
                    window.push((op_id, client.submit(request), want));
                    if window.len() == WINDOW {
                        for (id, pending, want) in window.drain(..) {
                            assert_same_bytes(id, &pending.wait(), &want, "tenant");
                        }
                    }
                }
                for (id, pending, want) in window.drain(..) {
                    assert_same_bytes(id, &pending.wait(), &want, "tenant tail");
                }
            });
        }
    });

    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len(), "quiescent length");
    let mut index_pairs = Vec::with_capacity(index.len());
    index.scan_from(&Composite::new(0, 0), usize::MAX, |k, v| index_pairs.push((*k, *v)));
    let mut oracle_pairs = Vec::with_capacity(oracle.len());
    oracle
        .scan_from(&Composite::new(0, 0), usize::MAX, &mut |k: &TenantKey, v: &u64| {
            oracle_pairs.push((*k, *v))
        });
    assert_eq!(index_pairs, oracle_pairs, "quiescent pair-for-pair equality");
}

// ----------------------------------------------------------------------
// Reserved-key refusals through the full serving stack
// ----------------------------------------------------------------------

/// A write naming the reserved `MAX_KEY` sentinel answers
/// [`Response::Rejected`] end to end — and a batch with a sentinel
/// tail is refused whole, before any earlier shard applied its run.
#[test]
fn sentinel_writes_are_rejected_end_to_end() {
    let pairs = preload(2000);
    let (server, oracle) = serve(&pairs, 4, 16);
    let client = server.client();

    let requests = [
        Request::Insert { key: u64::MAX, value: 1 },
        Request::BatchInsert { pairs: vec![(100u64, 1u64), (4242, 2), (u64::MAX, 3)] },
    ];
    for (op_id, request) in requests.into_iter().enumerate() {
        let want = oracle_exec(&oracle, &request);
        assert_eq!(want, Response::Rejected(REJECT_UNSUPPORTED_KEY));
        assert_same_bytes(op_id as u64, &client.call(request), &want, "sentinel");
    }
    // All-or-nothing: the refused batch's leading pairs never landed,
    // even though they route to earlier shards than the sentinel.
    assert_eq!(client.call(Request::Get { key: 100 }), Response::Value(None));
    assert_eq!(client.call(Request::Get { key: 4242 }), Response::Value(None));
    // The sentinel itself never becomes readable, and serving goes on.
    assert_eq!(client.call(Request::Get { key: u64::MAX }), Response::Value(None));
    assert_eq!(client.call(Request::Insert { key: 100, value: 9 }), Response::Inserted(true));
    assert_eq!(client.call(Request::Get { key: 100 }), Response::Value(Some(9)));
    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len() + 1, "only the post-refusal insert landed");
}

/// The WAL-backed backend behind the same worker pool: pipelined
/// point ops match the oracle byte for byte, a sentinel insert is
/// refused, and after the flushing shutdown a fresh `open` of the
/// directory recovers exactly the oracle's contents.
#[test]
fn durable_backend_serves_and_recovers_the_oracle_state() {
    let dir = TempDir::new("server-durable");
    let pairs = preload(2000);
    let config = AlexConfig::ga_armi().with_max_node_keys(256);
    // Group commit leaves the last writes buffered until the flushing
    // shutdown, so the reopen below also checks that flush.
    let opts = WalOptions {
        sync: SyncPolicy::Never,
        group_commit_ops: 64,
        ..WalOptions::default()
    };
    let index = DurableShardedAlex::create(dir.path(), &pairs, 2, config, opts).unwrap();
    assert_eq!(index.num_shards(), 2);
    let server = Server::start(index, ServerConfig { queue_capacity: 256, max_batch: 16 });
    let oracle = LockedBTreeMap::from_pairs(&pairs);
    let client = server.client();

    // Keys span the preload and both shards, so writes hit each log
    // and removes evict bulk-loaded keys as well as fresh ones.
    const WINDOW: usize = 32;
    let mut op_id = 0u64;
    for w in 0..40u64 {
        let mut window = Vec::with_capacity(WINDOW);
        for i in 0..WINDOW as u64 {
            let k = mix(w * 1000 + i) % 4200;
            let request = match mix(w * 77 + i) % 3 {
                0 => Request::Insert { key: k, value: w * 100 + i },
                1 => Request::Get { key: k },
                _ => Request::Remove { key: k },
            };
            let want = oracle_exec(&oracle, &request);
            window.push((op_id, client.submit(request), want));
            op_id += 1;
        }
        for (id, pending, want) in window {
            assert_same_bytes(id, &pending.wait(), &want, "durable pipelined");
        }
    }
    assert_eq!(
        client.call(Request::Insert { key: u64::MAX, value: 1 }),
        Response::Rejected(REJECT_UNSUPPORTED_KEY)
    );
    drop(server.shutdown());

    let (back, reports) =
        DurableShardedAlex::<u64, u64>::open(dir.path(), config, opts).unwrap();
    assert_eq!(reports.len(), 2);
    let mut got = Vec::new();
    back.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
    let mut want = Vec::new();
    oracle.scan_from(&0, usize::MAX, &mut |k, v| want.push((*k, *v)));
    assert_eq!(got, want, "reopened store equals the oracle pair for pair");
}

mod worker_faults {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    use alex_repro::alex_server::ServeBackend;

    const FAULT_AT: usize = 3000;

    /// The in-memory backend, except that its `FAULT_AT`-th key lookup
    /// (counting every key of `get_many`, which the insert runs' presence
    /// checks use too) panics, killing whichever worker made it.
    struct PanicOnGet {
        inner: ShardedAlex<u64, u64>,
        lookups: AtomicUsize,
    }

    impl PanicOnGet {
        fn count(&self, n: usize) {
            let before = self.lookups.fetch_add(n, Ordering::Relaxed);
            if before < FAULT_AT && before + n >= FAULT_AT {
                panic!("injected fault on lookup {FAULT_AT}");
            }
        }
    }

    impl ServeBackend<u64, u64> for PanicOnGet {
        fn boundaries(&self) -> &[u64] {
            ServeBackend::boundaries(&self.inner)
        }
        fn get(&self, key: &u64) -> Option<u64> {
            self.count(1);
            ServeBackend::get(&self.inner, key)
        }
        fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
            self.count(keys.len());
            ServeBackend::get_many(&self.inner, keys)
        }
        fn insert(&self, key: u64, value: u64) -> Result<(), InsertError> {
            ServeBackend::insert(&self.inner, key, value)
        }
        fn bulk_insert(&self, pairs: &[(u64, u64)]) -> Result<usize, InsertError> {
            ServeBackend::bulk_insert(&self.inner, pairs)
        }
        fn remove(&self, key: &u64) -> Option<u64> {
            ServeBackend::remove(&self.inner, key)
        }
        fn scan_from(&self, key: &u64, limit: usize, f: &mut dyn FnMut(&u64, &u64)) -> usize {
            ServeBackend::scan_from(&self.inner, key, limit, f)
        }
    }

    /// Run `f` on its own thread; fail instead of hanging if it has not
    /// returned within `limit`.
    fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(limit).expect("a caller hung after the worker panic")
    }

    /// A worker that panics mid-run must not hang anyone: every pending
    /// call answers either the oracle's answer or `Unavailable`, later
    /// calls to the dead worker's range answer `Unavailable` at once,
    /// the other workers keep serving, and `shutdown` re-raises the
    /// panic without a second one from `Drop`.
    #[test]
    fn a_panicking_worker_answers_every_pending_call() {
        within(Duration::from_secs(120), || {
            let pairs = preload(4000);
            let index = ShardedAlex::bulk_load(&pairs, 4, AlexConfig::ga_armi());
            // One key per shard: the first key, then each boundary.
            let mut probes = vec![pairs[0].0];
            probes.extend_from_slice(ServeBackend::boundaries(&index));
            let backend = PanicOnGet { inner: index, lookups: AtomicUsize::new(0) };
            // A small queue bound keeps producers blocked on a full
            // queue when the fault lands.
            let server = Server::start(backend, ServerConfig { queue_capacity: 8, max_batch: 16 });
            let oracle = Arc::new(LockedBTreeMap::from_pairs(&pairs));

            let unavailable: usize = std::thread::scope(|scope| {
                let pairs = &pairs;
                let workers: Vec<_> = (0..4u64)
                    .map(|t| {
                        let client = server.client();
                        let oracle = Arc::clone(&oracle);
                        scope.spawn(move || {
                            let mut unavailable = 0;
                            for window in 0..250u64 {
                                let ops: Vec<Req> = (0..8u64)
                                    .map(|i| {
                                        let r = mix(t << 32 | window << 8 | i);
                                        if r.is_multiple_of(5) {
                                            let key = 1_000_000 * (t + 1) + window * 8 + i;
                                            Request::Insert { key: key * 2, value: r }
                                        } else {
                                            Request::Get { key: pairs[(r % 4000) as usize].0 }
                                        }
                                    })
                                    .collect();
                                let pending: Vec<_> =
                                    ops.iter().map(|op| client.submit(op.clone())).collect();
                                for (i, (op, p)) in ops.iter().zip(pending).enumerate() {
                                    let got = p.wait();
                                    let want = oracle_exec(&oracle, op);
                                    if got == Response::Unavailable {
                                        unavailable += 1;
                                    } else {
                                        let id = window * 8 + i as u64;
                                        assert_same_bytes(id, &got, &want, "fault");
                                    }
                                }
                            }
                            unavailable
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert!(unavailable > 0, "the fault never fired");

            // Exactly one worker died; its range fails fast, the rest serve.
            let client = server.client();
            let mut dead = 0;
            for key in probes {
                match client.call(Request::Get { key }) {
                    Response::Unavailable => dead += 1,
                    got => {
                        assert_eq!(got, Response::Value(oracle.get(&key)), "live shard at {key}")
                    }
                }
            }
            assert_eq!(dead, 1, "one dead worker, three live");

            let raised = catch_unwind(AssertUnwindSafe(move || server.shutdown()))
                .err()
                .expect("shutdown re-raises the worker panic");
            let message = raised.downcast_ref::<String>().map(String::as_str).unwrap_or("");
            assert!(message.contains("injected fault"), "re-raised {message:?}");
        });
    }
}
