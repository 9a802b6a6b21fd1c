//! `serve-closed` and `serve-open`: a `Server` over a one-shard
//! `ShardedAlex` holding `lognormal` keys, serving 90% `Get` of loaded
//! keys and 10% `Insert` of fresh keys.
//!
//! `serve-closed` has one client thread calling `Client::call` back to
//! back (concurrency 1) and checks every response. `serve-open` has one
//! generator thread that spin-waits to each Poisson arrival time and
//! submits with `Client::submit_measured`; latency runs from the
//! scheduled time. Its responses are discarded by that API, so its
//! inserts are checked afterwards with one `BatchGet`; both workloads
//! finally compare the served contents with the benchmark's record.
//!
//! A traced run serves the same inputs twice, on fresh servers: first
//! untraced, then with [`TimedBackend`] on the worker side and client
//! spans, each for half the run time.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alex_core::AlexConfig;
use alex_datasets::lognormal_keys;
use alex_server::{
    Client, LatencyHistogram, Request, Response, ServeBackend, Server, ServerConfig,
};
use alex_sharded::ShardedAlex;
use alex_workloads::poisson_schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cli::Args;
use crate::common::{
    contents_match, exact_mix, expected_contents, key_set, overhead, payload, pick, report_setup,
    KeySet, Windows, DATASET_SEED, SETUP_REPS,
};
use crate::report::Report;
use crate::trace::{median, now_ns, ns_at, quantile, BackendCall, Spans, TimedBackend, ROOT};

type Index = ShardedAlex<u64, u64>;

/// Open-loop arrival rate.
const OPEN_RATE: f64 = 100_000.0;

/// Closed-loop inputs are generated for at most this many ops per
/// second of run time, far above what one client reaches.
const CLOSED_MAX_RATE: usize = 200_000;

/// A traced phase builds spans for its first this many requests.
const TRACED_REQUESTS: usize = 200_000;

/// At least this many windows are measured, whatever the run time.
const MIN_WINDOWS: usize = 5;

#[derive(Clone, Copy)]
struct Op {
    insert: bool,
    key: u64,
}

impl Op {
    fn request(self) -> Request<u64, u64> {
        if self.insert {
            Request::Insert {
                key: self.key,
                value: payload(self.key),
            }
        } else {
            Request::Get { key: self.key }
        }
    }
}

/// What the client side saw of one request, on the [`now_ns`] clock.
#[derive(Clone, Copy)]
struct ClientRecord {
    key: u64,
    /// Scheduled send time (open loop) or call start (closed loop).
    due: u64,
    sent: u64,
    submitted: u64,
    /// Response received (closed loop only).
    done: u64,
}

/// The backend a phase serves from: the plain index, or the index
/// behind the timing wrapper.
trait Backend: ServeBackend<u64, u64> + Sized {
    const TRACED: bool;
    fn wrap(index: Index) -> Self;
    fn unwrap(self) -> (Index, Vec<BackendCall>, Vec<u64>);
}

impl Backend for Index {
    const TRACED: bool = false;

    fn wrap(index: Index) -> Self {
        index
    }

    fn unwrap(self) -> (Index, Vec<BackendCall>, Vec<u64>) {
        (self, Vec::new(), Vec::new())
    }
}

impl Backend for TimedBackend<u64, Index> {
    const TRACED: bool = true;

    fn wrap(index: Index) -> Self {
        TimedBackend::new(index)
    }

    fn unwrap(self) -> (Index, Vec<BackendCall>, Vec<u64>) {
        self.into_parts()
    }
}

struct Inputs {
    keys: KeySet<u64>,
    ops: Vec<Op>,
    /// Open loop: arrival offsets in ns.
    schedule: Vec<u64>,
    open: bool,
    tiny: bool,
    seed: u64,
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    windows: Windows,
    /// Open loop: ops ÷ time until the last one completed.
    open_throughput: f64,
    late_ns: Vec<f64>,
    records: Vec<ClientRecord>,
    calls: Vec<BackendCall>,
    call_keys: Vec<u64>,
}

pub fn run(args: &Args, report: &mut Report, open: bool) {
    let n_keys = if args.tiny { 20_000 } else { 1_000_000 };
    let rate = if args.tiny {
        OPEN_RATE / 5.0
    } else {
        OPEN_RATE
    };
    let max_rate = if args.tiny {
        CLOSED_MAX_RATE / 10
    } else {
        CLOSED_MAX_RATE
    };
    let n_ops = if open {
        (rate * args.seconds as f64) as usize
    } else {
        max_rate * args.seconds as usize
    };
    let n_inserts = n_ops / 10;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E4E);
    let keys = key_set(
        lognormal_keys(n_keys + n_inserts, DATASET_SEED),
        n_keys,
        &mut rng,
    );
    let mut held = keys.held_out.iter();
    let ops: Vec<Op> = exact_mix(&mut rng, n_ops, &[0, n_inserts])
        .into_iter()
        .map(|kind| match kind {
            0 => Op {
                insert: false,
                key: keys.loaded[pick(&mut rng, n_keys)],
            },
            _ => Op {
                insert: true,
                key: *held.next().expect("one held-out key per insert"),
            },
        })
        .collect();
    let schedule = if open {
        poisson_schedule(rate, n_ops, args.seed ^ 0xA771)
            .iter()
            .map(|d| d.as_nanos() as u64)
            .collect()
    } else {
        Vec::new()
    };
    let inputs = Inputs {
        keys,
        ops,
        schedule,
        open,
        tiny: args.tiny,
        seed: args.seed,
    };

    let secs = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let budget = Duration::from_secs_f64(secs);
    let plain = phase::<Index>(&inputs, budget, SETUP_REPS, report);
    plain.windows.report(report);
    if open {
        report.set("throughput_ops_s", plain.open_throughput, "ops/s");
        let mut late = plain.late_ns.clone();
        report.set("loadgen.late_p50_us", quantile(&mut late, 0.50) / 1e3, "us");
        report.set("loadgen.late_p99_us", quantile(&mut late, 0.99) / 1e3, "us");
    }
    if args.trace {
        let traced = phase::<TimedBackend<u64, Index>>(&inputs, budget, 1, report);
        report_spans(report, &inputs, &traced);
        let frac = if open {
            overhead(
                plain.windows.median_p50_us(),
                traced.windows.median_p50_us(),
                false,
            )
        } else {
            overhead(
                plain.windows.median_throughput(),
                traced.windows.median_throughput(),
                true,
            )
        };
        report.set("trace.overhead_frac", frac, "fraction");
    }
}

/// Set up a server on backend `B`, drive it for `budget`, check what it
/// served, and shut it down.
fn phase<B: Backend>(
    inputs: &Inputs,
    budget: Duration,
    setup_reps: usize,
    report: &mut Report,
) -> Phase {
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..setup_reps {
        drop(server.take());
        let t = Instant::now();
        let index = Index::bulk_load(&inputs.keys.pairs, 1, AlexConfig::ga_armi());
        server = Some(Server::start(B::wrap(index), ServerConfig::default()));
        setups.push(t.elapsed());
    }
    let server = server.expect("started");
    if !B::TRACED {
        report_setup(report, &setups);
    }
    let client = server.client();
    let (executed, mut phase) = if inputs.open {
        open_loop::<B>(&client, inputs, budget, report)
    } else {
        closed_loop::<B>(&client, &inputs.ops, budget, inputs.tiny, report)
    };

    // Every insert that ran must be served, with its value.
    let mut inserted: Vec<u64> = inputs.ops[..executed]
        .iter()
        .filter(|op| op.insert)
        .map(|op| op.key)
        .collect();
    inserted.sort_unstable();
    let missing = match client.call(Request::BatchGet {
        keys: inserted.clone(),
    }) {
        Response::Values(values) if values.len() == inserted.len() => inserted
            .iter()
            .zip(&values)
            .filter(|(k, v)| **v != Some(payload(**k)))
            .count(),
        _ => inserted.len(),
    };
    report.attempted += inserted.len() as u64;
    report.failed += missing as u64;

    if !B::TRACED {
        let stats = server.stats().aggregate();
        let ops = stats.ops.max(1) as f64;
        report.set(
            "server.batch_occupancy",
            stats.batch_occupancy_mean(),
            "ops/batch",
        );
        report.set(
            "server.coalesced_frac",
            (stats.get_run_ops + stats.insert_run_ops) as f64 / ops,
            "fraction",
        );
        report.set("server.queue_depth_mean", stats.queue_depth_mean(), "count");
    }
    drop(client);
    let backend = Arc::try_unwrap(server.shutdown())
        .ok()
        .expect("shutdown leaves the backend to its caller");
    let (index, calls, call_keys) = backend.unwrap();
    let expected = expected_contents(&inputs.keys.pairs, &inserted);
    let mut got = Vec::with_capacity(index.len());
    index.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
    report.check(index.len() == expected.len() && contents_match(&expected, &got));
    if !B::TRACED {
        // The closed loop runs as many ops as its speed allows, so its
        // space figures come from the ops every run makes: its first
        // windows' inserts, replayed in served order on a fresh index.
        // Single inserts go to `ServeBackend::insert`, which is
        // `ShardedAlex::insert`, so the replay builds the same leaves.
        let replayed = (!inputs.open).then(|| {
            let prefix = (MIN_WINDOWS * closed_window(inputs.tiny)).min(executed);
            let replay = Index::bulk_load(&inputs.keys.pairs, 1, AlexConfig::ga_armi());
            for op in inputs.ops[..prefix].iter().filter(|op| op.insert) {
                report.check(replay.insert(op.key, payload(op.key)).is_ok());
            }
            replay
        });
        let sized = replayed.as_ref().unwrap_or(&index);
        let size = sized.size_report();
        report.set(
            "index_bytes_per_key",
            size.index_bytes as f64 / sized.len() as f64,
            "B",
        );
        report.set(
            "data_bytes_per_key",
            size.data_bytes as f64 / sized.len() as f64,
            "B",
        );
    }
    phase.calls = calls;
    phase.call_keys = call_keys;
    phase
}

/// Calls per closed-loop window.
fn closed_window(tiny: bool) -> usize {
    if tiny {
        500
    } else {
        20_000
    }
}

/// One client calling back to back, in windows of a fixed op count,
/// until `budget` is spent. Returns how many ops ran.
fn closed_loop<B: Backend>(
    client: &Client<u64, u64>,
    ops: &[Op],
    budget: Duration,
    tiny: bool,
    report: &mut Report,
) -> (usize, Phase) {
    let window = closed_window(tiny);
    let mut windows = Windows::default();
    let mut records = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while i < ops.len() {
        let end = (i + window).min(ops.len());
        let mut lat = Vec::with_capacity(end - i);
        let mut failed = 0u64;
        windows.begin();
        let t = Instant::now();
        for &op in &ops[i..end] {
            let response = if B::TRACED {
                let sent = now_ns();
                let pending = client.submit(op.request());
                let submitted = now_ns();
                let response = pending.wait();
                let done = now_ns();
                records.push(ClientRecord {
                    key: op.key,
                    due: sent,
                    sent,
                    submitted,
                    done,
                });
                lat.push((done - sent) as f64);
                response
            } else {
                let t = Instant::now();
                let response = client.call(op.request());
                lat.push(t.elapsed().as_nanos() as f64);
                response
            };
            let ok = match response {
                Response::Inserted(landed) => op.insert && landed,
                Response::Value(value) => !op.insert && value == Some(payload(op.key)),
                _ => false,
            };
            failed += u64::from(!ok);
        }
        let elapsed = t.elapsed();
        windows.add(end - i, elapsed, &mut lat);
        report.attempted += (end - i) as u64;
        report.failed += failed;
        i = end;
        if windows.p50_us.len() >= MIN_WINDOWS && started.elapsed() >= budget {
            break;
        }
    }
    let phase = Phase {
        windows,
        records,
        ..Phase::default()
    };
    (i, phase)
}

/// One generator spin-waiting to each scheduled arrival of the first
/// `budget` of the schedule. Latency per window of schedule time comes
/// from the server's histograms. Returns how many ops ran.
fn open_loop<B: Backend>(
    client: &Client<u64, u64>,
    inputs: &Inputs,
    budget: Duration,
    report: &mut Report,
) -> (usize, Phase) {
    let window_ns: u64 = if inputs.tiny { 50_000_000 } else { 500_000_000 };
    let horizon = budget.as_nanos() as u64;
    let n = inputs.schedule.partition_point(|&t| t < horizon).max(1);
    let schedule = &inputs.schedule[..n];
    let hists: Vec<Arc<LatencyHistogram>> = (0..=schedule[n - 1] / window_ns)
        .map(|_| Arc::new(LatencyHistogram::new()))
        .collect();
    let mut late_ns = Vec::with_capacity(n);
    let mut records = Vec::with_capacity(if B::TRACED { n } else { 0 });
    let origin = Instant::now() + Duration::from_millis(1);
    for (op, &at) in inputs.ops[..n].iter().zip(schedule) {
        let due = origin + Duration::from_nanos(at);
        let mut now = Instant::now();
        while now < due {
            std::hint::spin_loop();
            now = Instant::now();
        }
        late_ns.push((now - due).as_nanos() as f64);
        let hist = &hists[(at / window_ns) as usize];
        if B::TRACED {
            let sent = now_ns();
            client.submit_measured(op.request(), due, hist);
            let submitted = now_ns();
            records.push(ClientRecord {
                key: op.key,
                due: ns_at(due),
                sent,
                submitted,
                done: 0,
            });
        } else {
            client.submit_measured(op.request(), due, hist);
        }
    }
    // Wait for the last completion; a server that loses requests fails
    // the run instead of hanging it.
    let deadline = Instant::now() + Duration::from_secs(60);
    let completed = || hists.iter().map(|h| h.count()).sum::<u64>();
    while completed() < n as u64 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let open_throughput = n as f64 / origin.elapsed().as_secs_f64();
    report.attempted += n as u64;
    report.failed += n as u64 - completed().min(n as u64);

    let mut windows = Windows::default();
    for h in &hists {
        let snap = h.snapshot();
        // A window too thin for a p99 (the tail of the schedule) is
        // left out.
        if snap.count() >= 1_000 {
            windows.p50_us.push(snap.p50() as f64 / 1e3);
            windows.p99_us.push(snap.p99() as f64 / 1e3);
            windows.p999_us.push(snap.p999() as f64 / 1e3);
        }
    }
    let phase = Phase {
        windows,
        open_throughput,
        late_ns,
        records,
        ..Phase::default()
    };
    (n, phase)
}

/// Link every backend call to the requests it served (by key, first
/// come first served), build the request spans, report the server
/// layer's medians and write the spans out.
fn report_spans(report: &mut Report, inputs: &Inputs, phase: &Phase) {
    let records = &phase.records[..phase.records.len().min(TRACED_REQUESTS)];
    let mut waiting: HashMap<u64, VecDeque<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        waiting.entry(r.key).or_default().push_back(i);
    }
    let mut order: Vec<usize> = (0..phase.calls.len()).collect();
    order.sort_by_key(|&c| phase.calls[c].start);
    let mut served_by = vec![None; records.len()];
    for c in order {
        let (from, to) = phase.calls[c].keys;
        for key in &phase.call_keys[from..to] {
            if let Some(i) = waiting.get_mut(key).and_then(VecDeque::pop_front) {
                served_by[i] = Some(c);
            }
        }
    }

    let root_name = if inputs.open {
        "loadgen.request"
    } else {
        "client.call"
    };
    let mut spans = Spans::with_capacity(records.len() * 5);
    let (mut submit, mut queue) = (Vec::new(), Vec::new());
    let mut unlinked = 0u64;
    for (i, (r, call)) in records.iter().zip(&served_by).enumerate() {
        let Some(call) = call.map(|c| phase.calls[c]) else {
            unlinked += 1;
            continue;
        };
        let id = i as u64;
        let end = if inputs.open { call.end } else { r.done };
        let root = spans.push(root_name, id, ROOT, r.due, end.max(r.due));
        if inputs.open {
            spans.push("loadgen.late", id, root, r.due, r.sent.max(r.due));
        }
        spans.push("client.submit", id, root, r.sent, r.submitted);
        spans.push(
            "server.queue",
            id,
            root,
            r.submitted,
            call.start.max(r.submitted),
        );
        spans.push(call.name, id, root, call.start, call.end);
        submit.push((r.submitted - r.sent) as f64);
        queue.push(call.start.saturating_sub(r.submitted) as f64);
    }
    let mut backend: Vec<f64> = phase
        .calls
        .iter()
        .map(|c| (c.end - c.start) as f64)
        .collect();
    report.set("server.submit_ns", median(&mut submit), "ns");
    report.set("server.queue_wait_ns", median(&mut queue), "ns");
    report.set("server.backend_ns", median(&mut backend), "ns");
    if !inputs.open {
        // The call's time not spent submitting, queued or in the
        // backend: the worker's reply and the caller's wake-up.
        report.set(
            "server.handoff_ns",
            median(&mut spans.self_times("client.call")),
            "ns",
        );
    }
    report.set("trace.unlinked_requests", unlinked as f64, "count");
    let name = if inputs.open {
        "serve-open"
    } else {
        "serve-closed"
    };
    report.check(spans.write_tsv(name, inputs.seed).is_ok());
}
