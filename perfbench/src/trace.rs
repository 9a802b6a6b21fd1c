//! Spans recorded from the benchmark's own code around calls into each
//! layer, plus the order statistics every workload reports.
//!
//! A span has a name, a request id shared by all spans of one request,
//! start and end times on one process-wide clock, and the index of the
//! span that caused it. Spans stay in memory during the run and are
//! written out once at the end. Untraced runs use [`NoSpans`], whose
//! calls compile to the wrapped call alone.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use alex_core::InsertError;
use alex_server::{ServeBackend, ServerKey, ServerValue};
use alex_sharded::RebalanceReport;

/// Nanoseconds since the clock's first use, on a clock shared by all
/// threads.
pub fn now_ns() -> u64 {
    ns_at(Instant::now())
}

/// `t` on the [`now_ns`] clock (0 for instants before its first use).
pub fn ns_at(t: Instant) -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Spans of request ids below this are written out; the per-layer
/// medians use every span kept in memory.
pub const SPANS_WRITTEN: u64 = 100_000;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Where a workload loop reports the calls it makes into a layer.
pub trait Probe {
    /// Whether spans are kept (so the caller may gather extra detail).
    const TRACED: bool;

    /// Run `f` as the span `name` of request `id`.
    fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R;
}

/// The untraced probe: calls straight through.
pub struct NoSpans;

impl Probe for NoSpans {
    const TRACED: bool = false;

    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, _id: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The traced probe: keeps every span in memory.
#[derive(Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Self {
        Spans {
            spans: Vec::with_capacity(n),
        }
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(&mut self, name: &'static str, id: u64, parent: u32, start: u64, end: u64) -> u32 {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in ns.
    pub fn median_ns(&self, name: &str) -> f64 {
        median(&mut self.durations(name))
    }

    /// Per-span self time: duration minus the part of it that its
    /// children cover (children may overlap; their union counts once).
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur().saturating_sub(covered) as f64
            })
            .collect()
    }

    /// Write the spans of the first [`SPANS_WRITTEN`] request ids of
    /// `workload` to `out/spans-<workload>.tsv` as tab-separated `index
    /// id name parent start_ns end_ns` lines (parent `-` for a root),
    /// after a `# seed` line. Each traced run replaces the file.
    pub fn write_tsv(&self, workload: &str, seed: u64) -> io::Result<()> {
        let dir = crate::common::out_dir();
        std::fs::create_dir_all(&dir)?;
        let file = std::fs::File::create(dir.join(format!("spans-{workload}.tsv")))?;
        let mut out = io::BufWriter::new(file);
        writeln!(out, "# seed {seed}")?;
        writeln!(out, "index\tid\tname\tparent\tstart_ns\tend_ns")?;
        let mut line = String::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.id < SPANS_WRITTEN)
        {
            line.clear();
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                line,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.id, s.name, s.start, s.end
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

impl Probe for Spans {
    const TRACED: bool = true;

    #[inline]
    fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let r = f();
        let end = now_ns();
        self.push(name, id, ROOT, start, end);
        r
    }
}

/// One call a worker made into the backend, with the keys it covered.
#[derive(Debug, Clone, Copy)]
pub struct BackendCall {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Range into [`TimedBackend::into_parts`]'s key list.
    pub keys: (usize, usize),
}

/// A [`ServeBackend`] that times every call the worker makes into the
/// backend it wraps and remembers which keys each call covered, so
/// each call can be linked to the requests it served.
pub struct TimedBackend<K, B> {
    inner: B,
    log: Mutex<(Vec<BackendCall>, Vec<K>)>,
}

impl<K: Copy, B> TimedBackend<K, B> {
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            log: Mutex::new((Vec::new(), Vec::new())),
        }
    }

    fn record(&self, name: &'static str, start: u64, keys: impl Iterator<Item = K>) {
        let end = now_ns();
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let (calls, all_keys) = &mut *log;
        let from = all_keys.len();
        all_keys.extend(keys);
        calls.push(BackendCall {
            name,
            start,
            end,
            keys: (from, all_keys.len()),
        });
    }

    pub fn into_parts(self) -> (B, Vec<BackendCall>, Vec<K>) {
        let (calls, keys) = self
            .log
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (self.inner, calls, keys)
    }
}

impl<K: ServerKey, V: ServerValue, B: ServeBackend<K, V>> ServeBackend<K, V>
    for TimedBackend<K, B>
{
    fn boundaries(&self) -> &[K] {
        self.inner.boundaries()
    }

    fn get(&self, key: &K) -> Option<V> {
        let start = now_ns();
        let r = self.inner.get(key);
        self.record("backend.get", start, std::iter::once(*key));
        r
    }

    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        let start = now_ns();
        let r = self.inner.get_many(keys);
        self.record("backend.get_many", start, keys.iter().copied());
        r
    }

    fn insert(&self, key: K, value: V) -> Result<(), InsertError> {
        let start = now_ns();
        let r = self.inner.insert(key, value);
        self.record("backend.insert", start, std::iter::once(key));
        r
    }

    fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        let start = now_ns();
        let r = self.inner.bulk_insert(pairs);
        self.record("backend.bulk_insert", start, pairs.iter().map(|p| p.0));
        r
    }

    fn remove(&self, key: &K) -> Option<V> {
        let start = now_ns();
        let r = self.inner.remove(key);
        self.record("backend.remove", start, std::iter::once(*key));
        r
    }

    fn scan_from(&self, key: &K, limit: usize, f: &mut dyn FnMut(&K, &V)) -> usize {
        let start = now_ns();
        let r = self.inner.scan_from(key, limit, f);
        self.record("backend.scan", start, std::iter::once(*key));
        r
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn rebalance(&mut self) -> Option<RebalanceReport> {
        self.inner.rebalance()
    }
}

/// Median by linear interpolation; 0 for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile by linear interpolation between order statistics
/// (sorts `values`); 0 for no samples.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&mut [0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::default();
        let root = s.push("call", 1, ROOT, 0, 100);
        s.push("a", 1, root, 10, 30);
        s.push("b", 1, root, 20, 50); // overlaps `a`
        s.push("c", 1, root, 90, 120); // runs past the parent's end
        assert_eq!(s.self_times("call"), vec![100.0 - 40.0 - 10.0]);
    }
}
