//! The Gapped Array (GA) data node (§3.3.1, Algorithm 1).
//!
//! Model-based inserts place each key at the slot its linear model
//! predicts, leaving the gaps "naturally" distributed where the model
//! expects future keys. When density crosses the upper limit `d` the
//! node expands by `1/d` (bringing density back to `d²`), retrains its
//! model, and re-inserts every key model-based (Algorithm 3).

use crate::config::{NodeParams, Placement};
use crate::key::AlexKey;
use crate::model::LinearModel;
use crate::slots::{InsertPlan, SlotArray};
use crate::stats::{ReadStats, WriteStats};

/// Outcome of a data-node insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Inserted; `shifts` elements were moved to make room.
    Inserted { shifts: u64 },
    /// The key was already present; nothing changed.
    Duplicate,
}

/// A gapped-array leaf node.
#[derive(Debug, Clone)]
pub struct GappedNode<K, V> {
    pub(crate) slots: SlotArray<K, V>,
    pub(crate) model: LinearModel,
    params: NodeParams,
    /// Degradation guard: set at (re)train time when the model's
    /// `as_f64` projection cannot separate this node's keys (shared
    /// string prefixes, dense integers past 2⁵³). A degraded node
    /// places uniformly and answers [`GappedNode::predict`] with an
    /// exact binary lower bound, so inserts never pile into the few
    /// predicted slots and lookups stay O(log capacity). Re-evaluated
    /// at every retrain, so the node recovers as soon as its key set
    /// becomes separable again.
    degraded: bool,
    pub(crate) writes: WriteStats,
    pub(crate) reads: ReadStats,
}

/// Degraded when fewer than `1/COLLAPSE_FACTOR` of a node's keys have
/// distinct projections…
const DEGRADE_COLLAPSE_FACTOR: usize = 4;
/// …or when the fit's mean absolute slot error exceeds this fraction
/// of the capacity (the model is noise even if the projection is
/// injective).
const DEGRADE_ERROR_FRACTION: f64 = 0.125;

/// The degradation detector both leaf layouts share: one pass over the
/// sorted keys counting distinct projections and summing |predicted −
/// uniform target| per key. Either criterion alone flips the node —
/// a collapsed projection (ties) even when the fit looks plausible,
/// and a garbage fit even when the projection is injective.
pub(crate) fn model_degraded<'a, K: AlexKey + 'a>(
    keys: impl Iterator<Item = &'a K>,
    n: usize,
    capacity: usize,
    model: &LinearModel,
) -> bool {
    if n == 0 {
        return false;
    }
    let mut distinct = 0usize;
    let mut prev: Option<f64> = None;
    let mut err_sum = 0u64;
    for (i, key) in keys.enumerate() {
        let x = key.as_f64();
        if prev.is_none_or(|p| p < x) {
            distinct += 1;
        }
        prev = Some(x);
        let target = i * capacity / n;
        err_sum += model.predict_clamped(x, capacity).abs_diff(target) as u64;
    }
    distinct * DEGRADE_COLLAPSE_FACTOR < n
        || err_sum as f64 > DEGRADE_ERROR_FRACTION * capacity as f64 * n as f64
}

impl<K: AlexKey, V: Clone + Default> GappedNode<K, V> {
    /// Minimum slot capacity of any node.
    const MIN_CAPACITY: usize = 8;

    /// An empty node ("cold start", §3.3.3).
    pub fn empty(params: NodeParams) -> Self {
        Self {
            slots: SlotArray::empty(Self::MIN_CAPACITY),
            model: LinearModel::default(),
            params,
            degraded: false,
            writes: WriteStats::default(),
            reads: ReadStats::default(),
        }
    }

    /// Bulk-load from sorted pairs: allocate `n / d²` slots (§3.3.1:
    /// expansion factor `c = 1/d²`), train the model, and model-based
    /// insert every key.
    pub fn bulk_load(pairs: &[(K, V)], params: NodeParams) -> Self {
        let n = pairs.len();
        let capacity = Self::capacity_for(n, &params);
        let (model, slots, degraded) = Self::train_and_place(pairs, capacity, &params);
        Self {
            slots,
            model,
            params,
            degraded,
            writes: WriteStats::default(),
            reads: ReadStats::default(),
        }
    }

    fn capacity_for(n: usize, params: &NodeParams) -> usize {
        ((n as f64 / params.init_density).ceil() as usize).max(Self::MIN_CAPACITY)
    }

    fn train_and_place(
        pairs: &[(K, V)],
        capacity: usize,
        params: &NodeParams,
    ) -> (LinearModel, SlotArray<K, V>, bool) {
        let n = pairs.len();
        let base = LinearModel::fit(pairs.iter().enumerate().map(|(i, p)| (p.0.as_f64(), i as f64)));
        let model = if n == 0 {
            base
        } else {
            base.scaled(capacity as f64 / n as f64)
        };
        let degraded =
            n >= params.min_model_keys && model_degraded(pairs.iter().map(|p| &p.0), n, capacity, &model);
        let slots = if degraded {
            // Model placement would pile keys into the few predicted
            // slots; uniform spacing keeps the gaps spread for the
            // binary-search insert path.
            SlotArray::rebuild_uniform(pairs, capacity)
        } else {
            match params.placement {
                Placement::ModelBased => SlotArray::rebuild_model_based(pairs, capacity, &model),
                Placement::Uniform => SlotArray::rebuild_uniform(pairs, capacity),
            }
        };
        (model, slots, degraded)
    }

    /// Number of keys stored.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.slots.num_keys
    }

    /// Slot capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Current density (`num_keys / capacity`).
    #[inline]
    pub fn density(&self) -> f64 {
        self.slots.density()
    }

    /// Whether the node models lookups (below the threshold it binary
    /// searches, §3.3.3).
    #[inline]
    fn uses_model(&self) -> bool {
        self.slots.num_keys >= self.params.min_model_keys
    }

    /// Model-predicted slot for `key`.
    #[inline]
    pub fn predict(&self, key: &K) -> usize {
        if self.degraded {
            // Degraded model: the hint is an exact binary lower bound
            // over the gap-filled keys — O(log capacity), no model.
            self.slots.binary_lower_bound_slot(key)
        } else if self.uses_model() {
            self.model.predict_clamped(key.as_f64(), self.capacity())
        } else {
            // Cold start: binary search (hint = middle is equivalent).
            self.capacity() / 2
        }
    }

    /// Whether the last (re)train flagged the model as degraded and
    /// flipped this node to uniform placement + binary search.
    #[inline]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Look up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let hint = self.predict(key);
        let (slot, comparisons) = self.slots.find_key(key, hint);
        self.reads.record(comparisons, slot == Some(hint));
        slot.map(|s| &self.slots.values[s])
    }

    /// Look up `key` mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let hint = self.predict(key);
        let (slot, comparisons) = self.slots.find_key(key, hint);
        self.reads.record(comparisons, slot == Some(hint));
        slot.map(|s| &mut self.slots.values[s])
    }

    /// First occupied slot with key `>= key` (for range scans). Returns
    /// the slot index, or `capacity()` if none.
    pub fn lower_bound_slot(&self, key: &K) -> usize {
        let r = self.slots.lower_bound(key, self.predict(key));
        self.slots
            .bitmap
            .next_occupied(r.pos)
            .unwrap_or(self.capacity())
    }

    /// Visit up to `limit` occupied entries starting at `slot` in key
    /// order; returns the number visited.
    pub fn scan_from_slot(&self, slot: usize, limit: usize, f: &mut impl FnMut(&K, &V)) -> usize {
        self.slots.scan_from(slot, limit, f)
    }

    /// Entry at an occupied slot.
    #[inline]
    pub(crate) fn entry_at(&self, slot: usize) -> (&K, &V) {
        debug_assert!(self.slots.is_occupied(slot));
        (&self.slots.keys[slot], &self.slots.values[slot])
    }

    /// Next occupied slot strictly after `slot`.
    #[inline]
    pub(crate) fn next_occupied_after(&self, slot: usize) -> Option<usize> {
        self.slots.bitmap.next_occupied(slot + 1)
    }

    /// First occupied slot.
    #[inline]
    pub(crate) fn first_occupied(&self) -> Option<usize> {
        self.slots.bitmap.next_occupied(0)
    }

    /// Last occupied slot.
    #[inline]
    pub(crate) fn last_occupied(&self) -> Option<usize> {
        self.slots.bitmap.prev_occupied(self.capacity().saturating_sub(1))
    }

    /// Insert, expanding first if the insert would cross the upper
    /// density limit `d` (Algorithm 1).
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        if (self.slots.num_keys + 1) as f64 / self.capacity() as f64 > self.params.upper_density {
            self.expand();
        }
        let (plan, _) = self.slots.plan_insert(&key, self.predict(&key));
        let outcome = match plan {
            InsertPlan::Duplicate(_) => return InsertOutcome::Duplicate,
            InsertPlan::IntoGap { preferred } => {
                self.slots.insert_into_gap(preferred, key, value);
                InsertOutcome::Inserted { shifts: 0 }
            }
            InsertPlan::NeedsShift { at } => {
                let cap = self.capacity();
                let shifts = self
                    .slots
                    .shift_insert(at, key, value, 0..cap)
                    .expect("density limit guarantees a free slot");
                self.writes.shifts += shifts;
                InsertOutcome::Inserted { shifts }
            }
        };
        self.writes.inserts += 1;
        outcome
    }

    /// Remove `key`, returning its value. The slot becomes a gap; the
    /// node contracts when density falls below the lower limit.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (slot, _) = self.slots.find_key(key, self.predict(key));
        let v = self.slots.remove_at(slot?);
        self.writes.deletes += 1;
        if self.capacity() > Self::MIN_CAPACITY && self.density() < self.params.lower_density {
            self.contract();
        }
        Some(v)
    }

    /// Expand by `1/d` and re-insert model-based (Algorithm 3).
    pub fn expand(&mut self) {
        let new_capacity = ((self.capacity() as f64 / self.params.upper_density).ceil() as usize)
            .max(self.slots.num_keys + 1)
            .max(Self::MIN_CAPACITY);
        self.rebuild(new_capacity);
        self.writes.expansions += 1;
    }

    /// Shrink back to the bulk-load density.
    fn contract(&mut self) {
        let new_capacity = Self::capacity_for(self.slots.num_keys, &self.params);
        if new_capacity < self.capacity() {
            self.rebuild(new_capacity);
            self.writes.contractions += 1;
        }
    }

    fn rebuild(&mut self, capacity: usize) {
        let pairs = self.slots.to_pairs();
        let (model, slots, degraded) = Self::train_and_place(&pairs, capacity, &self.params);
        self.model = model;
        self.slots = slots;
        self.degraded = degraded;
        self.writes.retrains += 1;
    }

    /// All pairs in key order.
    pub fn to_pairs(&self) -> Vec<(K, V)> {
        self.slots.to_pairs()
    }

    /// |predicted − actual| for every stored key (Figure 7).
    pub fn prediction_errors(&self) -> Vec<usize> {
        let mut errs = Vec::with_capacity(self.slots.num_keys);
        let mut slot = self.slots.bitmap.next_occupied(0);
        while let Some(s) = slot {
            let predicted = self.model.predict_clamped(self.slots.keys[s].as_f64(), self.capacity());
            errs.push(predicted.abs_diff(s));
            slot = self.slots.bitmap.next_occupied(s + 1);
        }
        errs
    }

    /// Data bytes (arrays incl. gaps + bitmap).
    pub fn data_size_bytes(&self) -> usize {
        self.slots.size_bytes()
    }

    /// Write-side counters.
    pub fn write_stats(&self) -> &WriteStats {
        &self.writes
    }

    /// Read-side counters.
    pub fn read_stats(&self) -> &ReadStats {
        &self.reads
    }

    #[cfg(any(test, debug_assertions))]
    #[allow(dead_code)] // exercised by unit, integration, and property tests
    pub(crate) fn debug_assert_invariants(&self) {
        self.slots.debug_assert_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> NodeParams {
        NodeParams::default()
    }

    fn sorted_pairs(n: u64, stride: u64) -> Vec<(u64, u64)> {
        (0..n).map(|k| (k * stride, k)).collect()
    }

    #[test]
    fn bulk_load_and_get() {
        let node = GappedNode::bulk_load(&sorted_pairs(1000, 3), params());
        assert_eq!(node.num_keys(), 1000);
        for k in 0..1000u64 {
            assert_eq!(node.get(&(k * 3)), Some(&k));
        }
        assert_eq!(node.get(&1), None);
        node.debug_assert_invariants();
    }

    #[test]
    fn bulk_load_density_matches_config() {
        let node = GappedNode::bulk_load(&sorted_pairs(1000, 1), params());
        let d = node.density();
        assert!(
            (d - params().init_density).abs() < 0.05,
            "density {d} should be near {}",
            params().init_density
        );
    }

    #[test]
    fn model_based_load_gives_direct_hits_on_linear_data() {
        let node = GappedNode::bulk_load(&sorted_pairs(1000, 7), params());
        let errs = node.prediction_errors();
        let zero = errs.iter().filter(|&&e| e == 0).count();
        assert!(
            zero as f64 > 0.9 * errs.len() as f64,
            "expected mostly direct hits on linear data, got {zero}/{}",
            errs.len()
        );
    }

    #[test]
    fn empty_node_cold_start() {
        let mut node: GappedNode<u64, u64> = GappedNode::empty(params());
        assert_eq!(node.num_keys(), 0);
        assert_eq!(node.get(&5), None);
        for k in [5u64, 3, 9, 1, 7] {
            assert!(matches!(node.insert(k, k), InsertOutcome::Inserted { .. }));
        }
        // Below min_model_keys the node still answers correctly.
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(node.get(&k), Some(&k));
        }
        node.debug_assert_invariants();
    }

    #[test]
    fn inserts_trigger_expansion() {
        let mut node: GappedNode<u64, u64> = GappedNode::empty(params());
        for k in 0..5000u64 {
            node.insert(k.wrapping_mul(2654435761) % 100_000, k);
        }
        assert!(node.write_stats().expansions > 0);
        assert!(node.density() <= node.params.upper_density + 1e-9);
        node.debug_assert_invariants();
    }

    #[test]
    fn insert_then_get_random_order() {
        let mut node: GappedNode<u64, u64> = GappedNode::empty(params());
        let mut x: u64 = 12345;
        let mut keys = Vec::new();
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x >> 20;
            if let InsertOutcome::Inserted { .. } = node.insert(k, k) {
                keys.push(k);
            }
        }
        assert_eq!(node.num_keys(), keys.len());
        for &k in &keys {
            assert_eq!(node.get(&k), Some(&k), "missing {k}");
        }
        node.debug_assert_invariants();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut node = GappedNode::bulk_load(&sorted_pairs(100, 1), params());
        assert_eq!(node.insert(50, 999), InsertOutcome::Duplicate);
        assert_eq!(node.get(&50), Some(&50));
        assert_eq!(node.num_keys(), 100);
    }

    #[test]
    fn remove_and_contract() {
        let mut node = GappedNode::bulk_load(&sorted_pairs(1000, 1), params());
        let cap_before = node.capacity();
        for k in 0..900u64 {
            assert_eq!(node.remove(&k), Some(k));
        }
        assert_eq!(node.num_keys(), 100);
        assert!(node.capacity() < cap_before, "node should contract");
        for k in 900..1000u64 {
            assert_eq!(node.get(&k), Some(&k));
        }
        assert_eq!(node.remove(&5), None);
        node.debug_assert_invariants();
    }

    #[test]
    fn mixed_insert_delete_cycle() {
        let mut node: GappedNode<u64, u64> = GappedNode::empty(params());
        for round in 0..5u64 {
            for k in 0..500u64 {
                node.insert(k * 10 + round, k);
            }
            for k in 0..250u64 {
                assert!(node.remove(&(k * 10 + round)).is_some());
            }
            node.debug_assert_invariants();
        }
        // 5 rounds x 250 survivors.
        assert_eq!(node.num_keys(), 1250);
    }

    #[test]
    fn get_mut_writes_payload() {
        let mut node = GappedNode::bulk_load(&sorted_pairs(100, 2), params());
        *node.get_mut(&10).unwrap() = 777;
        assert_eq!(node.get(&10), Some(&777));
    }

    #[test]
    fn lower_bound_slot_for_scans() {
        let node = GappedNode::bulk_load(&sorted_pairs(100, 10), params());
        let slot = node.lower_bound_slot(&55);
        let (k, _) = node.entry_at(slot);
        assert_eq!(*k, 60, "first key >= 55 is 60");
        // Past the end.
        assert_eq!(node.lower_bound_slot(&100_000), node.capacity());
    }

    #[test]
    fn read_stats_count_direct_hits() {
        let node = GappedNode::bulk_load(&sorted_pairs(1000, 5), params());
        for k in 0..1000u64 {
            node.get(&(k * 5));
        }
        let stats = node.read_stats();
        assert_eq!(stats.lookups(), 1000);
        assert!(
            stats.direct_hits() > 800,
            "linear data should be mostly direct hits, got {}",
            stats.direct_hits()
        );
    }

    #[test]
    fn linear_data_does_not_degrade() {
        let node = GappedNode::bulk_load(&sorted_pairs(2000, 7), params());
        assert!(!node.is_degraded(), "separable keys must keep the model");
    }

    #[test]
    fn dense_keys_past_2_53_degrade_to_binary_search() {
        // Near 2^63 the `as f64` projection quantizes to multiples of
        // 2^11, collapsing runs of ~2048 consecutive keys onto one
        // value. The guard must flip the node to uniform placement +
        // binary search rather than let placement pile up.
        let base = u64::MAX - 1_000_000;
        let pairs: Vec<(u64, u64)> = (0..4096).map(|i| (base + 2 * i, i)).collect();
        let mut node = GappedNode::bulk_load(&pairs, params());
        assert!(node.is_degraded(), "collapsed projection must degrade the node");
        for (k, v) in pairs.iter().step_by(97) {
            assert_eq!(node.get(k), Some(v), "key {k}");
        }
        // Fresh inserts interleaved among the loaded keys stay correct
        // and cheap: with a model the whole 2048-wide projection run
        // shares one predicted slot (a shift storm); with the guard the
        // binary hint is exact and uniform gaps are nearby.
        for i in 0..2000u64 {
            assert!(matches!(
                node.insert(base + 2 * ((i * 37) % 4096) + 1, i),
                InsertOutcome::Inserted { .. }
            ));
        }
        assert!(
            node.write_stats().shifts_per_insert() < 16.0,
            "degraded placement must not shift-storm, got {}",
            node.write_stats().shifts_per_insert()
        );
        for i in (0..2000u64).step_by(61) {
            assert_eq!(node.get(&(base + 2 * ((i * 37) % 4096) + 1)), Some(&i));
        }
        node.debug_assert_invariants();
    }

    #[test]
    fn shared_prefix_strings_degrade_to_binary_search() {
        use alex_api::FixedStr;
        // Every key shares a >8-byte prefix, so `prefix_u64` — and with
        // it `as_f64` — is a single constant across the node.
        let pairs: Vec<(FixedStr<40>, u64)> = (0..2000u64)
            .map(|i| (FixedStr::from(format!("https://example.com/item/{i:08}").as_str()), i))
            .collect();
        let node = GappedNode::bulk_load(&pairs, params());
        assert!(node.is_degraded(), "constant projection must degrade the node");
        for (k, v) in pairs.iter().step_by(53) {
            assert_eq!(node.get(k), Some(v), "{k:?}");
        }
        assert_eq!(node.get(&FixedStr::from("https://example.com/item/99999999")), None);
        node.debug_assert_invariants();
    }

    #[test]
    fn sequential_inserts_worst_case_still_correct() {
        // The adversarial pattern of Fig 5c: always inserting a new max.
        let mut node: GappedNode<u64, u64> = GappedNode::empty(params());
        for k in 0..2000u64 {
            node.insert(k, k);
        }
        assert_eq!(node.num_keys(), 2000);
        for k in (0..2000u64).step_by(113) {
            assert_eq!(node.get(&k), Some(&k));
        }
        node.debug_assert_invariants();
    }
}
