//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles returned by the registry are cheap `Arc` clones over atomics;
//! updating one is a single relaxed atomic operation (histograms add one
//! compare-exchange for the running sum) and never allocates. A registry
//! built with [`Registry::disabled`] hands out empty handles whose update
//! methods are no-ops.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Instantaneous level (last value wins).
    Gauge,
    /// Distribution over fixed buckets.
    Histogram,
}

/// One histogram bucket in a snapshot: observations `<= upper_bound`
/// (cumulative, Prometheus-style); `None` is the +∞ overflow bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound, or `None` for the overflow bucket.
    pub upper_bound: Option<f64>,
    /// Cumulative count of observations at or below the bound.
    pub count: u64,
}

/// A point-in-time reading of one metric, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Metric name, e.g. `"mac.tx.delivered"`.
    pub name: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Counter total or current gauge level (0 for histograms).
    pub value: f64,
    /// Number of histogram observations (0 otherwise).
    pub count: u64,
    /// Sum of histogram observations (0 otherwise).
    pub sum: f64,
    /// Cumulative bucket counts (empty unless a histogram).
    pub buckets: Vec<BucketCount>,
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// An instantaneous level; stores the most recent `set`.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Records the current level.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Last recorded level (0.0 when disabled or never set).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing; the implicit final
    /// bucket catches everything above the last bound.
    bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` entries.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum as `f64` bits, updated by compare-exchange.
    sum_bits: AtomicU64,
}

/// A distribution over fixed buckets chosen at registration.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        let Some(core) = &self.core else { return };
        // Linear scan: bucket lists are short (≤ ~20) and branch-predictable.
        let idx = core
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(core.bounds.len());
        core.counts[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut prev = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(prev) + value).to_bits();
            match core.sum_bits.compare_exchange_weak(
                prev,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => prev = actual,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.core
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.sum_bits.load(Ordering::Relaxed)))
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) as the upper
    /// bound of the bucket holding the `⌈q·count⌉`-th smallest
    /// observation — an upper bound on the true quantile, exact when all
    /// observations in that bucket equal its bound.
    ///
    /// Returns `None` for an empty (or disabled) histogram, and
    /// `f64::INFINITY` when the quantile falls in the overflow bucket
    /// (no finite bound is known).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let core = self.core.as_ref()?;
        let n = core.count.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut running = 0u64;
        for (i, c) in core.counts.iter().enumerate() {
            running += c.load(Ordering::Relaxed);
            if running >= rank {
                return Some(core.bounds.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        Some(f64::INFINITY)
    }

    /// Cumulative counts per bucket (Prometheus convention: each entry
    /// counts observations at or below its bound; the final `None` entry
    /// equals [`Histogram::count`]).
    pub fn cumulative_buckets(&self) -> Vec<BucketCount> {
        let Some(core) = &self.core else {
            return Vec::new();
        };
        let mut running = 0;
        core.counts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                running += c.load(Ordering::Relaxed);
                BucketCount {
                    upper_bound: core.bounds.get(i).copied(),
                    count: running,
                }
            })
            .collect()
    }
}

#[derive(Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

impl Cell {
    fn kind(&self) -> MetricKind {
        match self {
            Cell::Counter(_) => MetricKind::Counter,
            Cell::Gauge(_) => MetricKind::Gauge,
            Cell::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    cell: Cell,
}

/// The set of registered metrics. Cloning shares the underlying store;
/// [`Registry::disabled`] (also `Default`) produces no-op handles.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// `None` means telemetry is off and all handles are no-ops.
    inner: Option<Arc<Mutex<Vec<Entry>>>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// A registry whose instruments drop every update.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether updates are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-fetches) a counter. Repeated registration with
    /// the same name returns a handle to the same cell.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric
    /// kind.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let mut entries = inner.lock();
        let cell = find_or_insert(&mut entries, name, || {
            Cell::Counter(Arc::new(AtomicU64::new(0)))
        });
        match cell {
            Cell::Counter(c) => Counter {
                cell: Some(c.clone()),
            },
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Registers (or re-fetches) a gauge.
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch with an existing registration.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        let mut entries = inner.lock();
        let cell = find_or_insert(&mut entries, name, || {
            Cell::Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())))
        });
        match cell {
            Cell::Gauge(c) => Gauge {
                cell: Some(c.clone()),
            },
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Registers (or re-fetches) a histogram over the given strictly
    /// increasing inclusive upper bounds; observations above the last
    /// bound land in an implicit overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing, or on a
    /// kind/bounds mismatch with an existing registration.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        assert!(
            !bounds.is_empty(),
            "histogram {name:?} needs at least one bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds must be strictly increasing"
        );
        let Some(inner) = &self.inner else {
            return Histogram::default();
        };
        let mut entries = inner.lock();
        let cell = find_or_insert(&mut entries, name, || {
            Cell::Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
            }))
        });
        match cell {
            Cell::Histogram(core) => {
                assert_eq!(
                    core.bounds, bounds,
                    "metric {name:?} re-registered with different buckets"
                );
                Histogram {
                    core: Some(core.clone()),
                }
            }
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Reads every metric, ordered by name. The deterministic ordering makes
    /// JSONL exports and report diffs comparable across runs regardless of
    /// which code path registered its metrics first.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let entries = inner.lock();
        let mut snaps: Vec<MetricSnapshot> = entries
            .iter()
            .map(|entry| {
                let mut snap = MetricSnapshot {
                    name: entry.name.clone(),
                    kind: entry.cell.kind(),
                    value: 0.0,
                    count: 0,
                    sum: 0.0,
                    buckets: Vec::new(),
                };
                match &entry.cell {
                    Cell::Counter(c) => {
                        snap.value = c.load(Ordering::Relaxed) as f64;
                    }
                    Cell::Gauge(c) => {
                        snap.value = f64::from_bits(c.load(Ordering::Relaxed));
                    }
                    Cell::Histogram(core) => {
                        let h = Histogram {
                            core: Some(core.clone()),
                        };
                        snap.count = h.count();
                        snap.sum = h.sum();
                        snap.buckets = h.cumulative_buckets();
                    }
                }
                snap
            })
            .collect();
        snaps.sort_by(|a, b| a.name.cmp(&b.name));
        snaps
    }
}

fn find_or_insert<'e>(
    entries: &'e mut Vec<Entry>,
    name: &str,
    make: impl FnOnce() -> Cell,
) -> &'e Cell {
    let pos = entries
        .iter()
        .position(|e| e.name == name)
        .unwrap_or_else(|| {
            entries.push(Entry {
                name: name.to_string(),
                cell: make(),
            });
            entries.len() - 1
        });
    &entries[pos].cell
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let registry = Registry::new();
        let a = registry.counter("events");
        let b = registry.counter("events");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        let snap = registry.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].value, 5.0);
        assert_eq!(snap[0].kind, MetricKind::Counter);
    }

    #[test]
    fn gauge_keeps_last_value() {
        let registry = Registry::new();
        let g = registry.gauge("queue.len");
        g.set(3.0);
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
        assert_eq!(registry.snapshot()[0].value, 1.5);
    }

    #[test]
    fn histogram_buckets_edges_and_overflow() {
        let registry = Registry::new();
        let h = registry.histogram("lat", &[1.0, 10.0, 100.0]);
        // Exactly on a bound lands in that bound's bucket (inclusive).
        h.observe(1.0);
        h.observe(0.5);
        h.observe(10.0);
        h.observe(99.9);
        h.observe(100.0);
        h.observe(1e6); // overflow
        assert_eq!(h.count(), 6);
        assert!((h.sum() - (1.0 + 0.5 + 10.0 + 99.9 + 100.0 + 1e6)).abs() < 1e-9);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(
            buckets[0],
            BucketCount {
                upper_bound: Some(1.0),
                count: 2
            }
        );
        assert_eq!(
            buckets[1],
            BucketCount {
                upper_bound: Some(10.0),
                count: 3
            }
        );
        assert_eq!(
            buckets[2],
            BucketCount {
                upper_bound: Some(100.0),
                count: 5
            }
        );
        assert_eq!(
            buckets[3],
            BucketCount {
                upper_bound: None,
                count: 6
            }
        );
    }

    /// Satellite: percentile edge cases — empty, single-sample, and
    /// all-equal histograms.
    #[test]
    fn quantile_empty_histogram_is_none() {
        let registry = Registry::new();
        let h = registry.histogram("empty", &[1.0, 10.0]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
        // A disabled handle behaves like an empty histogram.
        assert_eq!(Histogram::default().quantile(0.5), None);
    }

    #[test]
    fn quantile_single_sample_is_its_bucket_for_every_q() {
        let registry = Registry::new();
        let h = registry.histogram("one", &[1.0, 10.0, 100.0]);
        h.observe(7.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(10.0), "q={q}");
        }
    }

    #[test]
    fn quantile_all_equal_samples_are_stable_across_q() {
        let registry = Registry::new();
        let h = registry.histogram("flat", &[1.0, 10.0, 100.0]);
        for _ in 0..50 {
            h.observe(10.0); // exactly on a bound: inclusive bucket
        }
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(10.0), "q={q}");
        }
    }

    #[test]
    fn quantile_spread_and_overflow() {
        let registry = Registry::new();
        let h = registry.histogram("spread", &[1.0, 10.0, 100.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(1e6); // overflow bucket
        assert_eq!(h.quantile(0.25), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(10.0));
        assert_eq!(h.quantile(0.75), Some(100.0));
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(-3.0), Some(1.0));
        assert_eq!(h.quantile(7.0), Some(f64::INFINITY));
    }

    #[test]
    fn disabled_registry_is_noop() {
        let registry = Registry::disabled();
        let c = registry.counter("x");
        let g = registry.gauge("y");
        let h = registry.histogram("z", &[1.0]);
        c.inc();
        g.set(7.0);
        h.observe(3.0);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert!(registry.snapshot().is_empty());
        assert!(!registry.is_enabled());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("m");
        registry.gauge("m");
    }

    #[test]
    fn snapshot_is_sorted_by_name_regardless_of_registration_order() {
        let registry = Registry::new();
        registry.counter("zeta").inc();
        registry.gauge("alpha").set(1.0);
        registry.counter("mid").add(2);
        let names: Vec<String> = registry.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let registry = Registry::new();
        registry.counter("c").inc();
        registry.histogram("h", &[5.0]).observe(2.0);
        let text = serde_json::to_string(&registry.snapshot()).unwrap();
        let back: Vec<MetricSnapshot> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, registry.snapshot());
    }
}
