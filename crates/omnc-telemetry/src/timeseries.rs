//! Deterministic windowed time series: bounded-memory dynamics metrics
//! sampled on the caller's epoch axis (virtual-clock seconds, optimizer
//! iterations, packets absorbed — any monotone `f64`).
//!
//! A [`TimeSeries`] hands out cheap [`Series`] handles keyed by metric
//! path. Each series folds samples into fixed-width buckets
//! (`index = floor(epoch / window)`) keeping `min`/`max`/`sum`/`count`
//! per bucket, so peaks survive compaction and means stay exact. When a
//! series exceeds its bucket capacity it *downsamples 2:1*: the window
//! doubles and buckets pair up (`index / 2`), deterministically and
//! independent of sample values. Memory per series is therefore bounded
//! by the capacity while the epoch range covered is unbounded.
//!
//! Like the [`crate::Profiler`], a recorder built with
//! [`TimeSeries::disabled`] (also `Default`) hands out no-op handles:
//! instrumented code pays one branch per sample when timelines are off,
//! and nothing here reads a wall clock — clippy's `disallowed_methods`
//! covers this module with no exemption, exactly like the sim crates, so
//! seeded runs stay byte-identical.
//!
//! Snapshots export as a serializable [`TimelineReport`] (name-sorted
//! series, index-sorted buckets); campaign aggregation merges reports
//! with [`crate::merge_timelines`].

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// One compacted bucket of a series: the aggregate of every sample whose
/// epoch fell in `[index * window, (index + 1) * window)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineBucket {
    /// Bucket position on the epoch axis, in units of the series window.
    pub index: u64,
    /// Smallest sample in the bucket.
    pub min: f64,
    /// Largest sample in the bucket.
    pub max: f64,
    /// Sum of the samples (so `sum / count` is the exact bucket mean).
    pub sum: f64,
    /// Number of samples folded into the bucket.
    pub count: u64,
}

impl TimelineBucket {
    /// Folds `other` into `self` (same index, possibly from a peer run).
    pub(crate) fn absorb(&mut self, other: &TimelineBucket) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// One named series of a [`TimelineReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSeries {
    /// Metric path, e.g. `omnc/k0/queue/n12`.
    pub name: String,
    /// Current bucket width on the epoch axis (`base_window * 2^k` after
    /// `k` downsampling passes).
    pub window: f64,
    /// Buckets in increasing index order. Sparse: untouched index ranges
    /// have no bucket.
    pub buckets: Vec<TimelineBucket>,
}

impl TimelineSeries {
    /// Total number of samples across all buckets (conserved by
    /// downsampling and by [`crate::merge_timelines`]).
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }
}

/// A serializable snapshot of every series a [`TimeSeries`] recorded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineReport {
    /// The finest bucket width series start from.
    pub base_window: f64,
    /// Maximum buckets per series before 2:1 downsampling kicks in.
    pub capacity: usize,
    /// All series, sorted by name.
    pub series: Vec<TimelineSeries>,
}

impl TimelineReport {
    /// An empty report with the given layout (useful as a merge seed).
    #[must_use]
    pub fn empty(base_window: f64, capacity: usize) -> TimelineReport {
        TimelineReport {
            base_window,
            capacity,
            series: Vec::new(),
        }
    }

    /// The series named `name`, if any.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&TimelineSeries> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// Mutable state of one live series.
#[derive(Debug)]
pub(crate) struct SeriesState {
    window: f64,
    capacity: usize,
    buckets: BTreeMap<u64, TimelineBucket>,
}

impl SeriesState {
    fn new(window: f64, capacity: usize) -> SeriesState {
        SeriesState {
            window,
            capacity,
            buckets: BTreeMap::new(),
        }
    }

    fn record(&mut self, epoch: f64, value: f64) {
        // Negative/NaN epochs clamp to bucket 0 (the `as` cast saturates);
        // the sim and all instrumented epochs are non-negative anyway.
        let index = (epoch.max(0.0) / self.window) as u64;
        match self.buckets.get_mut(&index) {
            Some(bucket) => bucket.absorb(&TimelineBucket {
                index,
                min: value,
                max: value,
                sum: value,
                count: 1,
            }),
            None => {
                self.buckets.insert(
                    index,
                    TimelineBucket {
                        index,
                        min: value,
                        max: value,
                        sum: value,
                        count: 1,
                    },
                );
                while self.buckets.len() > self.capacity {
                    self.downsample();
                }
            }
        }
    }

    /// One 2:1 compaction pass: the window doubles and bucket pairs
    /// (`2k`, `2k + 1`) fold into bucket `k` of the coarser grid.
    fn downsample(&mut self) {
        self.window *= 2.0;
        let mut coarse: BTreeMap<u64, TimelineBucket> = BTreeMap::new();
        for (index, bucket) in std::mem::take(&mut self.buckets) {
            let folded = index / 2;
            match coarse.get_mut(&folded) {
                Some(existing) => existing.absorb(&bucket),
                None => {
                    coarse.insert(
                        folded,
                        TimelineBucket {
                            index: folded,
                            ..bucket
                        },
                    );
                }
            }
        }
        self.buckets = coarse;
    }

    fn snapshot(&self, name: &str) -> TimelineSeries {
        TimelineSeries {
            name: name.to_owned(),
            window: self.window,
            buckets: self.buckets.values().copied().collect(),
        }
    }
}

/// A cheap handle onto one series; `Clone` shares the underlying state.
///
/// A handle from a disabled recorder (or [`Series::disabled`]) drops
/// samples after one branch.
#[derive(Debug, Clone, Default)]
pub struct Series {
    state: Option<Arc<Mutex<SeriesState>>>,
}

impl Series {
    /// A no-op handle, for instrumented structs' `Default` state.
    #[must_use]
    pub fn disabled() -> Series {
        Series { state: None }
    }

    /// `true` if samples actually land somewhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Folds one sample into the bucket covering `epoch`.
    pub fn record(&self, epoch: f64, value: f64) {
        if let Some(state) = &self.state {
            state.lock().record(epoch, value);
        }
    }
}

/// Interior state of an enabled recorder: the series directory.
#[derive(Debug)]
struct TimeSeriesCore {
    base_window: f64,
    capacity: usize,
    series: BTreeMap<String, Arc<Mutex<SeriesState>>>,
}

/// The recorder: a directory of named [`Series`], disabled by default.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    core: Option<Arc<Mutex<TimeSeriesCore>>>,
}

impl TimeSeries {
    /// A recorder that drops everything (one branch per sample).
    #[must_use]
    pub fn disabled() -> TimeSeries {
        TimeSeries { core: None }
    }

    /// An enabled recorder: series start at `base_window` bucket width
    /// and hold at most `capacity` buckets before downsampling 2:1.
    ///
    /// # Panics
    ///
    /// Panics if `base_window` is not strictly positive and finite, or if
    /// `capacity < 2` (downsampling could not terminate).
    #[must_use]
    pub fn enabled(base_window: f64, capacity: usize) -> TimeSeries {
        assert!(
            base_window.is_finite() && base_window > 0.0,
            "timeline base_window must be positive and finite"
        );
        assert!(capacity >= 2, "timeline capacity must be at least 2");
        TimeSeries {
            core: Some(Arc::new(Mutex::new(TimeSeriesCore {
                base_window,
                capacity,
                series: BTreeMap::new(),
            }))),
        }
    }

    /// `true` if this recorder keeps samples.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The series named `name`, registering it on first use. Returns a
    /// no-op handle when the recorder is disabled, so call sites never
    /// branch themselves.
    #[must_use]
    pub fn series(&self, name: &str) -> Series {
        let Some(core) = &self.core else {
            return Series::disabled();
        };
        let mut core = core.lock();
        let (window, capacity) = (core.base_window, core.capacity);
        let state = core
            .series
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(Mutex::new(SeriesState::new(window, capacity))))
            .clone();
        Series { state: Some(state) }
    }

    /// Convenience: `self.series(name).record(epoch, value)`. Prefer a
    /// held [`Series`] handle on hot paths (one map lookup per call here).
    pub fn record(&self, name: &str, epoch: f64, value: f64) {
        if self.is_enabled() {
            self.series(name).record(epoch, value);
        }
    }

    /// A deterministic snapshot: series sorted by name, buckets by index.
    /// Disabled recorders yield an empty report with a placeholder layout.
    #[must_use]
    pub fn snapshot(&self) -> TimelineReport {
        let Some(core) = &self.core else {
            return TimelineReport::empty(1.0, 2);
        };
        let core = core.lock();
        TimelineReport {
            base_window: core.base_window,
            capacity: core.capacity,
            series: core
                .series
                .iter()
                .map(|(name, state)| state.lock().snapshot(name))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_samples() {
        let ts = TimeSeries::disabled();
        let s = ts.series("queue/n0");
        assert!(!ts.is_enabled());
        assert!(!s.is_enabled());
        s.record(0.0, 1.0);
        ts.record("queue/n0", 1.0, 2.0);
        assert!(ts.snapshot().series.is_empty());
    }

    #[test]
    fn samples_fold_into_windowed_buckets() {
        let ts = TimeSeries::enabled(0.5, 64);
        let s = ts.series("queue/n0");
        s.record(0.1, 3.0);
        s.record(0.4, 5.0);
        s.record(0.6, 1.0);
        let snap = ts.snapshot();
        let series = snap.series("queue/n0").expect("series exists");
        assert_eq!(series.window, 0.5);
        assert_eq!(series.buckets.len(), 2);
        let first = &series.buckets[0];
        assert_eq!(
            (first.index, first.min, first.max, first.sum, first.count),
            (0, 3.0, 5.0, 8.0, 2)
        );
        let second = &series.buckets[1];
        assert_eq!((second.index, second.count), (1, 1));
    }

    #[test]
    fn downsampling_conserves_count_sum_and_extremes() {
        let ts = TimeSeries::enabled(1.0, 8);
        let s = ts.series("x");
        // 40 distinct unit buckets force repeated 2:1 compaction.
        for i in 0..40u64 {
            s.record(i as f64, i as f64);
        }
        let snap = ts.snapshot();
        let series = snap.series("x").expect("series exists");
        assert!(series.buckets.len() <= 8, "capacity respected");
        assert_eq!(series.window, 8.0, "40 unit buckets need window 8");
        assert_eq!(series.total_count(), 40, "count conserved");
        let sum: f64 = series.buckets.iter().map(|b| b.sum).sum();
        assert_eq!(sum, (0..40).sum::<u64>() as f64, "sum conserved");
        let min = series
            .buckets
            .iter()
            .map(|b| b.min)
            .fold(f64::MAX, f64::min);
        let max = series
            .buckets
            .iter()
            .map(|b| b.max)
            .fold(f64::MIN, f64::max);
        assert_eq!((min, max), (0.0, 39.0), "extremes survive compaction");
    }

    #[test]
    fn peaks_survive_compaction_inside_buckets() {
        let ts = TimeSeries::enabled(1.0, 4);
        let s = ts.series("spike");
        for i in 0..16u64 {
            s.record(i as f64, if i == 7 { 100.0 } else { 1.0 });
        }
        let snap = ts.snapshot();
        let series = snap.series("spike").expect("series exists");
        let max = series
            .buckets
            .iter()
            .map(|b| b.max)
            .fold(f64::MIN, f64::max);
        assert_eq!(max, 100.0, "the spike survives 2:1 downsampling");
    }

    #[test]
    fn sparse_epochs_do_not_downsample_prematurely() {
        // Two samples very far apart are still only two buckets.
        let ts = TimeSeries::enabled(1.0, 4);
        let s = ts.series("sparse");
        s.record(0.0, 1.0);
        s.record(1_000_000.0, 2.0);
        let snap = ts.snapshot();
        let series = snap.series("sparse").expect("series exists");
        assert_eq!(series.window, 1.0);
        assert_eq!(series.buckets.len(), 2);
    }

    #[test]
    fn handles_share_state_and_snapshot_is_name_sorted() {
        let ts = TimeSeries::enabled(1.0, 8);
        let a = ts.series("b/two");
        let b = ts.series("b/two");
        a.record(0.0, 1.0);
        b.record(0.0, 2.0);
        ts.record("a/one", 0.0, 3.0);
        let snap = ts.snapshot();
        let names: Vec<&str> = snap.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a/one", "b/two"]);
        assert_eq!(snap.series("b/two").expect("exists").total_count(), 2);
    }

    #[test]
    fn report_round_trips_through_json() {
        let ts = TimeSeries::enabled(0.25, 16);
        for i in 0..20u64 {
            ts.record("m", i as f64 * 0.3, (i % 5) as f64);
        }
        let snap = ts.snapshot();
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: TimelineReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
    }
}
