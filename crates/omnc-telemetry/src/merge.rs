//! Order-independent merging of telemetry snapshots.
//!
//! The campaign executor runs cells on worker threads, each with its own
//! [`Registry`](crate::Registry) and [`Profiler`](crate::Profiler) so the
//! simulation crates stay single-threaded. Afterwards the per-cell
//! snapshots are folded into one with these functions. Every combination
//! rule is commutative and associative — counters and histograms sum,
//! gauges take the maximum, profile spans sum per path — so the merged
//! snapshot is identical no matter how cells were scheduled across
//! workers, which is what keeps campaign output byte-identical across
//! `--jobs` values.

use std::collections::BTreeMap;

use crate::profiler::{ProfileReport, ProfileSpan};
use crate::registry::{MetricKind, MetricSnapshot};

/// Merges span profiles by summing calls and ticks per span *path*,
/// re-deriving self times, and emitting the canonical depth-first /
/// name-sorted order of [`Profiler::report`](crate::Profiler::report).
/// Empty (disabled) reports contribute nothing; an empty input slice
/// yields an empty disabled-style report.
#[must_use]
pub fn merge_profiles(reports: &[ProfileReport]) -> ProfileReport {
    #[derive(Default, Clone, Copy)]
    struct Acc {
        depth: u64,
        calls: u64,
        total: u64,
        allocs: u64,
        alloc_bytes: u64,
    }
    let mut clock = "disabled".to_string();
    let mut unit = "ticks".to_string();
    let mut by_path: BTreeMap<Vec<String>, Acc> = BTreeMap::new();
    for report in reports {
        if !report.spans.is_empty() && clock == "disabled" {
            clock = report.clock.clone();
            unit = report.unit.clone();
        }
        for span in &report.spans {
            let key: Vec<String> = span.path.split(';').map(str::to_string).collect();
            let slot = by_path.entry(key).or_insert(Acc {
                depth: span.depth,
                ..Acc::default()
            });
            slot.calls += span.calls;
            slot.total += span.total_ticks;
            slot.allocs += span.allocs;
            slot.alloc_bytes += span.alloc_bytes;
        }
    }
    // BTreeMap ordering over component vectors *is* depth-first preorder
    // with siblings sorted by name: a parent's key is a strict prefix of
    // (hence sorts before) every descendant's.
    let mut spans: Vec<ProfileSpan> = by_path
        .iter()
        .map(|(components, acc)| ProfileSpan {
            path: components.join(";"),
            name: components.last().cloned().unwrap_or_default(),
            depth: acc.depth,
            calls: acc.calls,
            total_ticks: acc.total,
            self_ticks: acc.total,
            allocs: acc.allocs,
            alloc_bytes: acc.alloc_bytes,
            self_allocs: acc.allocs,
            self_alloc_bytes: acc.alloc_bytes,
        })
        .collect();
    // Self figures = totals minus those of *direct* children.
    let totals: BTreeMap<String, (u64, u64, u64)> = spans
        .iter()
        .map(|s| (s.path.clone(), (s.total_ticks, s.allocs, s.alloc_bytes)))
        .collect();
    for span in &mut spans {
        let (mut child_total, mut child_allocs, mut child_bytes) = (0u64, 0u64, 0u64);
        for (path, &(t, a, b)) in &totals {
            let direct_child = path
                .strip_prefix(span.path.as_str())
                .and_then(|rest| rest.strip_prefix(';'))
                .is_some_and(|rest| !rest.contains(';'));
            if direct_child {
                child_total += t;
                child_allocs += a;
                child_bytes += b;
            }
        }
        span.self_ticks = span.total_ticks.saturating_sub(child_total);
        span.self_allocs = span.allocs.saturating_sub(child_allocs);
        span.self_alloc_bytes = span.alloc_bytes.saturating_sub(child_bytes);
    }
    ProfileReport { clock, unit, spans }
}

/// Merges registry snapshots: counters sum, gauges keep the maximum
/// observed level, histograms sum counts / sums / per-bucket counts.
/// Series are keyed by name and the result is name-sorted like
/// [`Registry::snapshot`](crate::Registry::snapshot).
///
/// # Panics
///
/// Panics if the same series appears with different kinds or different
/// histogram bucket bounds — series schemas are fixed at registration, so
/// a mismatch means the inputs came from different instrumentation.
#[must_use]
pub fn merge_metric_snapshots(snapshots: &[Vec<MetricSnapshot>]) -> Vec<MetricSnapshot> {
    let mut merged: BTreeMap<String, MetricSnapshot> = BTreeMap::new();
    for snapshot in snapshots {
        for snap in snapshot {
            match merged.get_mut(&snap.name) {
                None => {
                    merged.insert(snap.name.clone(), snap.clone());
                }
                Some(acc) => {
                    assert_eq!(
                        acc.kind, snap.kind,
                        "series {:?} merged across kinds",
                        snap.name
                    );
                    match snap.kind {
                        MetricKind::Counter => acc.value += snap.value,
                        MetricKind::Gauge => acc.value = acc.value.max(snap.value),
                        MetricKind::Histogram => {
                            acc.count += snap.count;
                            acc.sum += snap.sum;
                            assert_eq!(
                                acc.buckets.len(),
                                snap.buckets.len(),
                                "series {:?} merged across bucket layouts",
                                snap.name
                            );
                            for (a, b) in acc.buckets.iter_mut().zip(&snap.buckets) {
                                assert_eq!(
                                    a.upper_bound, b.upper_bound,
                                    "series {:?} merged across bucket bounds",
                                    snap.name
                                );
                                a.count += b.count;
                            }
                        }
                    }
                }
            }
        }
    }
    merged.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Profiler, Registry};

    fn sample_profile(reps: u32) -> ProfileReport {
        let p = Profiler::virtual_clock();
        for _ in 0..reps {
            let _outer = p.span("run");
            let _inner = p.span("decode");
        }
        p.report()
    }

    #[test]
    fn profile_merge_sums_per_path_and_rederives_self_time() {
        let merged = merge_profiles(&[sample_profile(2), sample_profile(3)]);
        assert_eq!(merged.clock, "virtual");
        let run = merged.span("run").expect("run span");
        let decode = merged.span("run;decode").expect("decode span");
        assert_eq!(run.calls, 5);
        assert_eq!(decode.calls, 5);
        assert_eq!(run.self_ticks, run.total_ticks - decode.total_ticks);
    }

    #[test]
    fn profile_merge_is_order_independent() {
        let a = sample_profile(1);
        let b = sample_profile(4);
        assert_eq!(
            merge_profiles(&[a.clone(), b.clone()]),
            merge_profiles(&[b, a])
        );
    }

    #[test]
    fn profile_merge_keeps_canonical_span_order() {
        // Two reports whose spans interleave: the merged order must match
        // a single profiler that saw everything.
        let p1 = Profiler::virtual_clock();
        {
            let _r = p1.span("run");
            let _z = p1.span("zeta");
        }
        let p2 = Profiler::virtual_clock();
        {
            let _r = p2.span("run");
            let _a = p2.span("alpha");
        }
        let merged = merge_profiles(&[p1.report(), p2.report()]);
        let paths: Vec<&str> = merged.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["run", "run;alpha", "run;zeta"]);
        assert_eq!(merged.spans[1].depth, 1);
    }

    #[test]
    fn empty_profile_inputs_merge_to_disabled() {
        let merged = merge_profiles(&[]);
        assert!(merged.spans.is_empty());
        assert_eq!(merged.clock, "disabled");
        let merged = merge_profiles(&[Profiler::disabled().report(), sample_profile(1)]);
        assert_eq!(merged.clock, "virtual");
        assert_eq!(merged.span("run").map(|s| s.calls), Some(1));
    }

    fn sample_metrics(tx: u64, queue: f64, lat: f64) -> Vec<MetricSnapshot> {
        let r = Registry::new();
        r.counter("mac.tx").add(tx);
        r.gauge("queue.peak").set(queue);
        r.histogram("latency", &[1.0, 10.0]).observe(lat);
        r.snapshot()
    }

    #[test]
    fn metric_merge_sums_counters_and_histograms_maxes_gauges() {
        let merged =
            merge_metric_snapshots(&[sample_metrics(3, 2.0, 0.5), sample_metrics(4, 7.0, 50.0)]);
        let by_name = |name: &str| {
            merged
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(by_name("mac.tx").value, 7.0);
        assert_eq!(by_name("queue.peak").value, 7.0);
        let lat = by_name("latency");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 50.5);
        assert_eq!(lat.buckets[0].count, 1); // <= 1.0
        assert_eq!(lat.buckets[2].count, 2); // overflow, cumulative
    }

    #[test]
    fn metric_merge_is_order_independent_and_sorted() {
        let a = sample_metrics(1, 1.0, 2.0);
        let b = sample_metrics(2, 5.0, 20.0);
        let ab = merge_metric_snapshots(&[a.clone(), b.clone()]);
        let ba = merge_metric_snapshots(&[b, a]);
        assert_eq!(ab, ba);
        let names: Vec<&str> = ab.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn empty_metric_snapshot_inputs_merge_to_empty() {
        assert!(merge_metric_snapshots(&[]).is_empty());
        assert!(merge_metric_snapshots(&[vec![], vec![]]).is_empty());
        // Empty sides contribute nothing next to a populated one.
        let merged = merge_metric_snapshots(&[vec![], sample_metrics(2, 1.0, 0.5), vec![]]);
        assert_eq!(merged.len(), 3);
        assert_eq!(
            merged.iter().find(|s| s.name == "mac.tx").map(|s| s.value),
            Some(2.0)
        );
    }

    #[test]
    #[should_panic(expected = "merged across bucket layouts")]
    fn metric_merge_rejects_bucket_count_mismatch() {
        let r1 = Registry::new();
        r1.histogram("h", &[1.0]).observe(0.5);
        let r2 = Registry::new();
        r2.histogram("h", &[1.0, 2.0]).observe(0.5);
        let _ = merge_metric_snapshots(&[r1.snapshot(), r2.snapshot()]);
    }

    #[test]
    #[should_panic(expected = "merged across bucket bounds")]
    fn metric_merge_rejects_bucket_bound_mismatch() {
        let r1 = Registry::new();
        r1.histogram("h", &[1.0, 2.0]).observe(0.5);
        let r2 = Registry::new();
        r2.histogram("h", &[1.5, 2.0]).observe(0.5);
        let _ = merge_metric_snapshots(&[r1.snapshot(), r2.snapshot()]);
    }

    fn raw_span(path: &str, calls: u64, total: u64, allocs: u64, bytes: u64) -> ProfileSpan {
        ProfileSpan {
            path: path.to_string(),
            name: path.rsplit(';').next().unwrap_or(path).to_string(),
            depth: path.matches(';').count() as u64,
            calls,
            total_ticks: total,
            self_ticks: total,
            allocs,
            alloc_bytes: bytes,
            self_allocs: allocs,
            self_alloc_bytes: bytes,
        }
    }

    #[test]
    fn profile_merge_handles_one_sided_span_paths_and_alloc_columns() {
        // "run;decode" exists only in the right report: the merged parent's
        // self figures must still subtract it, and alloc columns must sum
        // and re-derive exactly like ticks.
        let left = ProfileReport {
            clock: "virtual".into(),
            unit: "ticks".into(),
            spans: vec![raw_span("run", 1, 10, 6, 600)],
        };
        let right = ProfileReport {
            clock: "virtual".into(),
            unit: "ticks".into(),
            spans: vec![
                raw_span("run", 1, 20, 10, 1000),
                raw_span("run;decode", 2, 8, 4, 400),
            ],
        };
        let merged = merge_profiles(&[left, right]);
        let run = merged.span("run").expect("run span");
        let decode = merged.span("run;decode").expect("decode span");
        assert_eq!(run.calls, 2);
        assert_eq!(run.total_ticks, 30);
        assert_eq!(run.self_ticks, 22);
        assert_eq!(run.allocs, 16);
        assert_eq!(run.self_allocs, 12);
        assert_eq!(run.alloc_bytes, 1600);
        assert_eq!(run.self_alloc_bytes, 1200);
        assert_eq!(decode.self_allocs, 4);
        assert_eq!(decode.self_alloc_bytes, 400);
    }

    #[test]
    #[should_panic(expected = "merged across kinds")]
    fn metric_merge_rejects_kind_mismatch() {
        let r1 = Registry::new();
        r1.counter("m").inc();
        let r2 = Registry::new();
        r2.gauge("m").set(1.0);
        let _ = merge_metric_snapshots(&[r1.snapshot(), r2.snapshot()]);
    }
}
