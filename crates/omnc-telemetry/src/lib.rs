//! Unified telemetry for the OMNC workspace.
//!
//! Three pieces, all optional at runtime and free when disabled:
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s — handles are `Arc`-backed atomics, so the hot path is
//!   a single relaxed atomic op and never allocates;
//! * [`Span`], the bare wall-clock reference point instrumented sim code
//!   holds so its own source stays free of `Instant::now()`;
//! * an [`EventSink`] that serializes typed events ([`serde::Serialize`])
//!   as one JSON object per line (JSONL), either to a file or an
//!   in-memory buffer.
//!
//! A registry created with [`Registry::disabled`] hands out no-op handles:
//! instruments still exist and can be passed around, but updates are
//! dropped without synchronization beyond one relaxed atomic store.
//!
//! On top of those sit two observability layers added later:
//!
//! * a hierarchical span [`Profiler`] — nested RAII spans over an
//!   explicit parent stack, attributing call counts / total / self time
//!   per span path, with wall and deterministic virtual clocks behind
//!   the [`Clock`] trait and JSON + folded-stacks export;
//! * a structured stderr [`Logger`] (`level=… msg="…"` lines) behind
//!   the `--log-level {quiet,info,debug}` knob of the binaries;
//! * memory observability ([`CountingAlloc`], [`AllocScope`],
//!   [`sample_rss`]) — a counting global-allocator wrapper binaries can
//!   install, thread-local allocation counters the [`Profiler`]
//!   attributes to spans, and peak-RSS sampling from
//!   `/proc/self/status`;
//! * deterministic windowed [`TimeSeries`] — bounded-memory dynamics
//!   metrics (queue depth, decoder rank, optimizer convergence, goodput)
//!   with 2:1 downsampling, exported as a [`TimelineReport`] and merged
//!   across campaign cells with [`merge_timelines`];
//! * the live observability plane — Prometheus-style text exposition
//!   ([`render_exposition`]), a live [`ProgressBoard`] with the shared
//!   [`throughput_eta`] estimator, and the read-only [`Observer`]
//!   thread serving `/metrics` and `/progress` over HTTP;
//! * a panic-safe [`FlightRecorder`] — a fixed-capacity ring of recent
//!   events dumped to `flight-<cell>.jsonl` by a chained panic hook
//!   ([`FlightRecorder::arm`]), the black box for campaign cells.

// Unsafe is denied crate-wide and allowed back in exactly one module:
// `alloc`, the counting global-allocator wrapper, where every unsafe
// item carries a SAFETY comment (audited by the omnc-lint
// `unsafe-audit` rule).
#![deny(unsafe_code)]

mod alloc;
mod export;
mod flightrec;
mod log;
mod merge;
mod profiler;
mod registry;
mod sink;
mod timer;
mod timeseries;

pub use alloc::{
    alloc_counting_enabled, sample_rss, set_alloc_counting, thread_alloc_stats, AllocScope,
    AllocStats, CountingAlloc, RssSample,
};
pub use export::{
    render_exposition, throughput_eta, Observer, ObserverHandles, ProgressBoard, ProgressSnapshot,
};
pub use flightrec::{FlightEvent, FlightGuard, FlightHeader, FlightRecorder};
pub use log::{LogLevel, Logger};
pub use merge::{merge_metric_snapshots, merge_profiles, merge_timelines};
pub use profiler::{
    Clock, ProfileGuard, ProfileReport, ProfileSpan, Profiler, VirtualClock, WallClock,
};
pub use registry::{BucketCount, Counter, Gauge, Histogram, MetricKind, MetricSnapshot, Registry};
pub use sink::{EventSink, SinkTarget};
pub use timer::Span;
pub use timeseries::{Series, TimeSeries, TimelineBucket, TimelineReport, TimelineSeries};
