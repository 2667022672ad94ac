//! Unified telemetry for the OMNC workspace.
//!
//! Two pieces, both optional at runtime and free when disabled:
//!
//! * a [`Registry`] of named event [`Counter`]s — handles are
//!   `Arc`-backed atomics, so the hot path is a single relaxed atomic op
//!   and never allocates;
//! * an [`EventSink`] that serializes typed events ([`serde::Serialize`])
//!   as one JSON object per line (JSONL), either to a file or an
//!   in-memory buffer.
//!
//! A registry created with [`Registry::disabled`] hands out no-op
//! counters: they still exist and can be passed around, but updates are
//! dropped.
//!
//! On top of those sit the observability layers added later:
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
//! * a panic-safe [`FlightRecorder`] — a fixed-capacity ring of recent
//!   events dumped to `flight-<cell>.jsonl` by a chained panic hook
//!   ([`FlightRecorder::arm`]), the black box for campaign cells.

// Unsafe is denied crate-wide and allowed back in exactly one module:
// `alloc`, the counting global-allocator wrapper, where every unsafe
// block carries a SAFETY comment (clippy's `undocumented_unsafe_blocks`).
#![deny(unsafe_code)]

mod alloc;
mod flightrec;
mod log;
mod profiler;
mod registry;
mod sink;

pub use alloc::{
    alloc_counting_enabled, sample_rss, set_alloc_counting, thread_alloc_stats, AllocScope,
    AllocStats, CountingAlloc, RssSample,
};
pub use flightrec::{FlightEvent, FlightGuard, FlightHeader, FlightRecorder};
pub use log::{LogLevel, Logger};
pub use profiler::{
    Clock, ProfileGuard, ProfileReport, ProfileSpan, Profiler, VirtualClock, WallClock,
};
pub use registry::{Counter, Registry};
pub use sink::{EventSink, SinkTarget};
