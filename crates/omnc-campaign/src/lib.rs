//! `omnc-campaign` — parallel, resumable experiment-campaign
//! orchestration over the OMNC runner.
//!
//! A campaign is a declarative JSON matrix (scenario variants ×
//! protocols × session indices) expanded into independent *cells*. Each
//! cell runs the shared [`omnc::runner::run_cell`] entry point with its
//! own fresh telemetry registry and virtual-clock profiler, so cells are
//! deterministic and order-free. The [`executor`] schedules cells across
//! worker threads with work stealing, `catch_unwind` panic isolation,
//! and bounded retry; completions stream back to the submitting thread,
//! which writes one result file per cell (atomically) and appends the
//! [`journal`] line that makes the cell durable. The [`merge`] stage
//! re-reads the result files in sorted-key order, so the merged
//! artifacts — `outcomes.jsonl`, `trace.jsonl`, `telemetry.json`,
//! `timeline.json`, `report.json` — are byte-identical whatever
//! `--jobs` was and whether the campaign ran straight through or was
//! killed and resumed.
//!
//! Memory figures are the one exception to that determinism contract:
//! RSS depends on the host, the allocator, and worker scheduling, so
//! per-cell and campaign-wide peak RSS go to a separate `memory.json`
//! and are *never* part of the five byte-compared artifacts above.
//!
//! With `--serve ADDR` the campaign additionally runs the telemetry
//! [`Observer`] thread: `/metrics` exposes campaign counters in the
//! Prometheus text format, `/progress` the live [`ProgressBoard`]
//! (cells done/total, ETA). Serving is strictly read-only, so every
//! merged artifact stays byte-identical with it on. Each cell attempt
//! also arms a panic-safe [`FlightRecorder`]: a cell that dies beyond
//! its retry budget leaves `flight-<cell>.jsonl` — the last breadcrumbs
//! before the panic — next to the other artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod journal;
pub mod merge;
pub mod spec;

use std::io;
use std::path::Path;

use telemetry::{
    Counter, FlightRecorder, Logger, Observer, ObserverHandles, Profiler, ProgressBoard, Registry,
    TimeSeries,
};

use omnc::multi::run_multi_cell;
use omnc::runner::{run_cell, RunOptions, SessionOutcome};

use crate::journal::{Journal, JournalEntry};
use crate::merge::{merge_campaign, write_cell, CellResult};
use crate::spec::{CampaignSpec, Cell};

/// Events each cell's flight recorder keeps (the black-box tail).
const FLIGHT_CAPACITY: usize = 256;

/// Knobs of one campaign invocation.
#[derive(Debug)]
pub struct CampaignOptions {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Keep journaled cells instead of starting fresh.
    pub resume: bool,
    /// Progress logger.
    pub log: Logger,
    /// Bind address for the live observer (`/metrics`, `/progress`),
    /// e.g. `127.0.0.1:9464`. `None` disables serving.
    pub serve: Option<String>,
}

/// A cell that kept panicking after its retry budget.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// The failed cell's key.
    pub key: String,
    /// Attempts made (retries + 1).
    pub attempts: u32,
    /// The last panic message.
    pub message: String,
}

/// Memory figures sampled when one cell's completion reached the
/// submitting thread (host-dependent; see [`CampaignMemory`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellMemory {
    /// The completed cell's key.
    pub key: String,
    /// Process RSS (MB) observed at completion time.
    pub rss_mb: f64,
}

/// The `memory.json` artifact: campaign-wide peak RSS plus one sample
/// per executed cell (sorted by key). Deliberately separate from the
/// five byte-compared merged artifacts, because RSS varies by host and
/// scheduling while those must stay identical across `--jobs` values.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignMemory {
    /// Peak RSS (VmHWM, MB) of the whole campaign process so far.
    pub peak_rss_mb: f64,
    /// Per-cell completion-time samples, sorted by cell key.
    pub cells: Vec<CellMemory>,
}

/// What a campaign invocation did.
#[derive(Debug)]
pub struct CampaignSummary {
    /// Cells in the spec's matrix.
    pub total: usize,
    /// Cells executed this invocation.
    pub ran: usize,
    /// Cells skipped because the journal already had them.
    pub skipped: usize,
    /// Cells that exhausted their retry budget.
    pub failures: Vec<CellFailure>,
    /// Whether the merged artifacts were (re)written — true exactly when
    /// every cell of the matrix completed.
    pub merged: bool,
}

/// The black-box dump path for one cell: `flight-<key>.jsonl` in the
/// campaign output directory (key slashes flattened like cell files).
#[must_use]
pub fn flight_path(out_dir: &Path, key: &str) -> std::path::PathBuf {
    out_dir.join(format!("flight-{}.jsonl", key.replace('/', "__")))
}

/// Runs one cell in isolation: fresh registry, fresh virtual-clock
/// profiler, fresh timeline recorder (series scoped by the cell key),
/// full causal trace. Everything the merge stage needs comes back in
/// the [`CellResult`]. The `flight` recorder (disabled outside
/// campaigns) collects the runner's breadcrumbs so a panic hook can
/// dump the tail; it never influences the result.
///
/// A multi-session cell (`cell.multi`) runs all of its scenario's
/// sessions concurrently on one shared mesh via
/// [`omnc::multi::run_multi_cell`]; its per-session traces are
/// concatenated in session order (each is a complete
/// `SessionStart ..= SessionEnd` stream, so the merged `trace.jsonl`
/// stays `omnc-report analyze`-ready), and a summary [`SessionOutcome`]
/// is synthesized so the merged `outcomes.jsonl` keeps one schema.
///
/// # Panics
///
/// Propagates scenario/session panics (impossible endpoint constraints,
/// degenerate configurations) — the executor catches them.
pub fn run_one_cell(cell: &Cell, trace_capacity: usize, flight: &FlightRecorder) -> CellResult {
    let registry = Registry::new();
    let profiler = Profiler::virtual_clock();
    let timeline = TimeSeries::enabled(0.25, 64);
    let options = RunOptions {
        trace_capacity: Some(trace_capacity),
        profiler: profiler.clone(),
        registry: registry.clone(),
        timeline: timeline.clone(),
        timeline_scope: cell.key.clone(),
        flight: flight.clone(),
        ..RunOptions::default()
    };
    let mut buf = Vec::new();
    let (outcome, multi) = if cell.multi {
        let (out, traces) = run_multi_cell(&cell.scenario, cell.protocol, &options);
        for trace in traces.expect("tracing was enabled") {
            trace
                .write_jsonl(&mut buf)
                .expect("in-memory trace export cannot fail");
        }
        (aggregate_outcome(&out), Some(out))
    } else {
        let (outcome, trace) = run_cell(&cell.scenario, cell.protocol, cell.session, &options);
        trace
            .expect("tracing was enabled")
            .write_jsonl(&mut buf)
            .expect("in-memory trace export cannot fail");
        (outcome, None)
    };
    CellResult {
        key: cell.key.clone(),
        session: cell.session,
        outcome,
        multi,
        trace: String::from_utf8(buf).expect("trace JSONL is UTF-8"),
        metrics: registry.snapshot(),
        profile: profiler.report(),
        timeline: timeline.snapshot(),
    }
}

/// Collapses a coupled multi-session outcome into the single-session
/// outcome schema so `outcomes.jsonl` lines stay uniform: throughput and
/// packet/generation counts sum over the sessions, queue averages carry
/// over (they already span the whole shared mesh), and predicted
/// throughput sums the joint program's per-session rates. Node/path
/// utility are per-selection diagnostics that have no meaningful joint
/// analogue, so they report 0 — read the `multi` field for the real
/// per-session picture.
fn aggregate_outcome(out: &omnc::multi::MultiSessionOutcome) -> SessionOutcome {
    let predicted: Vec<f64> = out
        .sessions
        .iter()
        .filter_map(|s| s.predicted_throughput)
        .collect();
    SessionOutcome {
        protocol: out.protocol,
        throughput: out.total_throughput,
        queue_averages: out.queue_averages.clone(),
        node_utility: 0.0,
        path_utility: 0.0,
        rc_iterations: None,
        predicted_throughput: (!predicted.is_empty()).then(|| predicted.iter().sum()),
        generations_decoded: out.sessions.iter().map(|s| s.generations_decoded).sum(),
        packet_counts: (
            out.sessions.iter().map(|s| s.packet_counts.0).sum(),
            out.sessions.iter().map(|s| s.packet_counts.1).sum(),
        ),
        verification_failures: 0,
    }
}

/// A campaign's live observability plane: the `campaign.cells.*`
/// instruments behind `/metrics` and the board behind `/progress`, served
/// by an [`Observer`] thread for as long as this value lives. Everything
/// here is read-only over the run — the observer snapshots, it never
/// writes into the cells — so merged artifacts cannot depend on whether
/// it is on. Without a bind address every handle is a free no-op.
#[derive(Debug)]
pub struct LivePlane {
    /// `campaign.cells.completed`: cells persisted by this invocation.
    pub completed: Counter,
    /// `campaign.cells.failed`: cells that exhausted their retries.
    pub failed: Counter,
    /// Done/total/ETA over this invocation's pending cells.
    pub board: ProgressBoard,
    observer: Option<Observer>,
}

impl LivePlane {
    /// Sets up the plane for a campaign of `total` cells of which
    /// `pending` run now, and serves it on `serve` (port 0 picks a free
    /// port) if given.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn start(
        serve: Option<&str>,
        name: &str,
        total: usize,
        pending: usize,
    ) -> io::Result<LivePlane> {
        let (registry, board) = match serve {
            Some(_) => (Registry::new(), ProgressBoard::enabled(name, pending)),
            None => (Registry::disabled(), ProgressBoard::disabled()),
        };
        registry.gauge("campaign.cells.total").set(total as f64);
        let skipped = total - pending;
        registry.gauge("campaign.cells.skipped").set(skipped as f64);
        let handles = ObserverHandles {
            registry: registry.clone(),
            progress: board.clone(),
        };
        Ok(LivePlane {
            completed: registry.counter("campaign.cells.completed"),
            failed: registry.counter("campaign.cells.failed"),
            board,
            observer: (serve.map(|addr| Observer::serve(addr, handles))).transpose()?,
        })
    }

    /// Where the observer listens, when serving.
    pub fn addr(&self) -> Option<std::net::SocketAddr> {
        self.observer.as_ref().map(Observer::local_addr)
    }
}

/// Runs (or resumes) `spec` into `out_dir`: executes every cell not yet
/// journaled, then — if the whole matrix is complete — rewrites the
/// merged artifacts. Failed cells leave every other cell's results
/// intact; a later `resume` retries only the missing ones.
///
/// # Errors
///
/// Fails on an invalid spec (`InvalidInput`) or on I/O errors writing
/// results, the journal, or the merged artifacts.
pub fn run_campaign(
    spec: &CampaignSpec,
    out_dir: &Path,
    options: &CampaignOptions,
) -> io::Result<CampaignSummary> {
    spec.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let cells = spec.cells();
    let cells_dir = out_dir.join("cells");
    std::fs::create_dir_all(&cells_dir)?;
    let journal = Journal::at(&out_dir.join("journal.jsonl"));
    if !options.resume {
        journal.reset()?;
        std::fs::remove_dir_all(&cells_dir)?;
        std::fs::create_dir_all(&cells_dir)?;
    }

    // A journaled key counts as done only if its result file survives
    // (the journal line is written strictly after the file).
    let journaled = journal.completed()?;
    let pending: Vec<usize> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            !journaled.contains(&c.key) || !merge::cell_path(out_dir, &c.key).is_file()
        })
        .map(|(i, _)| i)
        .collect();
    let skipped = cells.len() - pending.len();
    if skipped > 0 {
        options
            .log
            .info(&format!("resume: {skipped} cells already journaled"));
    }

    let serve = options.serve.as_deref();
    let live = LivePlane::start(serve, &spec.name, cells.len(), pending.len())?;
    if let Some(addr) = live.addr() {
        options.log.info(&format!(
            "observer serving /metrics /progress on http://{addr}"
        ));
    }

    let trace_capacity = spec.trace_capacity();
    let mut failures: Vec<CellFailure> = Vec::new();
    let mut io_error: Option<io::Error> = None;
    let mut done = 0usize;
    let mut memory_cells: Vec<CellMemory> = Vec::new();
    executor::run_parallel(
        pending.len(),
        options.jobs,
        spec.retries(),
        |i| {
            let cell = &cells[pending[i]];
            // Every attempt gets a fresh black box armed to this thread:
            // if the cell panics, the hook dumps the ring before the
            // executor's catch_unwind sees anything.
            let flight = FlightRecorder::enabled(FLIGHT_CAPACITY);
            let _black_box = flight.arm(&cell.key, &flight_path(out_dir, &cell.key));
            run_one_cell(cell, trace_capacity, &flight)
        },
        |completion| {
            let cell = &cells[pending[completion.item]];
            live.board.cell_finished(completion.result.is_ok());
            match completion.result {
                Ok((cell_result, attempts)) => {
                    let persisted = write_cell(out_dir, &cell_result).and_then(|()| {
                        journal.record(&JournalEntry {
                            key: cell.key.clone(),
                            attempts,
                            wall_ms: Some(JournalEntry::now_ms()),
                        })
                    });
                    if let Err(e) = persisted {
                        if io_error.is_none() {
                            io_error = Some(e);
                        }
                        return;
                    }
                    // A retried-then-successful attempt may have left a
                    // stale black box; the cell ended well, drop it.
                    let _ = std::fs::remove_file(flight_path(out_dir, &cell.key));
                    live.completed.inc();
                    done += 1;
                    if let Some(rss) = telemetry::sample_rss() {
                        memory_cells.push(CellMemory {
                            key: cell.key.clone(),
                            rss_mb: rss.vm_rss_bytes as f64 / (1024.0 * 1024.0),
                        });
                    }
                    options
                        .log
                        .debug(&format!("cell {} done ({attempts} attempt(s))", cell.key));
                    if done.is_multiple_of(10) {
                        options
                            .log
                            .info(&format!("{done}/{} cells done", pending.len()));
                    }
                }
                Err(e) => {
                    options.log.warn(&format!(
                        "cell {} failed after {} attempts: {} (black box: {})",
                        cell.key,
                        e.attempts,
                        e.message,
                        flight_path(out_dir, &cell.key).display()
                    ));
                    live.failed.inc();
                    failures.push(CellFailure {
                        key: cell.key.clone(),
                        attempts: e.attempts,
                        message: e.message,
                    });
                }
            }
        },
    );
    if let Some(e) = io_error {
        return Err(e);
    }
    failures.sort_by(|a, b| a.key.cmp(&b.key));

    // Host-dependent memory figures go to their own artifact so the five
    // byte-compared ones stay deterministic (see module docs).
    if let Some(rss) = telemetry::sample_rss() {
        memory_cells.sort_by(|a, b| a.key.cmp(&b.key));
        let memory = CampaignMemory {
            peak_rss_mb: rss.vm_hwm_bytes as f64 / (1024.0 * 1024.0),
            cells: memory_cells,
        };
        let json = serde_json::to_string(&memory)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        std::fs::write(out_dir.join("memory.json"), json + "\n")?;
        options.log.debug(&format!(
            "memory: campaign peak rss {:.1} MB -> memory.json",
            memory.peak_rss_mb
        ));
    }

    let merged = failures.is_empty();
    if merged {
        merge_campaign(out_dir, &cells)?;
        options.log.info(&format!(
            "campaign {}: {} cells ({} run, {skipped} resumed) -> {}",
            spec.name,
            cells.len(),
            done,
            out_dir.display()
        ));
    } else {
        options.log.warn(&format!(
            "campaign {}: {} of {} cells failed; merge skipped (fix and `resume`)",
            spec.name,
            failures.len(),
            cells.len()
        ));
    }
    Ok(CampaignSummary {
        total: cells.len(),
        ran: done,
        skipped,
        failures,
        merged,
    })
}

/// Completion state of a campaign directory without running anything.
#[derive(Debug)]
pub struct CampaignStatus {
    /// Cells in the spec's matrix.
    pub total: usize,
    /// Journaled cells whose result files exist.
    pub completed: usize,
    /// Keys still to run (sorted).
    pub pending: Vec<String>,
    /// Completion rate over the journal's wall-clock stamps (needs at
    /// least two stamped entries).
    pub cells_per_s: Option<f64>,
    /// Estimated seconds to finish `pending` at that rate.
    pub eta_s: Option<f64>,
}

/// Reports how much of `spec` is already durably complete in `out_dir`.
///
/// The rate/ETA estimate replays the journal's `wall_ms` stamps and
/// feeds their span through the same [`telemetry::throughput_eta`]
/// estimator the live `/progress` endpoint uses — one implementation,
/// two surfaces. A journal from before timestamps existed (or with a
/// single entry) simply reports no estimate.
///
/// # Errors
///
/// Fails on an invalid spec or an unreadable journal.
pub fn campaign_status(spec: &CampaignSpec, out_dir: &Path) -> io::Result<CampaignStatus> {
    spec.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let cells = spec.cells();
    let journal = Journal::at(&out_dir.join("journal.jsonl"));
    let entries = journal.entries()?;
    let journaled: std::collections::BTreeSet<&str> =
        entries.iter().map(|e| e.key.as_str()).collect();
    let pending: Vec<String> = cells
        .iter()
        .filter(|c| {
            !journaled.contains(c.key.as_str()) || !merge::cell_path(out_dir, &c.key).is_file()
        })
        .map(|c| c.key.clone())
        .collect();

    let stamps: Vec<u64> = entries.iter().filter_map(|e| e.wall_ms).collect();
    let span_s = match (stamps.iter().min(), stamps.iter().max()) {
        (Some(&first), Some(&last)) => (last.saturating_sub(first)) as f64 / 1000.0,
        _ => 0.0,
    };
    // The first stamp marks a completion, not the campaign start, so
    // only the stamps after it represent measured throughput.
    let estimate = telemetry::throughput_eta(stamps.len().saturating_sub(1), pending.len(), span_s);
    Ok(CampaignStatus {
        total: cells.len(),
        completed: cells.len() - pending.len(),
        pending,
        cells_per_s: estimate.map(|(rate, _)| rate),
        eta_s: estimate.map(|(_, eta)| eta),
    })
}
