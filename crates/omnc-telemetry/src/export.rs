//! The live observability plane: Prometheus-style text exposition over
//! [`Registry`] snapshots, a shared [`ProgressBoard`] for cells-done /
//! ETA, and a tiny [`Observer`] thread serving both over plain HTTP.
//!
//! Everything here is *strictly read-only* over the handles it is given:
//! the observer thread only ever calls `snapshot()` on the registry and
//! the board, so serving has no effect on what a run records and merged
//! campaign artifacts stay byte-identical with serving on.
//!
//! This module is the workspace's one sanctioned network-listener
//! surface (the omnc-lint `concurrency` rule denies `TcpListener` and
//! thread creation everywhere else in the telemetry and sim crates,
//! exactly like the campaign executor sanctions thread pools).
//!
//! The exposition format is the Prometheus text format, producible with
//! zero dependencies: `# TYPE` comments, `name{label="value"} 1234`
//! sample lines, and `_bucket`/`_sum`/`_count` expansions for
//! histograms. Snapshots arrive name-sorted from
//! [`Registry::snapshot`], so the output is deterministic for a given
//! registry state.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::registry::{MetricKind, MetricSnapshot, Registry};

// ---------------------------------------------------------------------------
// Text exposition
// ---------------------------------------------------------------------------

/// Renders a registry snapshot in the Prometheus text exposition format.
///
/// Metric names are sanitized to `[a-zA-Z0-9_:]` (everything else maps
/// to `_`), label values are escaped per the format (`\\`, `\"`, `\n`),
/// and histograms expand into cumulative `_bucket{le="…"}` lines plus
/// `_sum` and `_count`. The input order is preserved, so the name-sorted
/// order of [`Registry::snapshot`] carries through to the output.
#[must_use]
pub fn render_exposition(snapshot: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut last_typed: Option<&str> = None;
    for snap in snapshot {
        let name = sanitize_metric_name(&snap.name);
        if last_typed != Some(snap.name.as_str()) {
            let kind = match snap.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            out.push_str("# TYPE ");
            out.push_str(&name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_typed = Some(snap.name.as_str());
        }
        match snap.kind {
            MetricKind::Counter | MetricKind::Gauge => {
                out.push_str(&name);
                push_labels(&mut out, &snap.labels, None);
                out.push(' ');
                out.push_str(&format_sample(snap.value));
                out.push('\n');
            }
            MetricKind::Histogram => {
                for bucket in &snap.buckets {
                    let le = bucket
                        .upper_bound
                        .map_or_else(|| "+Inf".to_owned(), format_sample);
                    out.push_str(&name);
                    out.push_str("_bucket");
                    push_labels(&mut out, &snap.labels, Some(("le", &le)));
                    out.push(' ');
                    out.push_str(&bucket.count.to_string());
                    out.push('\n');
                }
                out.push_str(&name);
                out.push_str("_sum");
                push_labels(&mut out, &snap.labels, None);
                out.push(' ');
                out.push_str(&format_sample(snap.sum));
                out.push('\n');
                out.push_str(&name);
                out.push_str("_count");
                push_labels(&mut out, &snap.labels, None);
                out.push(' ');
                out.push_str(&snap.count.to_string());
                out.push('\n');
            }
        }
    }
    out
}

/// Maps a workspace metric path (`mac.tx.delivered`, `omnc/0/queue`) to
/// a valid exposition identifier.
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Appends `{k="v",…}` (plus an optional extra pair, used for `le`),
/// omitting the braces entirely when there is nothing to write.
fn push_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&sanitize_metric_name(k));
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
    out.push('}');
}

fn push_escaped(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// `f64` sample formatting: `{}` gives the shortest round-trip repr
/// (`5` for `5.0`), with Prometheus's spellings for the specials.
fn format_sample(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_owned()
    } else if value == f64::INFINITY {
        "+Inf".to_owned()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{value}")
    }
}

// ---------------------------------------------------------------------------
// Progress board + ETA estimator
// ---------------------------------------------------------------------------

/// Completion-rate estimate shared by every progress surface: given
/// `completed` units finished over `elapsed_s` seconds and `remaining`
/// still to go, returns `(units_per_s, eta_s)`. `None` until at least
/// one unit has completed over a positive span — no estimate beats a
/// wild one.
///
/// Both `omnc-campaign status` (journal wall timestamps) and the live
/// `/progress` endpoint (board elapsed time) go through this one
/// function, so the two surfaces can never disagree on the math.
#[must_use]
pub fn throughput_eta(completed: usize, remaining: usize, elapsed_s: f64) -> Option<(f64, f64)> {
    if completed == 0 || elapsed_s.is_nan() || elapsed_s <= 0.0 {
        return None;
    }
    let rate = completed as f64 / elapsed_s;
    Some((rate, remaining as f64 / rate))
}

/// A point-in-time JSON-serializable view of a run's progress, served
/// at `/progress`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Campaign or run name.
    pub name: String,
    /// Total units of work (campaign cells, sim sessions).
    pub total: usize,
    /// Units finished successfully.
    pub completed: usize,
    /// Units that exhausted their retries.
    pub failed: usize,
    /// Wall seconds since the board was created.
    pub elapsed_s: f64,
    /// Completion rate, once at least one unit finished.
    pub cells_per_s: Option<f64>,
    /// Estimated seconds to finish the remaining units.
    pub eta_s: Option<f64>,
}

#[derive(Debug)]
struct BoardCore {
    name: String,
    total: usize,
    completed: usize,
    failed: usize,
    started: Instant,
}

/// Shared live-progress state: the run reports finished units, the
/// observer thread snapshots. Follows the crate's enabled/disabled
/// handle pattern — a disabled board (the `Default`) drops updates
/// after one branch and snapshots to `None`.
#[derive(Debug, Clone, Default)]
pub struct ProgressBoard {
    core: Option<Arc<Mutex<BoardCore>>>,
}

impl ProgressBoard {
    /// A board that ignores every update.
    #[must_use]
    pub fn disabled() -> ProgressBoard {
        ProgressBoard { core: None }
    }

    /// A live board for `total` units of work.
    #[must_use]
    pub fn enabled(name: &str, total: usize) -> ProgressBoard {
        ProgressBoard {
            core: Some(Arc::new(Mutex::new(BoardCore {
                name: name.to_owned(),
                total,
                completed: 0,
                failed: 0,
                started: Instant::now(),
            }))),
        }
    }

    /// Whether updates land anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// One unit of work finished (`ok = false` means it exhausted its
    /// retries).
    pub fn cell_finished(&self, ok: bool) {
        let Some(core) = &self.core else { return };
        let mut core = core.lock();
        if ok {
            core.completed += 1;
        } else {
            core.failed += 1;
        }
    }

    /// The current progress view (`None` when disabled).
    #[must_use]
    pub fn snapshot(&self) -> Option<ProgressSnapshot> {
        let core = self.core.as_ref()?;
        let core = core.lock();
        let elapsed_s = core.started.elapsed().as_secs_f64();
        let done = core.completed + core.failed;
        let remaining = core.total.saturating_sub(done);
        let estimate = throughput_eta(done, remaining, elapsed_s);
        Some(ProgressSnapshot {
            name: core.name.clone(),
            total: core.total,
            completed: core.completed,
            failed: core.failed,
            elapsed_s,
            cells_per_s: estimate.map(|(rate, _)| rate),
            eta_s: estimate.map(|(_, eta)| eta),
        })
    }
}

// ---------------------------------------------------------------------------
// The observer thread
// ---------------------------------------------------------------------------

/// The read-only handles an [`Observer`] serves from.
#[derive(Debug, Clone, Default)]
pub struct ObserverHandles {
    /// Metrics for `/metrics` (exposition text).
    pub registry: Registry,
    /// Progress board for `/progress` (JSON [`ProgressSnapshot`]).
    pub progress: ProgressBoard,
}

/// A background thread serving `/metrics` and `/progress` over HTTP/1.0
/// from snapshot-only reads of its [`ObserverHandles`].
///
/// Dropping the observer shuts the thread down (a self-connection
/// unblocks the accept loop) and joins it.
#[derive(Debug)]
pub struct Observer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Observer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, port 0 for an ephemeral
    /// port) and starts the serving thread.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the thread cannot spawn.
    pub fn serve(addr: &str, handles: ObserverHandles) -> std::io::Result<Observer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("omnc-observer".to_owned())
            .spawn(move || serve_loop(&listener, &handles, &flag))?;
        Ok(Observer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Observer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop so the thread sees the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn serve_loop(listener: &TcpListener, handles: &ObserverHandles, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = respond(&mut stream, handles);
    }
}

/// Reads one request line and writes one response; any malformed or
/// unknown request gets a 404. Serving is best-effort by design — a
/// dropped scrape must never affect the run being observed.
fn respond(stream: &mut TcpStream, handles: &ObserverHandles) -> std::io::Result<()> {
    let mut buf = [0u8; 1024];
    let mut len = 0;
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(2).any(|w| w == b"\r\n") {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            render_exposition(&handles.registry.snapshot()),
        ),
        "/progress" => (
            "200 OK",
            "application/json",
            match handles.progress.snapshot() {
                Some(snap) => serde_json::to_string(&snap).unwrap_or_else(|_| "{}".to_owned()),
                None => "{}".to_owned(),
            },
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to observer");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    fn body_of(response: &str) -> &str {
        response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body)
            .expect("response has a header/body split")
    }

    #[test]
    fn exposition_renders_counters_gauges_and_histograms() {
        let registry = Registry::new();
        registry.counter("mac.tx.started").add(7);
        registry.gauge("queue.len").set(2.5);
        let h = registry.histogram("lat", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        let text = render_exposition(&registry.snapshot());
        let expected = "# TYPE lat histogram\n\
                        lat_bucket{le=\"1\"} 1\n\
                        lat_bucket{le=\"10\"} 2\n\
                        lat_bucket{le=\"+Inf\"} 3\n\
                        lat_sum 105.5\n\
                        lat_count 3\n\
                        # TYPE mac_tx_started counter\n\
                        mac_tx_started 7\n\
                        # TYPE queue_len gauge\n\
                        queue_len 2.5\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn exposition_is_name_sorted_with_one_type_line_per_name() {
        let registry = Registry::new();
        registry
            .counter_with_labels("tx", &[("proto", "omnc")])
            .inc();
        registry
            .counter_with_labels("tx", &[("proto", "more")])
            .inc();
        registry.counter("aa").inc();
        let text = render_exposition(&registry.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# TYPE aa counter");
        assert_eq!(lines[2], "# TYPE tx counter");
        assert_eq!(text.matches("# TYPE tx counter").count(), 1);
        assert_eq!(lines[3], "tx{proto=\"omnc\"} 1");
        assert_eq!(lines[4], "tx{proto=\"more\"} 1");
    }

    #[test]
    fn exposition_escapes_label_values_and_sanitizes_names() {
        let registry = Registry::new();
        registry
            .counter_with_labels("omnc/0/tx.total", &[("path", "a\"b\\c\nd")])
            .add(1);
        let text = render_exposition(&registry.snapshot());
        assert_eq!(
            text,
            "# TYPE omnc_0_tx_total counter\n\
             omnc_0_tx_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"
        );
    }

    #[test]
    fn sample_formatting_covers_the_specials() {
        assert_eq!(format_sample(5.0), "5");
        assert_eq!(format_sample(2.5), "2.5");
        assert_eq!(format_sample(f64::INFINITY), "+Inf");
        assert_eq!(format_sample(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_sample(f64::NAN), "NaN");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a:b_c.d/e"), "a:b_c_d_e");
    }

    #[test]
    fn throughput_eta_needs_signal_before_estimating() {
        assert_eq!(throughput_eta(0, 10, 5.0), None);
        assert_eq!(throughput_eta(5, 10, 0.0), None);
        let (rate, eta) = throughput_eta(5, 10, 2.5).expect("estimate");
        assert!((rate - 2.0).abs() < 1e-12);
        assert!((eta - 5.0).abs() < 1e-12);
        // Nothing remaining: the ETA is simply zero.
        assert_eq!(throughput_eta(4, 0, 2.0), Some((2.0, 0.0)));
    }

    #[test]
    fn progress_board_tracks_completion() {
        let board = ProgressBoard::enabled("smoke", 4);
        let snap = board.snapshot().expect("enabled board snapshots");
        assert_eq!((snap.total, snap.completed, snap.failed), (4, 0, 0));
        assert_eq!(snap.cells_per_s, None, "no completions yet");

        board.cell_finished(true);
        board.cell_finished(false);
        let snap = board.snapshot().expect("snapshot");
        assert_eq!((snap.completed, snap.failed), (1, 1));
        assert!(snap.cells_per_s.is_some() && snap.eta_s.is_some());
    }

    #[test]
    fn disabled_board_is_a_noop() {
        let board = ProgressBoard::disabled();
        assert!(!board.is_enabled());
        board.cell_finished(true);
        assert!(board.snapshot().is_none());
    }

    #[test]
    fn observer_serves_metrics_progress_series_and_404() {
        let registry = Registry::new();
        registry.counter("campaign.cells.completed").add(3);
        let board = ProgressBoard::enabled("smoke", 8);
        let observer = Observer::serve(
            "127.0.0.1:0",
            ObserverHandles {
                registry: registry.clone(),
                progress: board.clone(),
            },
        )
        .expect("bind an ephemeral port");
        let addr = observer.local_addr();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
        assert!(
            body_of(&metrics).contains("campaign_cells_completed 3"),
            "{metrics}"
        );

        // Serving is read-only: scraping twice yields the same body.
        assert_eq!(body_of(&http_get(addr, "/metrics")), body_of(&metrics));

        let progress = http_get(addr, "/progress");
        let snap: ProgressSnapshot =
            serde_json::from_str(body_of(&progress)).expect("progress parses");
        assert_eq!((snap.total, snap.completed), (8, 0));

        // Anything else is a 404, the retired `/series` included.
        for path in ["/series", "/nope"] {
            let missing = http_get(addr, path);
            assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        }

        drop(observer); // joins the thread; must not hang
    }
}
