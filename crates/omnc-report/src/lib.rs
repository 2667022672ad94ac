//! Offline analysis of OMNC causal packet-lifecycle traces.
//!
//! The `omnc-sim --trace` JSONL stream gives every coded packet a
//! birth-to-death story: minted at a coder ([`omnc::drift::PacketTag`]), carried
//! through MAC `TxStart`/`Delivered`/`Lost` events, resolved by the
//! destination decoder into an `Absorbed` outcome. This crate joins those
//! streams back together and answers the paper's evaluation questions
//! offline:
//!
//! * per-link delivery/loss timelines (the empirical loss processes);
//! * per-forwarder redundancy ratio and innovative-packet contribution
//!   (Fig. 4's effective multipath spread);
//! * queue evolution per node (Fig. 3);
//! * decode timeline and throughput summary;
//! * rate-control convergence summaries from optimizer `IterationRecord`
//!   streams (Fig. 1).
//!
//! [`analyze`] reduces a record stream to a [`Report`], and
//! [`render_ascii`] prints it, ending with every [`Report::metrics`]
//! entry in full precision: the text `scripts/report.sh` and
//! `scripts/campaign.sh` compare byte for byte against committed files.
//! [`render_profile`] renders the hierarchical span profiles
//! `omnc-sim --profile` exports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead};

use omnc::drift::TraceEvent;
use omnc::trace::{Absorbed, TraceRecord};
use omnc_opt::IterationRecord;

pub use omnc::telemetry::{FlightEvent, FlightHeader, ProfileReport, ProfileSpan};

/// Per-link delivery accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets delivered over the link.
    pub delivered: u64,
    /// Packets lost on the link.
    pub lost: u64,
}

impl LinkStats {
    /// Empirical delivery probability (1.0 for an unexercised link).
    pub fn delivery_rate(&self) -> f64 {
        let total = self.delivered + self.lost;
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }
}

/// Per-forwarder accounting, joining MAC transmissions with the
/// destination decoder's verdicts on the packets this node *coded*
/// (grouped by `PacketTag::origin`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwarderStats {
    /// Broadcasts started by this node.
    pub transmissions: u64,
    /// Copies of this node's transmissions that reached some receiver.
    pub delivered: u64,
    /// Copies that were lost in the air.
    pub lost: u64,
    /// Packets coded by this node and absorbed by the destination decoder.
    pub absorbed: u64,
    /// Of those, the ones that increased the decoder's rank.
    pub innovative: u64,
}

impl ForwarderStats {
    /// Fraction of this node's decoder-absorbed packets that were
    /// redundant (0.0 when nothing was absorbed).
    pub fn redundancy_ratio(&self) -> f64 {
        if self.absorbed == 0 {
            0.0
        } else {
            (self.absorbed - self.innovative) as f64 / self.absorbed as f64
        }
    }
}

/// Sampled queue-length statistics for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Number of queue samples.
    pub samples: u64,
    /// Mean of the sampled lengths.
    pub mean: f64,
    /// Largest sampled length.
    pub max: u64,
}

/// One fully analyzed session (a `SessionStart ..= SessionEnd` span).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session identifier (the tag namespace).
    pub session: u64,
    /// Protocol display name ("OMNC", "MORE", ...).
    pub protocol: String,
    /// Source node (original topology id).
    pub src: usize,
    /// Destination node (original topology id).
    pub dst: usize,
    /// End-to-end throughput, bytes/second.
    pub throughput: f64,
    /// Fully decoded generations.
    pub generations_decoded: u64,
    /// Innovative packets absorbed at the destination.
    pub innovative: u64,
    /// Redundant packets absorbed at the destination.
    pub redundant: u64,
    /// Total decoder rank accumulated (innovative absorptions).
    pub final_rank: u64,
    /// MAC events dropped by the bounded in-simulator trace.
    pub dropped_mac_events: u64,
    /// Per-link delivery/loss counts, keyed by `(from, to)`.
    pub links: BTreeMap<(usize, usize), LinkStats>,
    /// Per-forwarder stats, keyed by node id.
    pub forwarders: BTreeMap<usize, ForwarderStats>,
    /// Sampled queue statistics, keyed by node id.
    pub queues: BTreeMap<usize, QueueStats>,
    /// `(completion time, generation)` for every decoded generation, in
    /// completion order.
    pub decode_timeline: Vec<(f64, u64)>,
}

impl SessionReport {
    /// Overall redundancy ratio at the destination.
    pub fn redundancy_ratio(&self) -> f64 {
        let total = self.innovative + self.redundant;
        if total == 0 {
            0.0
        } else {
            self.redundant as f64 / total as f64
        }
    }

    /// Mean of the per-node mean queue lengths.
    pub fn mean_queue(&self) -> f64 {
        if self.queues.is_empty() {
            0.0
        } else {
            self.queues.values().map(|q| q.mean).sum::<f64>() / self.queues.len() as f64
        }
    }

    /// Aggregate delivery rate across every exercised link.
    pub fn delivery_rate(&self) -> f64 {
        let (d, l) = self
            .links
            .values()
            .fold((0u64, 0u64), |(d, l), s| (d + s.delivered, l + s.lost));
        LinkStats {
            delivered: d,
            lost: l,
        }
        .delivery_rate()
    }

    /// Forwarders that contributed at least one innovative packet.
    pub fn contributing_forwarders(&self) -> usize {
        self.forwarders
            .values()
            .filter(|f| f.innovative > 0)
            .count()
    }
}

/// Convergence summary distilled from an optimizer `IterationRecord`
/// stream (the `fig1_convergence --json` export).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceSummary {
    /// Iterations recorded.
    pub iterations: u64,
    /// Recovered end-to-end rate at the final iteration.
    pub final_rate: f64,
    /// Worst primal violation at the final iteration.
    pub final_violation: f64,
    /// First iteration whose recovered rate reached 90% of the final rate.
    pub iterations_to_90pct: u64,
}

/// Cross-session aggregates over every session of the trace. Populated
/// whenever the trace holds more than one session — a concurrent
/// multi-session workload or a sequential sweep — so a multi-session
/// report always answers "who got the channel" next to the per-session
/// tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossSessionSummary {
    /// Sessions in the trace.
    pub sessions: usize,
    /// Sum of per-session end-to-end throughputs, bytes/second.
    pub total_throughput: f64,
    /// Sessions that delivered anything end to end (positive
    /// throughput: coded sessions are credited for partial rank, uncoded
    /// ones for delivered bytes).
    pub sessions_completed: usize,
    /// `(metric prefix "<protocol>/<k>", share of all trace
    /// transmissions)`, stream order. Keyed like [`Report::metrics`]
    /// because sessions of different protocols may share a session id.
    /// Shares sum to 1 when anything transmitted.
    pub airtime_shares: Vec<(String, f64)>,
    /// Jain fairness index of the airtime shares: 1 when every session
    /// gets equal airtime, `1/K` when one session monopolizes the channel.
    pub airtime_fairness: f64,
}

/// A full analysis: per-session reports, optional convergence summary, and
/// the flat metric map.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// One report per `SessionStart ..= SessionEnd` span, in stream order.
    pub sessions: Vec<SessionReport>,
    /// Cross-session aggregates (`None` for single-session traces).
    pub cross: Option<CrossSessionSummary>,
    /// Convergence summary, when an optimizer stream was supplied.
    pub convergence: Option<ConvergenceSummary>,
    /// Flat `name → value` metrics (deterministically ordered). Keys are
    /// `"<protocol>/<k>/<metric>"` with `k` the per-protocol session index,
    /// plus `"opt/<metric>"` for the convergence summary.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a JSONL stream of [`TraceRecord`] lines (blank lines skipped).
///
/// # Errors
///
/// Fails on I/O errors or any line that is not a valid record.
pub fn parse_trace<R: BufRead>(reader: R) -> io::Result<Vec<TraceRecord>> {
    let mut records = Vec::new();
    for (n, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record: TraceRecord = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", n + 1))
        })?;
        records.push(record);
    }
    Ok(records)
}

/// Parses a JSONL stream of optimizer [`IterationRecord`] lines.
///
/// # Errors
///
/// Fails on I/O errors or any line that is not a valid record.
pub fn parse_opt<R: BufRead>(reader: R) -> io::Result<Vec<IterationRecord>> {
    let mut records = Vec::new();
    for (n, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record: IterationRecord = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", n + 1))
        })?;
        records.push(record);
    }
    Ok(records)
}

/// Reduces a trace stream (plus an optional optimizer stream) to a
/// [`Report`].
pub fn analyze(trace: &[TraceRecord], opt: &[IterationRecord]) -> Report {
    let mut sessions = Vec::new();
    let mut current: Option<SessionReport> = None;
    for record in trace {
        match record {
            TraceRecord::SessionStart {
                session,
                protocol,
                src,
                dst,
                ..
            } => {
                current = Some(SessionReport {
                    session: *session,
                    protocol: protocol.name().to_string(),
                    src: src.index(),
                    dst: dst.index(),
                    throughput: 0.0,
                    generations_decoded: 0,
                    innovative: 0,
                    redundant: 0,
                    final_rank: 0,
                    dropped_mac_events: 0,
                    links: BTreeMap::new(),
                    forwarders: BTreeMap::new(),
                    queues: BTreeMap::new(),
                    decode_timeline: Vec::new(),
                });
            }
            TraceRecord::Mac(event) => {
                if let Some(s) = current.as_mut() {
                    absorb_mac(s, event);
                }
            }
            TraceRecord::Absorbed(a) => {
                if let Some(s) = current.as_mut() {
                    absorb_decode(s, a);
                }
            }
            TraceRecord::SessionEnd {
                throughput,
                generations_decoded,
                innovative,
                redundant,
                final_rank,
                dropped_mac_events,
                ..
            } => {
                if let Some(mut s) = current.take() {
                    s.throughput = *throughput;
                    s.generations_decoded = *generations_decoded;
                    s.innovative = *innovative;
                    s.redundant = *redundant;
                    s.final_rank = *final_rank;
                    s.dropped_mac_events = *dropped_mac_events;
                    sessions.push(s);
                }
            }
        }
    }
    // An unterminated stream still yields its partial last session.
    if let Some(s) = current.take() {
        sessions.push(s);
    }
    let convergence = summarize_convergence(opt);
    let prefixes = metric_prefixes(&sessions);
    let cross = summarize_cross(&sessions, &prefixes);
    let metrics = collect_metrics(&sessions, &prefixes, cross.as_ref(), convergence.as_ref());
    Report {
        sessions,
        cross,
        convergence,
        metrics,
    }
}

/// Each session's metric-key prefix, `"<protocol>/<k>"` with `k` the
/// per-protocol session index.
fn metric_prefixes(sessions: &[SessionReport]) -> Vec<String> {
    let mut per_protocol: BTreeMap<&str, usize> = BTreeMap::new();
    sessions
        .iter()
        .map(|s| {
            let k = per_protocol.entry(s.protocol.as_str()).or_insert(0);
            let prefix = format!("{}/{k}", s.protocol.to_ascii_lowercase());
            *k += 1;
            prefix
        })
        .collect()
}

/// Reduces multi-session traces to [`CrossSessionSummary`]; `None` for
/// fewer than two sessions.
fn summarize_cross(sessions: &[SessionReport], prefixes: &[String]) -> Option<CrossSessionSummary> {
    if sessions.len() < 2 {
        return None;
    }
    let tx: Vec<f64> = sessions
        .iter()
        .map(|s| s.forwarders.values().map(|f| f.transmissions).sum::<u64>() as f64)
        .collect();
    let total_tx: f64 = tx.iter().sum();
    let airtime_shares = prefixes
        .iter()
        .zip(&tx)
        .map(|(prefix, &t)| {
            let share = if total_tx > 0.0 { t / total_tx } else { 0.0 };
            (prefix.clone(), share)
        })
        .collect();
    let sum_sq: f64 = tx.iter().map(|x| x * x).sum();
    let airtime_fairness = if sum_sq > 0.0 {
        total_tx * total_tx / (tx.len() as f64 * sum_sq)
    } else {
        0.0
    };
    Some(CrossSessionSummary {
        sessions: sessions.len(),
        total_throughput: sessions.iter().map(|s| s.throughput).sum(),
        sessions_completed: sessions.iter().filter(|s| s.throughput > 0.0).count(),
        airtime_shares,
        airtime_fairness,
    })
}

fn absorb_mac(s: &mut SessionReport, event: &TraceEvent) {
    match event {
        TraceEvent::TxStart { node, .. } => {
            s.forwarders.entry(node.index()).or_default().transmissions += 1;
        }
        TraceEvent::TxComplete { .. } => {}
        TraceEvent::Delivered { from, to, .. } => {
            s.links
                .entry((from.index(), to.index()))
                .or_default()
                .delivered += 1;
            s.forwarders.entry(from.index()).or_default().delivered += 1;
        }
        TraceEvent::Lost { from, to, .. } => {
            s.links.entry((from.index(), to.index())).or_default().lost += 1;
            s.forwarders.entry(from.index()).or_default().lost += 1;
        }
        TraceEvent::Queue { node, len, .. } => {
            let q = s.queues.entry(node.index()).or_default();
            let n = q.samples as f64;
            q.mean = (q.mean * n + *len as f64) / (n + 1.0);
            q.samples += 1;
            q.max = q.max.max(*len as u64);
        }
    }
}

fn absorb_decode(s: &mut SessionReport, a: &Absorbed) {
    if let Some(tag) = a.tag {
        let f = s.forwarders.entry(tag.origin.index()).or_default();
        f.absorbed += 1;
        if a.innovative {
            f.innovative += 1;
        }
    }
    if a.completed {
        s.decode_timeline.push((a.at, a.generation.as_u64()));
    }
}

fn summarize_convergence(opt: &[IterationRecord]) -> Option<ConvergenceSummary> {
    let last = opt.last()?;
    let target = last.recovered_rate * 0.9;
    let iterations_to_90pct = opt
        .iter()
        .find(|r| r.recovered_rate >= target)
        .map(|r| r.iter)
        .unwrap_or(last.iter);
    Some(ConvergenceSummary {
        iterations: opt.len() as u64,
        final_rate: last.recovered_rate,
        final_violation: last.max_violation,
        iterations_to_90pct,
    })
}

fn collect_metrics(
    sessions: &[SessionReport],
    prefixes: &[String],
    cross: Option<&CrossSessionSummary>,
    convergence: Option<&ConvergenceSummary>,
) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    for (s, prefix) in sessions.iter().zip(prefixes) {
        metrics.insert(format!("{prefix}/throughput"), s.throughput);
        metrics.insert(
            format!("{prefix}/generations_decoded"),
            s.generations_decoded as f64,
        );
        metrics.insert(format!("{prefix}/innovative"), s.innovative as f64);
        metrics.insert(format!("{prefix}/final_rank"), s.final_rank as f64);
        metrics.insert(format!("{prefix}/redundancy_ratio"), s.redundancy_ratio());
        metrics.insert(format!("{prefix}/mean_queue"), s.mean_queue());
        metrics.insert(format!("{prefix}/delivery_rate"), s.delivery_rate());
        metrics.insert(
            format!("{prefix}/contributing_forwarders"),
            s.contributing_forwarders() as f64,
        );
        metrics.insert(
            format!("{prefix}/dropped_mac_events"),
            s.dropped_mac_events as f64,
        );
    }
    if let Some(x) = cross {
        metrics.insert("cross/total_throughput".into(), x.total_throughput);
        metrics.insert(
            "cross/sessions_completed".into(),
            x.sessions_completed as f64,
        );
        metrics.insert("cross/airtime_fairness".into(), x.airtime_fairness);
    }
    if let Some(c) = convergence {
        metrics.insert("opt/iterations".into(), c.iterations as f64);
        metrics.insert("opt/final_rate".into(), c.final_rate);
        metrics.insert("opt/final_violation".into(), c.final_violation);
        metrics.insert(
            "opt/iterations_to_90pct".into(),
            c.iterations_to_90pct as f64,
        );
    }
    metrics
}

// ---------------------------------------------------------------- rendering

/// Renders the report as human-readable ASCII tables, followed by a
/// `metrics:` block: one `name value` line per [`Report::metrics`] entry,
/// in key order. Values use `f64`'s `Display`, the shortest text that
/// parses back to the same bits, so the text carries every metric
/// exactly and a byte compare of two renders compares every value.
pub fn render_ascii(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>5}->{:<5} {:>12} {:>5} {:>6} {:>6} {:>6} {:>7} {:>7}",
        "protocol", "src", "dst", "B/s", "gens", "innov", "redun", "rank", "redun%", "queue"
    );
    for s in &report.sessions {
        let _ = writeln!(
            out,
            "{:>12} {:>5}->{:<5} {:>12.1} {:>5} {:>6} {:>6} {:>6} {:>6.1}% {:>7.2}",
            s.protocol,
            s.src,
            s.dst,
            s.throughput,
            s.generations_decoded,
            s.innovative,
            s.redundant,
            s.final_rank,
            s.redundancy_ratio() * 100.0,
            s.mean_queue(),
        );
    }
    for s in &report.sessions {
        let _ = writeln!(
            out,
            "\n== {} session {} ({} -> {}) ==",
            s.protocol, s.session, s.src, s.dst
        );
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>10} {:>8} {:>9} {:>9} {:>8}",
            "node", "tx", "delivered", "lost", "absorbed", "innov", "contrib"
        );
        let total_innovative: u64 = s.forwarders.values().map(|f| f.innovative).sum();
        for (node, f) in &s.forwarders {
            let contrib = if total_innovative == 0 {
                0.0
            } else {
                f.innovative as f64 / total_innovative as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>10} {:>8} {:>9} {:>9} {:>7.1}%",
                node, f.transmissions, f.delivered, f.lost, f.absorbed, f.innovative, contrib
            );
        }
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>8} {:>9}",
            "link", "delivered", "lost", "p"
        );
        for ((from, to), l) in &s.links {
            let _ = writeln!(
                out,
                "{:>3}->{:<3} {:>9} {:>8} {:>9.3}",
                from,
                to,
                l.delivered,
                l.lost,
                l.delivery_rate()
            );
        }
        if !s.decode_timeline.is_empty() {
            let _ = writeln!(out, "decoded generations:");
            for (at, generation) in &s.decode_timeline {
                let _ = writeln!(out, "  gen {generation:>4} at {at:>9.3}s");
            }
        }
        if s.dropped_mac_events > 0 {
            let _ = writeln!(
                out,
                "Warning: {} MAC events dropped (incomplete stream; per-link and \
                 per-forwarder counts undercount — raise --trace-capacity)",
                s.dropped_mac_events
            );
        }
    }
    if let Some(x) = &report.cross {
        let _ = writeln!(
            out,
            "\ncross-session: {} sessions, {} completed, total {:.1} B/s, \
             airtime fairness {:.3}",
            x.sessions, x.sessions_completed, x.total_throughput, x.airtime_fairness
        );
        let _ = write!(out, "airtime shares:");
        for (prefix, share) in &x.airtime_shares {
            let _ = write!(out, " {prefix} {:.1}%", share * 100.0);
        }
        let _ = writeln!(out);
    }
    if let Some(c) = &report.convergence {
        let _ = writeln!(
            out,
            "\nconvergence: {} iterations, final rate {:.1}, final violation {:.2e}, 90% at iter {}",
            c.iterations, c.final_rate, c.final_violation, c.iterations_to_90pct
        );
    }
    let _ = writeln!(out, "\nmetrics:");
    for (name, value) in &report.metrics {
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

// ----------------------------------------------------------------- profile

/// Renders a profile as a top-`top` table of spans ranked by self time
/// followed by the full span tree (indent = nesting depth).
///
/// Percentages are of [`ProfileReport::total_root_ticks`], so the
/// `self%` column over the whole report sums to at most 100%. Allocation
/// columns (`allocs` / `alloc B`, self + descendants per span) appear
/// only when some span actually attributed allocations — runs without
/// the counting allocator keep the historical tick-only layout.
pub fn render_profile(report: &ProfileReport, top: usize) -> String {
    let mut out = String::new();
    let root = report.total_root_ticks();
    let with_allocs = report
        .spans
        .iter()
        .any(|s| s.allocs > 0 || s.alloc_bytes > 0);
    let _ = writeln!(
        out,
        "clock: {} ({} spans, {} root {})",
        report.clock,
        report.spans.len(),
        root,
        report.unit
    );
    let mut by_self: Vec<&ProfileSpan> = report.spans.iter().collect();
    by_self.sort_by(|a, b| b.self_ticks.cmp(&a.self_ticks).then(a.path.cmp(&b.path)));
    let _ = writeln!(
        out,
        "\ntop {} spans by self {}:",
        top.min(by_self.len()),
        report.unit
    );
    if with_allocs {
        let _ = writeln!(
            out,
            "{:>10} {:>6} {:>12} {:>12} {:>10} {:>12}  path",
            "calls", "self%", "self", "total", "allocs", "alloc B"
        );
    } else {
        let _ = writeln!(
            out,
            "{:>10} {:>6} {:>12} {:>12}  path",
            "calls", "self%", "self", "total"
        );
    }
    for s in by_self.iter().take(top) {
        let pct = if root == 0 {
            0.0
        } else {
            s.self_ticks as f64 / root as f64 * 100.0
        };
        if with_allocs {
            let _ = writeln!(
                out,
                "{:>10} {:>5.1}% {:>12} {:>12} {:>10} {:>12}  {}",
                s.calls, pct, s.self_ticks, s.total_ticks, s.allocs, s.alloc_bytes, s.path
            );
        } else {
            let _ = writeln!(
                out,
                "{:>10} {:>5.1}% {:>12} {:>12}  {}",
                s.calls, pct, s.self_ticks, s.total_ticks, s.path
            );
        }
    }
    let _ = writeln!(out, "\nspan tree:");
    if with_allocs {
        let _ = writeln!(
            out,
            "{:>10} {:>12} {:>12} {:>10} {:>12}  span",
            "calls", "total", "self", "allocs", "alloc B"
        );
    } else {
        let _ = writeln!(out, "{:>10} {:>12} {:>12}  span", "calls", "total", "self");
    }
    // The report is already depth-first with children sorted by name, so
    // printing in order with depth indentation reproduces the tree.
    for s in &report.spans {
        let indent = "  ".repeat(s.depth as usize);
        if with_allocs {
            let _ = writeln!(
                out,
                "{:>10} {:>12} {:>12} {:>10} {:>12}  {indent}{}",
                s.calls, s.total_ticks, s.self_ticks, s.allocs, s.alloc_bytes, s.name
            );
        } else {
            let _ = writeln!(
                out,
                "{:>10} {:>12} {:>12}  {indent}{}",
                s.calls, s.total_ticks, s.self_ticks, s.name
            );
        }
    }
    out
}

// ------------------------------------------------------------------ flight

/// Parses a flight-recorder dump (from [`omnc::telemetry::FlightRecorder`]):
/// a [`FlightHeader`] line followed by one [`FlightEvent`] per line.
///
/// # Errors
///
/// Returns `InvalidData` if the header or any event line fails to parse,
/// or the underlying I/O error.
pub fn parse_flight(reader: impl BufRead) -> io::Result<(FlightHeader, Vec<FlightEvent>)> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut lines = reader.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| invalid("empty flight dump".to_owned()))??;
    let header: FlightHeader = serde_json::from_str(&header_line)
        .map_err(|e| invalid(format!("bad flight header: {e}")))?;
    let mut events = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event: FlightEvent = serde_json::from_str(&line)
            .map_err(|e| invalid(format!("bad flight event line: {e}")))?;
        events.push(event);
    }
    Ok((header, events))
}

/// Pretty-prints a parsed flight dump: the crashed cell, the panic
/// message, eviction accounting, then the surviving breadcrumbs oldest
/// first with virtual-time stamps.
#[must_use]
pub fn render_flight(header: &FlightHeader, events: &[FlightEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "flight {}", header.flight);
    match &header.panic {
        Some(message) => {
            let _ = writeln!(out, "panic: {message}");
        }
        None => {
            let _ = writeln!(out, "panic: (none — dump was taken manually)");
        }
    }
    let _ = writeln!(
        out,
        "{} event(s) kept, {} older event(s) evicted from the ring",
        events.len(),
        header.dropped
    );
    for e in events {
        let _ = writeln!(
            out,
            "{:>6}  t={:<10.3} {:<14} {}",
            e.seq, e.t, e.kind, e.detail
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnc::drift::{PacketTag, SimTime};
    use omnc::net_topo::graph::NodeId;
    use omnc::rlnc::GenerationId;
    use omnc::runner::Protocol;

    fn tag(origin: usize, seq: u64) -> Option<PacketTag> {
        Some(PacketTag {
            session: 7,
            generation: GenerationId::new(0),
            seq,
            origin: NodeId::new(origin),
        })
    }

    fn synthetic_trace() -> Vec<TraceRecord> {
        vec![
            TraceRecord::SessionStart {
                session: 7,
                protocol: Protocol::Omnc,
                src: NodeId::new(0),
                dst: NodeId::new(2),
                seed: 1,
                duration: 10.0,
            },
            TraceRecord::Mac(TraceEvent::TxStart {
                at: SimTime::new(0.1),
                node: NodeId::new(0),
                wire_len: 100,
                rate: 1000.0,
                tag: tag(0, 0),
            }),
            TraceRecord::Mac(TraceEvent::Delivered {
                at: SimTime::new(0.2),
                from: NodeId::new(0),
                to: NodeId::new(1),
                tag: tag(0, 0),
            }),
            TraceRecord::Mac(TraceEvent::Lost {
                at: SimTime::new(0.2),
                from: NodeId::new(0),
                to: NodeId::new(2),
                tag: tag(0, 0),
            }),
            TraceRecord::Mac(TraceEvent::Queue {
                at: SimTime::new(0.2),
                node: NodeId::new(1),
                len: 3,
            }),
            TraceRecord::Mac(TraceEvent::TxStart {
                at: SimTime::new(0.3),
                node: NodeId::new(1),
                wire_len: 100,
                rate: 1000.0,
                tag: tag(1, 0),
            }),
            TraceRecord::Mac(TraceEvent::Delivered {
                at: SimTime::new(0.4),
                from: NodeId::new(1),
                to: NodeId::new(2),
                tag: tag(1, 0),
            }),
            TraceRecord::Absorbed(Absorbed {
                at: 0.4,
                node: NodeId::new(2),
                from: NodeId::new(1),
                tag: tag(1, 0),
                generation: GenerationId::new(0),
                innovative: true,
                rank_after: 1,
                completed: false,
            }),
            TraceRecord::Absorbed(Absorbed {
                at: 0.5,
                node: NodeId::new(2),
                from: NodeId::new(1),
                tag: tag(1, 1),
                generation: GenerationId::new(0),
                innovative: false,
                rank_after: 1,
                completed: false,
            }),
            TraceRecord::Absorbed(Absorbed {
                at: 0.6,
                node: NodeId::new(2),
                from: NodeId::new(0),
                tag: tag(0, 3),
                generation: GenerationId::new(0),
                innovative: true,
                rank_after: 2,
                completed: true,
            }),
            TraceRecord::SessionEnd {
                session: 7,
                throughput: 256.0,
                generations_decoded: 1,
                innovative: 2,
                redundant: 1,
                final_rank: 2,
                dropped_mac_events: 0,
            },
        ]
    }

    #[test]
    fn cross_session_summary_covers_multi_session_traces() {
        // A second session with three times the airtime and nothing
        // delivered end to end.
        let mut trace = synthetic_trace();
        trace.push(TraceRecord::SessionStart {
            session: 9,
            protocol: Protocol::Omnc,
            src: NodeId::new(3),
            dst: NodeId::new(0),
            seed: 2,
            duration: 10.0,
        });
        for i in 0..6 {
            trace.push(TraceRecord::Mac(TraceEvent::TxStart {
                at: SimTime::new(1.0 + i as f64),
                node: NodeId::new(3),
                wire_len: 100,
                rate: 1000.0,
                tag: tag(3, i),
            }));
        }
        trace.push(TraceRecord::SessionEnd {
            session: 9,
            throughput: 0.0,
            generations_decoded: 0,
            innovative: 0,
            redundant: 0,
            final_rank: 0,
            dropped_mac_events: 0,
        });

        // Single-session traces carry no cross summary.
        assert!(analyze(&synthetic_trace(), &[]).cross.is_none());

        let report = analyze(&trace, &[]);
        let x = report.cross.as_ref().expect("two sessions -> cross");
        assert_eq!(x.sessions, 2);
        assert_eq!(x.sessions_completed, 1);
        assert!((x.total_throughput - 256.0).abs() < 1e-12);
        // Session 7 transmitted 2 of 8 packets, session 9 the other 6.
        // Shares are keyed like the metric map, not by session id, which
        // the protocol runs of one `--protocols all` trace share.
        assert_eq!(
            x.airtime_shares,
            vec![("omnc/0".to_string(), 0.25), ("omnc/1".to_string(), 0.75)]
        );
        // Jain index of (2, 6): (2+6)^2 / (2 * (4+36)) = 0.8.
        assert!((x.airtime_fairness - 0.8).abs() < 1e-12, "{x:?}");
        assert_eq!(report.metrics["cross/sessions_completed"], 1.0);
        assert!((report.metrics["cross/airtime_fairness"] - 0.8).abs() < 1e-12);
        assert!((report.metrics["cross/total_throughput"] - 256.0).abs() < 1e-12);
        // The ASCII rendering names the shares next to the fairness index.
        let text = render_ascii(&report);
        assert!(
            text.contains("cross-session: 2 sessions, 1 completed"),
            "{text}"
        );
        assert!(
            text.contains("airtime shares: omnc/0 25.0% omnc/1 75.0%"),
            "{text}"
        );
        assert!(text.contains("airtime fairness 0.800"), "{text}");
    }

    #[test]
    fn an_uncoded_session_that_delivers_counts_as_completed() {
        // ETX routing forwards plain packets: its stream has no decoder
        // verdicts and no decoded generation, only delivered bytes.
        let mut trace = synthetic_trace();
        trace.push(TraceRecord::SessionStart {
            session: 7,
            protocol: Protocol::EtxRouting,
            src: NodeId::new(0),
            dst: NodeId::new(2),
            seed: 1,
            duration: 10.0,
        });
        trace.push(TraceRecord::Mac(TraceEvent::TxStart {
            at: SimTime::new(0.1),
            node: NodeId::new(0),
            wire_len: 100,
            rate: 1000.0,
            tag: None,
        }));
        trace.push(TraceRecord::SessionEnd {
            session: 7,
            throughput: 3037.9,
            generations_decoded: 0,
            innovative: 0,
            redundant: 0,
            final_rank: 0,
            dropped_mac_events: 0,
        });
        let report = analyze(&trace, &[]);
        let x = report.cross.as_ref().expect("two sessions -> cross");
        assert_eq!((x.sessions, x.sessions_completed), (2, 2), "{x:?}");
        assert_eq!(report.metrics["cross/sessions_completed"], 2.0);
        assert!(render_ascii(&report).contains("cross-session: 2 sessions, 2 completed"));
    }

    #[test]
    fn analysis_joins_mac_and_decoder_views() {
        let report = analyze(&synthetic_trace(), &[]);
        assert_eq!(report.sessions.len(), 1);
        let s = &report.sessions[0];
        assert_eq!(s.protocol, "OMNC");
        assert_eq!(
            s.links[&(0, 1)],
            LinkStats {
                delivered: 1,
                lost: 0
            }
        );
        assert_eq!(
            s.links[&(0, 2)],
            LinkStats {
                delivered: 0,
                lost: 1
            }
        );
        assert_eq!(s.forwarders[&0].transmissions, 1);
        assert_eq!(s.forwarders[&0].innovative, 1);
        assert_eq!(s.forwarders[&1].innovative, 1);
        assert_eq!(s.forwarders[&1].absorbed, 2);
        // Per-forwarder innovative contributions sum to the final rank.
        let innovative: u64 = s.forwarders.values().map(|f| f.innovative).sum();
        assert_eq!(innovative, s.final_rank);
        assert_eq!(s.queues[&1].max, 3);
        assert_eq!(s.decode_timeline, vec![(0.6, 0)]);
        assert_eq!(report.metrics["omnc/0/throughput"], 256.0);
        assert_eq!(report.metrics["omnc/0/final_rank"], 2.0);
        assert!((report.metrics["omnc/0/redundancy_ratio"] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.metrics["omnc/0/contributing_forwarders"], 2.0);
    }

    #[test]
    fn parse_round_trips_the_trace() {
        let trace = synthetic_trace();
        let mut buf = Vec::new();
        for r in &trace {
            buf.extend_from_slice(serde_json::to_string(r).unwrap().as_bytes());
            buf.push(b'\n');
        }
        let back = parse_trace(io::Cursor::new(buf)).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn report_renders_as_text() {
        let report = analyze(&synthetic_trace(), &[]);
        let ascii = render_ascii(&report);
        assert!(ascii.contains("OMNC"), "{ascii}");
        // One row per forwarder under the session's header.
        assert!(
            ascii.contains("\n== OMNC session 7 (0 -> 2) ==\n"),
            "{ascii}"
        );
        assert!(
            ascii.contains("\nmetrics:\nomnc/0/contributing_forwarders 2\n"),
            "{ascii}"
        );
    }

    /// The `metrics:` block parsed back: `name value` lines after the
    /// `metrics:` header, up to the end of the text.
    fn parse_metrics_block(text: &str) -> BTreeMap<String, f64> {
        let (_, block) = text.split_once("\nmetrics:\n").expect("metrics block");
        block
            .lines()
            .map(|line| {
                let (name, value) = line.split_once(' ').expect("name value");
                (name.to_string(), value.parse().expect("an f64"))
            })
            .collect()
    }

    #[test]
    fn metrics_block_carries_the_exact_metric_map() {
        let mut report = analyze(&synthetic_trace(), &[]);
        // Values whose shortest round-trip text needs all 16-17 digits.
        report
            .metrics
            .insert("more/0/delivery_rate".into(), 0.798_264_424_662_050_7);
        report.metrics.insert("omnc/0/mean_queue".into(), 0.1 + 0.2);
        report.metrics.insert("opt/final_violation".into(), 1e-300);
        let text = render_ascii(&report);
        assert!(
            text.contains("\nmore/0/delivery_rate 0.7982644246620507\n"),
            "{text}"
        );
        let back = parse_metrics_block(&text);
        assert_eq!(back.len(), report.metrics.len());
        for (name, value) in &report.metrics {
            assert_eq!(back[name].to_bits(), value.to_bits(), "{name}");
        }
    }

    #[test]
    fn convergence_summary_reads_the_final_iterate() {
        let opt: Vec<IterationRecord> = (1..=10)
            .map(|i| IterationRecord {
                iter: i,
                step_size: 1.0 / i as f64,
                gamma: 1.0,
                dual_value: 0.0,
                max_violation: 1.0 / i as f64,
                recovered_rate: 10.0 * i as f64,
                recovery_gap: 0.0,
            })
            .collect();
        let report = analyze(&[], &opt);
        let c = report.convergence.unwrap();
        assert_eq!(c.iterations, 10);
        assert_eq!(c.final_rate, 100.0);
        assert_eq!(c.iterations_to_90pct, 9);
        assert_eq!(report.metrics["opt/final_rate"], 100.0);
    }

    /// Satellite: the runner's dropped-MAC-event count must surface as an
    /// explicit warning line and as a gate metric.
    #[test]
    fn dropped_mac_events_surface_as_warning_and_metric() {
        let mut trace = synthetic_trace();
        if let Some(TraceRecord::SessionEnd {
            dropped_mac_events, ..
        }) = trace.last_mut()
        {
            *dropped_mac_events = 5;
        }
        let report = analyze(&trace, &[]);
        assert_eq!(report.sessions[0].dropped_mac_events, 5);
        assert_eq!(report.metrics["omnc/0/dropped_mac_events"], 5.0);
        let ascii = render_ascii(&report);
        assert!(ascii.contains("Warning: 5 MAC events dropped"), "{ascii}");
        // A complete trace stays warning-free.
        let clean = render_ascii(&analyze(&synthetic_trace(), &[]));
        assert!(!clean.contains("Warning"), "{clean}");
    }

    fn nested_profile(rounds: usize) -> ProfileReport {
        let p = omnc::telemetry::Profiler::virtual_clock();
        for _ in 0..rounds {
            let _outer = p.span("decode");
            let _inner = p.span("eliminate");
        }
        p.report()
    }

    #[test]
    fn profile_renders_ranked_table_and_indented_tree() {
        let report = nested_profile(3);
        let text = render_profile(&report, 2);
        assert!(text.contains("clock: virtual"), "{text}");
        assert!(text.contains("decode;eliminate"), "{text}");
        // The tree view indents children under their parent.
        assert!(text.contains("  eliminate"), "{text}");
        assert_eq!(
            report.span("decode").map(|s| s.calls),
            Some(3),
            "fixture sanity"
        );
    }

    #[test]
    fn profile_render_adds_alloc_columns_only_when_counted() {
        let plain = nested_profile(2);
        assert!(!render_profile(&plain, 3).contains("alloc B"));
        let mut counted = plain.clone();
        counted.spans[0].allocs = 4;
        counted.spans[0].alloc_bytes = 4096;
        counted.spans[0].self_allocs = 4;
        counted.spans[0].self_alloc_bytes = 4096;
        let text = render_profile(&counted, 3);
        assert!(text.contains("alloc B"), "{text}");
        assert!(text.contains("4096"), "{text}");
    }

    #[test]
    fn flight_dumps_parse_and_render_round_trip() {
        let dump = "{\"flight\":\"bad/OMNC/0000000000\",\"panic\":\"boom\",\
                    \"dropped\":3,\"events\":2}\n\
                    {\"seq\":3,\"t\":0.0,\"kind\":\"cell/start\",\"detail\":\"protocol=OMNC\"}\n\
                    {\"seq\":4,\"t\":2.5,\"kind\":\"sim/done\",\"detail\":\"OMNC\"}\n";
        let (header, events) = parse_flight(dump.as_bytes()).expect("parses");
        assert_eq!(header.flight, "bad/OMNC/0000000000");
        assert_eq!(header.panic.as_deref(), Some("boom"));
        assert_eq!(events.len(), 2);
        let text = render_flight(&header, &events);
        assert!(text.contains("flight bad/OMNC/0000000000"), "{text}");
        assert!(text.contains("panic: boom"), "{text}");
        assert!(text.contains("2 event(s) kept, 3 older"), "{text}");
        assert!(text.contains("cell/start"), "{text}");
        assert!(text.contains("t=2.5"), "{text}");

        let err = parse_flight("not json\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("flight header"), "{err}");
        assert!(parse_flight("".as_bytes()).is_err(), "empty dump rejected");
    }
}
