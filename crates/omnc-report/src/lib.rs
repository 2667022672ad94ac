//! Offline analysis of OMNC causal packet-lifecycle traces.
//!
//! The `omnc-sim --trace` JSONL stream gives every coded packet a
//! birth-to-death story: minted at a coder ([`drift::PacketTag`]), carried
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
//! [`analyze`] reduces a record stream to a [`Report`]; [`gate_report`]
//! is the one gate engine: it judges two reports' metric maps for the CI
//! perf-regression gate, and two span profiles' costs
//! ([`ProfileMetric::values`]) for the footprint gate. [`render_profile`]
//! renders the hierarchical span profiles `omnc-sim --profile` exports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead};

use omnc::drift::TraceEvent;
use omnc::trace::{Absorbed, TraceRecord};
use omnc_opt::IterationRecord;
use serde::{Deserialize, Serialize};

pub use omnc::telemetry::{
    FlightEvent, FlightHeader, ProfileReport, ProfileSpan, ProgressSnapshot, TimelineBucket,
    TimelineReport, TimelineSeries,
};

/// Per-link delivery accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Number of queue samples.
    pub samples: u64,
    /// Mean of the sampled lengths.
    pub mean: f64,
    /// Largest sampled length.
    pub max: u64,
}

/// One fully analyzed session (a `SessionStart ..= SessionEnd` span).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossSessionSummary {
    /// Sessions in the trace.
    pub sessions: usize,
    /// Sum of per-session end-to-end throughputs, bytes/second.
    pub total_throughput: f64,
    /// Sessions that delivered anything end to end (decoded a generation
    /// or absorbed an innovative packet).
    pub sessions_completed: usize,
    /// `(session id, share of all trace transmissions)`, stream order.
    /// Shares sum to 1 when anything transmitted.
    pub airtime_shares: Vec<(u64, f64)>,
    /// Jain fairness index of the airtime shares: 1 when every session
    /// gets equal airtime, `1/K` when one session monopolizes the channel.
    pub airtime_fairness: f64,
}

/// A full analysis: per-session reports, optional convergence summary, and
/// the flat metric map the regression gate consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// One report per `SessionStart ..= SessionEnd` span, in stream order.
    pub sessions: Vec<SessionReport>,
    /// Cross-session aggregates (`None` for single-session traces and
    /// reports written before this field existed — the deserializer maps
    /// a missing field to `None`).
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

/// Parses and analyzes an in-memory JSONL trace text in one step — the
/// entry point `omnc-campaign` uses to turn a merged campaign trace into
/// a gateable [`Report`] without touching the filesystem twice.
///
/// # Errors
///
/// Fails on any line that is not a valid [`TraceRecord`].
pub fn analyze_trace_text(text: &str) -> io::Result<Report> {
    let records = parse_trace(text.as_bytes())?;
    Ok(analyze(&records, &[]))
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
    let cross = summarize_cross(&sessions);
    let metrics = collect_metrics(&sessions, cross.as_ref(), convergence.as_ref());
    Report {
        sessions,
        cross,
        convergence,
        metrics,
    }
}

/// Reduces multi-session traces to [`CrossSessionSummary`]; `None` for
/// fewer than two sessions.
fn summarize_cross(sessions: &[SessionReport]) -> Option<CrossSessionSummary> {
    if sessions.len() < 2 {
        return None;
    }
    let tx: Vec<f64> = sessions
        .iter()
        .map(|s| s.forwarders.values().map(|f| f.transmissions).sum::<u64>() as f64)
        .collect();
    let total_tx: f64 = tx.iter().sum();
    let airtime_shares = sessions
        .iter()
        .zip(&tx)
        .map(|(s, &t)| {
            let share = if total_tx > 0.0 { t / total_tx } else { 0.0 };
            (s.session, share)
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
        sessions_completed: sessions
            .iter()
            .filter(|s| s.generations_decoded > 0 || s.innovative > 0)
            .count(),
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
    cross: Option<&CrossSessionSummary>,
    convergence: Option<&ConvergenceSummary>,
) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    let mut per_protocol: BTreeMap<&str, usize> = BTreeMap::new();
    for s in sessions {
        let k = per_protocol.entry(s.protocol.as_str()).or_insert(0);
        let prefix = format!("{}/{k}", s.protocol.to_ascii_lowercase());
        *k += 1;
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

/// Renders the report as human-readable ASCII tables.
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
        for (session, share) in &x.airtime_shares {
            let _ = write!(out, " s{session} {:.1}%", share * 100.0);
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
    out
}

/// Renders the per-forwarder table as CSV
/// (`session,protocol,node,transmissions,delivered,lost,absorbed,innovative`).
pub fn render_csv(report: &Report) -> String {
    let mut out =
        String::from("session,protocol,node,transmissions,delivered,lost,absorbed,innovative\n");
    for s in &report.sessions {
        for (node, f) in &s.forwarders {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                s.session,
                s.protocol,
                node,
                f.transmissions,
                f.delivered,
                f.lost,
                f.absorbed,
                f.innovative
            );
        }
    }
    out
}

// -------------------------------------------------------------------- gate

/// Whether a smaller value of the report metric `metric` is the better one.
pub fn lower_is_better(metric: &str) -> bool {
    [
        "queue",
        "redundan",
        "lost",
        "violation",
        "dropped",
        "alloc",
        "rss",
    ]
    .iter()
    .any(|needle| metric.contains(needle))
}

/// What a gate compares, which fixes how it judges each value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// A [`Report`]'s metric map (`compare`). Direction is inferred from
    /// the metric name ([`lower_is_better`]); lower-is-better metrics get
    /// an absolute slack of `threshold / 10` so a zero baseline (e.g.
    /// empty queues) tolerates noise.
    Metrics,
    /// One [`ProfileMetric`] of every span of a profile, keyed by span
    /// path (`profile compare`). These are costs, so lower is always
    /// better, with one tick of absolute slack so tiny counts do not flap
    /// on a single extra event.
    Profile(ProfileMetric),
}

/// One metric's verdict inside a machine-readable [`GateReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricVerdict {
    /// Metric key (or span path for profile gates).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`0.0` when `status` is `"missing"`).
    pub current: f64,
    /// `"ok"`, `"regressed"`, or `"missing"`.
    pub status: String,
}

/// Machine-readable outcome of a `compare` / `profile compare` gate run,
/// written by the CLI's `--json` flag so CI jobs stop scraping text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateReport {
    /// `"metrics"` for report compares, `"profile"` for profile compares.
    pub gate: String,
    /// The gated field: `"value"` for metric maps, else the
    /// [`ProfileMetric`] spelling.
    pub metric: String,
    /// Relative regression threshold the gate ran with.
    pub threshold: f64,
    /// Whether missing metrics were promoted to failures.
    pub strict: bool,
    /// Overall verdict: no regressions, and under `--strict` nothing
    /// missing either.
    pub passed: bool,
    /// Number of `"regressed"` verdicts.
    pub regressed: usize,
    /// Number of `"missing"` verdicts.
    pub missing: usize,
    /// Per-metric verdicts, in the baseline's deterministic order.
    pub verdicts: Vec<MetricVerdict>,
}

impl GateReport {
    /// The verdicts with the given `status`, in order.
    pub fn with_status<'a>(&'a self, status: &'a str) -> impl Iterator<Item = &'a MetricVerdict> {
        self.verdicts.iter().filter(move |v| v.status == status)
    }
}

/// A metric map as [`gate_report`] input.
pub fn metric_values(metrics: &BTreeMap<String, f64>) -> impl Iterator<Item = (&str, f64)> {
    metrics.iter().map(|(k, &v)| (k.as_str(), v))
}

/// The one gate engine: judges every `baseline` value against `current`.
///
/// A value regressed if it moved the wrong way by more than the relative
/// `threshold` (e.g. `0.15` = 15%) plus the kind's absolute slack — see
/// [`GateKind`]. Keys present in the baseline but missing from `current`
/// are a *distinct* condition — usually a schema change or a shorter
/// run, not a numeric slide — so they get a `"missing"` verdict, which
/// the CLI prints as a warning and fails on only under `strict`. Keys
/// new in `current` are ignored (the baseline only ratchets what it
/// knows). `passed` mirrors the CLI exit code.
#[must_use]
pub fn gate_report<'a>(
    kind: GateKind,
    baseline: impl IntoIterator<Item = (&'a str, f64)>,
    current: impl IntoIterator<Item = (&'a str, f64)>,
    threshold: f64,
    strict: bool,
) -> GateReport {
    let current: BTreeMap<&str, f64> = current.into_iter().collect();
    let (gate, metric, slack) = match kind {
        GateKind::Metrics => ("metrics", "value", threshold / 10.0),
        GateKind::Profile(metric) => ("profile", metric.name(), 1.0),
    };
    let (mut regressed, mut missing) = (0usize, 0usize);
    let verdicts: Vec<MetricVerdict> = baseline
        .into_iter()
        .map(|(key, base)| {
            let (cur, status) = match current.get(key) {
                None => {
                    missing += 1;
                    (0.0, "missing")
                }
                Some(&cur) => {
                    let failed = if kind != GateKind::Metrics || lower_is_better(key) {
                        cur > base * (1.0 + threshold) + slack
                    } else {
                        cur < base * (1.0 - threshold)
                    };
                    regressed += usize::from(failed);
                    (cur, if failed { "regressed" } else { "ok" })
                }
            };
            MetricVerdict {
                metric: key.to_string(),
                baseline: base,
                current: cur,
                status: status.to_string(),
            }
        })
        .collect();
    GateReport {
        gate: gate.into(),
        metric: metric.into(),
        threshold,
        strict,
        passed: regressed == 0 && (!strict || missing == 0),
        regressed,
        missing,
        verdicts,
    }
}

// ---------------------------------------------------------------- timeline

/// Sparkline glyphs, lowest to highest; index 0 is the gap glyph for
/// windows with no samples.
const SPARK: &[u8] = b" .:-=+*#%@";

/// Renders `cells` (None = no samples) as one sparkline row, scaling the
/// populated cells between the row's own min and max.
fn spark_row(cells: &[Option<f64>]) -> String {
    let (lo, hi) = cells
        .iter()
        .flatten()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    cells
        .iter()
        .map(|cell| match cell {
            None => ' ',
            Some(v) => {
                let levels = SPARK.len() - 1; // glyphs available to data
                let idx = if hi > lo {
                    1 + (((v - lo) / (hi - lo)) * (levels - 1) as f64).round() as usize
                } else {
                    1 + levels / 2
                };
                SPARK[idx.min(SPARK.len() - 1)] as char
            }
        })
        .collect()
}

/// Folds a series' (sparse, windowed) buckets into at most `cols` chart
/// cells, keeping each cell's largest bucket mean so peaks survive.
fn chart_cells(series: &TimelineSeries, cols: usize) -> Vec<Option<f64>> {
    let (Some(first), Some(last)) = (series.buckets.first(), series.buckets.last()) else {
        return Vec::new();
    };
    let span = last.index - first.index + 1;
    let cols = (span as usize).min(cols);
    let mut cells: Vec<Option<f64>> = vec![None; cols];
    for b in &series.buckets {
        let col = ((b.index - first.index) * cols as u64 / span) as usize;
        let mean = b.sum / b.count as f64;
        let cell = &mut cells[col.min(cols - 1)];
        *cell = Some(cell.map_or(mean, |prev: f64| prev.max(mean)));
    }
    cells
}

/// Does `name` pass the (substring) series filter?
fn series_selected(name: &str, filter: Option<&str>) -> bool {
    filter.is_none_or(|f| name.contains(f))
}

/// Renders a timeline report as one step chart per series: a header with
/// the series' window, sample count and value range, then a sparkline
/// over the bucket means (spaces are windows with no samples). Series
/// that never recorded a sample are counted but not charted; `filter`
/// keeps only series whose name contains it.
pub fn render_timeline(report: &TimelineReport, filter: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: base window {}s, {} buckets/series cap",
        report.base_window, report.capacity
    );
    let mut hidden = 0usize;
    for series in &report.series {
        if !series_selected(&series.name, filter) {
            continue;
        }
        if series.buckets.is_empty() {
            hidden += 1;
            continue;
        }
        let (lo, hi) = series
            .buckets
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), b| {
                (lo.min(b.min), hi.max(b.max))
            });
        let first = series.buckets.first().expect("non-empty");
        let last = series.buckets.last().expect("non-empty");
        let _ = writeln!(
            out,
            "\n{}  window {}s  {} samples  min {lo:.3} max {hi:.3}",
            series.name,
            series.window,
            series.total_count()
        );
        let _ = writeln!(
            out,
            "{:>10.2} |{}| {:.2}",
            first.index as f64 * series.window,
            spark_row(&chart_cells(series, 64)),
            (last.index + 1) as f64 * series.window
        );
    }
    if hidden > 0 {
        let _ = writeln!(out, "\n({hidden} series with no samples not shown)");
    }
    out
}

/// Exports a timeline report as CSV
/// (`series,window,bucket_start,count,min,max,sum,mean`), one row per
/// bucket, in series order.
pub fn timeline_csv(report: &TimelineReport, filter: Option<&str>) -> String {
    let mut out = String::from("series,window,bucket_start,count,min,max,sum,mean\n");
    for series in &report.series {
        if !series_selected(&series.name, filter) {
            continue;
        }
        for b in &series.buckets {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                series.name,
                series.window,
                b.index as f64 * series.window,
                b.count,
                b.min,
                b.max,
                b.sum,
                b.sum / b.count as f64
            );
        }
    }
    out
}

/// One notable epoch distilled from a timeline series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesMoment {
    /// The series the moment was found in.
    pub series: String,
    /// Epoch on the series' own axis (seconds or iterations).
    pub epoch: f64,
    /// The value that made the epoch notable.
    pub value: f64,
}

/// Convergence facts distilled from a timeline report's dynamics series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineSummary {
    /// Per rank series (`…/rank/g<N>`): the earliest window end at which
    /// the decoder held 90% of its final rank.
    pub rank_90pct: Vec<SeriesMoment>,
    /// Per queue series (`…/queue/n<id>`): the window start of the
    /// deepest observed queue.
    pub queue_peak: Vec<SeriesMoment>,
    /// Per `…/opt/max_violation` series: the window end after which the
    /// violation never again exceeds 10% of its peak — the rate-control
    /// settling point, in iterations.
    pub settling: Vec<SeriesMoment>,
}

/// Distills [`TimelineSummary`] convergence facts from the dynamics
/// series an instrumented run records (rank progress, queue depth,
/// optimizer violation). Series of other shapes are ignored.
#[must_use]
pub fn summarize_timeline(report: &TimelineReport) -> TimelineSummary {
    let mut summary = TimelineSummary::default();
    for series in &report.series {
        if series.buckets.is_empty() {
            continue;
        }
        let name = series.name.as_str();
        let is_rank = name.contains("/rank/") || name.starts_with("rank/");
        let is_queue = name.contains("/queue/") || name.starts_with("queue/");
        let peak = series
            .buckets
            .iter()
            .fold(f64::NEG_INFINITY, |m, b| m.max(b.max));
        if is_rank {
            let target = peak * 0.9;
            if let Some(b) = series.buckets.iter().find(|b| b.max >= target) {
                summary.rank_90pct.push(SeriesMoment {
                    series: series.name.clone(),
                    epoch: (b.index + 1) as f64 * series.window,
                    value: b.max,
                });
            }
        } else if is_queue {
            let b = series
                .buckets
                .iter()
                .find(|b| b.max >= peak)
                .expect("non-empty series has a peak bucket");
            summary.queue_peak.push(SeriesMoment {
                series: series.name.clone(),
                epoch: b.index as f64 * series.window,
                value: b.max,
            });
        } else if name.ends_with("opt/max_violation") {
            let threshold = peak * 0.1;
            let settled_after = series
                .buckets
                .iter()
                .rfind(|b| b.max > threshold)
                .map_or(0.0, |b| (b.index + 1) as f64 * series.window);
            summary.settling.push(SeriesMoment {
                series: series.name.clone(),
                epoch: settled_after,
                value: threshold,
            });
        }
    }
    summary
}

/// Renders a [`TimelineSummary`] as short human-readable lines.
pub fn render_timeline_summary(summary: &TimelineSummary) -> String {
    let mut out = String::new();
    for m in &summary.rank_90pct {
        let _ = writeln!(
            out,
            "rank 90%: {} reached rank {:.0} by {:.2}s",
            m.series, m.value, m.epoch
        );
    }
    for m in &summary.queue_peak {
        let _ = writeln!(
            out,
            "queue peak: {} hit {:.0} at {:.2}s",
            m.series, m.value, m.epoch
        );
    }
    for m in &summary.settling {
        let _ = writeln!(
            out,
            "settling: {} within 10% of peak after iteration {:.0}",
            m.series, m.epoch
        );
    }
    out
}

// ----------------------------------------------------------------- profile

/// Which [`ProfileSpan`] field `profile compare` gates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMetric {
    /// Span call counts — exact across identical seeded runs under the
    /// virtual clock, so the tightest (and default) gate.
    Calls,
    /// Self ticks (total minus direct children).
    SelfTicks,
    /// Total ticks between entry and exit.
    TotalTicks,
    /// Allocation events attributed to the span (self + descendants);
    /// all-zero unless the run counted allocations.
    Allocs,
    /// Bytes allocated under the span (self + descendants).
    AllocBytes,
}

impl ProfileMetric {
    /// Parses the CLI spelling
    /// (`calls` | `self` | `total` | `allocs` | `alloc-bytes`).
    #[must_use]
    pub fn parse(name: &str) -> Option<ProfileMetric> {
        match name {
            "calls" => Some(ProfileMetric::Calls),
            "self" => Some(ProfileMetric::SelfTicks),
            "total" => Some(ProfileMetric::TotalTicks),
            "allocs" => Some(ProfileMetric::Allocs),
            "alloc-bytes" => Some(ProfileMetric::AllocBytes),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProfileMetric::Calls => "calls",
            ProfileMetric::SelfTicks => "self",
            ProfileMetric::TotalTicks => "total",
            ProfileMetric::Allocs => "allocs",
            ProfileMetric::AllocBytes => "alloc-bytes",
        }
    }

    /// This metric of every span of `report`, keyed by span path, in the
    /// report's depth-first order ([`gate_report`] input).
    pub fn values(self, report: &ProfileReport) -> impl Iterator<Item = (&str, f64)> {
        (report.spans.iter()).map(move |s| (s.path.as_str(), self.get(s) as f64))
    }

    fn get(self, span: &ProfileSpan) -> u64 {
        match self {
            ProfileMetric::Calls => span.calls,
            ProfileMetric::SelfTicks => span.self_ticks,
            ProfileMetric::TotalTicks => span.total_ticks,
            ProfileMetric::Allocs => span.allocs,
            ProfileMetric::AllocBytes => span.alloc_bytes,
        }
    }
}

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

// ------------------------------------------------------------ live & flight

/// Renders a live [`ProgressSnapshot`] (from an observer's `/progress`
/// endpoint) as a one-line progress bar.
#[must_use]
pub fn render_progress(p: &ProgressSnapshot) -> String {
    let mut out = String::new();
    let done = p.completed + p.failed;
    let frac = if p.total > 0 {
        done as f64 / p.total as f64
    } else {
        1.0
    };
    let cols = 40usize;
    let filled = (frac * cols as f64).round() as usize;
    let bar: String = (0..cols)
        .map(|i| if i < filled { '#' } else { '.' })
        .collect();
    let _ = write!(
        out,
        "{} [{bar}] {done}/{} cells ({:.0}%), {} failed, {:.1}s elapsed",
        p.name,
        p.total,
        frac * 100.0,
        p.failed,
        p.elapsed_s
    );
    match (p.cells_per_s, p.eta_s) {
        (Some(rate), Some(eta)) => {
            let _ = writeln!(out, ", {rate:.2} cells/s, eta {eta:.0}s");
        }
        _ => out.push('\n'),
    }
    out
}

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
        assert_eq!(x.airtime_shares, vec![(7, 0.25), (9, 0.75)]);
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
        assert!(text.contains("s7 25.0%"), "{text}");
        assert!(text.contains("airtime fairness 0.800"), "{text}");
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
    fn report_serializes_and_renders() {
        let report = analyze(&synthetic_trace(), &[]);
        let json = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let ascii = render_ascii(&report);
        assert!(ascii.contains("OMNC"), "{ascii}");
        let csv = render_csv(&report);
        assert!(csv.lines().count() > 2, "{csv}");
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

    type Metrics = BTreeMap<String, f64>;

    fn metrics_gate(base: &Metrics, cur: &Metrics, threshold: f64, strict: bool) -> GateReport {
        let (base, cur) = (metric_values(base), metric_values(cur));
        gate_report(GateKind::Metrics, base, cur, threshold, strict)
    }

    fn calls_gate(base: &ProfileReport, cur: &ProfileReport, strict: bool) -> GateReport {
        let calls = ProfileMetric::Calls;
        let (base, cur) = (calls.values(base), calls.values(cur));
        gate_report(GateKind::Profile(calls), base, cur, 0.15, strict)
    }

    fn keys<'a>(gate: &'a GateReport, status: &'a str) -> Vec<&'a str> {
        gate.with_status(status).map(|v| &*v.metric).collect()
    }

    #[test]
    fn compare_flags_only_true_regressions() {
        let report = analyze(&synthetic_trace(), &[]);
        let regressed = |cur: &Metrics, threshold| {
            let gate = metrics_gate(&report.metrics, cur, threshold, false);
            keys(&gate, "regressed").join(",")
        };
        // Identical runs: clean.
        assert_eq!(regressed(&report.metrics, 0.1), "");
        // Degrade throughput by more than the threshold: flagged, with the
        // higher-is-better direction.
        let mut degraded = report.metrics.clone();
        degraded.insert("omnc/0/throughput".into(), 256.0 * 0.5);
        assert_eq!(regressed(&degraded, 0.15), "omnc/0/throughput");
        // Improve throughput: not flagged.
        let mut improved = report.metrics.clone();
        improved.insert("omnc/0/throughput".into(), 512.0);
        assert_eq!(regressed(&improved, 0.15), "");
        // Queue growth is a regression (lower is better)...
        let mut queued = report.metrics.clone();
        queued.insert("omnc/0/mean_queue".into(), 50.0);
        assert_eq!(regressed(&queued, 0.15), "omnc/0/mean_queue");
        // ...and a queue decrease is an improvement.
        let mut drained = report.metrics.clone();
        drained.insert("omnc/0/mean_queue".into(), 0.0);
        assert_eq!(regressed(&drained, 0.15), "");
        // A metric vanishing from the current run is not a numeric
        // regression — it is surfaced as a distinct missing verdict.
        let mut missing = report.metrics.clone();
        missing.remove("omnc/0/final_rank");
        let gate = metrics_gate(&report.metrics, &missing, 0.15, false);
        assert_eq!(gate.regressed, 0);
        assert_eq!(keys(&gate, "missing"), ["omnc/0/final_rank"]);
        // New metrics in the current run are neither regressed nor missing.
        let gate = metrics_gate(&missing, &report.metrics, 0.15, true);
        assert!(gate.passed && gate.missing == 0);
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
    fn gate_report_classifies_every_baseline_metric() {
        let report = analyze(&synthetic_trace(), &[]);
        let mut current = report.metrics.clone();
        current.insert("omnc/0/throughput".into(), 256.0 * 0.5); // regressed
        current.remove("omnc/0/final_rank"); // missing
        let gate = metrics_gate(&report.metrics, &current, 0.15, false);
        assert_eq!(gate.gate, "metrics");
        assert!(!gate.passed); // a regression fails even without --strict
        assert_eq!(gate.regressed, 1);
        assert_eq!(gate.missing, 1);
        assert_eq!(gate.verdicts.len(), report.metrics.len());
        assert_eq!(keys(&gate, "regressed"), ["omnc/0/throughput"]);
        assert_eq!(keys(&gate, "missing"), ["omnc/0/final_rank"]);
        // Missing-only fails the gate only under --strict.
        let mut shrunk = report.metrics.clone();
        shrunk.remove("omnc/0/final_rank");
        assert!(metrics_gate(&report.metrics, &shrunk, 0.15, false).passed);
        assert!(!metrics_gate(&report.metrics, &shrunk, 0.15, true).passed);
        // Clean compare passes strictly and round-trips through JSON.
        let clean = metrics_gate(&report.metrics, &report.metrics, 0.15, true);
        assert!(clean.passed);
        let back: GateReport =
            serde_json::from_str(&serde_json::to_string(&clean).unwrap()).unwrap();
        assert_eq!(back, clean);
    }

    #[test]
    fn profile_gate_report_keys_verdicts_by_span_path() {
        let base = nested_profile(8);
        let gate = calls_gate(&base, &nested_profile(20), true);
        assert_eq!(gate.gate, "profile");
        assert_eq!(gate.metric, "calls");
        assert!(!gate.passed);
        assert!(gate
            .verdicts
            .iter()
            .any(|v| v.metric == "decode;eliminate" && v.status == "regressed"));
        // A span the current run never entered shows up as missing and
        // fails only under --strict.
        let p = omnc::telemetry::Profiler::virtual_clock();
        drop(p.span("decode"));
        let shorter = p.report();
        assert!(!calls_gate(&base, &shorter, true).passed);
        assert!(calls_gate(&base, &shorter, false).passed);
    }

    #[test]
    fn alloc_metrics_and_rss_gate_as_lower_is_better() {
        assert!(lower_is_better("alloc/rlnc_encode/allocs_per_op"));
        assert!(lower_is_better("alloc/sim_dispatch/bytes_per_op"));
        assert!(lower_is_better("mem/peak_rss_mb"));
        // Existing higher-is-better metrics keep their direction.
        assert!(!lower_is_better("omnc/0/throughput"));
        assert!(!lower_is_better("opt/final_rate"));
        assert!(!lower_is_better("campaign/parallel_s"));
    }

    #[test]
    fn profile_metric_parses_alloc_spellings() {
        assert_eq!(ProfileMetric::parse("allocs"), Some(ProfileMetric::Allocs));
        assert_eq!(
            ProfileMetric::parse("alloc-bytes"),
            Some(ProfileMetric::AllocBytes)
        );
        assert_eq!(ProfileMetric::Allocs.name(), "allocs");
        assert_eq!(ProfileMetric::AllocBytes.name(), "alloc-bytes");
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
        // Alloc columns gate through profile compare too.
        let bytes = ProfileMetric::AllocBytes;
        let (base, cur) = (bytes.values(&plain), bytes.values(&counted));
        let gate = gate_report(GateKind::Profile(bytes), base, cur, 0.15, false);
        assert!(keys(&gate, "regressed").contains(&"decode"), "{gate:?}");
    }

    #[test]
    fn profile_compare_flags_growth_not_shrinkage() {
        let base = nested_profile(8);
        // Identical runs are clean.
        let same = calls_gate(&base, &nested_profile(8), true);
        assert!(same.passed && same.regressed == 0 && same.missing == 0);
        // More calls than the tolerance is a regression on both spans.
        let grown = calls_gate(&base, &nested_profile(20), false);
        assert_eq!(keys(&grown, "regressed"), ["decode", "decode;eliminate"]);
        assert_eq!(grown.missing, 0);
        // Fewer calls is an improvement, not a regression.
        let shrunk = calls_gate(&base, &nested_profile(4), false);
        assert_eq!(shrunk.regressed, 0, "{shrunk:?}");
        // One extra call on a tiny count is inside the one-tick slack.
        assert_eq!(
            calls_gate(&nested_profile(1), &nested_profile(2), false).regressed,
            0
        );
        // A span the current run never entered is reported missing.
        let p = omnc::telemetry::Profiler::virtual_clock();
        drop(p.span("decode"));
        let cmp = calls_gate(&base, &p.report(), false);
        assert_eq!(keys(&cmp, "missing"), ["decode;eliminate"]);
        // The tick-based metrics gate too.
        let total = ProfileMetric::TotalTicks;
        let grown = nested_profile(20);
        let (base, cur) = (total.values(&base), total.values(&grown));
        assert!(gate_report(GateKind::Profile(total), base, cur, 0.15, false).regressed > 0);
    }

    fn dynamics_timeline() -> TimelineReport {
        let recorder = omnc::telemetry::TimeSeries::enabled(0.25, 64);
        // Rank climbs 1..=10 over 5s; 90% of 10 is first reached at t=4.5.
        for i in 1..=10u64 {
            recorder.record("omnc/s0/rank/g0", i as f64 * 0.5, i as f64);
        }
        // Queue ramps to a peak of 9 at t=3, then drains.
        for (t, depth) in [(1.0, 3.0), (2.0, 6.0), (3.0, 9.0), (4.0, 4.0), (5.0, 1.0)] {
            recorder.record("omnc/s0/queue/n1", t, depth);
        }
        // Optimizer violation decays below 10% of its peak after iter 2.
        for (iter, v) in [(0.0, 1.0), (1.0, 0.4), (2.0, 0.2), (3.0, 0.05), (4.0, 0.01)] {
            recorder.record("omnc/s0/opt/max_violation", iter, v);
        }
        // A registered-but-never-sampled series stays out of the charts.
        let _ = recorder.series("omnc/s0/link/0-1/lost");
        recorder.snapshot()
    }

    #[test]
    fn timeline_summary_finds_convergence_moments() {
        let summary = summarize_timeline(&dynamics_timeline());
        assert_eq!(summary.rank_90pct.len(), 1);
        let rank = &summary.rank_90pct[0];
        assert_eq!(rank.series, "omnc/s0/rank/g0");
        assert!(rank.value >= 9.0, "{rank:?}");
        assert!((4.0..=5.0).contains(&rank.epoch), "{rank:?}");

        assert_eq!(summary.queue_peak.len(), 1);
        let queue = &summary.queue_peak[0];
        assert_eq!(queue.value, 9.0);
        assert!((2.75..=3.0).contains(&queue.epoch), "{queue:?}");

        assert_eq!(summary.settling.len(), 1);
        let settle = &summary.settling[0];
        // Violation last exceeds 0.1 at iteration 2 (bucket [2, 2.25)).
        assert!((2.0..=2.5).contains(&settle.epoch), "{settle:?}");

        let text = render_timeline_summary(&summary);
        assert!(text.contains("rank 90%"), "{text}");
        assert!(text.contains("queue peak"), "{text}");
        assert!(text.contains("settling"), "{text}");
    }

    #[test]
    fn timeline_render_charts_sampled_series_and_filters() {
        let report = dynamics_timeline();
        let text = render_timeline(&report, None);
        assert!(text.contains("omnc/s0/rank/g0"), "{text}");
        assert!(text.contains("omnc/s0/queue/n1"), "{text}");
        assert!(text.contains("1 series with no samples"), "{text}");
        // The rank chart rises: its sparkline ends on the densest glyph.
        let rank_row = text
            .lines()
            .skip_while(|l| !l.starts_with("omnc/s0/rank/g0"))
            .nth(1)
            .expect("rank chart row");
        let inner = rank_row.split('|').nth(1).expect("chart between pipes");
        assert!(inner.trim_end().ends_with('@'), "{rank_row}");

        // Filtering keeps only matching series.
        let only_queue = render_timeline(&report, Some("/queue/"));
        assert!(only_queue.contains("queue/n1"), "{only_queue}");
        assert!(!only_queue.contains("rank/g0"), "{only_queue}");

        // CSV has one row per bucket with the documented header.
        let csv = timeline_csv(&report, Some("rank"));
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("series,window,bucket_start,count,min,max,sum,mean")
        );
        assert_eq!(
            lines.count(),
            report.series("omnc/s0/rank/g0").unwrap().buckets.len()
        );
    }

    #[test]
    fn progress_renders_bar_and_eta() {
        let snap = ProgressSnapshot {
            name: "smoke".into(),
            total: 8,
            completed: 3,
            failed: 1,
            elapsed_s: 10.0,
            cells_per_s: Some(0.4),
            eta_s: Some(10.0),
        };
        let text = render_progress(&snap);
        assert!(text.contains("smoke ["), "{text}");
        assert!(text.contains("4/8 cells (50%)"), "{text}");
        assert!(text.contains("0.40 cells/s, eta 10s"), "{text}");
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
