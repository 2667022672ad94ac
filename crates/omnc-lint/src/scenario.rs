//! Semantic model-invariant checks for scenario/topology inputs.
//!
//! `omnc-lint check-scenario FILE` validates a scenario *before* any
//! simulation runs, rejecting inputs that would silently violate the
//! paper's model:
//!
//! * **structure** — node/link indices in range, no self-loops or duplicate
//!   directed links, positive finite capacity and duration;
//! * **probabilities** — every reception probability `p_ij ∈ [0, 1]`;
//! * **connectivity** — the destination is reachable from the source over
//!   links with `p > 0`;
//! * **clique well-formedness** — interference neighborhoods must be
//!   symmetric (a one-way link makes the broadcast MAC cliques of Sec. 3.2
//!   ill-formed), and every node of the forwarder selection must sit in at
//!   least one clique that also covers its downhill links;
//! * **capacity condition (4)** — the sUnicast LP (eqs. (1)–(5)) must admit
//!   a throughput of at least `min_throughput` under the broadcast MAC
//!   constraint `b_i + Σ_{j∈N(i)} b_j ≤ C`;
//! * **flow conservation (2)** — the LP optimum is replayed through
//!   [`SUnicast::feasibility_violation`] and rejected if any residual
//!   exceeds tolerance;
//! * **multi-session well-formedness** — a scenario may declare a
//!   `sessions` array instead of a single `src`/`dst` pair; session ids
//!   must be unique, every session needs distinct connected endpoints,
//!   and the capacity condition is evaluated *jointly*: the coupled
//!   mUnicast LP (Sec. 4.3) with shared MAC rows must admit every
//!   session's `min_throughput` simultaneously, not just one at a time.
//!
//! The scenario file is JSON — single-session:
//!
//! ```json
//! {
//!   "name": "diamond",
//!   "nodes": 4,
//!   "src": 0,
//!   "dst": 3,
//!   "capacity": 100000.0,
//!   "min_throughput": 1000.0,
//!   "links": [ { "from": 0, "to": 1, "p": 0.6 } ]
//! }
//! ```
//!
//! or multi-session, replacing `src`/`dst` with:
//!
//! ```json
//! { "sessions": [ { "id": 0, "src": 0, "dst": 3 },
//!                 { "id": 1, "src": 3, "dst": 0 } ] }
//! ```

use net_topo::graph::{Link, NodeId, Topology};
use net_topo::select::{select_forwarders, Selection};
use omnc_opt::lp::solve_exact;
use omnc_opt::municast::MUnicast;
use omnc_opt::SUnicast;
use serde::{Deserialize, Serialize};

/// Relative tolerance (times capacity) for LP residual checks.
const RESIDUAL_TOL: f64 = 1e-6;

/// One violated model invariant of a scenario file.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Finding {
    /// The scenario file (or other origin label) the finding is about.
    pub path: String,
    /// The violated check, one of the `CHECK_*` names.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// The findings of one or more scenario files.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding: per file in check-name order, files in input order.
    pub findings: Vec<Finding>,
    /// Number of scenario files checked.
    pub files_checked: usize,
}

impl Report {
    /// `true` when no check failed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One `path: deny[check] message` line per finding, then a summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}: deny[{}] {}\n", f.path, f.rule, f.message));
        }
        out.push_str(&format!(
            "{} scenario file(s) checked: {} finding(s)\n",
            self.files_checked,
            self.findings.len()
        ));
        out
    }

    fn deny(&mut self, origin: &str, rule: &'static str, message: String) {
        self.findings.push(Finding {
            path: origin.to_owned(),
            rule,
            message,
        });
    }
}

/// One directed link of a scenario file.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScenarioLink {
    /// Transmitter node index.
    pub from: usize,
    /// Receiver node index.
    pub to: usize,
    /// Reception probability `p_ij`.
    pub p: f64,
}

/// One unicast session of a multi-session scenario file.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScenarioSession {
    /// Stable session identifier (unique within the scenario).
    pub id: u64,
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
}

/// A scenario input as validated by `check-scenario`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Display name (defaults to the file name in reports).
    pub name: Option<String>,
    /// Number of deployed nodes.
    pub nodes: usize,
    /// Session source node index (single-session form; mutually
    /// exclusive with `sessions`).
    pub src: Option<usize>,
    /// Session destination node index (single-session form).
    pub dst: Option<usize>,
    /// Concurrent unicast sessions sharing the mesh (multi-session
    /// form; mutually exclusive with `src`/`dst`).
    pub sessions: Option<Vec<ScenarioSession>>,
    /// MAC channel capacity `C` in bytes/second.
    pub capacity: f64,
    /// Required feasible throughput under the capacity condition (4);
    /// scenarios whose LP optimum `γ*` falls below this are rejected.
    /// For multi-session scenarios the requirement is *per session* and
    /// checked against the joint program. Defaults to 0: any connected
    /// scenario with `γ* > 0` passes.
    pub min_throughput: Option<f64>,
    /// Session duration in seconds (optional; checked positive if given).
    pub duration: Option<f64>,
    /// The directed lossy links.
    pub links: Vec<ScenarioLink>,
}

/// Scenario check names (used as the `rule` of scenario findings).
pub const CHECK_STRUCTURE: &str = "scenario-structure";
/// Reception-probability range check.
pub const CHECK_PROB: &str = "scenario-prob";
/// Source-to-destination connectivity check.
pub const CHECK_CONNECTIVITY: &str = "scenario-connectivity";
/// Interference-clique well-formedness check.
pub const CHECK_CLIQUE: &str = "scenario-clique";
/// Broadcast capacity condition (4) feasibility check.
pub const CHECK_CAPACITY: &str = "scenario-capacity";
/// LP flow-conservation residual check (eq. (2)).
pub const CHECK_FLOW: &str = "scenario-flow";
/// Multi-session well-formedness check (unique ids, distinct endpoints).
pub const CHECK_SESSIONS: &str = "scenario-sessions";

/// Parses and checks a scenario from JSON text. `origin` labels findings
/// (typically the file path).
pub fn check_scenario_str(origin: &str, text: &str) -> Report {
    let mut report = Report {
        files_checked: 1,
        ..Report::default()
    };
    let spec: ScenarioSpec = match serde_json::from_str(text) {
        Ok(spec) => spec,
        Err(e) => {
            report.deny(
                origin,
                CHECK_STRUCTURE,
                format!("not a valid scenario file: {e}"),
            );
            return report;
        }
    };
    check_spec(origin, &spec, &mut report);
    report.findings.sort_by_key(|f| f.rule);
    report
}

/// Reads and checks a scenario file.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be read.
pub fn check_scenario_file(path: &std::path::Path) -> std::io::Result<Report> {
    let text = std::fs::read_to_string(path)?;
    Ok(check_scenario_str(&path.to_string_lossy(), &text))
}

/// Runs every check on a parsed spec, appending findings to `report`.
fn check_spec(origin: &str, spec: &ScenarioSpec, report: &mut Report) {
    let mut deny = |rule: &'static str, message: String| report.deny(origin, rule, message);

    // --- Structure.
    let mut structural_ok = true;
    if spec.nodes < 2 {
        deny(
            CHECK_STRUCTURE,
            format!("need ≥ 2 nodes, got {}", spec.nodes),
        );
        structural_ok = false;
    }
    // --- Session endpoints: either a single src/dst pair or a sessions
    // array, never both. Resolved to labeled (src, dst) pairs so the
    // connectivity check below is uniform across both forms.
    let mut endpoints: Vec<(String, usize, usize)> = Vec::new();
    match (&spec.sessions, spec.src, spec.dst) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
            deny(
                CHECK_SESSIONS,
                "give either src/dst or a sessions array, not both".to_owned(),
            );
            structural_ok = false;
        }
        (Some(sessions), None, None) => {
            if sessions.is_empty() {
                deny(CHECK_SESSIONS, "sessions array is empty".to_owned());
                structural_ok = false;
            }
            let mut ids: Vec<u64> = sessions.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() != sessions.len() {
                deny(CHECK_SESSIONS, "session ids must be unique".to_owned());
                structural_ok = false;
            }
            for s in sessions {
                if s.src >= spec.nodes || s.dst >= spec.nodes {
                    deny(
                        CHECK_SESSIONS,
                        format!(
                            "session {}: src {} / dst {} out of range for {} nodes",
                            s.id, s.src, s.dst, spec.nodes
                        ),
                    );
                    structural_ok = false;
                } else if s.src == s.dst {
                    deny(
                        CHECK_SESSIONS,
                        format!("session {}: src and dst must differ", s.id),
                    );
                    structural_ok = false;
                } else {
                    endpoints.push((format!("session {}", s.id), s.src, s.dst));
                }
            }
        }
        (None, Some(src), Some(dst)) => {
            if src >= spec.nodes || dst >= spec.nodes {
                deny(
                    CHECK_STRUCTURE,
                    format!(
                        "src {src} / dst {dst} out of range for {} nodes",
                        spec.nodes
                    ),
                );
                structural_ok = false;
            } else if src == dst {
                deny(CHECK_STRUCTURE, "src and dst must differ".to_owned());
                structural_ok = false;
            } else {
                endpoints.push(("session".to_owned(), src, dst));
            }
        }
        (None, _, _) => {
            deny(
                CHECK_STRUCTURE,
                "scenario needs src and dst, or a sessions array".to_owned(),
            );
            structural_ok = false;
        }
    }
    if !(spec.capacity.is_finite() && spec.capacity > 0.0) {
        deny(
            CHECK_CAPACITY,
            format!(
                "capacity must be positive and finite, got {}",
                spec.capacity
            ),
        );
        structural_ok = false;
    }
    if let Some(m) = spec.min_throughput {
        if !(m.is_finite() && m >= 0.0) {
            deny(
                CHECK_STRUCTURE,
                format!("min_throughput must be ≥ 0, got {m}"),
            );
            structural_ok = false;
        }
    }
    if let Some(d) = spec.duration {
        if !(d.is_finite() && d > 0.0) {
            deny(
                CHECK_STRUCTURE,
                format!("duration must be positive, got {d}"),
            );
        }
    }
    if spec.links.is_empty() {
        deny(CHECK_STRUCTURE, "scenario has no links".to_owned());
        structural_ok = false;
    }

    // --- Links: ranges, self-loops, duplicates, probabilities.
    let mut seen: Vec<(usize, usize)> = Vec::new();
    for (i, l) in spec.links.iter().enumerate() {
        if l.from >= spec.nodes || l.to >= spec.nodes {
            deny(
                CHECK_STRUCTURE,
                format!("link #{i} ({} → {}) out of range", l.from, l.to),
            );
            structural_ok = false;
        }
        if l.from == l.to {
            deny(
                CHECK_STRUCTURE,
                format!("link #{i} is a self-loop at {}", l.from),
            );
            structural_ok = false;
        }
        if seen.contains(&(l.from, l.to)) {
            deny(
                CHECK_STRUCTURE,
                format!("duplicate directed link {} → {}", l.from, l.to),
            );
            structural_ok = false;
        }
        seen.push((l.from, l.to));
        if !(l.p.is_finite() && (0.0..=1.0).contains(&l.p)) {
            deny(
                CHECK_PROB,
                format!(
                    "link #{i} ({} → {}): reception probability {} outside [0, 1]",
                    l.from, l.to, l.p
                ),
            );
            structural_ok = false;
        }
    }
    if !structural_ok {
        return; // semantic checks need a well-formed topology
    }

    // --- Clique well-formedness: interference must be symmetric, so every
    // directed link needs its reverse (possibly with a different p). The
    // broadcast MAC constraint (4) sums over neighborhoods; a one-way link
    // would make node i contend for j's airtime but not vice versa.
    for l in &spec.links {
        if !spec.links.iter().any(|r| r.from == l.to && r.to == l.from) {
            deny(
                CHECK_CLIQUE,
                format!(
                    "one-way link {} → {} makes interference cliques ill-formed \
                     (add the reverse link, any p > 0)",
                    l.from, l.to
                ),
            );
        }
    }

    // --- Connectivity (over links with p > 0).
    let links: Vec<Link> = spec
        .links
        .iter()
        .map(|l| Link {
            from: NodeId::new(l.from),
            to: NodeId::new(l.to),
            p: l.p,
        })
        .collect();
    let topo = match Topology::from_links(spec.nodes, links) {
        Ok(t) => t,
        Err(e) => {
            deny(CHECK_STRUCTURE, format!("topology rejected the links: {e}"));
            return;
        }
    };
    let mut connected = true;
    for (label, src, dst) in &endpoints {
        if !reachable(&topo, NodeId::new(*src), NodeId::new(*dst)) {
            deny(
                CHECK_CONNECTIVITY,
                format!("{label}: dst {dst} unreachable from src {src}"),
            );
            connected = false;
        }
    }
    if !connected {
        return; // selection/LP need connectivity
    }
    if report.findings.iter().any(|f| f.rule == CHECK_CLIQUE) {
        return;
    }
    if let Some(sessions) = &spec.sessions {
        check_joint_capacity_condition(origin, spec, sessions, &topo, report);
    } else if let Some((_, src, dst)) = endpoints.first() {
        check_capacity_condition(origin, spec, *src, *dst, &topo, report);
    }
}

/// Solves the sUnicast LP and checks condition (4) feasibility at the
/// required throughput plus the optimum's flow-conservation residuals.
fn check_capacity_condition(
    origin: &str,
    spec: &ScenarioSpec,
    src: usize,
    dst: usize,
    topo: &Topology,
    report: &mut Report,
) {
    let selection = select_forwarders(topo, NodeId::new(src), NodeId::new(dst));
    let problem = SUnicast::from_selection(topo, &selection, spec.capacity);
    let sol = match solve_exact(&problem) {
        Ok(sol) => sol,
        Err(e) => {
            report.deny(origin, CHECK_CAPACITY, format!("sUnicast LP failed: {e}"));
            return;
        }
    };
    // Condition (4) feasibility: the optimum γ* is the largest throughput
    // the broadcast MAC admits; demanding more is infeasible.
    let floor = spec
        .min_throughput
        .unwrap_or(0.0)
        .max(spec.capacity * RESIDUAL_TOL);
    if sol.gamma < floor {
        report.deny(
            origin,
            CHECK_CAPACITY,
            format!(
                "capacity condition (4) infeasible: optimal throughput γ* = {:.3} \
                 bytes/s < required {:.3} bytes/s (capacity {})",
                sol.gamma, floor, spec.capacity
            ),
        );
    }
    // Flow-conservation residuals of the optimum (eq. (2), plus (4)/(5)
    // replayed in absolute units).
    if let Some(violation) = problem.feasibility_violation(&sol.b, &sol.x, sol.gamma, RESIDUAL_TOL)
    {
        report.deny(
            origin,
            CHECK_FLOW,
            format!("LP optimum violates the model constraints: {violation}"),
        );
    }
}

/// Checks the capacity condition for a multi-session scenario: every
/// session's sUnicast LP must be feasible in isolation (for attribution),
/// and the coupled mUnicast LP (Sec. 4.3) with MAC rows shared across all
/// sessions must admit `Σγ* ≥ K · min_throughput`. The joint bound is a
/// necessary condition: if even the throughput-sum optimum cannot cover
/// `K` sessions at the floor, no per-session allocation can.
fn check_joint_capacity_condition(
    origin: &str,
    spec: &ScenarioSpec,
    sessions: &[ScenarioSession],
    topo: &Topology,
    report: &mut Report,
) {
    let mut deny = |rule: &'static str, message: String| report.deny(origin, rule, message);
    let floor = spec
        .min_throughput
        .unwrap_or(0.0)
        .max(spec.capacity * RESIDUAL_TOL);
    let selections: Vec<Selection> = sessions
        .iter()
        .map(|s| select_forwarders(topo, NodeId::new(s.src), NodeId::new(s.dst)))
        .collect();
    // Per-session attribution first: a session that cannot reach the floor
    // even with the whole mesh to itself is named directly, and the joint
    // program cannot do better than isolation.
    let mut isolated_infeasible = false;
    for (s, selection) in sessions.iter().zip(&selections) {
        let problem = SUnicast::from_selection(topo, selection, spec.capacity);
        match solve_exact(&problem) {
            Ok(sol) if sol.gamma < floor => {
                deny(
                    CHECK_CAPACITY,
                    format!(
                        "session {}: capacity condition (4) infeasible even in \
                         isolation: γ* = {:.3} bytes/s < required {:.3} bytes/s",
                        s.id, sol.gamma, floor
                    ),
                );
                isolated_infeasible = true;
            }
            Ok(_) => {}
            Err(e) => {
                deny(
                    CHECK_CAPACITY,
                    format!("session {}: sUnicast LP failed: {e}", s.id),
                );
                isolated_infeasible = true;
            }
        }
    }
    if isolated_infeasible {
        return;
    }
    // Joint feasibility: the coupled LP shares the broadcast MAC rows
    // across sessions, so Σγ* is what the mesh actually carries with all
    // K sessions active at once.
    let joint = MUnicast::from_selections(topo, &selections, spec.capacity);
    match joint.solve_exact() {
        Ok(sol) => {
            let required = floor * sessions.len() as f64;
            if sol.total() < required {
                deny(
                    CHECK_CAPACITY,
                    format!(
                        "joint capacity condition infeasible: coupled optimum \
                         Σγ* = {:.3} bytes/s < {} sessions × {:.3} bytes/s = {:.3} \
                         bytes/s (each session is feasible alone; together they \
                         exceed the shared MAC)",
                        sol.total(),
                        sessions.len(),
                        floor,
                        required
                    ),
                );
            }
        }
        Err(e) => deny(CHECK_CAPACITY, format!("coupled mUnicast LP failed: {e}")),
    }
}

/// Breadth-first reachability over links with positive probability.
fn reachable(topo: &Topology, src: NodeId, dst: NodeId) -> bool {
    let mut visited = vec![false; topo.len()];
    let mut frontier = vec![src];
    visited[src.index()] = true;
    while let Some(v) = frontier.pop() {
        if v == dst {
            return true;
        }
        for l in topo.out_links(v) {
            if l.p > 0.0 && !visited[l.to.index()] {
                visited[l.to.index()] = true;
                frontier.push(l.to);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond(p: f64, min_throughput: f64) -> String {
        format!(
            r#"{{
                "name": "diamond",
                "nodes": 4, "src": 0, "dst": 3,
                "capacity": 100000.0,
                "min_throughput": {min_throughput},
                "links": [
                    {{"from": 0, "to": 1, "p": {p}}}, {{"from": 1, "to": 0, "p": {p}}},
                    {{"from": 0, "to": 2, "p": {p}}}, {{"from": 2, "to": 0, "p": {p}}},
                    {{"from": 1, "to": 3, "p": {p}}}, {{"from": 3, "to": 1, "p": {p}}},
                    {{"from": 2, "to": 3, "p": {p}}}, {{"from": 3, "to": 2, "p": {p}}}
                ]
            }}"#
        )
    }

    #[test]
    fn healthy_diamond_passes() {
        let r = check_scenario_str("d.json", &diamond(0.6, 1000.0));
        assert!(r.is_clean(), "{}", r.render());
        assert!(r.findings.is_empty());
    }

    #[test]
    fn infeasible_capacity_demand_is_rejected() {
        // The diamond cannot carry more than C even lossless; demanding 10C
        // makes condition (4) infeasible.
        let r = check_scenario_str("d.json", &diamond(0.6, 1e6));
        assert!(!r.is_clean());
        assert!(
            r.findings.iter().any(|f| f.rule == CHECK_CAPACITY),
            "{}",
            r.render()
        );
    }

    #[test]
    fn out_of_range_probability_is_rejected() {
        let r = check_scenario_str("d.json", &diamond(1.4, 0.0));
        assert!(
            r.findings.iter().any(|f| f.rule == CHECK_PROB),
            "{}",
            r.render()
        );
    }

    #[test]
    fn negative_probability_is_rejected() {
        let r = check_scenario_str("d.json", &diamond(-0.1, 0.0));
        assert!(r.findings.iter().any(|f| f.rule == CHECK_PROB));
    }

    #[test]
    fn one_way_link_breaks_clique_well_formedness() {
        let text = r#"{
            "nodes": 3, "src": 0, "dst": 2, "capacity": 1000.0,
            "links": [
                {"from": 0, "to": 1, "p": 0.9}, {"from": 1, "to": 0, "p": 0.9},
                {"from": 1, "to": 2, "p": 0.9}
            ]
        }"#;
        let r = check_scenario_str("s.json", text);
        assert!(
            r.findings.iter().any(|f| f.rule == CHECK_CLIQUE),
            "{}",
            r.render()
        );
    }

    #[test]
    fn disconnected_destination_is_rejected() {
        let text = r#"{
            "nodes": 4, "src": 0, "dst": 3, "capacity": 1000.0,
            "links": [
                {"from": 0, "to": 1, "p": 0.5}, {"from": 1, "to": 0, "p": 0.5},
                {"from": 2, "to": 3, "p": 0.5}, {"from": 3, "to": 2, "p": 0.5}
            ]
        }"#;
        let r = check_scenario_str("s.json", text);
        assert!(r.findings.iter().any(|f| f.rule == CHECK_CONNECTIVITY));
    }

    #[test]
    fn structural_garbage_is_rejected_not_panicked() {
        for text in [
            "not json at all",
            r#"{"nodes": 1, "src": 0, "dst": 0, "capacity": 1.0, "links": []}"#,
            r#"{"nodes": 4, "src": 0, "dst": 9, "capacity": 1.0,
                "links": [{"from": 0, "to": 0, "p": 0.5}]}"#,
            r#"{"nodes": 2, "src": 0, "dst": 1, "capacity": -5.0,
                "links": [{"from": 0, "to": 1, "p": 0.5}, {"from": 1, "to": 0, "p": 0.5}]}"#,
        ] {
            let r = check_scenario_str("s.json", text);
            assert!(!r.is_clean(), "should reject: {text}");
        }
    }

    #[test]
    fn duplicate_links_are_rejected() {
        let text = r#"{
            "nodes": 2, "src": 0, "dst": 1, "capacity": 1000.0,
            "links": [
                {"from": 0, "to": 1, "p": 0.5}, {"from": 0, "to": 1, "p": 0.7},
                {"from": 1, "to": 0, "p": 0.5}
            ]
        }"#;
        let r = check_scenario_str("s.json", text);
        assert!(!r.is_clean());
    }

    /// Two opposite-direction sessions over the same diamond.
    fn multi_diamond(p: f64, min_throughput: f64) -> String {
        format!(
            r#"{{
                "name": "multi-diamond",
                "nodes": 4,
                "sessions": [
                    {{"id": 0, "src": 0, "dst": 3}},
                    {{"id": 1, "src": 3, "dst": 0}}
                ],
                "capacity": 100000.0,
                "min_throughput": {min_throughput},
                "links": [
                    {{"from": 0, "to": 1, "p": {p}}}, {{"from": 1, "to": 0, "p": {p}}},
                    {{"from": 0, "to": 2, "p": {p}}}, {{"from": 2, "to": 0, "p": {p}}},
                    {{"from": 1, "to": 3, "p": {p}}}, {{"from": 3, "to": 1, "p": {p}}},
                    {{"from": 2, "to": 3, "p": {p}}}, {{"from": 3, "to": 2, "p": {p}}}
                ]
            }}"#
        )
    }

    /// Single-session sUnicast optimum γ* of the diamond, computed directly
    /// through the same solver stack the checker uses.
    fn diamond_gamma_star(p: f64) -> f64 {
        let links = [
            (0, 1),
            (1, 0),
            (0, 2),
            (2, 0),
            (1, 3),
            (3, 1),
            (2, 3),
            (3, 2),
        ]
        .into_iter()
        .map(|(from, to)| Link {
            from: NodeId::new(from),
            to: NodeId::new(to),
            p,
        })
        .collect();
        let topo = Topology::from_links(4, links).expect("diamond topology");
        let selection = select_forwarders(&topo, NodeId::new(0), NodeId::new(3));
        let problem = SUnicast::from_selection(&topo, &selection, 100000.0);
        solve_exact(&problem).expect("diamond LP solves").gamma
    }

    #[test]
    fn healthy_multi_session_diamond_passes() {
        // 0.4·γ* per session: feasible in isolation and jointly (0.8·γ*
        // total fits under the shared MAC with margin).
        let floor = 0.4 * diamond_gamma_star(0.6);
        let r = check_scenario_str("m.json", &multi_diamond(0.6, floor));
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn jointly_infeasible_sessions_are_rejected() {
        // 0.75·γ* per session is feasible for either session alone, but the
        // two directions share every MAC clique, so together they need
        // 1.5·γ* from a mesh that carries ≈ γ* in total.
        let floor = 0.75 * diamond_gamma_star(0.6);
        let r = check_scenario_str("m.json", &multi_diamond(0.6, floor));
        assert!(!r.is_clean());
        let joint = r
            .findings
            .iter()
            .find(|f| f.rule == CHECK_CAPACITY)
            .unwrap_or_else(|| panic!("expected a capacity finding:\n{}", r.render()));
        assert!(
            joint
                .message
                .contains("joint capacity condition infeasible"),
            "expected the *joint* check to fire, not isolation: {}",
            joint.message
        );
    }

    #[test]
    fn duplicate_session_ids_are_rejected() {
        let text = r#"{
            "nodes": 4, "capacity": 1000.0,
            "sessions": [
                {"id": 7, "src": 0, "dst": 3},
                {"id": 7, "src": 3, "dst": 0}
            ],
            "links": [
                {"from": 0, "to": 3, "p": 0.5}, {"from": 3, "to": 0, "p": 0.5}
            ]
        }"#;
        let r = check_scenario_str("m.json", text);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == CHECK_SESSIONS && f.message.contains("unique")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn session_with_equal_endpoints_is_rejected() {
        let text = r#"{
            "nodes": 4, "capacity": 1000.0,
            "sessions": [{"id": 0, "src": 2, "dst": 2}],
            "links": [
                {"from": 0, "to": 3, "p": 0.5}, {"from": 3, "to": 0, "p": 0.5}
            ]
        }"#;
        let r = check_scenario_str("m.json", text);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == CHECK_SESSIONS && f.message.contains("differ")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn mixing_single_and_multi_forms_is_rejected() {
        let text = r#"{
            "nodes": 4, "src": 0, "dst": 3, "capacity": 1000.0,
            "sessions": [{"id": 0, "src": 0, "dst": 3}],
            "links": [
                {"from": 0, "to": 3, "p": 0.5}, {"from": 3, "to": 0, "p": 0.5}
            ]
        }"#;
        let r = check_scenario_str("m.json", text);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == CHECK_SESSIONS && f.message.contains("not both")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn missing_endpoints_are_rejected() {
        let text = r#"{
            "nodes": 2, "capacity": 1000.0,
            "links": [
                {"from": 0, "to": 1, "p": 0.5}, {"from": 1, "to": 0, "p": 0.5}
            ]
        }"#;
        let r = check_scenario_str("m.json", text);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == CHECK_STRUCTURE && f.message.contains("sessions array")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn disconnected_session_is_named_in_the_finding() {
        // Session 1 runs against the arrow of a one-directional component
        // split: 2/3 never reach 0/1.
        let text = r#"{
            "nodes": 4, "capacity": 1000.0,
            "sessions": [
                {"id": 0, "src": 0, "dst": 1},
                {"id": 1, "src": 2, "dst": 0}
            ],
            "links": [
                {"from": 0, "to": 1, "p": 0.5}, {"from": 1, "to": 0, "p": 0.5},
                {"from": 2, "to": 3, "p": 0.5}, {"from": 3, "to": 2, "p": 0.5}
            ]
        }"#;
        let r = check_scenario_str("m.json", text);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == CHECK_CONNECTIVITY && f.message.contains("session 1")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn findings_serialize_through_the_sink() {
        let r = check_scenario_str("d.json", &diamond(0.6, 1e6));
        let sink = telemetry::EventSink::in_memory();
        for f in &r.findings {
            sink.emit(f).unwrap();
        }
        assert_eq!(sink.lines().len(), r.findings.len());
        let v: serde_json::Value = serde_json::from_str(&sink.lines()[0]).unwrap();
        assert_eq!(v.get("rule").and_then(|r| r.as_str()), Some(CHECK_CAPACITY));
    }
}
