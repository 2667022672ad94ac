//! The declarative campaign specification and its expansion into cells.
//!
//! A campaign is a JSON document describing a matrix of scenario variants
//! × protocols × session indices. Every point of the matrix is one
//! *cell*: an independent, deterministic simulation run identified by a
//! stable key `"<variant>/<protocol>/<session>"` (the session
//! zero-padded so lexicographic key order is also numeric order). Cells
//! carry everything needed to run them in isolation, which is what makes
//! the executor free to schedule them on any worker in any order.
//!
//! The vendored `serde` has no field attributes, so every optional knob
//! is an `Option<T>` (absent JSON fields deserialize as `None`) and
//! presets/qualities are plain strings validated by [`CampaignSpec::validate`].

use serde::{Deserialize, Serialize};

use omnc::runner::Protocol;
use omnc::scenario::{Quality, Scenario};

/// A complete campaign specification, deserialized from JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (letters, digits, `-`, `_`); names the output files.
    pub name: String,
    /// Scenario preset every variant starts from: `"small_test"`,
    /// `"reduced"` (default), or `"paper"`.
    pub preset: Option<String>,
    /// Scenario variants; each contributes `protocols × sessions` cells.
    pub variants: Vec<VariantSpec>,
    /// Protocols to run in every variant (`"Omnc"`, `"More"`,
    /// `"OldMore"`, `"EtxRouting"`).
    pub protocols: Vec<Protocol>,
    /// The session-index range run for every variant × protocol.
    pub sessions: SessionRange,
    /// Run all sessions *concurrently* on one shared mesh per variant ×
    /// protocol (one multi-session cell, key `"<variant>/<protocol>/multi"`)
    /// instead of as independent per-session cells. Requires
    /// `sessions.start == 0` — the coupled workload always runs sessions
    /// `0..count`.
    pub multi: Option<bool>,
    /// Extra attempts after a panicking cell (default 1).
    pub retries: Option<u32>,
    /// MAC trace capacity per cell (default 200,000 events).
    pub trace_capacity: Option<usize>,
}

/// One scenario variant: a label plus overrides on the preset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantSpec {
    /// Variant label (letters, digits, `-`, `_`); the first key segment.
    pub label: String,
    /// Scenario knobs overriding the preset; absent fields keep it.
    pub overrides: Option<Overrides>,
}

/// Scenario overrides a variant may apply. All optional; `None` keeps
/// the preset value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Overrides {
    /// Deployed node count.
    pub nodes: Option<usize>,
    /// Deployment density (average neighbors in range).
    pub density: Option<f64>,
    /// Link-quality regime: `"Lossy"` or `"High"`.
    pub quality: Option<Quality>,
    /// Minimum session hop count.
    pub hops_min: Option<usize>,
    /// Maximum session hop count.
    pub hops_max: Option<usize>,
    /// Session duration in simulated seconds.
    pub duration: Option<f64>,
    /// Payload block size in bytes (1 = cheap synthetic payloads).
    pub payload_block_size: Option<usize>,
    /// Master scenario seed.
    pub seed: Option<u64>,
}

/// A half-open range of session indices: `start, start+1, ..`, `count`
/// of them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionRange {
    /// First session index.
    pub start: u64,
    /// Number of sessions.
    pub count: u64,
}

/// One expanded matrix point, ready for the executor.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable identity: `"<variant>/<protocol>/<session:010>"`, or
    /// `"<variant>/<protocol>/multi"` for a multi-session cell.
    pub key: String,
    /// The fully-resolved scenario of the cell's variant.
    pub scenario: Scenario,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Session index within the scenario (0 for a multi-session cell,
    /// which runs all of them at once).
    pub session: u64,
    /// Whether this cell runs the whole workload concurrently on one
    /// shared mesh ([`omnc::multi::run_multi_cell`]) instead of one
    /// independent session ([`omnc::runner::run_cell`]).
    pub multi: bool,
}

/// The stable identity of the cell `(label, protocol, session)`. Session
/// indices are zero-padded to ten digits so lexicographic ordering of
/// keys equals `(label, protocol, session)` ordering.
pub fn cell_key(label: &str, protocol: Protocol, session: u64) -> String {
    format!("{label}/{}/{session:010}", protocol.name())
}

/// The stable identity of the multi-session cell of `(label, protocol)` —
/// one coupled run of every session on the shared mesh.
pub fn multi_cell_key(label: &str, protocol: Protocol) -> String {
    format!("{label}/{}/multi", protocol.name())
}

fn valid_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

impl CampaignSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse or validation error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let spec: CampaignSpec =
            serde_json::from_str(text).map_err(|e| format!("invalid campaign spec: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec for structural problems before any cell runs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !valid_ident(&self.name) {
            return Err(format!(
                "campaign name {:?} must be letters/digits/-/_",
                self.name
            ));
        }
        if let Some(preset) = &self.preset {
            if !matches!(preset.as_str(), "small_test" | "reduced" | "paper") {
                return Err(format!(
                    "unknown preset {preset:?} (small_test | reduced | paper)"
                ));
            }
        }
        if self.variants.is_empty() {
            return Err("campaign needs at least one variant".to_owned());
        }
        for v in &self.variants {
            if !valid_ident(&v.label) {
                return Err(format!(
                    "variant label {:?} must be letters/digits/-/_",
                    v.label
                ));
            }
        }
        let mut labels: Vec<&str> = self.variants.iter().map(|v| v.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() != self.variants.len() {
            return Err("variant labels must be unique".to_owned());
        }
        if self.protocols.is_empty() {
            return Err("campaign needs at least one protocol".to_owned());
        }
        let mut protos = self.protocols.clone();
        protos.sort_by_key(|p| p.name());
        protos.dedup();
        if protos.len() != self.protocols.len() {
            return Err("protocols must be unique".to_owned());
        }
        if self.sessions.count == 0 {
            return Err("sessions.count must be at least 1".to_owned());
        }
        if self.multi() && self.sessions.start != 0 {
            return Err(format!(
                "multi-session campaigns run sessions 0..count concurrently; \
                 sessions.start must be 0, got {}",
                self.sessions.start
            ));
        }
        for v in &self.variants {
            self.scenario(v)
                .validate()
                .map_err(|e| format!("variant {:?}: {e}", v.label))?;
        }
        Ok(())
    }

    /// Whether cells run all sessions concurrently on one shared mesh.
    pub fn multi(&self) -> bool {
        self.multi.unwrap_or(false)
    }

    /// Extra attempts after a panicking cell.
    pub fn retries(&self) -> u32 {
        self.retries.unwrap_or(1)
    }

    /// MAC trace capacity per cell.
    pub fn trace_capacity(&self) -> usize {
        self.trace_capacity.unwrap_or(200_000)
    }

    /// The fully-resolved scenario of one variant.
    pub fn scenario(&self, variant: &VariantSpec) -> Scenario {
        let mut s = match self.preset.as_deref() {
            Some("small_test") => Scenario::small_test(),
            Some("paper") => Scenario::paper(Quality::Lossy),
            _ => Scenario::reduced(Quality::Lossy),
        };
        // Sessions are enumerated by the cell matrix, but keep the
        // scenario's own count coherent for anything that reads it.
        s.sessions = usize::try_from(self.sessions.count).unwrap_or(usize::MAX);
        if let Some(o) = &variant.overrides {
            if let Some(n) = o.nodes {
                s.nodes = n;
            }
            if let Some(d) = o.density {
                s.density = d;
            }
            if let Some(q) = o.quality {
                s.quality = q;
            }
            if let Some(h) = o.hops_min {
                s.hops.0 = h;
            }
            if let Some(h) = o.hops_max {
                s.hops.1 = h;
            }
            if let Some(d) = o.duration {
                s.session.duration = d;
            }
            if let Some(b) = o.payload_block_size {
                s.session.payload_block_size = b;
            }
            if let Some(seed) = o.seed {
                s.seed = seed;
            }
        }
        s
    }

    /// Expands the matrix into cells, sorted by key. The sorted order is
    /// the canonical campaign order: the merge stage emits results this
    /// way no matter how the executor scheduled them.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for variant in &self.variants {
            let scenario = self.scenario(variant);
            for &protocol in &self.protocols {
                if self.multi() {
                    // One coupled cell runs the whole workload: the
                    // scenario's session count is the matrix count.
                    cells.push(Cell {
                        key: multi_cell_key(&variant.label, protocol),
                        scenario: scenario.clone(),
                        protocol,
                        session: 0,
                        multi: true,
                    });
                    continue;
                }
                for session in self.sessions.start..self.sessions.start + self.sessions.count {
                    cells.push(Cell {
                        key: cell_key(&variant.label, protocol, session),
                        scenario: scenario.clone(),
                        protocol,
                        session,
                        multi: false,
                    });
                }
            }
        }
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_spec() -> CampaignSpec {
        CampaignSpec::from_json(
            r#"{
                "name": "smoke",
                "preset": "small_test",
                "variants": [
                    {"label": "lossy", "overrides": null},
                    {"label": "high", "overrides": {"quality": "High"}}
                ],
                "protocols": ["EtxRouting", "Omnc"],
                "sessions": {"start": 0, "count": 2}
            }"#,
        )
        .expect("valid spec")
    }

    #[test]
    fn spec_expands_to_a_sorted_cell_matrix() {
        let spec = smoke_spec();
        let cells = spec.cells();
        assert_eq!(cells.len(), 8);
        let keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert!(keys.contains(&"lossy/OMNC/0000000001"));
        assert!(keys.contains(&"high/ETX/0000000000"));
    }

    #[test]
    fn overrides_apply_on_top_of_the_preset() {
        let spec = smoke_spec();
        let lossy = spec.scenario(&spec.variants[0]);
        let high = spec.scenario(&spec.variants[1]);
        assert_eq!(lossy.quality, Quality::Lossy);
        assert_eq!(high.quality, Quality::High);
        assert_eq!(lossy.nodes, high.nodes);
        assert_eq!(spec.retries(), 1);
    }

    #[test]
    fn multi_collapses_sessions_into_one_cell_per_variant_protocol() {
        let spec = CampaignSpec::from_json(
            r#"{
                "name": "multi",
                "preset": "small_test",
                "variants": [
                    {"label": "lossy", "overrides": null},
                    {"label": "high", "overrides": {"quality": "High"}}
                ],
                "protocols": ["EtxRouting", "Omnc"],
                "sessions": {"start": 0, "count": 3},
                "multi": true
            }"#,
        )
        .expect("valid spec");
        let cells = spec.cells();
        assert_eq!(cells.len(), 4, "one cell per variant x protocol");
        for cell in &cells {
            assert!(cell.multi);
            assert!(cell.key.ends_with("/multi"), "{}", cell.key);
            assert_eq!(cell.scenario.sessions, 3);
        }
        let keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        assert!(keys.contains(&"lossy/OMNC/multi"));
        assert!(keys.contains(&"high/ETX/multi"));
    }

    #[test]
    fn multi_rejects_nonzero_session_start() {
        let err = CampaignSpec::from_json(
            r#"{
                "name": "multi",
                "preset": "small_test",
                "variants": [{"label": "a", "overrides": null}],
                "protocols": ["Omnc"],
                "sessions": {"start": 2, "count": 3},
                "multi": true
            }"#,
        )
        .expect_err("start != 0 with multi");
        assert!(err.contains("sessions.start"), "{err}");
    }

    #[test]
    fn zero_padding_makes_key_order_numeric() {
        let a = cell_key("v", Protocol::Omnc, 2);
        let b = cell_key("v", Protocol::Omnc, 10);
        assert!(a < b, "{a} vs {b}");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for (json, what) in [
            (
                r#"{"name": "bad name", "variants": [{"label": "a", "overrides": null}], "protocols": ["Omnc"], "sessions": {"start": 0, "count": 1}}"#,
                "name",
            ),
            (
                r#"{"name": "x", "variants": [], "protocols": ["Omnc"], "sessions": {"start": 0, "count": 1}}"#,
                "variant",
            ),
            (
                r#"{"name": "x", "variants": [{"label": "a", "overrides": null}, {"label": "a", "overrides": null}], "protocols": ["Omnc"], "sessions": {"start": 0, "count": 1}}"#,
                "unique",
            ),
            (
                r#"{"name": "x", "variants": [{"label": "a", "overrides": null}], "protocols": [], "sessions": {"start": 0, "count": 1}}"#,
                "protocol",
            ),
            (
                r#"{"name": "x", "variants": [{"label": "a", "overrides": null}], "protocols": ["Omnc"], "sessions": {"start": 0, "count": 0}}"#,
                "count",
            ),
            (
                r#"{"name": "x", "preset": "huge", "variants": [{"label": "a", "overrides": null}], "protocols": ["Omnc"], "sessions": {"start": 0, "count": 1}}"#,
                "preset",
            ),
            (
                r#"{"name": "x", "variants": [{"label": "a", "overrides": {"duration": 0}}], "protocols": ["Omnc"], "sessions": {"start": 0, "count": 1}}"#,
                "duration",
            ),
        ] {
            let err = CampaignSpec::from_json(json).expect_err(what);
            assert!(err.contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn every_committed_spec_loads() {
        // The gates run these; a scenario check must never reject one.
        // `flight-smoke.json`'s variant is in range on purpose and fails
        // only when its session is drawn.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
        let mut loaded = 0;
        for entry in std::fs::read_dir(&dir).expect("specs directory") {
            let path = entry.expect("specs entry").path();
            let text = std::fs::read_to_string(&path).expect("readable spec");
            if let Err(e) = CampaignSpec::from_json(&text) {
                panic!("{}: {e}", path.display());
            }
            loaded += 1;
        }
        assert!(loaded >= 4, "found {loaded} specs in {}", dir.display());
    }
}
