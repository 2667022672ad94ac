//! The benchmark's metric tables and the result line of one run.
//!
//! The names, units and directions here are the single list the harness
//! prints from; a unit test holds them equal to `BENCHMARK.json`, which adds
//! the regression bounds.

use serde_json::Value;

/// The repo-root declaration the pipeline reads, embedded so the A/A mode
/// judges with the same bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A declared metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the simulator sees, reported by every workload's timed
/// run (`--trace 0`). README.md has the glossary.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s_per_sim_s", "s/s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
    def("goodput_bytes_per_sim_s", "B/s"),
];

/// One probe per layer (layer = crate), reported by every workload's traced
/// run (`--trace 1`). README.md maps each to the end-to-end metric and
/// workload it should move.
pub const PER_LAYER: &[MetricDef] = &[
    def("gf256.mul_add.table.mb_per_s", "MB/s"),
    def("gf256.mul_add.wide.mb_per_s", "MB/s"),
    def("gf256.mul_add.product.mb_per_s", "MB/s"),
    def("gf256.default_over_table", "x"),
    def("rlnc.encode.mb_per_s", "MB/s"),
    def("rlnc.recode.mb_per_s", "MB/s"),
    def("rlnc.decode.mb_per_s", "MB/s"),
    def("rlnc.absorb.innovative_frac", "frac"),
    def("rlnc.encode.allocs_per_packet", "count"),
    def("rlnc.recode.allocs_per_packet", "count"),
    def("rlnc.absorb.allocs_per_packet", "count"),
    def("rlnc.coeff_only.emit_us", "us"),
    def("rlnc.coeff_only.absorb_us", "us"),
    def("drift.engine.events_per_s", "1/s"),
    def("drift.mac.rate_limited.events_per_s", "1/s"),
    def("drift.mac.fair_share.n100.events_per_s", "1/s"),
    def("drift.mac.fair_share.n1000.events_per_s", "1/s"),
    def("drift.mac.unicast_clique.events_per_s", "1/s"),
    def("drift.dispatch.allocs_per_event", "count"),
    def("drift.queue.mean_depth", "count"),
    def("drift.mac.lost_frac", "frac"),
    def("net-topo.deploy.s", "s"),
    def("net-topo.sessions.s", "s"),
    def("net-topo.select.ms_per_session", "ms"),
    def("net-topo.select.nodes_per_session", "count"),
    def("net-topo.etx.best_path.ms", "ms"),
    def("omnc-opt.rate_control.iters_per_s", "1/s"),
    def("omnc-opt.rate_control.iters_to_converge", "count"),
    def("omnc-opt.rate_control.allocs_per_iter", "count"),
    def("omnc-opt.rate_control.opt_over_lp", "x"),
    def("omnc-opt.municast.build_s", "s"),
    def("omnc-opt.municast.solve_s", "s"),
    def("omnc-opt.municast.dist_over_lp", "x"),
    def("simplex-lp.sunicast.solve_ms", "ms"),
    def("simplex-lp.municast_k2.solve_s", "s"),
    def("omnc.run.s", "s"),
    def("omnc.run.self_s", "s"),
    def("omnc.replay.select_s", "s"),
    def("omnc.replay.build_s", "s"),
    def("omnc.replay.solve_s", "s"),
    def("omnc.cells_per_s", "1/s"),
    def("omnc.mac_events", "count"),
    def("omnc.wall_us_per_mac_event", "us"),
    def("omnc.delivered_frac", "frac"),
    def("omnc.achieved_over_predicted", "x"),
    def("omnc.gain.omnc_over_etx", "x"),
    def("omnc.gain.more_over_etx", "x"),
    def("omnc.paper_gain_err", "frac"),
    def("omnc.payload_over_coeff_only", "x"),
    def("omnc.verification_failures", "count"),
    def("telemetry.trace_overhead_frac", "frac"),
];

/// Values for one of the declared tables. Setting an undeclared name or
/// finishing with a declared one unset panics, so what a run prints is by
/// construction exactly what `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Records `value` for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in this set's table, is set twice,
    /// or `value` is not finite.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.values[slot].is_none(), "metric {name} set twice");
        self.values[slot] = Some(value);
    }

    /// Every declared metric with its value, in table order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was never set.
    pub fn finish(&self) -> Vec<(MetricDef, f64)> {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                (
                    *d,
                    v.unwrap_or_else(|| panic!("metric {} was never set", d.name)),
                )
            })
            .collect()
    }
}

/// The last stdout line of one run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    let body: Vec<String> = metrics
        .finish()
        .iter()
        .map(|(d, v)| format!("{:?}: {{\"value\": {v}, \"unit\": {:?}}}", d.name, d.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A parsed [`result_line`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a [`result_line`] back.
///
/// # Errors
///
/// Returns a description of the first thing that does not have the
/// contract's shape.
pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("not JSON: {e}"))?;
    let field = |key: &str| value.get(key).ok_or_else(|| format!("missing key {key}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (v, unit) {
                (Some(v), Some(unit)) => Ok((name.clone(), v, unit.to_owned())),
                _ => Err(format!("metric {name} lacks a value or a unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_u64()
            .ok_or("attempted is not a count")?,
        failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
        metrics,
    })
}

/// What `BENCHMARK.json` fixes for one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the baseline median by which the metric may worsen.
    pub share: f64,
    /// Whether the metric improves upwards.
    pub higher_is_better: bool,
}

/// The bound and direction `BENCHMARK.json` declares for end-to-end metric
/// `name`.
///
/// # Panics
///
/// Panics if the embedded declaration is malformed or lacks the metric —
/// the unit tests hold both impossible.
pub fn declared_bound(name: &str) -> Bound {
    let decl: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let metric = decl
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
        .unwrap_or_else(|| panic!("BENCHMARK.json does not declare {name}"));
    Bound {
        share: metric
            .get("bound")
            .and_then(Value::as_f64)
            .expect("every end-to-end metric has a bound"),
        higher_is_better: metric.get("better").and_then(Value::as_str) == Some("higher"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn declared(section: &str) -> Vec<Value> {
        let decl: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        decl.get(section)
            .and_then(Value::as_array)
            .unwrap()
            .to_vec()
    }

    fn names(section: &str) -> Vec<String> {
        declared(section)
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_owned())
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn printed_names_and_units_equal_the_declared_ones() {
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = declared(section);
            assert_eq!(declared.len(), table.len(), "{section}");
            for (d, t) in declared.iter().zip(table) {
                assert_eq!(d.get("name").and_then(Value::as_str), Some(t.name));
                assert_eq!(d.get("unit").and_then(Value::as_str), Some(t.unit));
            }
        }
        let specs: Vec<String> = workloads::all().iter().map(|w| w.name.clone()).collect();
        assert_eq!(names("workloads"), specs);
    }

    #[test]
    fn declaration_stays_inside_the_contract_limits() {
        let workloads = names("workloads");
        let end_to_end = names("end_to_end");
        let per_layer = names("per_layer");
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&end_to_end.len()));
        assert!((1..=128).contains(&per_layer.len()));
        let mut all: Vec<&String> = workloads
            .iter()
            .chain(&end_to_end)
            .chain(&per_layer)
            .collect();
        assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
        all.sort();
        all.dedup();
        assert_eq!(
            all.len(),
            workloads.len() + end_to_end.len() + per_layer.len()
        );
        for name in &end_to_end {
            let bound = declared_bound(name);
            assert!(bound.share > 0.0 && bound.share <= 0.25, "{name}");
        }
        assert!(!declared_bound("setup_s").higher_is_better);
        assert!(declared_bound("goodput_bytes_per_sim_s").higher_is_better);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let mut set = MetricSet::new(END_TO_END);
        for (i, d) in END_TO_END.iter().enumerate() {
            set.set(d.name, 0.125 + i as f64);
        }
        let line = result_line(true, 48, 0, &set);
        assert!(!line.contains('\n'));
        let value: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let back = parse_result_line(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (48, 0));
        assert_eq!(back.metrics.len(), END_TO_END.len());
        assert_eq!(
            back.metrics[1],
            ("setup_s".to_owned(), 1.125, "s".to_owned())
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        MetricSet::new(END_TO_END).set("made_up", 1.0);
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn missing_metric_is_refused() {
        let _ = MetricSet::new(END_TO_END).finish();
    }
}
