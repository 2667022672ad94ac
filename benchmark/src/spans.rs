//! Harness-owned spans for the traced run.
//!
//! The library crates carry no spans of their own for this benchmark; the
//! harness records one span around each call it makes into a layer (name,
//! start, end, parent, workload, cell id), keeps them in memory, and writes
//! them out once at exit. A layer's self time is its span's duration minus
//! the part of that interval its direct children cover.

use std::time::Instant;

/// One recorded interval, in seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `omnc.run_cell` or `replay.solve_distributed`.
    pub name: String,
    /// Start, seconds since the recorder's origin.
    pub start_s: f64,
    /// End, seconds since the recorder's origin.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell this span belongs to (`s<k>/<protocol>`), if any.
    pub cell: Option<String>,
}

impl Span {
    /// Wall seconds between start and end.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder for one workload's traced run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new(workload: &str) -> Spans {
        Spans {
            enabled: true,
            origin: Instant::now(),
            workload: workload.to_owned(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps nothing: [`Spans::scope`] only runs and times
    /// its closure. Timed runs use this, so tracing is off where end-to-end
    /// metrics are measured.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::new("")
        }
    }

    /// Runs `f` inside a span named `name`, nested under whichever span is
    /// open, and returns `f`'s result with the span's wall seconds.
    pub fn scope<T>(
        &mut self,
        name: &str,
        cell: Option<&str>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_owned(),
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            cell: cell.map(str::to_owned),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        (out, self.spans[id].duration_s())
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed wall seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum()
    }

    /// Self time of span `id`; see [`self_time_s`].
    pub fn self_s(&self, id: usize) -> f64 {
        self_time_s(&self.spans, id)
    }

    /// The spans as a JSON array (one object per span, with its self time).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = (0..self.spans.len())
            .map(|id| {
                let s = &self.spans[id];
                format!(
                    "{{\"id\":{id},\"name\":{:?},\"start_s\":{},\"end_s\":{},\"self_s\":{},\"parent\":{},\"workload\":{:?},\"cell\":{}}}",
                    s.name,
                    s.start_s,
                    s.end_s,
                    self.self_s(id),
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    self.workload,
                    s.cell.as_ref().map_or("null".to_owned(), |c| format!("{c:?}")),
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// Duration of `spans[id]` minus the length of the union of its direct
/// children's intervals, each clipped to the parent. Overlapping children
/// are counted once; grandchildren only through the child that holds them.
pub fn self_time_s(spans: &[Span], id: usize) -> f64 {
    let parent = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_s.max(parent.start_s), s.end_s.min(parent.end_s)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
    let mut covered = 0.0;
    let mut reach = parent.start_s;
    for (start, end) in children {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    parent.duration_s() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_s,
            end_s,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("run", 0.0, 10.0, None),
            span("select", 1.0, 3.0, Some(0)),
            span("solve", 4.0, 9.0, Some(0)),
        ];
        assert_eq!(self_time_s(&spans, 0), 3.0);
        assert_eq!(self_time_s(&spans, 1), 2.0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("run", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 7.0, Some(0)),
            span("c", 4.0, 6.0, Some(0)), // inside the union already
        ];
        assert_eq!(self_time_s(&spans, 0), 4.0);
    }

    #[test]
    fn nested_children_count_through_their_parent_only() {
        let spans = [
            span("run", 0.0, 10.0, None),
            span("solve", 2.0, 8.0, Some(0)),
            span("dijkstra", 3.0, 4.0, Some(1)),
            span("dijkstra", 5.0, 7.0, Some(1)),
        ];
        assert_eq!(self_time_s(&spans, 0), 4.0);
        assert_eq!(self_time_s(&spans, 1), 3.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [
            span("run", 2.0, 6.0, None),
            span("early", 0.0, 3.0, Some(0)),
            span("late", 5.0, 9.0, Some(0)),
            span("outside", 7.0, 8.0, Some(0)),
        ];
        assert_eq!(self_time_s(&spans, 0), 2.0);
    }

    #[test]
    fn scopes_nest_and_report_their_duration() {
        let mut spans = Spans::new("w");
        let ((), outer_s) = spans.scope("outer", None, |spans| {
            let (v, inner_s) = spans.scope("inner", Some("s0/OMNC"), |_| 7);
            assert_eq!(v, 7);
            assert!(inner_s >= 0.0);
        });
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[0].parent, None);
        assert_eq!(recorded[1].parent, Some(0));
        assert_eq!(recorded[1].cell.as_deref(), Some("s0/OMNC"));
        assert!(recorded[1].start_s >= recorded[0].start_s);
        assert!(recorded[1].end_s <= recorded[0].end_s);
        assert_eq!(outer_s, recorded[0].duration_s());
        assert_eq!(spans.total_s("outer"), outer_s);
        assert!(spans.self_s(0) <= outer_s);
        let json = spans.to_json();
        assert!(json.starts_with("[{\"id\":0,\"name\":\"outer\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"cell\":\"s0/OMNC\""));
    }

    #[test]
    fn a_disabled_recorder_times_but_keeps_nothing() {
        let mut spans = Spans::disabled();
        let (v, s) = spans.scope("outer", None, |spans| spans.scope("inner", None, |_| 3).0);
        assert_eq!(v, 3);
        assert!(s >= 0.0);
        assert!(spans.spans().is_empty());
    }
}
