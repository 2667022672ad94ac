//! Hierarchical span profiler: nested scoped spans with an explicit
//! parent stack (no thread-local magic), recording call count, total
//! time, and self time per unique span *path* — plus, when the binary
//! installed the counting allocator and enabled counting, allocation
//! events and bytes attributed to each span with the same total/self
//! discipline as ticks.
//!
//! Time comes from a [`Clock`] so the simulation crates never touch
//! `std::time` themselves (clippy's `disallowed_methods`): the
//! wall-clock implementation lives here in telemetry, and a
//! deterministic [`VirtualClock`] (one tick per clock read, i.e. an
//! event count) keeps seeded runs byte-identical while still producing
//! meaningful call counts and nesting-weighted totals.
//!
//! A [`Profiler`] built with [`Profiler::disabled`] (also `Default`)
//! hands out no-op guards: instrumented code pays one branch per span
//! when profiling is off. Guards are drop-ordered tolerant — dropping a
//! parent guard closes any still-open children, and a late child drop
//! becomes a no-op.
//!
//! Reports export as (a) a serializable [`ProfileReport`] (JSON via
//! `serde_json`) and (b) Brendan Gregg folded-stacks text
//! (`path;sub;leaf <self>` per line) consumable by `flamegraph.pl` and
//! speedscope.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// A monotone tick source for the profiler.
///
/// `now` takes `&mut self` so deterministic clocks can count their own
/// reads; implementations must be monotone (never decreasing).
pub trait Clock: Send + std::fmt::Debug {
    /// Current tick. Units are implementation-defined (see [`Clock::unit`]).
    fn now(&mut self) -> u64;
    /// Short identifier for reports: `"wall"`, `"virtual"`, ...
    fn name(&self) -> &'static str;
    /// Tick unit for display: `"ns"`, `"events"`, ...
    fn unit(&self) -> &'static str;
}

/// Wall-clock ticks in nanoseconds since the profiler was created.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock with its epoch at construction time.
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "the sanctioned wall clock")]
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn name(&self) -> &'static str {
        "wall"
    }

    fn unit(&self) -> &'static str {
        "ns"
    }
}

/// A deterministic clock: every read advances one tick, so span totals
/// count clock events (span entries/exits) instead of elapsed time.
/// Two identical seeded runs produce identical profiles.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ticks: u64,
}

impl Clock for VirtualClock {
    fn now(&mut self) -> u64 {
        self.ticks += 1;
        self.ticks
    }

    fn name(&self) -> &'static str {
        "virtual"
    }

    fn unit(&self) -> &'static str {
        "events"
    }
}

/// One node of the span tree, keyed by (parent, name).
#[derive(Debug)]
struct Node {
    name: String,
    children: Vec<usize>,
    calls: u64,
    total: u64,
    allocs: u64,
    alloc_bytes: u64,
}

#[derive(Debug)]
struct Frame {
    node: usize,
    start: u64,
    start_allocs: u64,
    start_alloc_bytes: u64,
}

#[derive(Debug)]
struct State {
    clock: Box<dyn Clock>,
    /// Node 0 is a synthetic root holding the top-level spans.
    nodes: Vec<Node>,
    /// The explicit parent stack; `span()` pushes, guard drops pop.
    stack: Vec<Frame>,
}

impl State {
    fn child_named(&mut self, parent: usize, name: &str) -> usize {
        let found = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        match found {
            Some(id) => id,
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node {
                    name: name.to_string(),
                    children: Vec::new(),
                    calls: 0,
                    total: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                });
                self.nodes[parent].children.push(id);
                id
            }
        }
    }
}

/// The profiler handle. Cheap to clone (shares the span tree);
/// [`Profiler::disabled`] / `Default` makes every operation a no-op.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    core: Option<Arc<Mutex<State>>>,
}

impl Profiler {
    /// An enabled profiler reading the given clock.
    #[must_use]
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Profiler {
            core: Some(Arc::new(Mutex::new(State {
                clock,
                nodes: vec![Node {
                    name: String::new(),
                    children: Vec::new(),
                    calls: 0,
                    total: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                }],
                stack: Vec::new(),
            }))),
        }
    }

    /// An enabled profiler on wall-clock nanoseconds.
    #[must_use]
    pub fn wall() -> Self {
        Profiler::with_clock(Box::new(WallClock::new()))
    }

    /// An enabled profiler on the deterministic [`VirtualClock`].
    #[must_use]
    pub fn virtual_clock() -> Self {
        Profiler::with_clock(Box::<VirtualClock>::default())
    }

    /// A profiler whose spans cost one branch and record nothing.
    #[inline]
    #[must_use]
    pub fn disabled() -> Self {
        Profiler { core: None }
    }

    /// Whether spans are being recorded.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a span named `name` under the innermost open span (or at
    /// the top level). The span closes when the returned guard drops;
    /// dropping a parent guard first closes any children it still has
    /// open. `name` must not contain `;` or whitespace (it becomes a
    /// folded-stack path component).
    ///
    /// Inlined into callers in every crate, so a disabled profiler costs
    /// one `None` check here and one in the guard's drop; the bookkeeping
    /// of an enabled one stays out of line.
    #[inline]
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str) -> ProfileGuard {
        match &self.core {
            None => ProfileGuard {
                core: None,
                depth: 0,
            },
            Some(core) => open(core, name),
        }
    }

    /// Snapshots the span tree as a flat, depth-first report (children
    /// ordered by name, so the output is deterministic regardless of
    /// execution interleaving). Spans still open contribute their calls
    /// so far; take the report after the roots have closed for exact
    /// totals.
    #[must_use]
    pub fn report(&self) -> ProfileReport {
        let Some(core) = &self.core else {
            return ProfileReport {
                clock: "disabled".to_string(),
                unit: "ticks".to_string(),
                spans: Vec::new(),
            };
        };
        let st = core.lock();
        let mut spans = Vec::new();
        let mut path = String::new();
        let mut roots = st.nodes[0].children.clone();
        roots.sort_by(|a, b| st.nodes[*a].name.cmp(&st.nodes[*b].name));
        for id in roots {
            visit(&st.nodes, id, &mut path, 0, &mut spans);
        }
        ProfileReport {
            clock: st.clock.name().to_string(),
            unit: st.clock.unit().to_string(),
            spans,
        }
    }
}

/// The enabled half of [`Profiler::span`]: pushes a frame for `name` and
/// returns its guard.
#[inline(never)]
fn open(core: &Arc<Mutex<State>>, name: &str) -> ProfileGuard {
    let mut st = core.lock();
    let t = st.clock.now();
    let parent = st.stack.last().map_or(0, |f| f.node);
    let node = st.child_named(parent, name);
    // Snapshot the alloc counters *after* any node bookkeeping above,
    // so the tree's own allocations land in the enclosing span, not
    // in the one being opened.
    let (start_allocs, start_alloc_bytes) = crate::alloc::profile_alloc_snapshot();
    st.stack.push(Frame {
        node,
        start: t,
        start_allocs,
        start_alloc_bytes,
    });
    let depth = st.stack.len();
    ProfileGuard {
        core: Some(Arc::clone(core)),
        depth,
    }
}

fn visit(nodes: &[Node], id: usize, path: &mut String, depth: u64, out: &mut Vec<ProfileSpan>) {
    let node = &nodes[id];
    let base_len = path.len();
    if !path.is_empty() {
        path.push(';');
    }
    path.push_str(&node.name);
    let child_total: u64 = node.children.iter().map(|&c| nodes[c].total).sum();
    let child_allocs: u64 = node.children.iter().map(|&c| nodes[c].allocs).sum();
    let child_alloc_bytes: u64 = node.children.iter().map(|&c| nodes[c].alloc_bytes).sum();
    out.push(ProfileSpan {
        path: path.clone(),
        name: node.name.clone(),
        depth,
        calls: node.calls,
        total_ticks: node.total,
        self_ticks: node.total.saturating_sub(child_total),
        allocs: node.allocs,
        alloc_bytes: node.alloc_bytes,
        self_allocs: node.allocs.saturating_sub(child_allocs),
        self_alloc_bytes: node.alloc_bytes.saturating_sub(child_alloc_bytes),
    });
    let mut kids = node.children.clone();
    kids.sort_by(|a, b| nodes[*a].name.cmp(&nodes[*b].name));
    for c in kids {
        visit(nodes, c, path, depth + 1, out);
    }
    path.truncate(base_len);
}

/// RAII guard returned by [`Profiler::span`].
#[derive(Debug)]
pub struct ProfileGuard {
    core: Option<Arc<Mutex<State>>>,
    /// Stack length right after this span's frame was pushed; the drop
    /// pops back down to `depth - 1`, closing leaked children too.
    depth: usize,
}

impl Drop for ProfileGuard {
    /// Inlined like [`Profiler::span`]: a disabled guard is one `None`
    /// check.
    #[inline]
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            close(core, self.depth);
        }
    }
}

/// The enabled half of the guard's drop: pops frames down to `depth - 1`,
/// charging each its calls, ticks and allocations. Takes the guard's handle
/// so that releasing it stays out of line too.
#[inline(never)]
fn close(core: Arc<Mutex<State>>, depth: usize) {
    let mut st = core.lock();
    if st.stack.len() < depth {
        // An enclosing guard already closed this frame.
        return;
    }
    let t = st.clock.now();
    let (allocs, alloc_bytes) = crate::alloc::profile_alloc_snapshot();
    while st.stack.len() >= depth {
        let Some(frame) = st.stack.pop() else { break };
        let node = &mut st.nodes[frame.node];
        node.calls += 1;
        node.total += t.saturating_sub(frame.start);
        node.allocs += allocs.saturating_sub(frame.start_allocs);
        node.alloc_bytes += alloc_bytes.saturating_sub(frame.start_alloc_bytes);
    }
}

/// One span path in a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileSpan {
    /// Full `;`-joined path from the top level, e.g. `"decode;eliminate"`.
    pub path: String,
    /// Leaf name (last path component).
    pub name: String,
    /// Nesting depth (0 for top-level spans).
    pub depth: u64,
    /// Number of times the span closed.
    pub calls: u64,
    /// Total ticks between entry and exit, summed over calls.
    pub total_ticks: u64,
    /// Total ticks minus the total of direct children (never negative).
    pub self_ticks: u64,
    /// Allocation events (allocs + reallocs) on the span's thread
    /// between entry and exit, children included. All zeros unless the
    /// binary installed [`CountingAlloc`](crate::CountingAlloc) and
    /// enabled [`set_alloc_counting`](crate::set_alloc_counting).
    pub allocs: u64,
    /// Bytes allocated (including realloc growth) between entry and
    /// exit, children included.
    pub alloc_bytes: u64,
    /// Allocation events minus those of direct children.
    pub self_allocs: u64,
    /// Allocated bytes minus those of direct children.
    pub self_alloc_bytes: u64,
}

/// A serializable profiler snapshot, ordered depth-first with children
/// sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Clock that produced the ticks (`"wall"` / `"virtual"`).
    pub clock: String,
    /// Tick unit (`"ns"` / `"events"`).
    pub unit: String,
    /// Flattened span tree.
    pub spans: Vec<ProfileSpan>,
}

impl ProfileReport {
    /// Sum of top-level span totals — an upper bound on every span's
    /// contribution, and the denominator for percentage displays.
    #[must_use]
    pub fn total_root_ticks(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.total_ticks)
            .sum()
    }

    /// Looks up a span by its full `;`-joined path.
    #[must_use]
    pub fn span(&self, path: &str) -> Option<&ProfileSpan> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Brendan Gregg folded-stacks text: one `path;to;leaf <self>` line
    /// per span with nonzero self time, ready for `flamegraph.pl` or
    /// speedscope.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            if s.self_ticks > 0 {
                out.push_str(&s.path);
                out.push(' ');
                out.push_str(&s.self_ticks.to_string());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_noop() {
        let p = Profiler::disabled();
        {
            let _a = p.span("outer");
            let _b = p.span("inner");
        }
        assert!(!p.is_enabled());
        let report = p.report();
        assert!(report.spans.is_empty());
        assert_eq!(report.folded(), "");
    }

    #[test]
    fn nested_spans_record_counts_and_paths() {
        let p = Profiler::virtual_clock();
        for _ in 0..3 {
            let _outer = p.span("decode");
            {
                let _inner = p.span("eliminate");
            }
            {
                let _inner = p.span("rank_update");
            }
        }
        let report = p.report();
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["decode", "decode;eliminate", "decode;rank_update"]);
        assert_eq!(report.span("decode").map(|s| s.calls), Some(3));
        assert_eq!(report.span("decode;eliminate").map(|s| s.calls), Some(3));
        assert_eq!(report.clock, "virtual");
        assert_eq!(report.unit, "events");
    }

    /// Satellite: profiler self-time arithmetic — parent self time equals
    /// parent total minus the totals of its direct children.
    #[test]
    fn self_time_is_total_minus_children() {
        let p = Profiler::virtual_clock();
        {
            let _outer = p.span("parent");
            let _a = p.span("a");
            drop(_a);
            let _b = p.span("b");
        }
        let report = p.report();
        let parent = report.span("parent").expect("parent span");
        let a = report.span("parent;a").expect("a span");
        let b = report.span("parent;b").expect("b span");
        assert_eq!(
            parent.self_ticks,
            parent.total_ticks - a.total_ticks - b.total_ticks
        );
        // Self times over the whole report sum to at most the root total.
        let self_sum: u64 = report.spans.iter().map(|s| s.self_ticks).sum();
        assert!(self_sum <= report.total_root_ticks());
        assert!(parent.self_ticks > 0);
    }

    #[test]
    fn same_name_under_different_parents_are_distinct_paths() {
        let p = Profiler::virtual_clock();
        {
            let _x = p.span("x");
            let _k = p.span("kernel");
        }
        {
            let _y = p.span("y");
            let _k = p.span("kernel");
        }
        let report = p.report();
        assert!(report.span("x;kernel").is_some());
        assert!(report.span("y;kernel").is_some());
        assert_eq!(report.spans.len(), 4);
    }

    #[test]
    fn parent_drop_closes_leaked_children() {
        let p = Profiler::virtual_clock();
        let outer = p.span("outer");
        let inner = p.span("inner");
        drop(outer); // closes inner too
        drop(inner); // late drop is a no-op
        let report = p.report();
        assert_eq!(report.span("outer").map(|s| s.calls), Some(1));
        assert_eq!(report.span("outer;inner").map(|s| s.calls), Some(1));
        // A fresh span after the leak lands back at the top level.
        drop(p.span("next"));
        let report = p.report();
        assert_eq!(report.span("next").map(|s| s.depth), Some(0));
    }

    /// Tentpole: allocations made inside a span are attributed to it —
    /// totals include children, self excludes direct children — exactly
    /// like ticks.
    #[test]
    fn spans_attribute_allocations_to_self_and_total() {
        let _guard = crate::alloc::test_lock();
        crate::alloc::set_alloc_counting(true);
        let p = Profiler::virtual_clock();
        {
            let _outer = p.span("outer");
            let v = std::hint::black_box(vec![0u8; 8192]);
            {
                let _inner = p.span("inner");
                let w = std::hint::black_box(vec![0u8; 4096]);
                drop(w);
            }
            drop(v);
        }
        crate::alloc::set_alloc_counting(false);
        let report = p.report();
        let outer = report.span("outer").expect("outer span");
        let inner = report.span("outer;inner").expect("inner span");
        assert!(inner.allocs >= 1, "{inner:?}");
        assert!(inner.alloc_bytes >= 4096, "{inner:?}");
        // Outer totals include the inner span plus its own 8 KiB buffer.
        assert!(outer.alloc_bytes >= inner.alloc_bytes + 8192, "{outer:?}");
        assert_eq!(outer.self_allocs, outer.allocs - inner.allocs);
        assert_eq!(
            outer.self_alloc_bytes,
            outer.alloc_bytes - inner.alloc_bytes
        );
        // Inner has no children: self == total.
        assert_eq!(inner.self_allocs, inner.allocs);
        assert_eq!(inner.self_alloc_bytes, inner.alloc_bytes);
    }

    /// Without counting enabled the alloc columns stay at zero — spans
    /// cost no extra work and reports stay byte-stable.
    #[test]
    fn alloc_columns_are_zero_when_counting_is_off() {
        let _guard = crate::alloc::test_lock();
        crate::alloc::set_alloc_counting(false);
        let p = Profiler::virtual_clock();
        {
            let _s = p.span("work");
            std::hint::black_box(vec![0u8; 4096]);
        }
        let report = p.report();
        let s = report.span("work").expect("work span");
        assert_eq!(
            (s.allocs, s.alloc_bytes, s.self_allocs, s.self_alloc_bytes),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn virtual_clock_profiles_are_deterministic() {
        // Hold the alloc-test lock: a counting toggle between the two
        // runs would make their alloc columns differ.
        let _guard = crate::alloc::test_lock();
        let run = || {
            let p = Profiler::virtual_clock();
            for _ in 0..5 {
                let _a = p.span("a");
                let _b = p.span("b");
            }
            p.report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn folded_output_lists_self_times() {
        let p = Profiler::virtual_clock();
        {
            let _outer = p.span("root");
            let _inner = p.span("leaf");
        }
        let report = p.report();
        let folded = report.folded();
        let root_self = report.span("root").map(|s| s.self_ticks).unwrap_or(0);
        let leaf_self = report.span("root;leaf").map(|s| s.self_ticks).unwrap_or(0);
        assert_eq!(folded, format!("root {root_self}\nroot;leaf {leaf_self}\n"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let p = Profiler::virtual_clock();
        {
            let _a = p.span("a");
            let _b = p.span("b");
        }
        let report = p.report();
        let text = serde_json::to_string(&report).expect("serialize");
        let back: ProfileReport = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, report);
    }

    #[test]
    fn wall_clock_records_positive_totals() {
        let p = Profiler::wall();
        {
            let _s = p.span("work");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let report = p.report();
        assert_eq!(report.clock, "wall");
        assert_eq!(report.unit, "ns");
        assert_eq!(report.span("work").map(|s| s.calls), Some(1));
    }
}
