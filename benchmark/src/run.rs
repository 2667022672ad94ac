//! One run of one workload: the timed run that measures the end-to-end
//! metrics with tracing off, and the traced run that measures the per-layer
//! ones.

use std::time::Instant;

use omnc::runner::{Protocol, RunOptions};
use omnc::telemetry::{sample_rss, set_alloc_counting, AllocScope, Registry};

use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{
    check_pass, replay_layers, run_pass, setup, Inputs, Kind, Spec, PAPER_GAIN_MORE,
    PAPER_GAIN_OMNC,
};

/// Timed passes a run never goes below, whatever its time budget.
pub const MIN_PASSES: usize = 5;
/// Set-ups timed per run, at least; `setup_s` is their median. A set-up of
/// a few milliseconds (the sweeps') is repeated until [`SETUP_MIN_S`] have
/// gone by, because the median of five such timings wanders by tens of
/// percent from process to process.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;

/// What one run produced.
pub struct RunReport {
    /// The declared metrics of the run's kind, all set.
    pub metrics: MetricSet,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that panicked, corrupted payload or delivered zero bytes.
    pub failed: u64,
    /// Violated output checks; the run is correct when empty.
    pub problems: Vec<String>,
    /// Digest of what one pass simulated.
    pub sim_digest: u64,
    /// Human-readable detail lines.
    pub rows: Vec<String>,
}

/// A cut-down copy of the workload for the untimed warm-up: the first
/// session of a sweep, the first ten of a mesh. It touches every code path
/// of a pass at a fraction of its cost.
fn warm_up(spec: &Spec, inputs: &Inputs, seed: u64) {
    let sessions = match spec.kind {
        Kind::Sweep => 1,
        Kind::Mesh => spec.sessions.min(10),
    };
    let spec = Spec {
        sessions,
        ..spec.clone()
    };
    let inputs = Inputs {
        endpoints: inputs.endpoints[..sessions].to_vec(),
        ..inputs.clone()
    };
    let pass = run_pass(
        &spec,
        &inputs,
        seed,
        &RunOptions::default(),
        &mut Spans::disabled(),
    );
    std::hint::black_box(pass.sim_digest());
}

/// The timed run: set-up (timed apart), a short warm-up, then passes with
/// `RunOptions::default()`, tracing and allocation counting off, until
/// `seconds` are used up and at least [`MIN_PASSES`] have run.
pub fn timed_run(spec: &Spec, seed: u64, seconds: f64) -> RunReport {
    set_alloc_counting(false);
    let mut setup_seconds = Vec::new();
    let setting_up = Instant::now();
    let inputs = loop {
        let start = Instant::now();
        let inputs = setup(spec);
        setup_seconds.push(start.elapsed().as_secs_f64());
        if setup_seconds.len() >= SETUP_REPEATS && setting_up.elapsed().as_secs_f64() >= SETUP_MIN_S
        {
            break inputs;
        }
    };
    warm_up(spec, &inputs, seed);

    let options = RunOptions::default();
    let mut passes = Vec::new();
    let started = Instant::now();
    loop {
        passes.push(run_pass(
            spec,
            &inputs,
            seed,
            &options,
            &mut Spans::disabled(),
        ));
        let used = started.elapsed().as_secs_f64();
        let next = used / passes.len() as f64;
        if passes.len() >= MIN_PASSES && used + next > seconds {
            break;
        }
    }

    let first = &passes[0];
    let mut problems = check_pass(spec, first);
    let digest = first.sim_digest();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.sim_digest() != digest {
            problems.push(format!(
                "{}: pass {i} simulated something else than pass 0 under the same seed \
                 (sim_digest {:016x} vs {digest:016x})",
                spec.name,
                pass.sim_digest()
            ));
        }
    }

    let sim_s = spec.sim_s_per_pass();
    let per_sim_s: Vec<f64> = passes.iter().map(|p| p.wall_s / sim_s).collect();
    let wall = Summary::of(&per_sim_s);
    let mut metrics = MetricSet::new(END_TO_END);
    metrics.set("wall_s_per_sim_s", wall.median);
    let setup = Summary::of(&setup_seconds);
    metrics.set("setup_s", setup.median);
    let rss = sample_rss().map_or(0.0, |r| r.vm_hwm_bytes as f64 / (1024.0 * 1024.0));
    if rss == 0.0 {
        problems.push("peak RSS is unreadable on this host (/proc/self/status)".to_owned());
    }
    metrics.set("peak_rss_mb", rss);
    metrics.set("goodput_bytes_per_sim_s", first.goodput(spec.kind));

    let rows = vec![
        format!(
            "wall_s_per_sim_s: median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {} \
             (pass = {} operations, {} simulated s, {:.3} wall s)",
            wall.median,
            wall.q1,
            wall.q3,
            wall.min,
            wall.max,
            wall.n,
            spec.ops_per_pass(),
            sim_s,
            wall.median * sim_s
        ),
        format!(
            "pass wall s, in order: {}",
            passes
                .iter()
                .map(|p| format!("{:.3}", p.wall_s))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "setup_s: median of {} set-ups, min {:.4} max {:.4}",
            setup.n, setup.min, setup.max
        ),
    ];
    RunReport {
        metrics,
        attempted: (passes.len() * spec.ops_per_pass()) as u64,
        failed: passes.iter().map(|p| p.failed_ops()).sum(),
        problems,
        sim_digest: digest,
        rows,
    }
}

/// The traced run: every layer probe, then untraced passes alternating with
/// traced ones (harness spans, a live metrics registry, allocation counting
/// on), then a replay of the layer calls a pass makes inside the runner.
/// Returns the report and the spans to write out.
pub fn traced_run(spec: &Spec, seed: u64) -> (RunReport, Spans) {
    let mut spans = Spans::new(&spec.name);
    let mut metrics = MetricSet::new(PER_LAYER);
    let mut rows = Vec::new();
    let mut problems = Vec::new();

    set_alloc_counting(true);
    probes::run_all(
        seed,
        &mut spans,
        &mut probes::Report {
            metrics: &mut metrics,
            rows: &mut rows,
            problems: &mut problems,
        },
    );

    set_alloc_counting(false);
    let (inputs, _) = spans.scope("setup", None, |_| setup(spec));
    warm_up(spec, &inputs, seed);

    // Untraced and traced passes alternate, so that slow drift of the host
    // lands on both sides of the overhead ratio. Passes repeat exactly, so
    // per-pass figures are the totals over ROUNDS.
    const ROUNDS: usize = 2;
    let registry = Registry::new();
    let instrumented = RunOptions {
        registry: registry.clone(),
        ..RunOptions::default()
    };
    let (mut reference_s, mut traced_s, mut allocs) = (0.0, 0.0, 0);
    let mut last = None;
    for _ in 0..ROUNDS {
        let reference = run_pass(
            spec,
            &inputs,
            seed,
            &RunOptions::default(),
            &mut Spans::disabled(),
        );
        reference_s += reference.wall_s;
        set_alloc_counting(true);
        let scope = AllocScope::start();
        let (traced, s) = spans.scope("pass", None, |spans| {
            run_pass(spec, &inputs, seed, &instrumented, spans)
        });
        allocs += scope.delta().alloc_events();
        set_alloc_counting(false);
        traced_s += s;
        last = Some((reference, traced));
    }
    let (reference, traced) = last.expect("ROUNDS is positive");
    let per_pass = |total: f64| total / ROUNDS as f64;
    let replay = replay_layers(spec, &inputs, &mut spans);

    problems.extend(check_pass(spec, &traced));
    if traced.sim_digest() != reference.sim_digest() {
        problems.push(format!(
            "{}: the traced pass simulated something else than the untraced one \
             (sim_digest {:016x} vs {:016x})",
            spec.name,
            traced.sim_digest(),
            reference.sim_digest()
        ));
    }

    let run_s = per_pass(spans.total_s("omnc.run_cell") + spans.total_s("omnc.run_multi_session"));
    let runs = spec.sim_runs_per_pass();
    let count = |name: &str| registry.counter(name).get() / ROUNDS as u64;
    let (delivered, lost) = (count("mac.delivered"), count("mac.lost"));
    let mac_events = count("mac.tx.completed") + delivered + lost;
    metrics.set("omnc.run.s", run_s);
    // Derived: the replay runs after the pass, not inside it.
    metrics.set("omnc.run.self_s", run_s - replay.total_s());
    metrics.set("omnc.replay.select_s", replay.select_s);
    metrics.set("omnc.replay.build_s", replay.build_s);
    metrics.set("omnc.replay.solve_s", replay.solve_s);
    metrics.set("omnc.cells_per_s", runs as f64 / run_s);
    metrics.set("omnc.mac_events", mac_events as f64);
    metrics.set(
        "omnc.wall_us_per_mac_event",
        run_s * 1e6 / mac_events.max(1) as f64,
    );
    metrics.set("omnc.delivered_frac", traced.delivered_frac());
    metrics.set(
        "omnc.achieved_over_predicted",
        traced.achieved_over_predicted(),
    );
    let omnc_gain = traced.gain_over_etx(Protocol::Omnc);
    let more_gain = traced.gain_over_etx(Protocol::More);
    metrics.set("omnc.gain.omnc_over_etx", omnc_gain.unwrap_or(0.0));
    metrics.set("omnc.gain.more_over_etx", more_gain.unwrap_or(0.0));
    // The simulator's error against its reference, Fig. 2 (left); zero on
    // workloads that do not run the three protocols it compares.
    metrics.set(
        "omnc.paper_gain_err",
        match (omnc_gain, more_gain) {
            (Some(omnc), Some(more)) => ((omnc - PAPER_GAIN_OMNC).abs() / PAPER_GAIN_OMNC)
                .max((more - PAPER_GAIN_MORE).abs() / PAPER_GAIN_MORE),
            _ => 0.0,
        },
    );
    metrics.set(
        "omnc.verification_failures",
        traced.verification_failures() as f64,
    );
    metrics.set("drift.queue.mean_depth", traced.queue_mean_depth);
    metrics.set(
        "drift.mac.lost_frac",
        lost as f64 / (delivered + lost).max(1) as f64,
    );
    metrics.set(
        "telemetry.trace_overhead_frac",
        traced_s / reference_s - 1.0,
    );

    // What carrying real payload bytes costs: the same cells coefficient-only.
    let payload_ratio = if spec.session.payload_block_size > 1 {
        let mut bare = spec.clone();
        bare.session.payload_block_size = 1;
        let bare_inputs = setup(&bare);
        let (pass, _) = spans.scope("pass.coeff_only", None, |_| {
            run_pass(
                &bare,
                &bare_inputs,
                seed,
                &RunOptions::default(),
                &mut Spans::disabled(),
            )
        });
        reference.wall_s / pass.wall_s
    } else {
        0.0
    };
    metrics.set("omnc.payload_over_coeff_only", payload_ratio);

    rows.push(format!(
        "traced pass: {run_s:.3} s in {runs} simulator runs, {mac_events} MAC events, {} allocations; \
         {ROUNDS} traced passes {traced_s:.3} s, {ROUNDS} untraced {reference_s:.3} s; \
         replayed select {:.3} s, build {:.3} s, solve {:.3} s",
        allocs / ROUNDS as u64,
        replay.select_s,
        replay.build_s,
        replay.solve_s
    ));
    let report = RunReport {
        metrics,
        attempted: spec.ops_per_pass() as u64,
        failed: traced.failed_ops(),
        problems,
        sim_digest: traced.sim_digest(),
        rows,
    };
    (report, spans)
}
