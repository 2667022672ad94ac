//! The whole benchmark from one command: every workload in a fresh process
//! of this same binary (so `peak_rss_mb` is each workload's own high-water
//! mark), and the A/A mode that runs two such sets back to back and judges
//! them as the pipeline judges a change against its parent.

use std::process::{Command, ExitCode, Stdio};

use crate::metrics::{declared_bound, parse_result_line, RunResult, END_TO_END};
use crate::stats::Summary;
use crate::workloads;

/// What the suite was asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Seed of the first run of every workload; run `r` uses `seed + r`.
    pub seed: u64,
    /// Time budget of each timed run.
    pub seconds: f64,
    /// Run two sets and compare them.
    pub aa: bool,
}

/// Timed runs per workload in each A/A set: the fewest that give quartiles
/// a spread can be read from. The plain suite makes one.
const AA_RUNS: u64 = 5;

impl SuiteConfig {
    fn runs(&self) -> u64 {
        if self.aa {
            AA_RUNS
        } else {
            1
        }
    }
}

/// One child run: its parsed result line and its digest line.
struct Child {
    result: RunResult,
    sim_digest: String,
}

/// Runs this binary on one workload in a fresh process and waits for it.
fn run_child(cfg: &SuiteConfig, workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    for line in &lines {
        println!("    {line}");
    }
    let result = parse_result_line(last).map_err(|e| format!("{workload}: {e}: {last}"))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload} (seed {seed}, trace {}): {}, correct={}, {} of {} operations failed",
            u8::from(trace),
            output.status,
            result.correct,
            result.failed,
            result.attempted
        ));
    }
    let sim_digest = lines
        .iter()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .unwrap_or("")
        .to_owned();
    Ok(Child { result, sim_digest })
}

/// The timed runs of one workload in one set.
struct WorkloadSet {
    runs: Vec<Child>,
}

impl WorkloadSet {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|c| c.result.metrics.iter().find(|(n, _, _)| n == metric))
            .map(|(_, v, _)| *v)
            .collect()
    }
}

fn run_set(cfg: &SuiteConfig, label: &str, problems: &mut Vec<String>) -> Vec<WorkloadSet> {
    workloads::all()
        .iter()
        .map(|w| {
            let mut runs = Vec::new();
            for r in 0..cfg.runs() {
                println!("== {label}{} run {r} (seed {})", w.name, cfg.seed + r);
                match run_child(cfg, &w.name, cfg.seed + r, false) {
                    Ok(child) => runs.push(child),
                    Err(e) => problems.push(e),
                }
            }
            WorkloadSet { runs }
        })
        .collect()
}

/// The simulated statistic: exact under a fixed seed, so two sets of the
/// same code must agree on it to the last bit.
const EXACT: &str = "goodput_bytes_per_sim_s";

/// A/A verdict for one metric of one workload; `a` is the baseline set.
fn verdict(metric: &str, a: &Summary, b: &Summary) -> &'static str {
    let bound = declared_bound(metric);
    // The pipeline does not judge the spread of set-up time, only its drift.
    if metric != "setup_s" && a.spread().max(b.spread()) > bound.share {
        return "unresolved";
    }
    let worse_by = if bound.higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    };
    if worse_by <= bound.share * a.median.abs() {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Runs the suite; the exit code is non-zero when any run was incorrect or,
/// under `--aa`, any metric did not pass.
pub fn run(cfg: &SuiteConfig) -> ExitCode {
    let specs = workloads::all();
    let mut problems = Vec::new();
    let first = run_set(cfg, if cfg.aa { "set A: " } else { "" }, &mut problems);

    println!(
        "\n# end-to-end metrics (timed runs, tracing off; {} run(s) per workload)",
        cfg.runs()
    );
    println!(
        "{:<16} {:<26} {:<5} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "median", "q1", "q3", "n"
    );
    for (w, set) in specs.iter().zip(&first) {
        for d in END_TO_END {
            let values = set.values(d.name);
            if values.is_empty() {
                continue;
            }
            let s = Summary::of(&values);
            println!(
                "{:<16} {:<26} {:<5} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                w.name, d.name, d.unit, s.median, s.q1, s.q3, s.n
            );
        }
        if let Some(child) = set.runs.first() {
            println!("{:<16} sim_digest {}", w.name, child.sim_digest);
            println!(
                "{:<16} operations failed {} of {} attempted",
                w.name, child.result.failed, child.result.attempted
            );
        }
    }

    if cfg.aa {
        let second = run_set(cfg, "set B: ", &mut problems);
        println!("\n# A/A: two sets of the same code, judged by the bounds in BENCHMARK.json");
        println!(
            "{:<16} {:<26} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
            "workload", "metric", "median A", "median B", "diff", "spread", "bound"
        );
        for ((w, a), b) in specs.iter().zip(&first).zip(&second) {
            for d in END_TO_END {
                let (va, vb) = (a.values(d.name), b.values(d.name));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
                let mut verdict = verdict(d.name, &sa, &sb);
                if d.name == EXACT && va != vb {
                    verdict = "FAIL (simulated statistic differs under the same seeds)";
                }
                println!(
                    "{:<16} {:<26} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.0}%  {verdict}",
                    w.name,
                    d.name,
                    sa.median,
                    sb.median,
                    100.0 * (sb.median - sa.median) / sa.median.abs(),
                    100.0 * sa.spread().max(sb.spread()),
                    100.0 * declared_bound(d.name).share,
                );
                if verdict != "PASS" {
                    problems.push(format!("A/A: {} {} is {verdict}", w.name, d.name));
                }
            }
            // Simulated, so exact run for run: the digest, and the share of
            // operations that failed (every pass of a run fails the same
            // ones, so the share does not depend on how many passes fit).
            let same = a.runs.len() == b.runs.len()
                && a.runs.iter().zip(&b.runs).all(|(x, y)| {
                    x.sim_digest == y.sim_digest
                        && x.result.failed * y.result.attempted
                            == y.result.failed * x.result.attempted
                });
            println!(
                "{:<16} sim_digest and operations failed {}",
                w.name,
                if same { "identical" } else { "DIFFER" }
            );
            if !same {
                problems.push(format!(
                    "A/A: {} sim_digest or failed operations differ between the sets",
                    w.name
                ));
            }
        }
    }

    println!(
        "\n# per-layer metrics (one traced run per workload, seed {})",
        cfg.seed
    );
    for w in &specs {
        println!("== {} traced", w.name);
        match run_child(cfg, &w.name, cfg.seed, true) {
            Ok(child) => {
                for (name, value, unit) in &child.result.metrics {
                    println!("{:<16} {name:<44} {value:>16.6} {unit}", w.name);
                }
            }
            Err(e) => problems.push(e),
        }
    }

    if problems.is_empty() {
        println!("\nall output checks passed");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("FAILED: {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn verdict_passes_within_the_bound_and_fails_beyond_it() {
        let bound = declared_bound("wall_s_per_sim_s").share;
        let a = summary(&[1.0, 1.0, 1.0]);
        assert_eq!(verdict("wall_s_per_sim_s", &a, &summary(&[1.0; 3])), "PASS");
        // Lower is better: faster always passes, slower only within the bound.
        assert_eq!(verdict("wall_s_per_sim_s", &a, &summary(&[0.5; 3])), "PASS");
        let slower = 1.0 + 1.5 * bound;
        assert_eq!(
            verdict("wall_s_per_sim_s", &a, &summary(&[slower; 3])),
            "FAIL"
        );
        // Higher is better: the direction flips.
        let g = summary(&[100.0; 3]);
        assert_eq!(
            verdict("goodput_bytes_per_sim_s", &g, &summary(&[200.0; 3])),
            "PASS"
        );
        assert_eq!(
            verdict("goodput_bytes_per_sim_s", &g, &summary(&[50.0; 3])),
            "FAIL"
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_passing() {
        let noisy = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let calm = summary(&[3.0; 5]);
        assert_eq!(verdict("wall_s_per_sim_s", &noisy, &calm), "unresolved");
        assert_eq!(verdict("wall_s_per_sim_s", &calm, &noisy), "unresolved");
        // Set-up time is judged on drift alone.
        assert_eq!(verdict("setup_s", &noisy, &calm), "PASS");
    }
}
