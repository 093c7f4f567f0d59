//! End-to-end host-time benchmark of the DOSAS simulator.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload <name> --reference
//! ```
//!
//! Runs one workload (see `workloads.rs` and README.md) in this process on
//! one thread with the serial executor. `--trace 0` reports the end-to-end
//! metrics of untraced runs; `--trace 1` reports per-layer metrics from
//! profiled runs alternated with untraced ones, plus layer probes. Every
//! simulated result is checked; the last line of stdout is one JSON object.

mod check;
mod probes;
mod report;
mod workloads;

use check::{Expect, Summary};
use dosas_repro::dosas::policy::PolicyConfig;
use dosas_repro::dosas::schedule::SolverKind;
use dosas_repro::dosas::{Driver, DriverConfig, ExecMode, RunMetrics, Scheme};
use dosas_repro::obs::{Label, ObsConfig};
use dosas_repro::simkit::{ExecProfile, RngFactory, SimSpan};
use rand::Rng;
use report::{median, quantile, Metric, Outcome};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, Point};

/// Set-ups timed per invocation, `setup_s` being their median: at least
/// `SETUP_MIN_REPS`, and more (up to `SETUP_MAX_REPS`) until
/// `SETUP_MIN_SECS` is spent, so a millisecond set-up still gets a steady
/// median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 200;
const SETUP_MIN_SECS: f64 = 1.0;

/// Driver subsystems, as `Driver::run_profiled` labels them.
const SUBSYSTEMS: [&str; 6] = [
    "ranks",
    "io_path",
    "server",
    "control",
    "faults",
    "telemetry",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
}

const USAGE: &str = "usage: perfbench --workload <xl-closed|paper-sweep|open-loop-observed|\
fat-tree-churn> [--seed N] [--seconds S] [--trace 0|1] [--reference]";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut args = Args {
        kind: Kind::XlClosed,
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            args.reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.kind = kind.ok_or("--workload is required")?;
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.reference {
        let mut s = Summary::ZERO;
        for p in workloads::generate(args.kind, args.seed) {
            s.add(&Driver::run_with(p.cfg, &p.workload, ExecMode::Serial));
        }
        println!("(\"{}\", {s:?}),", args.kind.name());
        return ExitCode::SUCCESS;
    }
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!(
        "workload {} seed {} attempted {} failed {} failed_frac {:?} fraction",
        args.kind.name(),
        args.seed,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in &outcome.metrics {
        println!("{} {:?} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

/// Generate the inputs and build every world once: `(points, generation
/// seconds, world-building seconds)`. The built worlds are dropped outside
/// the timed span.
fn set_up(kind: Kind, seed: u64) -> (Vec<Point>, f64, f64) {
    let t0 = Instant::now();
    let points = workloads::generate(kind, seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let worlds: Vec<Driver> = points
        .iter()
        .map(|p| Driver::new(p.cfg.clone(), &p.workload))
        .collect();
    let new_s = t1.elapsed().as_secs_f64();
    drop(worlds);
    (points, gen_s, new_s)
}

/// Repeated set-ups of `seed`'s inputs: per-repetition generation and
/// world-building seconds.
fn set_up_repeatedly(kind: Kind, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let (mut gen, mut new) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while gen.len() < SETUP_MIN_REPS
        || (gen.len() < SETUP_MAX_REPS && t0.elapsed().as_secs_f64() < SETUP_MIN_SECS)
    {
        let (_, g, n) = set_up(kind, seed);
        gen.push(g);
        new.push(n);
    }
    (gen, new)
}

/// The inputs of pass `i`: pass 0 runs `seed` itself, later passes fresh
/// seeds drawn from it, so one invocation averages over several inputs
/// and its figures do not hinge on one seed's schedule.
fn pass_inputs(kind: Kind, seed: u64, i: u64) -> (Vec<Point>, Vec<Expect>) {
    let pass_seed = if i == 0 {
        seed
    } else {
        RngFactory::new(seed).stream_indexed("pass", i).random()
    };
    let points = workloads::generate(kind, pass_seed);
    let expects = points.iter().map(|p| Expect::of(p, kind)).collect();
    (points, expects)
}

/// Tallies of runs and check failures, with the failures described on
/// stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Run `f` as one attempt; a panic or a failed check counts against it.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> (T, Vec<String>)) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok((v, bad)) if bad.is_empty() => Some(v),
            Ok((v, bad)) => {
                self.failed += 1;
                eprintln!("check failed ({what}): {}", bad.join("; "));
                Some(v)
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("run panicked ({what})");
                None
            }
        }
    }

    /// The default seed's pass outcome against the stored reference.
    fn reference(&mut self, kind: Kind, seed: u64, summary: &Summary) {
        if seed == check::DEFAULT_SEED {
            self.attempt("reference", || ((), check::check_reference(kind, summary)));
        }
    }
}

/// One checked pass over every point: host seconds of each run that
/// finished (checks excluded), requests completed, events dispatched,
/// outcome summary, and the metrics themselves when asked to keep them.
struct Pass {
    point_secs: Vec<f64>,
    requests: u64,
    events: u64,
    summary: Summary,
    metrics: Vec<Option<RunMetrics>>,
}

impl Pass {
    fn secs(&self) -> f64 {
        self.point_secs.iter().sum()
    }
}

fn untraced_pass(points: &[Point], expects: &[Expect], tally: &mut Tally, keep: bool) -> Pass {
    let mut pass = Pass {
        point_secs: Vec::with_capacity(points.len()),
        requests: 0,
        events: 0,
        summary: Summary::ZERO,
        metrics: Vec::new(),
    };
    for (i, (p, e)) in points.iter().zip(expects).enumerate() {
        let cfg = p.cfg.clone();
        let m = tally.attempt(&format!("point {i}"), || {
            let t0 = Instant::now();
            let m = Driver::run_with(cfg, &p.workload, ExecMode::Serial);
            let secs = t0.elapsed().as_secs_f64();
            let bad = check::check(e, &m);
            ((m, secs), bad)
        });
        let m = m.map(|(m, secs)| {
            pass.point_secs.push(secs);
            pass.requests += m.records.len() as u64;
            pass.events += m.events;
            pass.summary.add(&m);
            m
        });
        if keep {
            pass.metrics.push(m);
        }
    }
    pass
}

/// Whether another pass like the `i + 1` finished since `t0` would end
/// past `seconds`: an invocation measures for about `seconds`, never less
/// than one pass.
fn out_of_time(t0: Instant, i: u64, seconds: f64) -> bool {
    let spent = t0.elapsed().as_secs_f64();
    spent + spent / (i + 1) as f64 > seconds
}

/// End-to-end metrics from untraced runs.
fn untraced(args: &Args) -> Outcome {
    let (gen, new) = set_up_repeatedly(args.kind, args.seed);
    let setup: Vec<f64> = gen.iter().zip(&new).map(|(g, n)| g + n).collect();

    let mut tally = Tally::default();
    let (mut requests, mut secs, mut point_ms) = (0, 0.0, Vec::new());
    let t0 = Instant::now();
    for i in 0.. {
        let (points, expects) = pass_inputs(args.kind, args.seed, i);
        let pass = untraced_pass(&points, &expects, &mut tally, false);
        if i == 0 {
            tally.reference(args.kind, args.seed, &pass.summary);
        }
        eprintln!(
            "pass {i}: {} requests in {:.4} s",
            pass.requests,
            pass.secs()
        );
        requests += pass.requests;
        secs += pass.secs();
        point_ms.extend(pass.point_secs.iter().map(|s| s * 1e3));
        if out_of_time(t0, i, args.seconds) {
            eprintln!("{} passes, {} point samples", i + 1, point_ms.len());
            break;
        }
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric::new("requests_per_s", ratio(requests as f64, secs), "1/s"),
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("peak_rss_mb", report::peak_rss_mb(), "MiB"),
            Metric::new("point_ms_p50", quantile(&point_ms, 0.5), "ms"),
        ],
    }
}

/// The traced variant of a point: obs registry on (without adding sample
/// ticks the untraced run does not have), everything else unchanged.
fn traced_cfg(cfg: &DriverConfig) -> DriverConfig {
    let mut cfg = cfg.clone();
    if !cfg.obs.enabled {
        cfg.obs = ObsConfig {
            sample_period: SimSpan::ZERO,
            ..ObsConfig::enabled()
        };
    }
    cfg
}

/// Per-pass accumulation of a profiled pass.
#[derive(Default)]
struct TracedPass {
    secs: f64,
    dispatch: BTreeMap<&'static str, (u64, f64)>,
}

/// Deterministic counts gathered from the first traced pass.
#[derive(Default)]
struct Counts {
    events: u64,
    scheduled: u64,
    cancelled: u64,
    fabric: BTreeMap<&'static str, u64>,
    samples: u64,
    ce_log: Vec<dosas_repro::dosas::driver::PolicyLogEntry>,
    demoted: u64,
    interrupted: u64,
    peak_in_flight: usize,
    peak_cluster: Option<dosas_repro::cluster::ClusterConfig>,
}

const FABRIC_COUNTERS: [(&str, &str, &str); 7] = [
    ("cluster.fabric.fills", "fabric", "fills"),
    ("cluster.fabric.churn_ops", "fabric", "churn_ops"),
    ("cluster.fabric.flows_refilled", "fabric", "flows_refilled"),
    ("cluster.fabric.flows_reused", "fabric", "flows_reused"),
    (
        "cluster.fabric.net_ticks_suppressed",
        "fabric",
        "net_ticks_suppressed",
    ),
    ("simkit.share.fills", "cpu", "share_fills"),
    ("simkit.share.churn_ops", "cpu", "share_churn_ops"),
];

fn absorb_profile(pass: &mut TracedPass, profile: &ExecProfile) {
    for (label, stat) in &profile.dispatch {
        let e = pass.dispatch.entry(label).or_default();
        e.0 += stat.events;
        e.1 += stat.wall_secs;
    }
}

fn absorb_counts(c: &mut Counts, m: &RunMetrics) {
    c.events += m.events;
    c.scheduled += m.events_scheduled;
    c.cancelled += m.events_cancelled;
    if let Some(obs) = &m.obs {
        for (name, sub, key) in FABRIC_COUNTERS {
            *c.fabric.entry(name).or_default() += obs.metrics.counter_value(sub, key, Label::None);
        }
        c.samples += obs.samples.len() as u64 + obs.samples_dropped;
    }
    c.ce_log.extend(m.policy_log.iter().cloned());
    c.demoted += m.runtime.demoted;
    c.interrupted += m.runtime.interrupted;
}

/// Per-layer metrics: untraced and profiled passes alternate until
/// `--seconds` is spent; times are medians over passes, counts come from
/// the (deterministic) first traced pass.
fn traced(args: &Args) -> Outcome {
    let (gen, new) = set_up_repeatedly(args.kind, args.seed);

    let mut solver = SolverKind::Threshold;
    let mut tally = Tally::default();
    let (mut untraced_secs, mut events_per_s, mut point_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes: Vec<TracedPass> = Vec::new();
    let mut counts = Counts::default();
    let mut reference: Vec<Option<String>> = Vec::new();
    let t0 = Instant::now();
    for i in 0.. {
        let (points, expects) = pass_inputs(args.kind, args.seed, i);
        let first = i == 0;
        let plain = untraced_pass(&points, &expects, &mut tally, first);
        untraced_secs.push(plain.secs());
        events_per_s.push(ratio(plain.events as f64, plain.secs()));
        point_ms.extend(plain.point_secs.iter().map(|s| s * 1e3));
        if first {
            tally.reference(args.kind, args.seed, &plain.summary);
            for (m, p) in plain.metrics.iter().zip(&points) {
                if let Some(m) = m {
                    let peak = probes::peak_in_flight(m);
                    if peak > counts.peak_in_flight {
                        counts.peak_in_flight = peak;
                        counts.peak_cluster = Some(p.cfg.cluster.clone());
                    }
                }
            }
            reference = plain
                .metrics
                .iter()
                .map(|m| m.as_ref().map(check::simulated))
                .collect();
            solver = ce_solver(&points);
        }

        let mut pass = TracedPass::default();
        for (j, p) in points.iter().enumerate() {
            let cfg = traced_cfg(&p.cfg);
            let out = tally.attempt(&format!("traced point {j}"), || {
                let t0 = Instant::now();
                let (m, profile) = Driver::run_profiled(cfg, &p.workload, ExecMode::Serial);
                let secs = t0.elapsed().as_secs_f64();
                let mut bad = check::check(&expects[j], &m);
                if first && reference[j].as_deref() != Some(check::simulated(&m).as_str()) {
                    bad.push("traced run differs from the untraced run".into());
                }
                ((m, profile, secs), bad)
            });
            if let Some((m, profile, secs)) = out {
                pass.secs += secs;
                absorb_profile(&mut pass, &profile);
                if first {
                    absorb_counts(&mut counts, &m);
                }
            }
        }
        passes.push(pass);
        if out_of_time(t0, i, args.seconds) {
            eprintln!("{} untraced + {} traced passes", i + 1, i + 1);
            break;
        }
    }

    let untraced_s = median(&untraced_secs);
    let traced_s = median(&passes.iter().map(|p| p.secs).collect::<Vec<_>>());
    let mut metrics = vec![
        Metric::new("simkit.events", counts.events as f64, "count"),
        Metric::new("simkit.events_cancelled", counts.cancelled as f64, "count"),
        Metric::new("simkit.events_per_s", median(&events_per_s), "1/s"),
        Metric::new(
            "simkit.cancel_ratio",
            ratio(counts.cancelled as f64, counts.scheduled as f64),
            "ratio",
        ),
    ];

    let mut attributed = vec![0.0; passes.len()];
    for sub in SUBSYSTEMS {
        let split: Vec<(u64, f64)> = passes
            .iter()
            .map(|p| p.dispatch.get(sub).copied().unwrap_or_default())
            .collect();
        for (a, (_, s)) in attributed.iter_mut().zip(&split) {
            *a += s;
        }
        let self_s = median(&split.iter().map(|d| d.1).collect::<Vec<_>>());
        let us: Vec<f64> = split
            .iter()
            .map(|&(e, s)| ratio(s * 1e6, e as f64))
            .collect();
        metrics.push(Metric::new(
            format!("driver.{sub}.events"),
            split[0].0 as f64,
            "count",
        ));
        metrics.push(Metric::new(format!("driver.{sub}.self_s"), self_s, "s"));
        metrics.push(Metric::new(
            format!("driver.{sub}.us_per_event"),
            median(&us),
            "us",
        ));
        println!(
            "share of traced host time: driver.{sub} {:.1}%",
            100.0 * ratio(self_s, traced_s)
        );
    }
    let unattributed: Vec<f64> = passes
        .iter()
        .zip(&attributed)
        .map(|(p, a)| p.secs - a)
        .collect();
    metrics.push(Metric::new(
        "simkit.unattributed_s",
        median(&unattributed),
        "s",
    ));
    println!(
        "share of traced host time: unattributed {:.1}%",
        100.0 * ratio(median(&unattributed), traced_s)
    );

    for (name, _, _) in FABRIC_COUNTERS {
        let v = counts.fabric.get(name).copied().unwrap_or(0);
        metrics.push(Metric::new(name, v as f64, "count"));
    }
    let refilled = counts
        .fabric
        .get("cluster.fabric.flows_refilled")
        .copied()
        .unwrap_or(0);
    let reused = counts
        .fabric
        .get("cluster.fabric.flows_reused")
        .copied()
        .unwrap_or(0);
    metrics.push(Metric::new(
        "cluster.fabric.refill_ratio",
        ratio(refilled as f64, (refilled + reused) as f64),
        "ratio",
    ));

    // Layer probes at the concurrency the workload reached.
    let cluster = counts.peak_cluster.clone().unwrap_or_default();
    let flows = counts.peak_in_flight.max(1);
    let tasks = flows.div_ceil(cluster.storage_nodes.max(1));
    metrics.push(Metric::new(
        "cluster.fabric.probe_us_per_completion",
        probes::fabric_us_per_completion(&cluster, flows, args.seed),
        "us",
    ));
    metrics.push(Metric::new(
        "simkit.share.probe_us_per_op",
        probes::share_us_per_op(cluster.storage_kernel_cores(), tasks, args.seed),
        "us",
    ));

    let decisions = counts.ce_log.len() as f64;
    let k_sum: usize = counts.ce_log.iter().map(|e| e.k).sum();
    metrics.extend([
        Metric::new("dosas.ce.decisions", decisions, "count"),
        Metric::new("dosas.ce.mean_k", ratio(k_sum as f64, decisions), "count"),
        Metric::new("dosas.ce.demoted", counts.demoted as f64, "count"),
        Metric::new("dosas.ce.interrupted", counts.interrupted as f64, "count"),
        Metric::new(
            "dosas.ce.solve_us",
            probes::ce_solve_us(&counts.ce_log, solver, args.seed).unwrap_or(0.0),
            "us",
        ),
        Metric::new("setup.workload_gen_s", median(&gen), "s"),
        Metric::new("setup.driver_new_s", median(&new), "s"),
        Metric::new("obs.samples", counts.samples as f64, "count"),
    ]);
    // Every `Fault` event is one fault-plan transition.
    let faults = |name: &str| -> f64 {
        let m = metrics.iter().find(|m| m.name == name);
        m.expect("driver.faults metrics precede").value
    };
    let (transitions, us_per_transition) = (
        faults("driver.faults.events"),
        faults("driver.faults.us_per_event"),
    );
    metrics.extend([
        Metric::new("faults.transitions", transitions, "count"),
        Metric::new("faults.us_per_transition", us_per_transition, "us"),
        Metric::new("trace_overhead", ratio(traced_s, untraced_s), "ratio"),
        Metric::new("point_ms_p99", quantile(&point_ms, 0.99), "ms"),
    ]);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// The CE solver the points' DOSAS scheme uses (the default when none).
fn ce_solver(points: &[Point]) -> SolverKind {
    points
        .iter()
        .find_map(|p| match &p.cfg.scheme {
            Scheme::Dosas(d) => match d.policy {
                PolicyConfig::Ce { solver } => Some(solver),
                _ => None,
            },
            _ => None,
        })
        .unwrap_or(SolverKind::Threshold)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reaches).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &serde_json::Value) -> Vec<String> {
        section
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec: serde_json::Value = serde_json::from_str(&spec).expect("valid JSON");
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                kind: Kind::PaperSweep,
                seed: 5,
                seconds: 0.01,
                trace,
                reference: false,
            };
            let out = if trace {
                traced(&args)
            } else {
                untraced(&args)
            };
            assert_eq!(out.failed, 0);
            let emitted: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            assert!(emitted.iter().all(|n| report::valid_name(n)), "{emitted:?}");
            assert_eq!(
                emitted,
                names(spec.get(section).expect("section")),
                "{section}"
            );
        }
    }
}
