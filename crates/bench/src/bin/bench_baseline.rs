//! Emits `BENCH_simulator.json` — the committed machine-readable baseline
//! for the simulation engine.
//!
//! Sections, all wall-clock `Instant` timings (best of three):
//!
//! 1. `driver` — full contended DOSAS runs through the serial event loop
//!    at three scales: the paper testbed (64 ranks × 1 storage node), the
//!    large regime (512 ranks × 64 storage nodes), and the scale-up regime
//!    (4096 ranks × 256 storage nodes). Each point records events/sec.
//! 2. `fabric_churn` — the churn-heavy flow schedule of
//!    [`bench::fabric_churn`] under the incremental water-filling fill vs
//!    the pre-incremental full-recompute baseline (`FillMode::FullRescan`),
//!    at 64 / 1024 / 8192 flows.
//! 3. `topology` — the fat-tree fill-scaling schedule of
//!    [`bench::topology_churn`] at the acceptance points (k = 16 / 1 024
//!    hosts and k = 34 / 9 826 hosts, the latter with 100k+ flows in
//!    flight): seconds of fill work per churn event under the incremental
//!    graph fill vs `FillMode::FullRescan`, and their ratio. The 10k-host
//!    full rescan is measured over a single churn event — every mutation
//!    re-fills all ~108k flows, so one event already costs two global
//!    fills and more would only repeat the figure.
//! 4. `incremental_fabric` — stale-`NetTick` suppression and fill-reuse
//!    counters from an observability-enabled standard DOSAS run: the ticks
//!    the incremental fabric proved redundant and never dispatched.
//! 5. `scenarios` — the multi-tenant scenario suite of
//!    [`bench::scenarios`] (storm, straggler, join/leave, heterogeneous,
//!    SLO, soak, open-loop burst, fat-tree): events/sec per scenario plus
//!    the fairness outcome, so the cost of the failure-rich multi-tenant
//!    regime is tracked.
//! 6. `policies` — the policy arena of [`bench::policy_matrix`]: every
//!    contention-control policy (`ce`, `restripe`, `token-bucket`, `pi`)
//!    run against every scenario, recording makespan, bandwidth, Jain
//!    fairness, SLO verdicts, demotions/interrupts and rate-cap activity
//!    per cell.
//!
//! Plus a `profile` section from `Driver::run_profiled` on the paper
//! driver run: the per-subsystem wall-clock dispatch breakdown, and
//! `decision_rounds` — how many contention-control decision rounds ran,
//! the plannable rows they read, and host microseconds per round (total
//! and split into gather / decide / apply; best of five runs).
//!
//! ```text
//! cargo run -p bench --release --bin bench_baseline [out.json]
//! ```
//!
//! Run via `scripts/bench.sh`, which regenerates the committed file at the
//! repository root.

use bench::{fabric_churn, topology_churn};
use cluster::FillMode;
use dosas::{Driver, DriverConfig, ExecMode, RunMetrics, Scheme, Workload};
use kernels::KernelParams;
use obs::Label;
use std::path::PathBuf;
use std::time::Instant;

const MIB: u64 = 1024 * 1024;

fn paper_cfg() -> DriverConfig {
    let mut cfg = DriverConfig::paper(Scheme::dosas_default());
    cfg.seed = 42;
    cfg
}

fn paper_workload() -> Workload {
    Workload::uniform_active(
        64,
        1,
        256 * MIB,
        "gaussian2d",
        KernelParams::with_width(1024),
    )
}

/// Best-of-three wall-clock seconds of one driver run.
fn time_driver(cfg: &DriverConfig, workload: &Workload) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(Driver::run(cfg.clone(), workload));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time one driver point.
fn driver_point(
    label: &str,
    desc: &str,
    cfg: DriverConfig,
    workload: Workload,
) -> serde_json::Value {
    let m = Driver::run(cfg.clone(), &workload);
    let secs = time_driver(&cfg, &workload);
    serde_json::json!({
        "label": label,
        "workload": desc,
        "events": m.events,
        "events_cancelled": m.events_cancelled,
        "secs": secs,
        "events_per_sec": m.events as f64 / secs,
    })
}

/// Time the multi-tenant scenario suite: every scenario from
/// [`bench::scenarios`] (each pinned by a golden snapshot in
/// `tests/tenant_scenarios.rs`), recording events/sec plus the per-tenant
/// fairness outcome.
fn scenario_section() -> serde_json::Value {
    let points: Vec<serde_json::Value> = bench::scenarios::all()
        .iter()
        .map(|s| {
            let m = Driver::run(s.cfg.clone(), &s.workload);
            let secs = time_driver(&s.cfg, &s.workload);
            let t = m.tenants.as_ref().expect("scenarios are tenanted");
            serde_json::json!({
                "name": s.name,
                "summary": s.summary,
                "events": m.events,
                "secs": secs,
                "events_per_sec": m.events as f64 / secs,
                "makespan_secs": m.makespan_secs,
                "jain_fairness": t.jain_fairness,
                "tenants": t.per_tenant.len(),
                "slos_met": t.all_slos_met(),
            })
        })
        .collect();
    serde_json::json!({ "points": points })
}

/// Stale-tick and fill-reuse counters from an obs-enabled standard run.
fn incremental_fabric_section(metrics: &RunMetrics) -> serde_json::Value {
    let report = metrics.obs.as_ref().expect("obs-enabled run has a report");
    let counter = |subsystem, name| report.metrics.counter_value(subsystem, name, Label::None);
    serde_json::json!({
        "workload": "standard DOSAS workload (64 ranks x 256 MiB gaussian2d, paper testbed)",
        "net_ticks_suppressed": counter("fabric", "net_ticks_suppressed"),
        "net_ticks_deduped": counter("fabric", "net_ticks_deduped"),
        "net_ticks_avoided": counter("fabric", "net_ticks_avoided"),
        "events_cancelled": metrics.events_cancelled,
        "fabric_fills": counter("fabric", "fills"),
        "fabric_churn_ops": counter("fabric", "churn_ops"),
        "fabric_flows_refilled": counter("fabric", "flows_refilled"),
        "fabric_flows_reused": counter("fabric", "flows_reused"),
        "cpu_share_fills": counter("cpu", "share_fills"),
        "cpu_share_churn_ops": counter("cpu", "share_churn_ops"),
    })
}

/// The paper driver run's dispatch profile plus its decision-round cost.
/// Counts are deterministic; the per-round microseconds are the fastest of
/// five profiled runs (one run's few thousand rounds take milliseconds, so
/// a single shot is at the mercy of the host).
fn profile_section() -> serde_json::Value {
    let runs: Vec<dosas::RunProfile> = (0..5)
        .map(|_| Driver::run_profiled(paper_cfg(), &paper_workload(), ExecMode::Serial).1)
        .collect();
    let best = runs
        .iter()
        .min_by(|a, b| {
            let us = |p: &dosas::RunProfile| p.decision_rounds.round_us();
            us(a).total_cmp(&us(b))
        })
        .expect("five runs");
    let r = best.decision_rounds;
    let rounds = serde_json::json!({
        "rounds": r.rounds,
        "rows": r.rows,
        "round_us": r.round_us(),
        "gather_us": r.per_round_us(r.gather_secs),
        "decide_us": r.per_round_us(r.decide_secs),
        "apply_us": r.per_round_us(r.apply_secs),
    });
    serde_json::json!({ "dispatch": best.dispatch, "decision_rounds": rounds })
}

fn main() {
    let out: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_simulator.json")
        });

    eprintln!("timing driver runs (paper + large + scale-up points)...");
    let driver_points = vec![
        driver_point(
            "64r1s",
            "64 ranks x 256 MiB gaussian2d, DOSAS scheme, paper testbed",
            paper_cfg(),
            paper_workload(),
        ),
        driver_point(
            "512r64s",
            "512 ranks x 32 MiB gaussian2d, DOSAS scheme, 64 compute + 64 storage nodes",
            bench::large_driver_cfg(),
            bench::large_driver_workload(),
        ),
        driver_point(
            "4096r256s",
            "4096 ranks x 8 MiB gaussian2d, DOSAS scheme, 256 compute + 256 storage nodes",
            bench::xl_driver_cfg(),
            bench::xl_driver_workload(),
        ),
    ];

    eprintln!("timing fabric_churn schedule (incremental vs full rescan)...");
    let churn_points: Vec<serde_json::Value> = fabric_churn::FLOW_POINTS
        .iter()
        .map(|&flows| {
            let full_secs = fabric_churn::churn_secs(flows, FillMode::FullRescan, 3);
            let inc_secs = fabric_churn::churn_secs(flows, FillMode::Incremental, 3);
            let c = fabric_churn::incremental_counters(flows);
            serde_json::json!({
                "flows": flows,
                "full_rescan_secs": full_secs,
                "incremental_secs": inc_secs,
                "speedup": full_secs / inc_secs,
                "churn_ops": c.churn_ops,
                "fills": c.fills,
                "flows_refilled": c.flows_refilled,
                "flows_reused": c.flows_reused,
                "fill_rounds": c.fill_rounds,
            })
        })
        .collect();

    eprintln!(
        "timing topology_churn fat-tree fills (1k + 10k hosts; the 10k full \
         rescan alone costs two global fills of ~108k flows)..."
    );
    let topology_points: Vec<serde_json::Value> = topology_churn::POINTS
        .iter()
        .map(|p| {
            // At the 10k-host point one full-rescan churn event already
            // pays two global fills of 108k flows; measure a single event
            // there (the full schedule would take tens of seconds for the
            // same per-event figure) and the usual one-tick burst elsewhere.
            let big = p.hosts() > 2048;
            let (full_ops, reps) = if big {
                (1, 1)
            } else {
                (topology_churn::OPS_PER_TICK, 3)
            };
            let inc = topology_churn::churn_event_secs(
                p,
                FillMode::Incremental,
                topology_churn::TICKS,
                topology_churn::OPS_PER_TICK,
                reps,
            );
            let full = topology_churn::churn_event_secs(p, FillMode::FullRescan, 1, full_ops, reps);
            let c = topology_churn::incremental_counters(p, topology_churn::TICKS);
            let ratio = full / inc;
            if p.hosts() >= 9000 {
                assert!(
                    ratio >= 20.0,
                    "acceptance: incremental fill must beat full rescan >= 20x \
                     on the 10k-host churn bench (got {ratio:.1}x)"
                );
            }
            eprintln!(
                "  topology k={} ({} hosts, {} flows): inc {:.6}s/event  \
                 full {:.4}s/event  ({ratio:.0}x)",
                p.k,
                p.hosts(),
                p.flows(),
                inc,
                full,
            );
            serde_json::json!({
                "k": p.k,
                "hosts": p.hosts(),
                "flows_in_flight": p.flows(),
                "incremental_fill_secs_per_churn_event": inc,
                "full_rescan_secs_per_churn_event": full,
                "incremental_vs_full_ratio": ratio,
                "full_rescan_events_measured": full_ops,
                "churn_ops": c.churn_ops,
                "fills": c.fills,
                "flows_refilled": c.flows_refilled,
                "flows_reused": c.flows_reused,
                "fill_rounds": c.fill_rounds,
            })
        })
        .collect();

    eprintln!("timing the multi-tenant scenario suite...");
    let scenario_points = scenario_section();

    eprintln!("running the policy arena (every policy x every scenario)...");
    let policy_cells = bench::policy_matrix::run_matrix();
    let policy_section = serde_json::json!({
        "policies": dosas::policy::PolicyConfig::all_names(),
        "cells": policy_cells,
    });

    eprintln!("counting stale-NetTick suppression on the standard workload...");
    let mut obs_cfg = paper_cfg();
    obs_cfg.obs = obs::ObsConfig::enabled();
    let obs_run = Driver::run(obs_cfg, &paper_workload());
    let incremental_fabric = incremental_fabric_section(&obs_run);

    eprintln!("profiling dispatch breakdown and decision rounds...");
    let profile = profile_section();

    let driver_section = serde_json::json!({ "points": driver_points });
    let churn_section = serde_json::json!({
        "schedule": format!(
            "{} ticks x {} same-tick replace ops over {} disjoint pairs, one completion query per tick",
            fabric_churn::TICKS,
            fabric_churn::OPS_PER_TICK,
            fabric_churn::PAIRS,
        ),
        "points": churn_points,
    });
    let topology_section = serde_json::json!({
        "schedule": format!(
            "{} ticks x {} same-tick intra-pod replace ops, one pod per tick, \
             one completion query per tick (full rescan measured on a reduced \
             schedule at the 10k-host point)",
            topology_churn::TICKS,
            topology_churn::OPS_PER_TICK,
        ),
        "points": topology_points,
    });
    let report = serde_json::json!({
        "schema": "dosas-bench-baseline/v9",
        "host_threads": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "driver": driver_section,
        "fabric_churn": churn_section,
        "topology": topology_section,
        "incremental_fabric": incremental_fabric,
        "scenarios": scenario_points,
        "policies": policy_section,
        // Per-subsystem event counts and handler wall time, plus the
        // decision-round cost (observational only: collecting it does not
        // change the event stream).
        "profile": profile,
    });
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');
    std::fs::write(&out, json).expect("write baseline");
    println!("wrote {}", out.display());
    for p in report["driver"]["points"].as_array().unwrap() {
        println!(
            "  driver {}: {:.4}s  ({:.0} ev/s)",
            p["label"].as_str().unwrap_or("?"),
            p["secs"].as_f64().unwrap_or(f64::NAN),
            p["events_per_sec"].as_f64().unwrap_or(f64::NAN),
        );
    }
    for p in report["fabric_churn"]["points"].as_array().unwrap() {
        println!(
            "  fabric_churn {:>4} flows: full {:.4}s  incremental {:.4}s  ({:.2}x)",
            p["flows"],
            p["full_rescan_secs"].as_f64().unwrap_or(f64::NAN),
            p["incremental_secs"].as_f64().unwrap_or(f64::NAN),
            p["speedup"].as_f64().unwrap_or(f64::NAN),
        );
    }
    for p in report["topology"]["points"].as_array().unwrap() {
        println!(
            "  topology k={} ({} hosts, {} flows): inc {:.6}s/event  full {:.4}s/event  ({:.0}x)",
            p["k"],
            p["hosts"],
            p["flows_in_flight"],
            p["incremental_fill_secs_per_churn_event"]
                .as_f64()
                .unwrap_or(f64::NAN),
            p["full_rescan_secs_per_churn_event"]
                .as_f64()
                .unwrap_or(f64::NAN),
            p["incremental_vs_full_ratio"].as_f64().unwrap_or(f64::NAN),
        );
    }
    println!(
        "  net_ticks_avoided on standard workload: {}",
        report["incremental_fabric"]["net_ticks_avoided"]
    );
    println!(
        "  policy arena: {} cells ({} policies x {} scenarios)",
        report["policies"]["cells"].as_array().unwrap().len(),
        report["policies"]["policies"].as_array().unwrap().len(),
        bench::scenarios::all().len(),
    );
}
