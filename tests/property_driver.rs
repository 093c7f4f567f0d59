//! Property tests on the end-to-end driver: arbitrary workloads must
//! complete, conserve request accounting, and behave deterministically —
//! under every scheme.

use dosas_repro::prelude::*;
use mpiio::program::RankProgram;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct WorkloadSpec {
    storage_nodes: usize,
    requests: Vec<(u8, u64, u16)>, // (op selector, size MB 1..=64, delay ms)
    scheme_sel: u8,
    seed: u64,
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1usize..=3,
        proptest::collection::vec((0u8..3, 1u64..=64, 0u16..500), 1..=10),
        0u8..4,
        0u64..1000,
    )
        .prop_map(|(storage_nodes, requests, scheme_sel, seed)| WorkloadSpec {
            storage_nodes,
            requests,
            scheme_sel,
            seed,
        })
}

fn op_name(sel: u8) -> &'static str {
    match sel % 3 {
        0 => "sum",
        1 => "gaussian2d",
        _ => "stats",
    }
}

fn params(op: &str) -> KernelParams {
    if op == "gaussian2d" {
        KernelParams::with_width(1024)
    } else {
        KernelParams::default()
    }
}

fn scheme(sel: u8) -> Scheme {
    match sel % 4 {
        0 => Scheme::Traditional,
        1 => Scheme::ActiveStorage,
        2 => Scheme::dosas_default(),
        _ => Scheme::dosas_partial(),
    }
}

fn build(spec: &WorkloadSpec) -> (DriverConfig, Workload) {
    use dosas::workload::{FileSpec, LayoutSpec};
    let files: Vec<FileSpec> = (0..spec.storage_nodes)
        .map(|s| FileSpec {
            path: format!("/f{s}"),
            bytes: 64 << 20,
            layout: LayoutSpec::OneServer(s),
            content: None,
        })
        .collect();
    let programs = spec
        .requests
        .iter()
        .enumerate()
        .map(|(i, &(op_sel, mb, delay_ms))| {
            let op = op_name(op_sel);
            let mut p = RankProgram::single_read_ex(
                &files[i % spec.storage_nodes].path,
                mb << 20,
                op,
                params(op),
            );
            if delay_ms > 0 {
                p.ops.insert(
                    0,
                    Op::Compute {
                        span: SimSpan::from_millis(delay_ms as u64),
                    },
                );
            }
            p
        })
        .collect();
    let workload = Workload {
        files,
        programs,
        tenants: vec![],
    };
    let mut cfg = DriverConfig::paper(scheme(spec.scheme_sel));
    cfg.cluster.storage_nodes = spec.storage_nodes;
    cfg.seed = spec.seed;
    (cfg, workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every random workload drains: all requests complete, accounting
    /// balances, the makespan covers every record.
    #[test]
    fn random_workloads_complete_and_balance(spec in arb_spec()) {
        let (cfg, workload) = build(&spec);
        let n = workload.rank_count() as u64;
        let m = Driver::run(cfg, &workload);

        prop_assert_eq!(m.records.len() as u64, n);
        let done = m.runtime.completed_active
            + m.runtime.completed_normal
            + m.runtime.completed_migrated;
        if matches!(scheme(spec.scheme_sel), Scheme::Traditional) {
            // Under TS the enhanced call degrades to a plain read: the
            // active-storage runtime never sees an active request.
            prop_assert_eq!(m.runtime.admitted, 0);
            prop_assert_eq!(done, 0);
        } else {
            prop_assert_eq!(done, n, "every active request ends in exactly one bucket");
            prop_assert_eq!(m.runtime.admitted, n);
        }
        prop_assert!(m.runtime.demoted + m.runtime.interrupted + m.runtime.split
            <= 3 * n, "bounded control actions");

        let makespan = m.makespan_secs;
        prop_assert!(makespan > 0.0);
        for r in &m.records {
            prop_assert!(r.completed_at.as_secs_f64() <= makespan + 1e-9);
            prop_assert!(r.issued_at <= r.completed_at);
        }
        prop_assert!(
            (m.achieved_bandwidth - m.total_requested_bytes / makespan).abs()
                < 1e-6 * m.achieved_bandwidth.max(1.0)
        );
    }

    /// Same spec, same seed ⇒ bit-identical makespan; DOSAS never beats the
    /// physically-required lower bounds.
    #[test]
    fn runs_are_deterministic_and_physical(spec in arb_spec()) {
        let (cfg, workload) = build(&spec);
        let a = Driver::run(cfg.clone(), &workload);
        let b = Driver::run(cfg, &workload);
        prop_assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        prop_assert_eq!(a.events, b.events);

        // Physical floor: no run can finish before the largest single
        // request could possibly be served by an idle system (its disk
        // read alone).
        let max_bytes = spec.requests.iter().map(|&(_, mb, _)| mb << 20).max().unwrap();
        let disk_floor = max_bytes as f64 / (1000.0 * 1024.0 * 1024.0);
        prop_assert!(
            a.makespan_secs >= disk_floor,
            "makespan {} below disk floor {}",
            a.makespan_secs,
            disk_floor
        );
    }
}

/// Discfarm's storage node (8 compute nodes come first).
const STORAGE_NODE: usize = 8;

/// A contended run that stacks the order-sensitive machinery: DOSAS
/// demote/interrupt decisions, per-flow bandwidth jitter, CPU jitter RNG
/// draws, and a mid-run storage-node CPU fault window.
fn contended_run(seed: u64) -> RunMetrics {
    let mut cfg = DriverConfig::paper(Scheme::dosas_default());
    cfg.seed = seed;
    cfg.fault_plan = FaultPlan::new().inject(
        STORAGE_NODE,
        FaultKind::CpuSlowdown { factor: 0.4 },
        SimTime::from_secs_f64(1.0),
        SimSpan::from_secs_f64(2.0),
    );
    let workload =
        Workload::uniform_active(6, 1, 48 << 20, "gaussian2d", KernelParams::with_width(1024));
    Driver::run(cfg, &workload)
}

/// Scheduled-vs-dispatched accounting: a run-to-drain simulation dispatches
/// every event it ever scheduled except the stale `NetTick`s the incremental
/// fabric revoked before they could fire.
#[test]
fn run_to_drain_dispatches_every_scheduled_event() {
    let metrics = contended_run(3);
    assert_eq!(
        metrics.events_scheduled,
        metrics.events + metrics.events_cancelled,
        "drained run should leave no pending events"
    );
    assert!(metrics.events > 0);
    assert!(
        metrics.events_cancelled > 0,
        "a contended workload must supersede at least one NetTick"
    );
}

/// Different seeds produce different runs: the determinism checks above are
/// not vacuous, because jitter is on and actually consumed.
#[test]
fn runs_distinguish_seeds() {
    let json = |seed| serde_json::to_string(&contended_run(seed)).expect("RunMetrics serializes");
    assert_ne!(json(7), json(8), "seeds 7 and 8 produced identical metrics");
}

/// A cluster the fabric cannot wire is a one-line configuration error with
/// exit status 2, not a panic: 16 ranks on each of 512 storage nodes need
/// 1024 compute nodes, more hosts than a k = 16 fat-tree holds.
#[test]
fn dosas_sim_reports_an_unbuildable_cluster_with_exit_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dosas-sim"))
        .args([
            "--topology",
            "fat-tree:16",
            "--storage-nodes",
            "512",
            "--n",
            "16",
        ])
        .output()
        .expect("dosas-sim runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "one line of error: {stderr}");
    assert!(
        stderr.starts_with("error: invalid cluster config: "),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing printed before the error");
}

/// A workload naming an op the rate table lacks is a one-line
/// configuration error with exit status 2, found before the run starts —
/// not a panic inside it.
#[test]
fn dosas_sim_reports_an_unknown_op_with_exit_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dosas-sim"))
        .args(["--op", "nonsense", "--n", "2", "--size-mb", "8"])
        .output()
        .expect("dosas-sim runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "one line of error: {stderr}");
    assert!(
        stderr.starts_with("error: unknown op \"nonsense\": no rate configured (known: "),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing printed before the error");
}
