//! Output checks that hold for any seed, plus the stored reference for the
//! default seed.
//!
//! Simulated results are deterministic, so they serve as correctness
//! checks here, never as performance figures.

use crate::workloads::{Kind, Point};
use dosas_repro::dosas::{RunMetrics, Scheme};
use dosas_repro::mpiio::program::Op;

/// Relative tolerance of the floating-point identities (tenant shares,
/// autopsy additivity).
const REL_EPS: f64 = 1e-9;

/// What a correct run of one point must report, derived from its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// Application I/O calls issued (reads, active reads and writes).
    pub requests: usize,
    /// Bytes those calls request.
    pub bytes: u64,
    /// Calls the storage side must track as active I/O.
    pub active: u64,
    /// Upper bound on simulated makespan, when the workload has one.
    pub max_makespan_secs: Option<f64>,
}

impl Expect {
    pub fn of(point: &Point, kind: Kind) -> Expect {
        let ops = point.workload.programs.iter().flat_map(|p| &p.ops);
        let io = |op: &&Op| matches!(op, Op::Read { .. } | Op::ReadEx { .. } | Op::Write { .. });
        let active = match point.cfg.scheme {
            Scheme::Traditional => 0,
            _ => ops.clone().filter(|op| op.is_active_io()).count() as u64,
        };
        // Open-loop arrivals stop at the horizon; a run that ends far past
        // it has a growing backlog, i.e. the rate is not below capacity.
        let max_makespan_secs =
            (kind == Kind::OpenLoopObserved).then_some(crate::workloads::OPEN_HORIZON_S * 1.1);
        Expect {
            requests: ops.filter(io).count(),
            bytes: point.workload.total_request_bytes(),
            active,
            max_makespan_secs,
        }
    }
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Every violated invariant of `m` against `e`; empty when the run is
/// correct.
pub fn check(e: &Expect, m: &RunMetrics) -> Vec<String> {
    let mut bad = Vec::new();
    let mut fail = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };

    // Every request completes exactly once.
    let mut apps: Vec<u64> = m.records.iter().map(|r| r.app).collect();
    apps.sort_unstable();
    apps.dedup();
    fail(
        m.records.len() == e.requests && apps.len() == e.requests,
        format!(
            "{} records ({} distinct) for {} requests issued",
            m.records.len(),
            apps.len(),
            e.requests
        ),
    );
    let rt = &m.runtime;
    fail(
        rt.admitted == e.active,
        format!(
            "{} active admissions for {} active calls",
            rt.admitted, e.active
        ),
    );
    fail(
        rt.completed_active + rt.completed_normal + rt.completed_migrated == rt.admitted,
        format!("active completions do not add up to admissions: {rt:?}"),
    );
    fail(
        rt.completed_normal == rt.demoted + rt.checkpoint_failures
            && rt.completed_migrated + rt.checkpoint_failures == rt.interrupted + rt.split,
        format!("demotions/migrations do not match completions: {rt:?}"),
    );

    // Bytes delivered match bytes requested.
    let delivered: f64 = m.records.iter().map(|r| r.bytes).sum();
    fail(
        delivered == e.bytes as f64 && m.total_requested_bytes == e.bytes as f64,
        format!(
            "{delivered} bytes delivered, {} reported, {} requested",
            m.total_requested_bytes, e.bytes
        ),
    );

    // Time is sane and every record lies inside the run.
    fail(
        m.makespan_secs.is_finite() && m.makespan_secs > 0.0,
        format!("makespan {}", m.makespan_secs),
    );
    fail(
        m.records.iter().all(|r| {
            r.issued_at <= r.completed_at && r.completed_at.as_secs_f64() <= m.makespan_secs
        }),
        "a record completes before it is issued or after the run".into(),
    );
    if let Some(max) = e.max_makespan_secs {
        fail(
            m.makespan_secs <= max,
            format!("makespan {} exceeds {max}: backlog grew", m.makespan_secs),
        );
    }
    fail(
        m.events_scheduled == m.events + m.events_cancelled,
        format!(
            "event residue: {} scheduled, {} dispatched, {} cancelled",
            m.events_scheduled, m.events, m.events_cancelled
        ),
    );

    // Per-tenant shares sum to the aggregate.
    if let Some(t) = &m.tenants {
        let reqs: u64 = t.per_tenant.iter().map(|s| s.requests).sum();
        let bytes: f64 = t.per_tenant.iter().map(|s| s.bytes).sum();
        let bw: f64 = t.per_tenant.iter().map(|s| s.achieved_bandwidth).sum();
        fail(
            reqs as usize == m.records.len()
                && bytes == delivered
                && close(bw, m.achieved_bandwidth, REL_EPS),
            format!(
                "tenant shares ({reqs} req, {bytes} B, {bw} B/s) differ from the aggregate \
                 ({} req, {delivered} B, {} B/s)",
                m.records.len(),
                m.achieved_bandwidth
            ),
        );
    }

    // Autopsy: waits plus services equal each request's latency.
    if let Some(a) = &m.autopsy {
        fail(
            a.requests.len() == m.records.len(),
            format!(
                "{} autopsies for {} records",
                a.requests.len(),
                m.records.len()
            ),
        );
        let broken = a
            .requests
            .iter()
            .filter(|r| !close(r.wait_secs() + r.service_secs(), r.latency_secs(), REL_EPS))
            .count();
        fail(
            broken == 0,
            format!("{broken} autopsies whose wait + service differs from the latency"),
        );
    }
    bad
}

/// The simulated part of `m` as text: everything but the observability,
/// autopsy and profiling attachments, which a traced run adds.
pub fn simulated(m: &RunMetrics) -> String {
    let mut m = m.clone();
    m.obs = None;
    m.autopsy = None;
    serde_json::to_string(&m).expect("RunMetrics serializes")
}

/// Deterministic outcome of one pass over a workload's points, compared
/// against [`REFERENCE`] at the default seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub makespan_secs: f64,
    pub requests: u64,
    pub bytes: f64,
    pub admitted: u64,
    pub demoted: u64,
    pub interrupted: u64,
    pub completed_active: u64,
}

impl Summary {
    pub fn add(&mut self, m: &RunMetrics) {
        self.makespan_secs += m.makespan_secs;
        self.requests += m.records.len() as u64;
        self.bytes += m.total_requested_bytes;
        self.admitted += m.runtime.admitted;
        self.demoted += m.runtime.demoted;
        self.interrupted += m.runtime.interrupted;
        self.completed_active += m.runtime.completed_active;
    }

    pub const ZERO: Summary = Summary {
        makespan_secs: 0.0,
        requests: 0,
        bytes: 0.0,
        admitted: 0,
        demoted: 0,
        interrupted: 0,
        completed_active: 0,
    };
}

/// The seed whose outcome is pinned in [`REFERENCE`].
pub const DEFAULT_SEED: u64 = 1;

/// Relative tolerance of the reference makespan: loose enough for a change
/// that reorders floating-point operations, tight enough to catch a
/// changed schedule.
pub const REF_MAKESPAN_REL: f64 = 1e-3;

/// Relative tolerance of the reference policy counts (demotions and
/// interruptions can flip on a reordered floating-point tie).
pub const REF_COUNT_REL: f64 = 1e-2;

/// Outcomes of the default seed, recorded when the benchmark was defined
/// (`--reference` prints a workload's entry).
pub const REFERENCE: &[(&str, Summary)] = &[
    (
        "xl-closed",
        Summary {
            makespan_secs: 3.809109389,
            requests: 16384,
            bytes: 137438953472.0,
            admitted: 16384,
            demoted: 8506,
            interrupted: 5790,
            completed_active: 2088,
        },
    ),
    (
        "paper-sweep",
        Summary {
            makespan_secs: 76015.94027499598,
            requests: 24384,
            bytes: 12272869048320.0,
            admitted: 18288,
            demoted: 3552,
            interrupted: 0,
            completed_active: 8688,
        },
    ),
    (
        "open-loop-observed",
        Summary {
            makespan_secs: 498.674180798,
            requests: 60000,
            bytes: 211850497648.0,
            admitted: 45062,
            demoted: 8,
            interrupted: 10,
            completed_active: 45044,
        },
    ),
    (
        "fat-tree-churn",
        Summary {
            makespan_secs: 0.43392231,
            requests: 2048,
            bytes: 12884901888.0,
            admitted: 1024,
            demoted: 0,
            interrupted: 0,
            completed_active: 1024,
        },
    ),
];

/// Differences between `got` and the stored reference of `kind`.
pub fn check_reference(kind: Kind, got: &Summary) -> Vec<String> {
    let Some((_, want)) = REFERENCE.iter().find(|(n, _)| *n == kind.name()) else {
        return vec![format!("no reference stored for {}", kind.name())];
    };
    let mut bad = Vec::new();
    if got.requests != want.requests || got.bytes != want.bytes {
        bad.push(format!(
            "requests/bytes {}/{} differ from reference {}/{}",
            got.requests, got.bytes, want.requests, want.bytes
        ));
    }
    if !close(got.makespan_secs, want.makespan_secs, REF_MAKESPAN_REL) {
        bad.push(format!(
            "makespan {} differs from reference {}",
            got.makespan_secs, want.makespan_secs
        ));
    }
    let counts = [
        ("admitted", got.admitted, want.admitted),
        ("demoted", got.demoted, want.demoted),
        ("interrupted", got.interrupted, want.interrupted),
        (
            "completed_active",
            got.completed_active,
            want.completed_active,
        ),
    ];
    for (name, g, w) in counts {
        if g.abs_diff(w) as f64 > (REF_COUNT_REL * w as f64).max(1.0) {
            bad.push(format!("{name} {g} differs from reference {w}"));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::generate;
    use dosas_repro::dosas::{Driver, ExecMode};

    fn small_run() -> (Expect, RunMetrics) {
        // The first DOSAS point of the sweep that demotes: n = 8 Gaussians.
        let points = generate(Kind::PaperSweep, 3);
        let p = points
            .iter()
            .find(|p| matches!(p.cfg.scheme, Scheme::Dosas(_)) && p.workload.rank_count() == 8)
            .expect("sweep has a DOSAS n=8 point");
        let m = Driver::run_with(p.cfg.clone(), &p.workload, ExecMode::Serial);
        (Expect::of(p, Kind::PaperSweep), m)
    }

    #[test]
    fn correct_run_passes() {
        let (e, m) = small_run();
        assert_eq!(check(&e, &m), Vec::<String>::new());
    }

    #[test]
    fn dropped_record_is_rejected() {
        let (e, mut m) = small_run();
        m.records.pop();
        assert!(!check(&e, &m).is_empty());
    }

    #[test]
    fn duplicated_record_is_rejected() {
        let (e, mut m) = small_run();
        let last = m.records.last().cloned().expect("records");
        m.records[0] = last;
        assert!(!check(&e, &m).is_empty());
    }

    #[test]
    fn changed_byte_count_is_rejected() {
        let (e, mut m) = small_run();
        m.records[0].bytes += 1.0;
        assert!(!check(&e, &m).is_empty());
    }

    #[test]
    fn lost_active_completion_is_rejected() {
        let (e, mut m) = small_run();
        m.runtime.completed_active += 1;
        assert!(!check(&e, &m).is_empty());
    }

    #[test]
    fn open_loop_checks_cover_tenants_and_autopsy() {
        let mut p = generate(Kind::OpenLoopObserved, 2).remove(0);
        // A short slice of the arrival stream keeps the test quick.
        p.workload.programs.truncate(200);
        p.workload.tenants.truncate(200);
        let m = Driver::run_with(p.cfg.clone(), &p.workload, ExecMode::Serial);
        let e = Expect::of(&p, Kind::OpenLoopObserved);
        assert_eq!(check(&e, &m), Vec::<String>::new());
        assert!(m.tenants.is_some() && m.autopsy.is_some());

        let mut skewed = m.clone();
        let t = skewed.tenants.as_mut().expect("tenanted");
        t.per_tenant[0].achieved_bandwidth *= 1.01;
        assert!(!check(&e, &skewed).is_empty());

        let mut torn = m.clone();
        let a = torn.autopsy.as_mut().expect("autopsy on");
        a.requests[0].hops[0].wait_secs += 1e-3;
        assert!(!check(&e, &torn).is_empty());
    }

    #[test]
    fn simulated_text_ignores_attachments_only() {
        let (_, m) = small_run();
        let mut other = m.clone();
        other.autopsy = None;
        assert_eq!(simulated(&m), simulated(&other));
        other.makespan_secs += 1e-12;
        assert_ne!(simulated(&m), simulated(&other));
    }

    #[test]
    fn reference_tolerates_fp_noise_but_not_lost_work() {
        for (name, want) in REFERENCE {
            let kind = Kind::parse(name).expect("reference names a workload");
            let mut got = *want;
            got.makespan_secs *= 1.0 + 1e-9;
            assert!(check_reference(kind, &got).is_empty(), "{name}");
            got.requests -= 1;
            assert!(!check_reference(kind, &got).is_empty(), "{name}");
        }
    }
}
