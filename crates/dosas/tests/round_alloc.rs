//! A warm decision round allocates nothing.
//!
//! The round's pieces — refilling the lent snapshot from a runtime's
//! plannable-row index, the CE deciding into a reused output (binary and
//! split), and the runtime applying the decisions into a reused action
//! buffer — run against a counting global allocator. The first rounds may
//! grow the buffers; once every buffer has reached the queue's size, a
//! round must not allocate at all.

use cluster::NodeId;
use dosas::policy::{
    CePolicy, ContentionPolicy, PolicyContext, PolicyInput, PolicyOutput, ReqMeta,
};
use dosas::runtime::{ActiveIoRuntime, PlanRow, RequestInfo};
use dosas::{OpRates, PolicyTelemetry, SolverKind};
use pfs::{QueueSnapshot, RequestId};
use simkit::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (test threads run side by side).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Everything a round reuses, as the driver keeps it.
struct Round {
    queue: QueueSnapshot,
    meta: Vec<ReqMeta>,
    out: PolicyOutput,
    actions: Vec<dosas::runtime::RuntimeAction>,
    telemetry: PolicyTelemetry,
}

impl Round {
    fn run(&mut self, policy: &mut dyn ContentionPolicy, rt: &mut ActiveIoRuntime, t: f64) {
        let now = SimTime::from_secs_f64(t);
        let rows = rt.plannable();
        self.queue
            .refill(now, rows.iter().map(PlanRow::snapshot_row));
        self.meta.clear();
        self.meta.extend(rows.iter().map(|r| ReqMeta {
            rank: r.rank,
            tenant: r.tenant,
        }));
        self.out.reset(now);
        let input = PolicyInput {
            server: NodeId(8),
            now,
            queue: &self.queue,
            meta: &self.meta,
            bandwidth_estimate: Some(100.0 * MIB),
            telemetry: &self.telemetry,
        };
        policy.decide(&input, &mut self.out);
        if let Some(p) = &self.out.offload {
            rt.plan_splits(&p.fractions);
            rt.apply_policy(p, true, &mut self.actions);
        }
        self.actions.clear();
    }
}

fn warm_rounds_allocate_nothing(partial_offload: bool) {
    let rates = OpRates::paper();
    let ops = [rates.id("gaussian2d"), rates.id("sum"), None];
    let mut policy = CePolicy::new(
        SolverKind::Threshold,
        &PolicyContext {
            rates: &rates,
            kernel_cores: 2.0,
            client_cores: 1.0,
            nominal_bw: 118.0 * MIB,
            memory_capacity: 4096.0 * MIB,
            partial_offload,
            slos: &[],
            rank_tenants: &[],
        },
    );
    // 20 queued requests: gaussians, sums and plain reads, some running.
    let mut rt = ActiveIoRuntime::new();
    for i in 0..20u64 {
        let id = RequestId(i);
        let op = ops[i as usize % 3];
        rt.track(id, op.is_some());
        rt.on_arrival(
            id,
            RequestInfo {
                op,
                bytes: (64 + 32 * (i % 5)) as f64 * MIB,
                rank: i as usize,
                tenant: None,
            },
        );
        if i % 4 == 0 {
            rt.on_disk_done(id);
        }
    }
    let mut round = Round {
        queue: QueueSnapshot::default(),
        meta: Vec::new(),
        out: PolicyOutput::default(),
        actions: Vec::new(),
        telemetry: PolicyTelemetry::default(),
    };
    // Warm-up: the buffers grow (which the counter must see) and any
    // demotions happen.
    let start = allocations();
    for t in 0..4 {
        round.run(&mut policy, &mut rt, t as f64);
    }
    assert!(allocations() > start, "the counter sees the buffers grow");
    let before = allocations();
    for t in 4..54 {
        round.run(&mut policy, &mut rt, t as f64);
    }
    assert_eq!(allocations() - before, 0, "50 warm rounds allocated");
    assert!(
        round
            .out
            .offload
            .as_ref()
            .is_some_and(|p| !p.decisions.is_empty()),
        "the measured rounds decide something"
    );
}

#[test]
fn warm_binary_rounds_allocate_nothing() {
    warm_rounds_allocate_nothing(false);
}

#[test]
fn warm_split_rounds_allocate_nothing() {
    warm_rounds_allocate_nothing(true);
}
