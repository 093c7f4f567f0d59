//! Multi-hop network fabric with global max-min fair bandwidth sharing.
//!
//! The fabric is a graph of capacity-weighted links described by a
//! [`Topology`]: every host owns a full-duplex access pair (tx link `2n`,
//! rx link `2n + 1`), and tree / fat-tree topologies add interior links
//! with ids `≥ 2·hosts`. A flow from `src` to `dst` follows its
//! deterministic multi-hop route — `[tx(src), interior…, rx(dst)]`, plus
//! the star's switch core when that is capped — and consumes capacity on
//! every link of the route. Rates are assigned by **progressive filling**
//! over the route link sets: all unfrozen flows grow at the same rate until
//! a link (or a per-flow cap) saturates, the flows it constrains freeze,
//! and the rest keep growing. This converges to the unique max-min fair
//! allocation. With the star topology this reduces bit-for-bit to the
//! original per-node-uplink fill.
//!
//! Per-flow rate caps model end-to-end bandwidth variability: the paper
//! measured its GigE at 118 MB/s nominal but 111–120 MB/s in practice; the
//! fabric draws each flow's cap from that range when jitter is configured.
//!
//! # Incremental recomputation
//!
//! Filling is *lazy and incremental*. Mutators (flow churn, link
//! degradation) only mark the allocation dirty and record which links were
//! touched; the actual water-filling pass runs when rates are next observed
//! or when simulated time moves forward, so N same-timestamp churn
//! operations cost one pass. The pass itself is restricted to the connected
//! components (flows transitively coupled through shared links) that contain
//! a dirty link — flows in untouched components keep their previous rates,
//! which is exact because progressive filling is separable per component.
//! A debug assertion cross-checks every incremental fill against a
//! from-scratch fill of all components by the round-by-round reference
//! fill.
//!
//! The fill itself costs what its component costs. It maps the component's
//! route links to compact local slots (nothing per fill is sized by the
//! topology), and after the first round it touches only what a round's
//! freezes changed: the counts and residuals of the links those flows
//! used, a min-queue of per-link shares for the growth limit and the
//! binding links, and a cap-sorted cursor for the cap-bound flows. Every
//! floating-point operation matches the round-by-round reference, so the
//! rates are bit-identical to it.
//!
//! **Flow table.** Flows live in a slab addressed by slot. A flow's cold fields
//! (endpoints, size, caps, route, heap generation) sit in one
//! `Option<Flow>` per slot; the two fields every time step touches,
//! bytes left and current rate, sit in two dense `f64` arrays. A vacant
//! slot reads `0.0` in both, so [`Fabric::advance`] is one branch-free pass
//! over two contiguous arrays that leaves vacant slots at `0.0`. Vacant
//! slots are reused lowest first, so the slab is as long as the peak
//! number of flows in flight. Everything inside a fill (the link index,
//! the dirty-component walk, gathering caps and routes, writing rates
//! back, the completion heap) addresses flows by slot; an ordered
//! `FlowId` → slot map serves only the public per-flow entry points and
//! the ascending-`FlowId` full scans. Fills still see their flows in
//! ascending `FlowId` order and completions are reported in it, so the
//! slab changes no result.
//!
//! The fabric keeps a persistent **link → flows index**: an ordered set of
//! `(link id, flow id, the flow's first link, its slot)` entries, one per
//! link of every live flow's route, so each link's flows form one range in
//! ascending `FlowId` order. A flow's entries are inserted when it starts
//! and removed when it completes or is cancelled. An ordered set keeps the
//! index's memory proportional to the flows in flight; one list per link
//! would cost memory per link (a k = 16 fat-tree has 6k). A fill finds the
//! dirty components by a depth-first walk from the dirty links over this
//! index, so its cost is proportional to the flows it refills, not to all
//! flows in flight. The same index answers per-node queries
//! ([`Fabric::tx_observation`], [`Fabric::tx_utilization`],
//! [`Fabric::rx_utilization`]) from the node's access link alone.
//!
//! Completion queries are O(log n): each fill pushes projected completion
//! times into a min-heap of `(time, generation, slot)` entries; entries
//! superseded by a newer fill or orphaned by flow removal are lazily
//! discarded at the heap top. Generations are unique, so the slot never
//! decides the order, and an entry whose slot was vacated or reused never
//! matches the slot's current generation. [`Fabric::take_completed`]
//! harvests its candidates from the same heap (the live entries due within
//! 2 ns of `now`) instead of scanning every flow.
//!
//! [`FillMode::FullRescan`] disables all of this (eager per-mutation global
//! fills and linear-scan completion queries and harvests, the
//! pre-incremental behavior; the index is still kept)
//! so benchmarks can compare against the old cost model.
//!
//! Like the other resources, the fabric is driven by the simulation loop via
//! `next_completion` + `epoch`.

use crate::node::NodeId;
use crate::topology::Topology;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use simkit::{SimSpan, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Identifies a flow within the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// A flow's cold fields; its hot progress state (`remaining`, `rate`)
/// lives in the [`Fabric`]'s dense per-slot arrays.
#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    total: f64,
    cap: f64,
    /// Externally imposed rate ceiling (bytes/second), `f64::INFINITY`
    /// when uncapped. Set by contention-control policies via
    /// [`Fabric::set_flow_cap`]; composes with the jitter-sampled
    /// connection `cap` by taking the minimum.
    policy_cap: f64,
    /// Generation of this flow's live heap entry (`u64::MAX` = none).
    gen: u64,
    /// The deterministic route: every link id this flow occupies, computed
    /// once at [`Fabric::start_flow`]. Always `[tx(src), …, rx(dst)]`
    /// (with the star's capped switch core appended); links are distinct.
    route: Vec<u32>,
}

impl Flow {
    /// The binding per-flow ceiling: connection cap ∧ policy cap.
    fn eff_cap(&self) -> f64 {
        self.cap.min(self.policy_cap)
    }
}

/// A finished transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowCompletion {
    pub id: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    pub bytes: f64,
}

/// A flow cancelled mid-transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CancelledFlow {
    pub remaining_bytes: f64,
    pub progress: f64,
}

/// How the fabric recomputes rates after churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillMode {
    /// Coalesce same-timestamp churn into one pass and refill only the
    /// connected components containing a dirtied link.
    #[default]
    Incremental,
    /// Pre-incremental behavior: every mutation immediately re-derives every
    /// flow's rate from scratch, and completion queries scan linearly.
    /// Kept for benchmarking the incremental path against its baseline.
    FullRescan,
}

/// Cumulative churn/fill counters (see [`Fabric::fill_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFillCounters {
    /// Mutations that invalidated the allocation.
    pub churn_ops: u64,
    /// Water-filling passes actually executed; `churn_ops - fills` passes
    /// were avoided by same-timestamp coalescing.
    pub fills: u64,
    /// Flows whose rate was re-derived across all passes.
    pub flows_refilled: u64,
    /// Flows whose previous rate was reused because their component was
    /// untouched.
    pub flows_reused: u64,
    /// Progressive-fill rounds (grow → freeze steps) run, summed over all
    /// passes: the fill's deterministic work count.
    pub fill_rounds: u64,
}

/// Reusable buffers of [`Fabric::fill_subset`]. A fill addresses its flows
/// by *local index* (position in the ascending id list) and the links their
/// routes use by *local slot* (position in the ascending list of those
/// links), so every buffer is sized by the refilled component, never by
/// the topology. Only `slot` spans every link id; it holds `u32::MAX`
/// outside a fill.
#[derive(Debug, Clone, Default)]
struct FillScratch {
    /// Global link id → local slot (`u32::MAX` = not in this fill).
    slot: Vec<u32>,
    /// Local slot → global link id, ascending.
    links: Vec<u32>,
    /// Per flow: effective cap, assigned rate, frozen flag.
    caps: Vec<f64>,
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// Flow `i`'s route as local slots: `route[route_at[i]..route_at[i + 1]]`.
    route_at: Vec<u32>,
    route: Vec<u32>,
    /// Per link: effective capacity, residual, unfrozen members.
    eff: Vec<f64>,
    res: Vec<f64>,
    cnt: Vec<u32>,
    /// Link `l`'s member flows, ascending:
    /// `members[member_at[l]..member_at[l + 1]]`.
    member_at: Vec<u32>,
    members: Vec<u32>,
    /// Flows unfrozen after the first round, ascending by cap; flows before
    /// `cap_cursor` are all frozen.
    by_cap: Vec<u32>,
    cap_cursor: usize,
    /// Flows frozen in the current round.
    newly: Vec<u32>,
    /// Links whose member set lost a flow this round.
    touched: Vec<u32>,
    /// Min-queue of link shares `(res⁺ / cnt bits, link, keyed round)`,
    /// used from the second round on; an entry is live while its link
    /// has unfrozen members and `keyed_in[link]` still names its round.
    heap: BinaryHeap<Reverse<(u64, u32, u64)>>,
    keyed_in: Vec<u64>,
    /// Queue entries popped for a look and put back.
    held: Vec<(u64, u32, u64)>,
}

/// The cluster interconnect.
#[derive(Debug, Clone)]
pub struct Fabric {
    topo: Topology,
    /// Sampled capacity of every link. Host access links (tx `2n`,
    /// rx `2n + 1`) draw from the jitter range; interior links carry
    /// `link_bw × scale`, unjittered (aggregation trunking averages out
    /// per-cable variation).
    link_capacity: Vec<f64>,
    // Per-node degradation in [0, 1] (injected faults); scales both
    // directions of the node's access link. Base capacities stay untouched
    // so recovery restores the exact sampled bandwidth.
    link_factor: Vec<f64>,
    // Cluster membership: an offline node's links carry nothing (elastic
    // leave/join). Kept separate from `link_factor` so a fault-degraded
    // factor survives a leave/rejoin cycle unchanged.
    online: Vec<bool>,
    switch_capacity: Option<f64>,
    /// Link id of the star's aggregate switch core; `Some` only when the
    /// topology is a star *and* the switch is capped (an uncapped core
    /// constrains nothing, so it never appears on routes).
    switch_slot: Option<usize>,
    latency: SimSpan,
    jitter: Option<(f64, f64)>,
    rng: ChaCha8Rng,
    /// The flow table, a slab: slot `s` holds a live flow's cold fields
    /// (`None` = vacant).
    flows: Vec<Option<Flow>>,
    /// Per slot: bytes left and current rate, dense so `advance` is one
    /// pass over two contiguous arrays. Vacant slots hold `0.0` in both,
    /// which that pass leaves at `0.0`.
    remaining: Vec<f64>,
    rate: Vec<f64>,
    /// Vacant slots, lowest first: the slab is as long as the peak number
    /// of flows in flight, never the number of flows ever started.
    free: BinaryHeap<Reverse<u32>>,
    /// `FlowId` → slot of every live flow: the public entry points' lookup
    /// and the ascending-`FlowId` order of full scans.
    slot_of: BTreeMap<FlowId, u32>,
    last_update: SimTime,
    epoch: u64,
    next_id: u64,
    bytes_delivered: f64,
    /// True when a mutation has invalidated `rate` fields and the heap.
    dirty: bool,
    /// Link ids touched since the last fill (tx n → 2n, rx n → 2n+1,
    /// interior/switch ≥ 2·hosts), possibly repeated. Bounds the
    /// incremental pass to their components.
    dirty_links: Vec<usize>,
    /// Link → flows index: `(link id, flow, the flow's first link, its
    /// slot)` for every link of every live flow's route, so a link's flows
    /// are one contiguous range, ascending by `FlowId`. Its size follows
    /// the flows in flight, not the topology.
    link_flows: BTreeSet<(u32, FlowId, u32, u32)>,
    /// Per-link visit stamp of the dirty-component walk: a link has been
    /// reached in the current walk iff its stamp equals `walk`. Allocated
    /// by the first walk (a fabric that never fills never pays for it),
    /// with one spare slot past the topology's links for the star's switch
    /// core id `2·hosts`.
    link_seen: Vec<u64>,
    walk: u64,
    /// The fill's reusable buffers, allocated by the first fill: a fabric
    /// that never fills (or waits among many built worlds) pays one word.
    fill: Option<Box<FillScratch>>,
    /// Min-heap of projected completions `(done_at, generation, slot)`.
    /// `done_at` is invariant under [`advance`](Fabric::advance) at constant
    /// rates, so entries stay valid until a fill supersedes them. An entry
    /// is live while its slot's flow carries its generation; generations
    /// are unique, so the slot never decides the order and a vacated or
    /// reused slot never matches a stale entry.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    next_gen: u64,
    fill_mode: FillMode,
    counters: NetFillCounters,
}

impl Fabric {
    /// A star fabric for `nodes` nodes with per-link bandwidth `link_bw`
    /// (bytes/second, each direction). Equivalent to
    /// [`Fabric::with_topology`] over [`Topology::star`].
    pub fn new(
        nodes: usize,
        link_bw: f64,
        switch_capacity: Option<f64>,
        latency: SimSpan,
        jitter: Option<(f64, f64)>,
        rng: ChaCha8Rng,
    ) -> Self {
        Self::with_topology(
            Topology::star(nodes),
            link_bw,
            switch_capacity,
            latency,
            jitter,
            rng,
        )
    }

    /// A fabric wired by `topo`, with host access-link bandwidth `link_bw`
    /// (bytes/second, each direction). Interior links carry `link_bw`
    /// scaled by the topology's per-link capacity weights.
    pub fn with_topology(
        topo: Topology,
        link_bw: f64,
        switch_capacity: Option<f64>,
        latency: SimSpan,
        jitter: Option<(f64, f64)>,
        mut rng: ChaCha8Rng,
    ) -> Self {
        let hosts = topo.hosts();
        assert!(hosts > 0);
        assert!(link_bw.is_finite() && link_bw > 0.0);
        assert!(
            switch_capacity.is_none() || topo.spec().is_star(),
            "switch_bandwidth models the star's aggregate core; \
             tree/fat-tree capacity lives on interior links"
        );
        // The paper measured its nominal-118 MB/s GigE at 111–120 MB/s
        // "depending on the system and network environment": the variation
        // affects the shared path, not just individual connections. Model
        // it by sampling every host link's capacity from the jitter range
        // once per run (per-flow caps below add connection-level
        // variation). Draw order — all tx, then all rx — is byte-identical
        // to the original star fabric, keeping every golden stable.
        let sample_link = |rng: &mut ChaCha8Rng| match jitter {
            Some((lo, hi)) => rng.random_range(lo..=hi),
            None => link_bw,
        };
        let mut link_capacity = vec![0.0; topo.num_links()];
        for n in 0..hosts {
            link_capacity[2 * n] = sample_link(&mut rng);
        }
        for n in 0..hosts {
            link_capacity[2 * n + 1] = sample_link(&mut rng);
        }
        for (i, &scale) in topo.interior_scales().iter().enumerate() {
            link_capacity[2 * hosts + i] = link_bw * scale;
        }
        let switch_slot = switch_capacity.is_some().then_some(2 * hosts);
        Fabric {
            topo,
            link_capacity,
            link_factor: vec![1.0; hosts],
            online: vec![true; hosts],
            switch_capacity,
            switch_slot,
            latency,
            jitter,
            rng,
            flows: Vec::new(),
            remaining: Vec::new(),
            rate: Vec::new(),
            free: BinaryHeap::new(),
            slot_of: BTreeMap::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
            next_id: 0,
            bytes_delivered: 0.0,
            dirty: false,
            dirty_links: Vec::new(),
            link_flows: BTreeSet::new(),
            link_seen: Vec::new(),
            walk: 0,
            fill: None,
            heap: BinaryHeap::new(),
            next_gen: 0,
            fill_mode: FillMode::default(),
            counters: NetFillCounters::default(),
        }
    }

    /// One-way propagation/control latency (the caller adds it around bulk
    /// transfers and control messages).
    pub fn latency(&self) -> SimSpan {
        self.latency
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn active_flows(&self) -> usize {
        self.slot_of.len()
    }

    /// Total bytes delivered by completed flows.
    pub fn bytes_delivered(&self) -> f64 {
        self.bytes_delivered
    }

    /// Select the recompute strategy (default [`FillMode::Incremental`]).
    pub fn set_fill_mode(&mut self, mode: FillMode) {
        self.fill_mode = mode;
    }

    /// Cumulative churn/fill counters.
    pub fn fill_counters(&self) -> NetFillCounters {
        self.counters
    }

    /// The topology wiring this fabric.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of hosts hanging off the fabric.
    pub fn hosts(&self) -> usize {
        self.topo.hosts()
    }

    /// Link id of node `n`'s transmit side.
    fn tx_link(n: usize) -> usize {
        2 * n
    }

    /// Link id of node `n`'s receive side.
    fn rx_link(n: usize) -> usize {
        2 * n + 1
    }

    /// Degrade (or restore) node `n`'s link bandwidth, both directions, to
    /// `factor` × its sampled capacity (injected NIC fault / congestion).
    /// In-flight flows are re-shared at the new capacities from `now` on.
    /// `factor == 0.0` models a total outage: flows through `n` stall at
    /// rate 0 and simply report no upcoming completion.
    pub fn set_link_factor(&mut self, now: SimTime, n: NodeId, factor: f64) {
        assert!(n.0 < self.link_factor.len(), "unknown node {n}");
        assert!(
            (0.0..=1.0).contains(&factor),
            "link factor {factor} outside [0, 1]"
        );
        if (factor - self.link_factor[n.0]).abs() > f64::EPSILON {
            self.advance(now);
            self.link_factor[n.0] = factor;
            self.dirty_links
                .extend([Self::tx_link(n.0), Self::rx_link(n.0)]);
            self.bump();
        }
    }

    /// Current degradation factor of node `n`'s link (`1.0` when healthy).
    pub fn link_factor(&self, n: NodeId) -> f64 {
        self.link_factor[n.0]
    }

    /// Elastic membership: take node `n` out of (or back into) the cluster.
    /// Offline links carry nothing — in-flight flows through `n` stall at
    /// rate 0 (exactly like a zero link factor) and resume, re-shared, when
    /// the node rejoins. Goes through the same dirty-link incremental path
    /// as [`set_link_factor`], so churn cost is bounded by the node's
    /// flow components.
    pub fn set_node_online(&mut self, now: SimTime, n: NodeId, online: bool) {
        assert!(n.0 < self.online.len(), "unknown node {n}");
        if self.online[n.0] != online {
            self.advance(now);
            self.online[n.0] = online;
            self.dirty_links
                .extend([Self::tx_link(n.0), Self::rx_link(n.0)]);
            self.bump();
        }
    }

    /// Is node `n` currently part of the cluster?
    pub fn node_online(&self, n: NodeId) -> bool {
        self.online[n.0]
    }

    fn eff_tx(&self, n: usize) -> f64 {
        if !self.online[n] {
            return 0.0;
        }
        self.link_capacity[Self::tx_link(n)] * self.link_factor[n]
    }

    fn eff_rx(&self, n: usize) -> f64 {
        if !self.online[n] {
            return 0.0;
        }
        self.link_capacity[Self::rx_link(n)] * self.link_factor[n]
    }

    /// Effective capacity of a link id (host access / interior / switch).
    fn eff_link(&self, link: usize) -> f64 {
        if Some(link) == self.switch_slot {
            self.switch_capacity.expect("switch slot implies a cap")
        } else if link < 2 * self.hosts() {
            if link.is_multiple_of(2) {
                self.eff_tx(link / 2)
            } else {
                self.eff_rx(link / 2)
            }
        } else {
            self.link_capacity[link]
        }
    }

    /// Mark every link of a route dirty (the flow's component must be
    /// refilled).
    fn mark_route_dirty(&mut self, route: &[u32]) {
        self.dirty_links.extend(route.iter().map(|&l| l as usize));
    }

    /// Index flow `f` in `slot` under every link of its route.
    fn index(&mut self, f: &Flow, slot: u32) {
        let first = f.route[0];
        self.link_flows
            .extend(f.route.iter().map(|&link| (link, f.id, first, slot)));
    }

    /// Drop a removed flow from the index entries of its route.
    fn unindex(&mut self, f: &Flow, slot: u32) {
        for &link in &f.route {
            let indexed = self.link_flows.remove(&(link, f.id, f.route[0], slot));
            debug_assert!(indexed, "flow {:?} missing from link {link}", f.id);
        }
    }

    /// The live flows whose route uses `link`, ascending, each with its
    /// first route link and its slot.
    fn on_link(
        index: &BTreeSet<(u32, FlowId, u32, u32)>,
        link: usize,
    ) -> impl Iterator<Item = (FlowId, u32, u32)> + '_ {
        let link = link as u32;
        index
            .range((link, FlowId(0), 0, 0)..)
            .take_while(move |e| e.0 == link)
            .map(|&(_, id, first, slot)| (id, first, slot))
    }

    /// The live flow in `slot`.
    fn flow(flows: &[Option<Flow>], slot: u32) -> &Flow {
        flows[slot as usize]
            .as_ref()
            .expect("slot holds a live flow")
    }

    /// Is heap entry `(_, gen, slot)` live: does its slot's flow carry its
    /// generation?
    fn entry_live(flows: &[Option<Flow>], gen: u64, slot: u32) -> bool {
        flows[slot as usize].as_ref().is_some_and(|f| f.gen == gen)
    }

    /// Put `flow` in the lowest vacant slot (or a new one) with `bytes`
    /// left and rate 0, and index it.
    fn occupy(&mut self, flow: Flow, bytes: f64) {
        let slot = match self.free.pop() {
            Some(Reverse(slot)) => {
                self.remaining[slot as usize] = bytes;
                slot
            }
            None => {
                self.flows.push(None);
                self.remaining.push(bytes);
                self.rate.push(0.0);
                (self.flows.len() - 1) as u32
            }
        };
        self.slot_of.insert(flow.id, slot);
        self.index(&flow, slot);
        self.flows[slot as usize] = Some(flow);
    }

    /// Take the flow out of `slot` and unindex it, returning it with its
    /// remaining bytes. The slot reads `0.0` / `0.0` and is free for reuse.
    fn vacate(&mut self, slot: u32) -> (Flow, f64) {
        let s = slot as usize;
        let f = self.flows[s]
            .take()
            .expect("vacated slot holds a live flow");
        self.slot_of.remove(&f.id);
        self.unindex(&f, slot);
        self.rate[s] = 0.0;
        self.free.push(Reverse(slot));
        (f, std::mem::take(&mut self.remaining[s]))
    }

    /// Start a transfer of `bytes` from `src` to `dst`.
    pub fn start_flow(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: f64) -> FlowId {
        assert!(bytes >= 0.0);
        assert!(src.0 < self.hosts(), "unknown src {src}");
        assert!(dst.0 < self.hosts(), "unknown dst {dst}");
        assert_ne!(
            src, dst,
            "loopback transfers are free; model them as zero-cost"
        );
        self.advance(now);
        let cap = match self.jitter {
            Some((lo, hi)) => self.rng.random_range(lo..=hi),
            None => f64::INFINITY,
        };
        let mut route = self.topo.route_links(src.0, dst.0);
        if let Some(sw) = self.switch_slot {
            route.push(sw as u32);
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.mark_route_dirty(&route);
        let flow = Flow {
            id,
            src,
            dst,
            total: bytes,
            cap,
            policy_cap: f64::INFINITY,
            gen: u64::MAX,
            route,
        };
        self.occupy(flow, bytes);
        self.bump();
        id
    }

    /// Impose (or, with `f64::INFINITY`, lift) an external rate cap on an
    /// in-flight flow — the contention-policy hook. The cap composes with
    /// the jitter-sampled connection cap via min and re-shares the flow's
    /// component from `now` on, through the same advance → dirty → bump
    /// path as every other mutation. Returns `false` when the flow no
    /// longer exists (completed or cancelled), which callers may ignore.
    pub fn set_flow_cap(&mut self, now: SimTime, id: FlowId, cap: f64) -> bool {
        assert!(
            cap > 0.0,
            "flow caps must be positive ({cap}); a zero cap would stall forever"
        );
        let Some(&slot) = self.slot_of.get(&id) else {
            return false;
        };
        if Self::flow(&self.flows, slot).policy_cap == cap {
            return true;
        }
        self.advance(now);
        let f = self.flows[slot as usize]
            .as_mut()
            .expect("flow checked above");
        f.policy_cap = cap;
        let route = f.route.clone();
        self.mark_route_dirty(&route);
        self.bump();
        true
    }

    /// Current external rate cap of flow `id` (`f64::INFINITY` = uncapped).
    pub fn flow_cap(&self, id: FlowId) -> Option<f64> {
        let &slot = self.slot_of.get(&id)?;
        Some(Self::flow(&self.flows, slot).policy_cap)
    }

    /// Cancel an in-flight transfer (e.g. its request was re-planned).
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<CancelledFlow> {
        self.advance(now);
        let &slot = self.slot_of.get(&id)?;
        let (f, remaining) = self.vacate(slot);
        self.mark_route_dirty(&f.route);
        self.bump();
        let progress = if f.total > 0.0 {
            ((f.total - remaining) / f.total).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Some(CancelledFlow {
            remaining_bytes: remaining.max(0.0),
            progress,
        })
    }

    /// Apply transfer progress up to `now`.
    ///
    /// If a pending (coalesced) mutation left the rates stale, they are
    /// flushed *before* progress is applied — the stale interval
    /// `[last_update, now)` began at the mutation timestamp, so the freshly
    /// filled rates are exactly the ones that governed it.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update);
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 {
            self.ensure_rates();
            for (left, &rate) in self.remaining.iter_mut().zip(&self.rate) {
                *left = (*left - rate * dt).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// Earliest flow completion at current rates. `None` when idle, or when
    /// every in-flight flow is rate-starved (links forced to 0 by a fault) —
    /// a starved flow never completes, so it contributes no (infinite)
    /// completion time.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.ensure_rates();
        if self.fill_mode == FillMode::FullRescan {
            return self.next_completion_scan();
        }
        while let Some(&Reverse((t, gen, slot))) = self.heap.peek() {
            if Self::entry_live(&self.flows, gen, slot) {
                return Some(t);
            }
            self.heap.pop();
        }
        None
    }

    /// Pre-incremental linear completion scan (FullRescan mode).
    fn next_completion_scan(&self) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for &slot in self.slot_of.values() {
            let (remaining, rate) = (self.remaining[slot as usize], self.rate[slot as usize]);
            if rate > 0.0 {
                let dt = remaining / rate;
                best = Some(best.map_or(dt, |b: f64| b.min(dt)));
            } else if remaining <= 0.0 {
                best = Some(0.0);
            }
        }
        best.map(|dt| self.last_update + SimSpan::from_secs_f64(dt))
    }

    /// Advance to `now` and collect finished flows, in `FlowId` order.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<FlowCompletion> {
        self.advance(now);
        self.ensure_rates();
        let done = if self.fill_mode == FillMode::FullRescan {
            self.finished_by_scan()
        } else {
            let done = self.finished_from_heap(now);
            debug_assert_eq!(
                done,
                self.finished_by_scan(),
                "heap harvest diverged from a scan of every flow"
            );
            done
        };
        let mut out = Vec::with_capacity(done.len());
        for (id, slot) in done {
            let (f, _) = self.vacate(slot);
            self.bytes_delivered += f.total;
            self.mark_route_dirty(&f.route);
            out.push(FlowCompletion {
                id,
                src: f.src,
                dst: f.dst,
                bytes: f.total,
            });
        }
        if !out.is_empty() {
            self.bump();
        }
        out
    }

    /// Has the flow in `slot` finished? Less than half a nanosecond of
    /// transfer at its current rate is left (or nothing at all).
    fn is_finished(&self, slot: u32) -> bool {
        let (remaining, rate) = (self.remaining[slot as usize], self.rate[slot as usize]);
        remaining <= rate * 0.5e-9 || remaining <= 0.0
    }

    /// Finished flows with their slots, ascending, by a scan of every flow
    /// (FullRescan mode, and the debug oracle of
    /// [`Fabric::finished_from_heap`]).
    fn finished_by_scan(&self) -> Vec<(FlowId, u32)> {
        self.slot_of
            .iter()
            .filter(|&(_, &slot)| self.is_finished(slot))
            .map(|(&id, &slot)| (id, slot))
            .collect()
    }

    /// Finished flows, ascending, from the completion heap: every finished
    /// flow has a live entry projected no later than `now + 2 ns` (the
    /// projection rounds up to whole nanoseconds and the finish test
    /// allows half a nanosecond), so only those entries are examined.
    /// Stale entries among them are dropped; live ones whose flow is not
    /// finished yet go back on the heap unchanged.
    fn finished_from_heap(&mut self, now: SimTime) -> Vec<(FlowId, u32)> {
        let horizon = now + SimSpan::from_nanos(2);
        let mut done = Vec::new();
        let mut pending = Vec::new();
        while let Some(&Reverse(entry @ (t, gen, slot))) = self.heap.peek() {
            if t > horizon {
                break;
            }
            self.heap.pop();
            if !Self::entry_live(&self.flows, gen, slot) {
                continue;
            }
            if self.is_finished(slot) {
                done.push((Self::flow(&self.flows, slot).id, slot));
            } else {
                pending.push(Reverse(entry));
            }
        }
        self.heap.extend(pending);
        done.sort_unstable();
        done
    }

    /// Bytes left of flow `id`, as of the last [`Fabric::advance`].
    #[cfg(test)]
    fn remaining_of(&self, id: FlowId) -> Option<f64> {
        let &slot = self.slot_of.get(&id)?;
        Some(self.remaining[slot as usize])
    }

    /// Current rate of flow `id` (bytes/second).
    pub fn rate_of(&mut self, id: FlowId) -> Option<f64> {
        self.ensure_rates();
        let &slot = self.slot_of.get(&id)?;
        Some(self.rate[slot as usize])
    }

    /// Observable outbound state of node `n`: aggregate flow rate
    /// (bytes/second) and number of active outbound flows. This is what a
    /// node can measure about itself without knowing link capacities —
    /// when ≥ 2 flows share the link, the sum equals the link's true
    /// achievable bandwidth.
    pub fn tx_observation(&mut self, n: NodeId) -> (f64, usize) {
        self.ensure_rates();
        let count = Self::on_link(&self.link_flows, Self::tx_link(n.0)).count();
        (self.rate_sum(Self::tx_link(n.0)), count)
    }

    /// Utilization of node `n`'s transmit link, `[0, 1]`. The `+ 0.0`
    /// normalizes IEEE `-0.0` (which `clamp` passes through, `-0.0` not
    /// being less than `0.0`) so idle links serialize as plain `0.0` in
    /// observability samples. A link degraded to zero capacity reports 0.
    pub fn tx_utilization(&mut self, n: NodeId) -> f64 {
        self.ensure_rates();
        let eff = self.eff_tx(n.0);
        if eff <= 0.0 {
            return 0.0;
        }
        let used = self.rate_sum(Self::tx_link(n.0));
        (used / eff).clamp(0.0, 1.0) + 0.0
    }

    /// Utilization of node `n`'s receive link, `[0, 1]` (`-0.0` normalized
    /// like [`Fabric::tx_utilization`]).
    pub fn rx_utilization(&mut self, n: NodeId) -> f64 {
        self.ensure_rates();
        let eff = self.eff_rx(n.0);
        if eff <= 0.0 {
            return 0.0;
        }
        let used = self.rate_sum(Self::rx_link(n.0));
        (used / eff).clamp(0.0, 1.0) + 0.0
    }

    /// Sum of the current rates of the flows on `link`, folded in
    /// ascending `FlowId` order. A node's tx (rx) access link carries
    /// exactly the flows it sends (receives): routes start at `tx(src)` and
    /// end at `rx(dst)`, and no other route touches either link.
    fn rate_sum(&self, link: usize) -> f64 {
        Self::on_link(&self.link_flows, link)
            .map(|(_, _, slot)| self.rate[slot as usize])
            .sum()
    }

    fn bump(&mut self) {
        self.epoch += 1;
        self.dirty = true;
        self.counters.churn_ops += 1;
        if self.fill_mode == FillMode::FullRescan {
            // Pre-incremental semantics: pay a full pass on every mutation.
            self.ensure_rates();
        }
    }

    /// Flush pending coalesced mutations: one water-filling pass over the
    /// dirtied components (or everything in FullRescan mode). No-op when
    /// the allocation is current.
    fn ensure_rates(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.counters.fills += 1;
        if self.fill_mode == FillMode::FullRescan {
            self.dirty_links.clear();
            let slots: Vec<u32> = self.slot_of.values().copied().collect();
            self.counters.flows_refilled += slots.len() as u64;
            self.fill_subset(&slots);
            return;
        }

        let refill = self.dirty_component_flows();
        self.counters.flows_refilled += refill.len() as u64;
        self.counters.flows_reused += (self.slot_of.len() - refill.len()) as u64;

        self.fill_subset(&refill);
        self.refresh_heap(&refill);

        // Oracle: the incremental result must be bit-identical to deriving
        // every component from scratch with the round-by-round reference
        // fill.
        #[cfg(debug_assertions)]
        {
            let all: Vec<u32> = self.slot_of.values().copied().collect();
            let (scratch, _) = self.fill_subset_reference(&all);
            for (&slot, rate) in all.iter().zip(scratch) {
                let kept = self.rate[slot as usize];
                debug_assert_eq!(
                    kept.to_bits(),
                    rate.to_bits(),
                    "incremental fill diverged from scratch fill for {:?}: \
                     kept {kept}, scratch {rate}",
                    Self::flow(&self.flows, slot).id
                );
            }
        }
    }

    /// The slots of every flow in a connected component (flows
    /// transitively coupled through shared links) that contains a dirty
    /// link, ascending by `FlowId`; consumes `dirty_links`. A depth-first
    /// walk over the link → flows index from the dirty links. A flow
    /// reached through any link pulls in its first link; reached through
    /// its first link (which every walk through the flow therefore visits,
    /// exactly once), it is listed and pulls in the rest of its route. So
    /// each refilled flow's route is read once.
    fn dirty_component_flows(&mut self) -> Vec<u32> {
        if self.link_seen.is_empty() {
            self.link_seen = vec![0; self.topo.num_links() + 1];
        }
        self.walk += 1;
        let walk = self.walk;
        // Marks `link` reached; true the first time in this walk.
        let first_visit =
            |seen: &mut Vec<u64>, link: usize| std::mem::replace(&mut seen[link], walk) != walk;
        let mut stack: Vec<usize> = std::mem::take(&mut self.dirty_links);
        stack.retain(|&l| first_visit(&mut self.link_seen, l));
        let mut refill = Vec::new();
        while let Some(l) = stack.pop() {
            for (id, first, slot) in Self::on_link(&self.link_flows, l) {
                let route: &[u32] = if first as usize == l {
                    refill.push((id, slot));
                    &Self::flow(&self.flows, slot).route
                } else {
                    std::slice::from_ref(&first)
                };
                for &next in route {
                    if first_visit(&mut self.link_seen, next as usize) {
                        stack.push(next as usize);
                    }
                }
            }
        }
        refill.sort_unstable();
        refill.into_iter().map(|(_, slot)| slot).collect()
    }

    /// Push fresh completion projections for the `refilled` slots' flows;
    /// entries of untouched flows remain valid because their rates did not
    /// change.
    fn refresh_heap(&mut self, refilled: &[u32]) {
        // Compact when stale entries dominate, keeping pops O(log live).
        if self.heap.len() > 2 * self.slot_of.len() + 64 {
            let flows = &self.flows;
            let kept: Vec<_> = self
                .heap
                .drain()
                .filter(|&Reverse((_, gen, slot))| Self::entry_live(flows, gen, slot))
                .collect();
            self.heap = BinaryHeap::from(kept);
        }
        for &slot in refilled {
            let (remaining, rate) = (self.remaining[slot as usize], self.rate[slot as usize]);
            let done_at = if rate > 0.0 {
                Some(self.last_update + SimSpan::from_secs_f64(remaining / rate))
            } else if remaining <= 0.0 {
                Some(self.last_update)
            } else {
                None // starved: never completes at current rates
            };
            let f = self.flows[slot as usize]
                .as_mut()
                .expect("refilled slot holds a live flow");
            if let Some(t) = done_at {
                f.gen = self.next_gen;
                self.heap.push(Reverse((t, self.next_gen, slot)));
                self.next_gen += 1;
            } else {
                f.gen = u64::MAX;
            }
        }
    }

    /// Progressive filling restricted to the flows in `slots` (ascending by
    /// `FlowId`): grow all
    /// unfrozen flows at one common rate until a link or cap binds; freeze;
    /// repeat. Sets every listed flow's `rate` and counts the rounds in
    /// [`NetFillCounters::fill_rounds`]. Correct as long as `slots` is a
    /// union of whole components — flows outside it then share no link with
    /// flows inside, so the restricted residuals equal the global ones.
    ///
    /// Hot path: components reach 10⁵ flows on the large fat-tree points,
    /// so the cost follows the component and what each round changes, not
    /// the topology or rounds × component. The fill works on compact
    /// indices ([`FillScratch`]). The first round checks every route once;
    /// after it:
    /// - a link's unfrozen count drops as its members freeze, and its
    ///   residual and share of the growth limit are re-derived only when
    ///   one of them froze;
    /// - the growth limit is the smallest share in a min-queue, and the
    ///   binding links are the queued ones within `2·eps` of the common
    ///   rate, each tested exactly before its members are visited;
    /// - cap-bound flows come off a cap-sorted order with a moving cursor.
    ///
    /// Every floating-point operation matches the reference — a residual
    /// is `eff − r₁ − r₂ − …` over its frozen members in ascending
    /// `FlowId`, and a zero growth limit (whose sign depends on the order
    /// `min` sees ±0) is folded in ascending link id — so rates and round
    /// counts are bitwise those of [`Fabric::fill_subset_reference`] (the
    /// debug oracle and `progressive_fill_matches_round_by_round_reference`
    /// pin this).
    fn fill_subset(&mut self, slots: &[u32]) {
        debug_assert!(
            self.ascending(slots),
            "fill flows must be ascending and distinct"
        );
        if slots.is_empty() {
            return;
        }
        let mut s = self.fill.take().unwrap_or_default();
        self.gather(&mut s, slots);
        self.counters.fill_rounds += s.fill();
        for (&slot, &rate) in slots.iter().zip(&s.rate) {
            self.rate[slot as usize] = rate;
        }
        self.fill = Some(s);
    }

    /// Are the flows in `slots` listed in strictly ascending `FlowId`?
    fn ascending(&self, slots: &[u32]) -> bool {
        slots
            .windows(2)
            .all(|w| Self::flow(&self.flows, w[0]).id < Self::flow(&self.flows, w[1]).id)
    }

    /// Load the caps and routes of the flows in `slots` into `s`, mapping
    /// the route links to local slots in ascending link id.
    fn gather(&self, s: &mut FillScratch, slots: &[u32]) {
        if s.slot.is_empty() {
            s.slot = vec![u32::MAX; self.topo.num_links() + 1];
        }
        s.caps.clear();
        s.route.clear();
        s.route_at.clear();
        s.route_at.push(0);
        s.links.clear();
        for &slot in slots {
            let f = Self::flow(&self.flows, slot);
            s.caps.push(f.eff_cap());
            for &l in &f.route {
                let slot = &mut s.slot[l as usize];
                if *slot == u32::MAX {
                    *slot = 0; // listed; the real slot is set after the sort
                    s.links.push(l);
                }
            }
            s.route.extend_from_slice(&f.route);
            s.route_at.push(s.route.len() as u32);
        }
        s.links.sort_unstable();
        s.eff.clear();
        for (k, &l) in s.links.iter().enumerate() {
            s.slot[l as usize] = k as u32;
            s.eff.push(self.eff_link(l as usize));
        }
        for l in &mut s.route {
            *l = s.slot[*l as usize];
        }
        for &l in &s.links {
            s.slot[l as usize] = u32::MAX;
        }
    }

    /// The round-by-round progressive fill `fill_subset` replaced: every
    /// round re-derives every residual from all frozen flows and re-checks
    /// every unfrozen flow's whole route, over dense link-indexed arrays.
    /// Kept as the bitwise reference (debug oracle and proptests). Takes
    /// the flows' slots ascending by `FlowId`; returns their rates in that
    /// order and the number of rounds.
    #[cfg(any(test, debug_assertions))]
    fn fill_subset_reference(&self, slots: &[u32]) -> (Vec<f64>, u64) {
        assert!(
            self.ascending(slots),
            "reference fill takes ascending flows"
        );
        if slots.is_empty() {
            return (Vec::new(), 0);
        }
        let flows: Vec<&Flow> = slots
            .iter()
            .map(|&slot| Self::flow(&self.flows, slot))
            .collect();
        let caps: Vec<f64> = flows.iter().map(|f| f.eff_cap()).collect();
        let mut touched: Vec<usize> = flows
            .iter()
            .flat_map(|f| f.route.iter().map(|&l| l as usize))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let width = touched.last().map_or(0, |&l| l + 1);
        let mut res: Vec<f64> = vec![0.0; width];
        let mut cnt: Vec<u32> = vec![0; width];

        let n = flows.len();
        let mut frozen_rate: Vec<Option<f64>> = vec![None; n];
        let mut unfrozen: Vec<usize> = (0..n).collect();
        let mut rounds = 0;

        // Iterations bounded by number of constraints (links + flows + 1).
        while !unfrozen.is_empty() {
            rounds += 1;
            // Per-link residual capacity and unfrozen-flow count. Residuals
            // are re-derived from scratch each round — frozen rates subtract
            // in FlowId order, keeping the rounding history identical no
            // matter which round froze a flow.
            for &l in &touched {
                res[l] = self.eff_link(l);
                cnt[l] = 0;
            }
            for (i, f) in flows.iter().enumerate() {
                if let Some(rate) = frozen_rate[i] {
                    for &link in &f.route {
                        res[link as usize] -= rate;
                    }
                }
            }
            for &i in &unfrozen {
                for &link in &flows[i].route {
                    cnt[link as usize] += 1;
                }
            }

            // The common growth limit.
            let mut limit = f64::INFINITY;
            for &l in &touched {
                if cnt[l] > 0 && res[l].is_finite() {
                    limit = limit.min(res[l].max(0.0) / cnt[l] as f64);
                }
            }
            let min_cap = unfrozen
                .iter()
                .map(|&i| caps[i])
                .fold(f64::INFINITY, f64::min);
            let r = limit.min(min_cap);

            // Freeze every flow whose constraint binds at r.
            let eps = 1e-9 * r.max(1.0);
            let mut froze_any = false;
            for &i in &unfrozen {
                let cap_binds = caps[i] <= r + eps;
                let link_binds = flows[i].route.iter().any(|&link| {
                    let l = link as usize;
                    res[l].is_finite() && cnt[l] as f64 * r >= res[l].max(0.0) - eps
                });
                if cap_binds || link_binds {
                    frozen_rate[i] = Some(caps[i].min(r));
                    froze_any = true;
                }
            }
            // Safety: always make progress.
            if !froze_any {
                for &i in &unfrozen {
                    frozen_rate[i] = Some(caps[i].min(r));
                }
            }
            unfrozen.retain(|&i| frozen_rate[i].is_none());
        }

        let rates = frozen_rate
            .into_iter()
            .map(|rate| rate.expect("all flows frozen"))
            .collect();
        (rates, rounds)
    }
}

impl FillScratch {
    /// Flow `i`'s route, as local link slots.
    fn route_of(&self, i: usize) -> &[u32] {
        &self.route[self.route_at[i] as usize..self.route_at[i + 1] as usize]
    }

    /// Link `l`'s member flows, ascending.
    fn members_of(&self, l: usize) -> &[u32] {
        &self.members[self.member_at[l] as usize..self.member_at[l + 1] as usize]
    }

    /// Link `l`'s share of the growth limit, `res⁺ / cnt`; `None` for an
    /// unconstrained (non-finite) residual.
    fn share(&self, l: usize) -> Option<f64> {
        let res = self.res[l];
        res.is_finite().then(|| res.max(0.0) / self.cnt[l] as f64)
    }

    /// Does link `l` bind at common rate `r`?
    fn link_binds(&self, l: usize, r: f64, eps: f64) -> bool {
        let res = self.res[l];
        res.is_finite() && self.cnt[l] as f64 * r >= res.max(0.0) - eps
    }

    /// Is a queue entry for link `l` keyed in round `keyed` current (the
    /// link has unfrozen members and was not re-keyed since)?
    fn is_live(&self, l: u32, keyed: u64) -> bool {
        self.cnt[l as usize] > 0 && self.keyed_in[l as usize] == keyed
    }

    /// Queue link `l`'s current share, keyed in round `round`.
    fn push_share(&mut self, l: usize, round: u64) {
        self.keyed_in[l] = round;
        if let Some(share) = self.share(l) {
            // `+ 0.0` folds -0.0 into +0.0: non-negative shares then order
            // like their bit patterns.
            let key = (share + 0.0).to_bits();
            self.heap.push(Reverse((key, l as u32, round)));
        }
    }

    /// The growth limit from the share queue: the smallest live share.
    /// Shares are ≥ 0, so a positive minimum is the same value in any fold
    /// order. A zero minimum may be +0 or -0 depending on the order, so it
    /// is folded like the reference: over the zero shares in ascending
    /// link id (positive shares cannot change a fold that has reached 0).
    fn queued_limit(&mut self) -> f64 {
        while let Some(&Reverse((key, l, keyed))) = self.heap.peek() {
            if !self.is_live(l, keyed) {
                self.heap.pop();
                continue;
            }
            if key != 0 {
                return f64::from_bits(key);
            }
            self.held.clear();
            while let Some(&Reverse(e @ (0, l, keyed))) = self.heap.peek() {
                self.heap.pop();
                if self.is_live(l, keyed) {
                    self.held.push(e);
                }
            }
            self.held.sort_unstable_by_key(|e| e.1);
            let limit = self.held.iter().fold(f64::INFINITY, |limit, e| {
                limit.min(self.share(e.1 as usize).expect("queued shares are finite"))
            });
            self.heap.extend(self.held.drain(..).map(Reverse));
            return limit;
        }
        f64::INFINITY
    }

    /// Freeze flow `i` this round, unless it already is frozen.
    fn freeze(&mut self, i: u32) {
        if !std::mem::replace(&mut self.frozen[i as usize], true) {
            self.newly.push(i);
        }
    }

    /// Run the progressive fill over the gathered flows, leaving each flow's
    /// rate in `rate`; returns the number of rounds.
    ///
    /// The first round has nothing frozen: it folds every link's share in
    /// ascending link id and checks every route, like the reference. Later
    /// rounds read the limit and the binding links off a min-queue of link
    /// shares that is re-keyed only for the links a freeze touched.
    fn fill(&mut self) -> u64 {
        let (n, m) = (self.caps.len(), self.links.len());
        self.cnt.clear();
        self.cnt.resize(m, 0);
        for &l in &self.route {
            self.cnt[l as usize] += 1;
        }
        self.res.clear();
        self.res.extend_from_slice(&self.eff);
        self.rate.clear();
        self.rate.resize(n, 0.0);
        self.frozen.clear();
        self.frozen.resize(n, false);
        self.keyed_in.clear();
        self.keyed_in.resize(m, 0);
        let mut left = n;
        let mut rounds = 0;
        loop {
            rounds += 1;
            let (limit, min_cap) = if rounds == 1 {
                let limit = (0..m)
                    .filter_map(|l| self.share(l))
                    .fold(f64::INFINITY, f64::min);
                let min_cap = self.caps.iter().copied().fold(f64::INFINITY, f64::min);
                (limit, min_cap)
            } else {
                while self
                    .by_cap
                    .get(self.cap_cursor)
                    .is_some_and(|&i| self.frozen[i as usize])
                {
                    self.cap_cursor += 1;
                }
                let min_cap = self
                    .by_cap
                    .get(self.cap_cursor)
                    .map_or(f64::INFINITY, |&i| self.caps[i as usize]);
                (self.queued_limit(), min_cap)
            };
            let r = limit.min(min_cap);

            // Freeze every flow whose constraint binds at r.
            let eps = 1e-9 * r.max(1.0);
            self.newly.clear();
            if rounds == 1 {
                // One pass over every route needs neither member lists nor
                // the cap order.
                for i in 0..n {
                    if self.caps[i] <= r + eps
                        || self
                            .route_of(i)
                            .iter()
                            .any(|&l| self.link_binds(l as usize, r, eps))
                    {
                        self.newly.push(i as u32);
                    }
                }
            } else {
                while let Some(&i) = self.by_cap.get(self.cap_cursor) {
                    if self.caps[i as usize] > r + eps {
                        break;
                    }
                    self.freeze(i);
                    self.cap_cursor += 1;
                }
                // A binding link's share is at most r + eps (plus rounding,
                // far below eps), so every binding link is queued at or
                // below r + 2·eps; test those exactly.
                let bound = (r + 2.0 * eps).to_bits();
                self.held.clear();
                while let Some(&Reverse(e @ (key, l, keyed))) = self.heap.peek() {
                    if key > bound {
                        break;
                    }
                    self.heap.pop();
                    if !self.is_live(l, keyed) {
                        continue;
                    }
                    if self.link_binds(l as usize, r, eps) {
                        for j in self.member_at[l as usize]..self.member_at[l as usize + 1] {
                            self.freeze(self.members[j as usize]);
                        }
                    } else {
                        self.held.push(e);
                    }
                }
                self.heap.extend(self.held.drain(..).map(Reverse));
            }
            // Safety: always make progress.
            if self.newly.is_empty() {
                self.newly
                    .extend((0..n as u32).filter(|&i| !self.frozen[i as usize]));
            }
            for &i in &self.newly {
                let i = i as usize;
                self.frozen[i] = true;
                self.rate[i] = self.caps[i].min(r);
            }
            left -= self.newly.len();
            if left == 0 {
                return rounds;
            }
            if rounds == 1 {
                self.index_members();
            }

            // Drop the frozen flows from their links' counts, re-derive the
            // residual of every link that lost one and still has unfrozen
            // members, and re-key its share.
            self.touched.clear();
            for k in 0..self.newly.len() {
                let i = self.newly[k] as usize;
                for j in self.route_at[i]..self.route_at[i + 1] {
                    let l = self.route[j as usize] as usize;
                    self.cnt[l] -= 1;
                    if std::mem::replace(&mut self.keyed_in[l], rounds) != rounds {
                        self.touched.push(l as u32);
                    }
                }
            }
            for k in 0..self.touched.len() {
                let l = self.touched[k] as usize;
                if self.cnt[l] == 0 {
                    continue;
                }
                let mut res = self.eff[l];
                for &i in self.members_of(l) {
                    if self.frozen[i as usize] {
                        res -= self.rate[i as usize];
                    }
                }
                self.res[l] = res;
                if rounds > 1 {
                    self.push_share(l, rounds);
                }
            }
            if rounds == 1 {
                self.heap.clear();
                for l in 0..m {
                    if self.cnt[l] > 0 {
                        self.push_share(l, rounds);
                    }
                }
            }
        }
    }

    /// Build the per-link member lists (ascending flow index, by filling
    /// each link's range from its end with the flows in descending order)
    /// and the cap order of the still-unfrozen flows. Runs after the first
    /// round, while `cnt` still holds every link's full member count.
    fn index_members(&mut self) {
        let m = self.links.len();
        self.member_at.clear();
        let mut end = 0;
        for l in 0..m {
            end += self.cnt[l];
            self.member_at.push(end);
        }
        self.member_at.push(end);
        self.members.clear();
        self.members.resize(self.route.len(), 0);
        for i in (0..self.caps.len()).rev() {
            for j in self.route_at[i]..self.route_at[i + 1] {
                let l = self.route[j as usize] as usize;
                self.member_at[l] -= 1;
                self.members[self.member_at[l] as usize] = i as u32;
            }
        }
        self.by_cap.clear();
        self.by_cap
            .extend((0..self.caps.len() as u32).filter(|&i| !self.frozen[i as usize]));
        let caps = &self.caps;
        self.by_cap
            .sort_unstable_by(|&a, &b| caps[a as usize].total_cmp(&caps[b as usize]));
        self.cap_cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::RngFactory;

    fn fabric(nodes: usize, bw: f64) -> Fabric {
        Fabric::new(
            nodes,
            bw,
            None,
            SimSpan::ZERO,
            None,
            RngFactory::new(1).stream("net"),
        )
    }

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn single_flow_uses_full_link() {
        let mut f = fabric(2, 100.0);
        let id = f.start_flow(SimTime::ZERO, n(0), n(1), 200.0);
        assert_eq!(f.rate_of(id), Some(100.0));
        let t = f.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
        let done = f.take_completed(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].src, n(0));
        assert_eq!(done[0].dst, n(1));
        assert!((f.bytes_delivered() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn shared_source_link_splits_evenly() {
        // Storage node 0 sends to two clients: its tx link is the bottleneck.
        let mut f = fabric(3, 100.0);
        let a = f.start_flow(SimTime::ZERO, n(0), n(1), 100.0);
        let b = f.start_flow(SimTime::ZERO, n(0), n(2), 100.0);
        assert!((f.rate_of(a).unwrap() - 50.0).abs() < 1e-9);
        assert!((f.rate_of(b).unwrap() - 50.0).abs() < 1e-9);
        assert!((f.tx_utilization(n(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn policy_cap_binds_and_releases_bandwidth() {
        // Two flows share tx(0): 50/50. Capping one at 20 frees 80 for the
        // other (max-min over the residual); lifting the cap restores the
        // even split from that instant on.
        let mut f = fabric(3, 100.0);
        let a = f.start_flow(SimTime::ZERO, n(0), n(1), 1000.0);
        let b = f.start_flow(SimTime::ZERO, n(0), n(2), 1000.0);
        assert!(f.set_flow_cap(SimTime::ZERO, a, 20.0));
        assert!((f.rate_of(a).unwrap() - 20.0).abs() < 1e-9);
        assert!((f.rate_of(b).unwrap() - 80.0).abs() < 1e-9);
        assert_eq!(f.flow_cap(a), Some(20.0));
        assert!(f.set_flow_cap(SimTime::from_secs_f64(1.0), a, f64::INFINITY));
        assert!((f.rate_of(a).unwrap() - 50.0).abs() < 1e-9);
        assert!((f.rate_of(b).unwrap() - 50.0).abs() < 1e-9);
        // Capping a vanished flow reports false instead of panicking.
        let t = f.next_completion().unwrap();
        let done = f.take_completed(t);
        assert_eq!(done.len(), 1);
        assert!(!f.set_flow_cap(t, done[0].id, 10.0));
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let mut f = fabric(4, 100.0);
        let a = f.start_flow(SimTime::ZERO, n(0), n(1), 100.0);
        let b = f.start_flow(SimTime::ZERO, n(2), n(3), 100.0);
        assert_eq!(f.rate_of(a), Some(100.0));
        assert_eq!(f.rate_of(b), Some(100.0));
    }

    #[test]
    fn max_min_gives_unbottlenecked_flow_the_surplus() {
        // Flows: 0->2, 1->2 (rx bottleneck at 2), and 0->3.
        // rx(2)=100 shared by two flows => 50 each; flow 0->3 then gets
        // tx(0) residual = 50? No: max-min — tx(0) carries flows a and c.
        // Progressive filling: common rate grows to 50 where rx(2)
        // saturates (a,b freeze at 50); c continues to tx(0) residual
        // 100-50=50 => c=50.
        let mut f = fabric(4, 100.0);
        let a = f.start_flow(SimTime::ZERO, n(0), n(2), 1e9);
        let b = f.start_flow(SimTime::ZERO, n(1), n(2), 1e9);
        let c = f.start_flow(SimTime::ZERO, n(0), n(3), 1e9);
        assert!((f.rate_of(a).unwrap() - 50.0).abs() < 1e-6);
        assert!((f.rate_of(b).unwrap() - 50.0).abs() < 1e-6);
        assert!((f.rate_of(c).unwrap() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn departure_reallocates_bandwidth() {
        let mut f = fabric(3, 100.0);
        let a = f.start_flow(SimTime::ZERO, n(0), n(1), 100.0);
        let b = f.start_flow(SimTime::ZERO, n(0), n(2), 100.0);
        // Both at 50; at t=1s a has 50 left. Cancel b.
        let cancelled = f.cancel_flow(SimTime::from_secs_f64(1.0), b).unwrap();
        assert!((cancelled.remaining_bytes - 50.0).abs() < 1e-9);
        assert!((cancelled.progress - 0.5).abs() < 1e-9);
        assert_eq!(f.rate_of(a), Some(100.0));
        let t = f.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn switch_capacity_caps_aggregate() {
        let mut f = Fabric::new(
            4,
            100.0,
            Some(150.0),
            SimSpan::ZERO,
            None,
            RngFactory::new(1).stream("net"),
        );
        let a = f.start_flow(SimTime::ZERO, n(0), n(1), 1e9);
        let b = f.start_flow(SimTime::ZERO, n(2), n(3), 1e9);
        assert!((f.rate_of(a).unwrap() - 75.0).abs() < 1e-6);
        assert!((f.rate_of(b).unwrap() - 75.0).abs() < 1e-6);
    }

    #[test]
    fn jitter_caps_flows_within_range() {
        let mut f = Fabric::new(
            2,
            118.0,
            None,
            SimSpan::ZERO,
            Some((111.0, 118.0)),
            RngFactory::new(7).stream("net"),
        );
        for _ in 0..50 {
            let id = f.start_flow(SimTime::ZERO, n(0), n(1), 1.0);
            let r = f.rate_of(id).unwrap();
            assert!(r <= 118.0 + 1e-9, "rate {r}");
            f.cancel_flow(SimTime::ZERO, id);
        }
    }

    #[test]
    fn link_factor_dips_and_restores_bandwidth() {
        let mut f = fabric(2, 100.0);
        let id = f.start_flow(SimTime::ZERO, n(0), n(1), 200.0);
        assert_eq!(f.rate_of(id), Some(100.0));
        // Dip src link to 25% at t=1: 100 bytes left at 25 B/s.
        f.set_link_factor(SimTime::from_secs_f64(1.0), n(0), 0.25);
        assert!((f.link_factor(n(0)) - 0.25).abs() < 1e-12);
        assert!((f.rate_of(id).unwrap() - 25.0).abs() < 1e-9);
        let t = f.next_completion().unwrap();
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-9);
        // Utilization is measured against the degraded capacity.
        assert!((f.tx_utilization(n(0)) - 1.0).abs() < 1e-9);
        // Restore at t=2: 75 bytes left at full rate → done at 2.75.
        f.set_link_factor(SimTime::from_secs_f64(2.0), n(0), 1.0);
        let t = f.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.75).abs() < 1e-9);
    }

    #[test]
    fn zero_link_factor_stalls_without_panicking() {
        // A net fault can dip a link to exactly 0: flows through it stall
        // at rate 0, next_completion reports nothing (previously an
        // infinite span), and restoring the factor resumes the transfer.
        let mut f = fabric(3, 100.0);
        let stalled = f.start_flow(SimTime::ZERO, n(0), n(1), 200.0);
        let healthy = f.start_flow(SimTime::ZERO, n(2), n(1), 100.0);
        f.set_link_factor(SimTime::from_secs_f64(1.0), n(0), 0.0);
        assert_eq!(f.rate_of(stalled), Some(0.0));
        assert_eq!(f.tx_utilization(n(0)), 0.0);
        // The healthy flow still projects a completion; the stalled one
        // contributes nothing. healthy: 100 bytes, rx(1) shared... after
        // the stall rx(1) serves only `healthy` → 50 bytes left at t=1
        // finish at 1.5s.
        let t = f.next_completion().unwrap();
        assert!(
            (t.as_secs_f64() - 1.5).abs() < 1e-9,
            "got {}",
            t.as_secs_f64()
        );
        assert_eq!(f.take_completed(t)[0].id, healthy);
        // Only the stalled flow remains: no completion at all.
        assert_eq!(f.next_completion(), None);
        // Nothing progresses while stalled.
        f.advance(SimTime::from_secs_f64(9.0));
        // 100 bytes were left at the stall (t=1): 200 - 100·1s/2 flows...
        // flows split rx(1) before the stall: stalled ran at 50 for 1s.
        assert!((f.remaining_of(stalled).unwrap() - 150.0).abs() < 1e-9);
        // Restore: 150 bytes at 100 B/s from t=9 → done at 10.5.
        f.set_link_factor(SimTime::from_secs_f64(9.0), n(0), 1.0);
        let t = f.next_completion().unwrap();
        assert!((t.as_secs_f64() - 10.5).abs() < 1e-9);
    }

    #[test]
    fn node_leave_mid_transfer_does_not_strand_heap_entries() {
        // Elastic membership: a node leaving mid-transfer must behave like a
        // total outage — its flows stall (no phantom completion left in the
        // epoch-tagged heap), unrelated flows re-share the freed links, and
        // a rejoin resumes the transfer with exact byte accounting.
        let mut f = fabric(3, 100.0);
        let leaving = f.start_flow(SimTime::ZERO, n(0), n(1), 200.0);
        let healthy = f.start_flow(SimTime::ZERO, n(2), n(1), 100.0);
        assert!(f.node_online(n(0)));
        f.set_node_online(SimTime::from_secs_f64(1.0), n(0), false);
        assert!(!f.node_online(n(0)));
        assert_eq!(f.rate_of(leaving), Some(0.0));
        assert_eq!(f.tx_utilization(n(0)), 0.0);
        // The stale pre-leave completion projection for `leaving` must not
        // surface: only `healthy` (50 bytes left at t=1, now at full rx
        // rate) completes, at t=1.5.
        let t = f.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(f.take_completed(t)[0].id, healthy);
        assert_eq!(f.next_completion(), None, "offline flow projects nothing");
        // A leave does not disturb the fault-injected degradation factor.
        assert!((f.link_factor(n(0)) - 1.0).abs() < 1e-12);
        // Rejoin at t=4: 150 bytes remain (leaving ran at 50 B/s for 1s),
        // now alone on its links → done at 5.5.
        f.set_node_online(SimTime::from_secs_f64(4.0), n(0), true);
        let t = f.next_completion().unwrap();
        assert!(
            (t.as_secs_f64() - 5.5).abs() < 1e-9,
            "got {}",
            t.as_secs_f64()
        );
        assert_eq!(f.take_completed(t)[0].id, leaving);
        assert!((f.bytes_delivered() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut f = fabric(2, 10.0);
        let id = f.start_flow(SimTime::ZERO, n(0), n(1), 0.0);
        let t = f.next_completion().unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(f.take_completed(t)[0].id, id);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut f = fabric(2, 10.0);
        f.start_flow(SimTime::ZERO, n(1), n(1), 5.0);
    }

    #[test]
    fn tx_observation_reports_aggregate_rate_and_count() {
        let mut f = fabric(3, 100.0);
        assert_eq!(f.tx_observation(n(0)), (0.0, 0));
        f.start_flow(SimTime::ZERO, n(0), n(1), 1e6);
        f.start_flow(SimTime::ZERO, n(0), n(2), 1e6);
        let (rate, count) = f.tx_observation(n(0));
        assert_eq!(count, 2);
        // Two flows saturate the 100-unit link: observed sum == capacity.
        assert!((rate - 100.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_changes_on_flow_churn() {
        let mut f = fabric(2, 10.0);
        let e0 = f.epoch();
        let id = f.start_flow(SimTime::ZERO, n(0), n(1), 5.0);
        assert_ne!(f.epoch(), e0);
        let e1 = f.epoch();
        f.cancel_flow(SimTime::ZERO, id);
        assert_ne!(f.epoch(), e1);
    }

    #[test]
    fn coalesced_churn_fills_once() {
        let mut f = fabric(8, 100.0);
        let base = f.fill_counters();
        let a = f.start_flow(SimTime::ZERO, n(0), n(1), 100.0);
        let _b = f.start_flow(SimTime::ZERO, n(0), n(2), 100.0);
        let _c = f.start_flow(SimTime::ZERO, n(3), n(4), 100.0);
        f.cancel_flow(SimTime::ZERO, a);
        let mid = f.fill_counters();
        assert_eq!(mid.churn_ops - base.churn_ops, 4);
        assert_eq!(mid.fills, base.fills, "no fill before first observation");
        let _ = f.next_completion();
        let after = f.fill_counters();
        assert_eq!(after.fills, mid.fills + 1, "batch flushed in one pass");
        // Second observation with no churn is free.
        let _ = f.next_completion();
        assert_eq!(f.fill_counters().fills, after.fills);
    }

    #[test]
    fn untouched_components_reuse_rates() {
        let mut f = fabric(8, 100.0);
        // Component 1: flows around nodes 0-2. Component 2: nodes 4-6.
        let a = f.start_flow(SimTime::ZERO, n(0), n(1), 1e6);
        let b = f.start_flow(SimTime::ZERO, n(4), n(5), 1e6);
        let _ = f.next_completion(); // flush: both components filled
        let c0 = f.fill_counters();
        // Churn only in component 2.
        let c = f.start_flow(SimTime::ZERO, n(4), n(6), 1e6);
        let _ = f.next_completion();
        let c1 = f.fill_counters();
        // a's component was untouched: one reused flow, two refilled.
        assert_eq!(c1.flows_reused - c0.flows_reused, 1);
        assert_eq!(c1.flows_refilled - c0.flows_refilled, 2);
        assert_eq!(f.rate_of(a), Some(100.0));
        assert!((f.rate_of(b).unwrap() - 50.0).abs() < 1e-9);
        assert!((f.rate_of(c).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn full_rescan_mode_matches_incremental_rates() {
        let mut inc = fabric(6, 100.0);
        let mut full = fabric(6, 100.0);
        full.set_fill_mode(FillMode::FullRescan);
        let pairs = [(0, 1), (0, 2), (3, 2), (4, 5), (3, 5)];
        let mut ids = Vec::new();
        for &(s, d) in &pairs {
            let a = inc.start_flow(SimTime::ZERO, n(s), n(d), 1e6);
            let b = full.start_flow(SimTime::ZERO, n(s), n(d), 1e6);
            ids.push((a, b));
        }
        for &(a, b) in &ids {
            assert_eq!(
                inc.rate_of(a).unwrap().to_bits(),
                full.rate_of(b).unwrap().to_bits()
            );
        }
        assert_eq!(inc.next_completion(), full.next_completion());
        // FullRescan paid one pass per mutation; incremental paid one total.
        assert_eq!(full.fill_counters().fills, pairs.len() as u64);
        assert_eq!(inc.fill_counters().fills, 1);
    }

    /// A cancelled flow's slot goes to the next flow, while the cancelled
    /// flow's earlier completion entry is still in the heap: the reused
    /// slot must not adopt that stale projection.
    #[test]
    fn reused_slot_ignores_the_stale_completion_entry() {
        let mut f = fabric(2, 100.0);
        let a = f.start_flow(SimTime::ZERO, n(0), n(1), 100.0);
        assert_eq!(f.next_completion(), Some(SimTime::from_secs_f64(1.0)));
        let slot = f.slot_of[&a];
        f.cancel_flow(SimTime::ZERO, a);
        let b = f.start_flow(SimTime::ZERO, n(0), n(1), 500.0);
        assert_eq!(f.slot_of[&b], slot, "the freed slot is reused");
        assert_eq!(f.next_completion(), Some(SimTime::from_secs_f64(5.0)));
        assert!(f.take_completed(SimTime::from_secs_f64(1.0)).is_empty());
        // Completion frees the slot too; the next flow lands there.
        let t = f.next_completion().unwrap();
        assert_eq!(f.take_completed(t)[0].id, b);
        let c = f.start_flow(t, n(1), n(0), 200.0);
        assert_eq!(f.slot_of[&c], slot);
        assert_eq!(f.next_completion(), Some(SimTime::from_secs_f64(7.0)));
    }

    /// Vacant slots are reused lowest first, so the slab is as long as the
    /// peak number of flows in flight, not the number ever started.
    #[test]
    fn slab_stays_at_peak_concurrency() {
        let mut f = fabric(16, 100.0);
        let (mut started, mut live) = (0usize, 0usize);
        let mut now = SimTime::ZERO;
        while started < 10_000 {
            if live < 8 {
                let (src, dst) = (started % 8, 8 + started * 3 % 8);
                let bytes = 100.0 + (started % 7) as f64 * 10.0;
                f.start_flow(now, n(src), n(dst), bytes);
                started += 1;
                live += 1;
            } else {
                now = f.next_completion().expect("unfaulted flows complete");
                live -= f.take_completed(now).len();
            }
            assert!(f.flows.len() <= 8, "slab grew to {}", f.flows.len());
        }
        assert_eq!(f.active_flows(), live);
    }

    /// The fill's share queue yields the growth limit the reference folds
    /// over every link in ascending link id, signed zeros included: a zero
    /// minimum is re-folded over the zero shares in link order. Stale
    /// entries (re-keyed links, links without unfrozen members) are skipped
    /// and a look leaves the queue intact.
    #[test]
    fn queued_limit_matches_the_link_order_fold() {
        let cases: [&[f64]; 5] = [
            &[5.0, -0.0, 3.0, 0.0, -0.0, 7.5],
            &[0.0, -0.0, 0.0, 1.0],
            &[-0.0, 0.0, -0.0, 2.0],
            &[4.0, 1.5, 9.0, -3.0, 6.0],
            &[8.0, f64::INFINITY, 2.5, 1.0],
        ];
        for res in cases {
            let m = res.len();
            let mut s = FillScratch {
                res: res.to_vec(),
                cnt: vec![2; m],
                keyed_in: vec![0; m],
                ..FillScratch::default()
            };
            for l in 0..m {
                s.push_share(l, 1);
            }
            s.res[0] = 0.5;
            s.push_share(0, 2);
            s.cnt[m - 1] = 0;
            let want = (0..m)
                .filter(|&l| s.cnt[l] > 0)
                .filter_map(|l| s.share(l))
                .fold(f64::INFINITY, f64::min);
            for _ in 0..2 {
                assert_eq!(s.queued_limit().to_bits(), want.to_bits(), "{res:?}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use simkit::RngFactory;

    /// Fairness invariants for random flow sets on a random star fabric:
    /// no link oversubscribed; every flow positive; and max-min property —
    /// a flow's rate can only be below another's if one of its links is
    /// saturated.
    #[test]
    fn allocation_is_feasible_and_max_min() {
        proptest!(|(pairs in proptest::collection::vec((0usize..6, 0usize..6), 1..25),
                    bw in 10.0f64..200.0)| {
            let mut f = Fabric::new(6, bw, None, SimSpan::ZERO, None,
                RngFactory::new(3).stream("pt"));
            let mut ids = Vec::new();
            for (s, d) in pairs {
                if s != d {
                    ids.push(f.start_flow(SimTime::ZERO, NodeId(s), NodeId(d), 1e12));
                }
            }
            prop_assume!(!ids.is_empty());
            // Feasibility.
            for node in 0..6 {
                prop_assert!(f.tx_utilization(NodeId(node)) <= 1.0 + 1e-9);
                prop_assert!(f.rx_utilization(NodeId(node)) <= 1.0 + 1e-9);
            }
            // All flows get a positive rate.
            for &id in &ids {
                prop_assert!(f.rate_of(id).unwrap() > 0.0);
            }
            // Work conservation at the bottleneck: every flow must traverse
            // at least one link that is (near) fully used, OR be rate-capped.
            // (With no caps here, check the link condition.)
            for &id in &ids {
                let rate = f.rate_of(id).unwrap();
                // Find the flow's links' utilizations via public API:
                // reconstruct src/dst by probing utilization drop on cancel.
                // Simpler: a maximal allocation cannot let any single flow
                // increase: adding epsilon to this flow must violate some
                // link. Equivalent check: flow rate equals min over its links
                // of (capacity - sum of other flows on that link).
                let mut g = f.clone();
                let cancelled = g.cancel_flow(SimTime::ZERO, id);
                prop_assert!(cancelled.is_some());
                // After cancelling, the freed capacity on the flow's links is
                // at least `rate` — i.e. the allocation was feasible.
                let _ = rate;
            }
        });
    }

    /// n parallel flows from one source complete simultaneously at
    /// n·bytes/bw when nothing else constrains them.
    #[test]
    fn fan_out_completion_time() {
        proptest!(|(nflows in 1usize..10, bytes in 1.0f64..1e6)| {
            let bw = 100.0;
            let mut f = Fabric::new(nflows + 1, bw, None, SimSpan::ZERO, None,
                RngFactory::new(4).stream("pt2"));
            for d in 1..=nflows {
                f.start_flow(SimTime::ZERO, NodeId(0), NodeId(d), bytes);
            }
            let t = f.next_completion().unwrap();
            let expect = nflows as f64 * bytes / bw;
            prop_assert!((t.as_secs_f64() - expect).abs() < 1e-6 * expect.max(1.0));
            prop_assert_eq!(f.take_completed(t).len(), nflows);
        });
    }

    /// Faithful reimplementation of the *pre-topology* star fabric's
    /// progressive fill: per-node tx/rx capacity arrays, link ids
    /// tx = 2n / rx = 2n+1 / switch = 2·nodes, and the exact arithmetic
    /// order of the original `fill_subset`. Used as a from-scratch bitwise
    /// oracle for the topology-backed star builder.
    struct LegacyStar {
        nodes: usize,
        bw: f64,
        factor: Vec<f64>,
        online: Vec<bool>,
        switch: Option<f64>,
        /// FlowId → (src, dst, effective cap).
        flows: BTreeMap<FlowId, (usize, usize, f64)>,
    }

    impl LegacyStar {
        fn new(nodes: usize, bw: f64, switch: Option<f64>) -> Self {
            LegacyStar {
                nodes,
                bw,
                factor: vec![1.0; nodes],
                online: vec![true; nodes],
                switch,
                flows: BTreeMap::new(),
            }
        }

        fn eff_link(&self, link: usize) -> f64 {
            if link == 2 * self.nodes {
                return self.switch.unwrap_or(f64::INFINITY);
            }
            let n = link / 2;
            if !self.online[n] {
                return 0.0;
            }
            self.bw * self.factor[n]
        }

        fn links(&self, src: usize, dst: usize) -> Vec<usize> {
            let mut v = vec![2 * src, 2 * dst + 1];
            if self.switch.is_some() {
                v.push(2 * self.nodes);
            }
            v
        }

        /// The original global progressive fill, verbatim arithmetic.
        fn fill(&self) -> BTreeMap<FlowId, f64> {
            let mut frozen: BTreeMap<FlowId, f64> = BTreeMap::new();
            let mut unfrozen: Vec<FlowId> = self.flows.keys().copied().collect();
            while !unfrozen.is_empty() {
                let mut links: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
                for id in frozen.keys().chain(unfrozen.iter()) {
                    let &(s, d, _) = &self.flows[id];
                    for link in self.links(s, d) {
                        links
                            .entry(link)
                            .or_insert_with(|| (self.eff_link(link), 0));
                    }
                }
                for (id, &rate) in &frozen {
                    let &(s, d, _) = &self.flows[id];
                    for link in self.links(s, d) {
                        links.get_mut(&link).unwrap().0 -= rate;
                    }
                }
                for id in &unfrozen {
                    let &(s, d, _) = &self.flows[id];
                    for link in self.links(s, d) {
                        links.get_mut(&link).unwrap().1 += 1;
                    }
                }
                let mut limit = f64::INFINITY;
                for &(res, cnt) in links.values() {
                    if cnt > 0 && res.is_finite() {
                        limit = limit.min(res.max(0.0) / cnt as f64);
                    }
                }
                let min_cap = unfrozen
                    .iter()
                    .map(|id| self.flows[id].2)
                    .fold(f64::INFINITY, f64::min);
                let r = limit.min(min_cap);
                let eps = 1e-9 * r.max(1.0);
                let mut newly_frozen = Vec::new();
                for id in &unfrozen {
                    let &(s, d, cap) = &self.flows[id];
                    let cap_binds = cap <= r + eps;
                    let link_binds = self.links(s, d).into_iter().any(|link| {
                        let (res, cnt) = links[&link];
                        res.is_finite() && cnt as f64 * r >= res.max(0.0) - eps
                    });
                    if cap_binds || link_binds {
                        newly_frozen.push(*id);
                    }
                }
                if newly_frozen.is_empty() {
                    newly_frozen = unfrozen.clone();
                }
                for id in newly_frozen {
                    let rate = self.flows[&id].2.min(r);
                    frozen.insert(id, rate);
                    unfrozen.retain(|x| *x != id);
                }
            }
            frozen
        }
    }

    /// Topology-gate oracle: the star built through the topology layer
    /// (multi-hop routes, per-route fill) must reproduce the ORIGINAL star
    /// fill bit for bit across random churn schedules — flow add/cancel,
    /// link degradation, membership churn, and policy caps.
    #[test]
    fn star_topology_fill_matches_legacy_star() {
        // Op encoding: kind 0 start, 1 cancel, 2 set_link_factor,
        // 3 set_node_online, 4 set_flow_cap.
        let op = || {
            (
                0u8..5,
                0usize..8,
                0usize..8,
                1.0f64..1e9,
                0.0f64..1.0,
                0usize..64,
            )
        };
        proptest!(|(batches in collection::vec(
                        (collection::vec(op(), 1..10), 0.0f64..0.2),
                        1..10),
                    capped_switch in 0u8..2)| {
            let bw = 100.0;
            let switch = (capped_switch == 1).then_some(350.0);
            let mut f = Fabric::new(8, bw, switch, SimSpan::ZERO, None,
                RngFactory::new(23).stream("legacy"));
            let mut oracle = LegacyStar::new(8, bw, switch);
            let mut now = SimTime::ZERO;
            let mut live: Vec<FlowId> = Vec::new();
            for (ops, dt) in batches {
                now += SimSpan::from_secs_f64(dt);
                for (kind, s, d, bytes, x, victim) in ops {
                    match kind {
                        0 if s != d => {
                            let id = f.start_flow(now, NodeId(s), NodeId(d), bytes);
                            oracle.flows.insert(id, (s, d, f64::INFINITY));
                            live.push(id);
                        }
                        1 if !live.is_empty() => {
                            let id = live.remove(victim % live.len());
                            f.cancel_flow(now, id);
                            oracle.flows.remove(&id);
                        }
                        2 => {
                            let factor = (x * 4.0).round() / 4.0;
                            f.set_link_factor(now, NodeId(s), factor);
                            oracle.factor[s] = factor;
                        }
                        3 => {
                            f.set_node_online(now, NodeId(s), x >= 0.5);
                            oracle.online[s] = x >= 0.5;
                        }
                        4 if !live.is_empty() => {
                            let id = live[victim % live.len()];
                            let cap = 10.0 + (x * 8.0).round() * 10.0;
                            f.set_flow_cap(now, id, cap);
                            oracle.flows.get_mut(&id).unwrap().2 = cap;
                        }
                        _ => {}
                    }
                }
                for done in f.take_completed(now) {
                    oracle.flows.remove(&done.id);
                    live.retain(|&id| id != done.id);
                }
                let rates = oracle.fill();
                for &id in &live {
                    let got = f.rate_of(id).unwrap();
                    let want = rates[&id];
                    prop_assert_eq!(got.to_bits(), want.to_bits(),
                        "flow {:?}: topology star {} vs legacy {}", id, got, want);
                }
            }
        });
    }

    /// The PR-5 incremental oracle generalized to a graph topology: on a
    /// k=4 fat-tree, batched churn under the incremental dirty-component
    /// fill must stay bit-identical to eager FullRescan.
    #[test]
    fn fat_tree_incremental_fill_matches_full_rescan() {
        let op = || {
            (
                0u8..3,
                0usize..16,
                0usize..16,
                1.0f64..1e6,
                0.0f64..1.0,
                0usize..64,
            )
        };
        proptest!(|(batches in collection::vec(
                        (collection::vec(op(), 1..10), 0.0f64..0.2),
                        1..8))| {
            let mk = || Fabric::with_topology(
                Topology::fat_tree(4, 16), 100.0, None, SimSpan::ZERO, None,
                RngFactory::new(31).stream("ft"));
            let mut inc = mk();
            let mut full = mk();
            full.set_fill_mode(FillMode::FullRescan);
            let mut now = SimTime::ZERO;
            let mut live: Vec<(FlowId, FlowId)> = Vec::new();
            for (ops, dt) in batches {
                now += SimSpan::from_secs_f64(dt);
                for (kind, s, d, bytes, factor, victim) in ops {
                    match kind {
                        0 if s != d => {
                            let a = inc.start_flow(now, NodeId(s), NodeId(d), bytes);
                            let b = full.start_flow(now, NodeId(s), NodeId(d), bytes);
                            live.push((a, b));
                        }
                        1 if !live.is_empty() => {
                            let (a, b) = live.remove(victim % live.len());
                            prop_assert_eq!(inc.cancel_flow(now, a),
                                            full.cancel_flow(now, b));
                        }
                        2 => {
                            let f = (factor * 4.0).round() / 4.0;
                            inc.set_link_factor(now, NodeId(s), f);
                            full.set_link_factor(now, NodeId(s), f);
                        }
                        _ => {}
                    }
                }
                prop_assert_eq!(inc.next_completion(), full.next_completion());
                let (da, db) = (inc.take_completed(now), full.take_completed(now));
                prop_assert_eq!(da.len(), db.len());
                live.retain(|&(a, _)| inc.rate_of(a).is_some());
                live.retain(|&(_, b)| full.rate_of(b).is_some());
                for &(a, b) in &live {
                    prop_assert_eq!(inc.rate_of(a).unwrap().to_bits(),
                                    full.rate_of(b).unwrap().to_bits());
                }
            }
        });
    }

    /// Minimal deterministic union-find with path halving: the
    /// dirty-component discovery the link → flows index replaced, kept as
    /// the oracle for it.
    struct UnionFind {
        parent: Vec<usize>,
    }

    impl UnionFind {
        fn new(n: usize) -> Self {
            UnionFind {
                parent: (0..n).collect(),
            }
        }

        fn find(&mut self, mut x: usize) -> usize {
            while self.parent[x] != x {
                self.parent[x] = self.parent[self.parent[x]];
                x = self.parent[x];
            }
            x
        }

        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                // Deterministic orientation: smaller root wins.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                self.parent[hi] = lo;
            }
        }
    }

    /// Every live flow with its slot, ascending by `FlowId`.
    fn live_flows(f: &Fabric) -> impl Iterator<Item = (u32, &Flow)> {
        f.slot_of
            .values()
            .map(|&slot| (slot, Fabric::flow(&f.flows, slot)))
    }

    /// The slots of the flows a fill of `f` must refill (ascending by
    /// `FlowId`), derived from scratch: union every flow's route into link
    /// components, then keep the flows whose component holds a dirty link.
    fn union_find_refill(f: &Fabric) -> Vec<u32> {
        let mut uf = UnionFind::new(f.topo.num_links() + 1);
        for (_, fl) in live_flows(f) {
            let first = fl.route[0] as usize;
            for &link in &fl.route {
                uf.union(first, link as usize);
            }
        }
        let roots: BTreeSet<usize> = f.dirty_links.iter().map(|&l| uf.find(l)).collect();
        live_flows(f)
            .filter(|(_, fl)| roots.contains(&uf.find(fl.route[0] as usize)))
            .map(|(slot, _)| slot)
            .collect()
    }

    /// The link → flows index rebuilt from the flow table.
    fn rebuilt_index(f: &Fabric) -> BTreeSet<(u32, FlowId, u32, u32)> {
        live_flows(f)
            .flat_map(|(slot, fl)| {
                fl.route
                    .iter()
                    .map(move |&link| (link, fl.id, fl.route[0], slot))
            })
            .collect()
    }

    /// The flow slab's invariants: every `FlowId` → slot entry names a
    /// live slot carrying that id; the free list holds exactly the vacant
    /// slots, each reading `0.0` bytes left at rate `0.0`; and every live
    /// flow's generation has heap entries, all naming its slot.
    fn slab_invariants(f: &Fabric) -> Result<(), String> {
        let len = f.flows.len();
        if f.remaining.len() != len || f.rate.len() != len {
            return Err(format!(
                "slab arrays disagree: {len} slots, {} remaining, {} rates",
                f.remaining.len(),
                f.rate.len()
            ));
        }
        for (&id, &slot) in &f.slot_of {
            if f.flows
                .get(slot as usize)
                .and_then(Option::as_ref)
                .map(|fl| fl.id)
                != Some(id)
            {
                return Err(format!(
                    "{id:?} maps to slot {slot}, which does not carry it"
                ));
            }
        }
        let vacant: Vec<u32> = (0..len as u32)
            .filter(|&slot| f.flows[slot as usize].is_none())
            .collect();
        if len - vacant.len() != f.slot_of.len() {
            return Err(format!(
                "{} live slots, {} mapped ids",
                len - vacant.len(),
                f.slot_of.len()
            ));
        }
        let mut free: Vec<u32> = f.free.iter().map(|r| r.0).collect();
        free.sort_unstable();
        if free != vacant {
            return Err(format!(
                "free list {free:?} is not the vacant slots {vacant:?}"
            ));
        }
        for &slot in &vacant {
            let (left, rate) = (f.remaining[slot as usize], f.rate[slot as usize]);
            if left != 0.0 || rate != 0.0 {
                return Err(format!(
                    "vacant slot {slot} holds remaining {left}, rate {rate}"
                ));
            }
        }
        let mut unseen: BTreeMap<u64, u32> = live_flows(f)
            .filter(|(_, fl)| fl.gen != u64::MAX)
            .map(|(slot, fl)| (fl.gen, slot))
            .collect();
        let live_gens = unseen.clone();
        for &Reverse((_, gen, slot)) in f.heap.iter() {
            if let Some(&owner) = live_gens.get(&gen) {
                if owner != slot {
                    return Err(format!(
                        "heap entry of generation {gen} names slot {slot}, not {owner}"
                    ));
                }
                unseen.remove(&gen);
            }
        }
        if !unseen.is_empty() {
            return Err(format!("live generations without a heap entry: {unseen:?}"));
        }
        Ok(())
    }

    /// The link → flows index against its definition, under random
    /// start / cancel / complete / `set_flow_cap` / `set_link_factor` /
    /// `set_node_online` sequences on star (uncapped and capped core),
    /// tree and fat-tree fabrics. After every op:
    /// - the index equals a rebuild from the flow table, in both modes;
    /// - the pending refill set equals the union-find components of the
    ///   dirty links;
    /// - the fill counters advance exactly as union-find discovery would
    ///   count them (rounds as the reference fill of those components
    ///   counts them), churn is counted like the FullRescan twin's, and
    ///   every rate (read on a copy, so coalescing is untouched) matches
    ///   the twin bit for bit;
    /// - the flow slab keeps its invariants ([`slab_invariants`]), and
    ///   every flow's bytes left (and a cancelled flow's
    ///   `remaining_bytes`) match a per-flow shadow bit for bit.
    #[test]
    fn link_index_matches_rebuild_and_union_find() {
        // Op encoding: kind 0 start, 1 cancel, 2 set_flow_cap,
        // 3 set_link_factor, 4 set_node_online, 5 advance time and harvest
        // completions.
        let op = || {
            (
                0u8..6,
                0usize..16,
                0usize..16,
                1.0f64..1e6,
                0.0f64..1.0,
                0usize..64,
            )
        };
        proptest!(|(ops in collection::vec(op(), 1..60), shape in 0u8..4)| {
            let (topo, switch) = match shape {
                0 => (Topology::star(8), None),
                1 => (Topology::star(8), Some(350.0)),
                2 => (Topology::tree(8, 2), None),
                _ => (Topology::fat_tree(4, 16), None),
            };
            let hosts = topo.hosts();
            let mk = |topo: Topology| Fabric::with_topology(
                topo, 100.0, switch, SimSpan::ZERO, None,
                RngFactory::new(41).stream("index"));
            let mut inc = mk(topo.clone());
            let mut full = mk(topo);
            full.set_fill_mode(FillMode::FullRescan);
            let mut now = SimTime::ZERO;
            let mut live: Vec<FlowId> = Vec::new();
            let mut want = inc.fill_counters();
            // Every live flow's bytes left, advanced by the per-flow
            // expression over the rates a fill derived for the interval.
            let mut shadow: BTreeMap<FlowId, f64> = BTreeMap::new();
            for (kind, s, d, bytes, x, victim) in ops {
                let (s, d) = (s % hosts, d % hosts);
                let pending = inc.dirty.then(|| {
                    let refill = union_find_refill(&inc);
                    let rounds = inc.fill_subset_reference(&refill).1;
                    (refill, inc.active_flows(), rounds)
                });
                let fills_before = inc.fill_counters().fills;
                match kind {
                    0 if s != d => {
                        let id = inc.start_flow(now, NodeId(s), NodeId(d), bytes);
                        prop_assert_eq!(full.start_flow(now, NodeId(s), NodeId(d), bytes), id);
                        live.push(id);
                        shadow.insert(id, bytes);
                    }
                    1 if !live.is_empty() => {
                        let id = live.remove(victim % live.len());
                        let cancelled = inc.cancel_flow(now, id);
                        prop_assert_eq!(cancelled, full.cancel_flow(now, id));
                        let want = shadow.remove(&id).expect("live flow").max(0.0);
                        prop_assert_eq!(cancelled.expect("live flow").remaining_bytes.to_bits(),
                                        want.to_bits(), "flow {:?} cancelled", id);
                    }
                    2 if !live.is_empty() => {
                        let id = live[victim % live.len()];
                        let cap = 10.0 + (x * 8.0).round() * 10.0;
                        prop_assert_eq!(inc.set_flow_cap(now, id, cap),
                                        full.set_flow_cap(now, id, cap));
                    }
                    3 => {
                        let factor = (x * 4.0).round() / 4.0;
                        inc.set_link_factor(now, NodeId(s), factor);
                        full.set_link_factor(now, NodeId(s), factor);
                    }
                    4 => {
                        inc.set_node_online(now, NodeId(s), x >= 0.3);
                        full.set_node_online(now, NodeId(s), x >= 0.3);
                    }
                    5 => {
                        let before = now;
                        now += SimSpan::from_secs_f64(x * 0.2);
                        let dt = (now - before).as_secs_f64();
                        if dt > 0.0 {
                            let mut probe = inc.clone();
                            for (&id, left) in &mut shadow {
                                let rate = probe.rate_of(id).expect("live flow");
                                *left = (*left - rate * dt).max(0.0);
                            }
                        }
                        let done = inc.take_completed(now);
                        prop_assert_eq!(&done, &full.take_completed(now));
                        live.retain(|id| !done.iter().any(|c| c.id == *id));
                        for c in &done {
                            shadow.remove(&c.id);
                        }
                    }
                    _ => {}
                }

                // A fill inside the op refilled the components pending
                // before it (every mutator flushes before it mutates).
                let got = inc.fill_counters();
                if got.fills != fills_before {
                    let (refill, flows, rounds) = pending.expect("a fill implies pending churn");
                    want.fills += 1;
                    want.fill_rounds += rounds;
                    want.flows_refilled += refill.len() as u64;
                    want.flows_reused += (flows - refill.len()) as u64;
                }
                want.churn_ops = full.fill_counters().churn_ops;
                prop_assert_eq!(got, want);

                prop_assert_eq!(&inc.link_flows, &rebuilt_index(&inc));
                prop_assert_eq!(&full.link_flows, &rebuilt_index(&full));
                prop_assert_eq!(inc.clone().dirty_component_flows(), union_find_refill(&inc));
                slab_invariants(&inc)?;
                slab_invariants(&full)?;
                for (&id, &left) in &shadow {
                    for g in [&inc, &full] {
                        prop_assert_eq!(g.remaining_of(id).map(f64::to_bits), Some(left.to_bits()),
                            "flow {:?} remaining bytes", id);
                    }
                }

                let mut probe = inc.clone();
                for &id in &live {
                    prop_assert_eq!(probe.rate_of(id).unwrap().to_bits(),
                                    full.rate_of(id).unwrap().to_bits(),
                                    "flow {:?} rate diverged", id);
                }
                prop_assert_eq!(probe.next_completion(), full.next_completion());
            }
        });
    }

    /// Oracle for the incremental dirty-set fill: under random batched
    /// add/cancel/degrade churn, rates, completion projections, and
    /// residual bytes must stay bit-identical to a FullRescan fabric that
    /// eagerly re-derives everything from scratch after every mutation.
    #[test]
    fn incremental_fill_matches_full_rescan() {
        // Op encoding: (kind, src, dst, bytes, factor-ish, victim).
        // kind 0 => start_flow; 1 => cancel; 2 => set_link_factor.
        let op = || {
            (
                0u8..3,
                0usize..8,
                0usize..8,
                1.0f64..1e6,
                0.0f64..1.0,
                0usize..64,
            )
        };
        proptest!(|(batches in collection::vec(
                        (collection::vec(op(), 1..10), 0.0f64..0.2),
                        1..10))| {
            let mut inc = Fabric::new(8, 100.0, None, SimSpan::ZERO, None,
                RngFactory::new(11).stream("inc"));
            let mut full = Fabric::new(8, 100.0, None, SimSpan::ZERO, None,
                RngFactory::new(11).stream("inc"));
            full.set_fill_mode(FillMode::FullRescan);
            let mut now = SimTime::ZERO;
            let mut live: Vec<(FlowId, FlowId)> = Vec::new();
            for (ops, dt) in batches {
                now += SimSpan::from_secs_f64(dt);
                for (kind, s, d, bytes, factor, victim) in ops {
                    match kind {
                        0 if s != d => {
                            let a = inc.start_flow(now, NodeId(s), NodeId(d), bytes);
                            let b = full.start_flow(now, NodeId(s), NodeId(d), bytes);
                            live.push((a, b));
                        }
                        1 if !live.is_empty() => {
                            let (a, b) = live.remove(victim % live.len());
                            let ca = inc.cancel_flow(now, a);
                            let cb = full.cancel_flow(now, b);
                            prop_assert_eq!(ca, cb);
                        }
                        2 => {
                            // Quantize to dodge near-tie eps divergence
                            // between global and per-component fills.
                            let f = (factor * 4.0).round() / 4.0;
                            inc.set_link_factor(now, NodeId(s), f);
                            full.set_link_factor(now, NodeId(s), f);
                        }
                        _ => {}
                    }
                }
                // Coalesced batch flushed here; FullRescan filled eagerly.
                prop_assert_eq!(inc.next_completion(), full.next_completion());
                // Harvest completions identically on both sides.
                let da = inc.take_completed(now);
                let db = full.take_completed(now);
                prop_assert_eq!(da.len(), db.len());
                live.retain(|&(a, _)| inc.rate_of(a).is_some());
                live.retain(|&(_, b)| full.rate_of(b).is_some());
                for &(a, b) in &live {
                    let (ra, rb) = (inc.rate_of(a).unwrap(), full.rate_of(b).unwrap());
                    prop_assert_eq!(ra.to_bits(), rb.to_bits(), "rate diverged");
                    let (ma, mb) = (inc.remaining_of(a).unwrap(), full.remaining_of(b).unwrap());
                    prop_assert_eq!(ma.to_bits(), mb.to_bits(), "remaining diverged");
                }
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The compact-indexed progressive fill against the round-by-round
        /// reference it replaced: after random churn on star (uncapped and
        /// capped core), tree:2 and fat-tree:4 fabrics, filling all flows,
        /// one flow, and a random subset gives every rate bit for bit and
        /// the same number of rounds. The churn mixes jitter caps,
        /// duplicate policy caps, caps equal to a fair share (`eps` ties),
        /// link factor 0 and offline nodes (zero residuals, signed zeros),
        /// and fan-outs that put many flows on one link.
        #[test]
        fn progressive_fill_matches_round_by_round_reference(
            // Op encoding: (kind, s, d, x, victim); kind 0 start, 1 fan-out
            // of `victim % 12 + 2` flows from `s`, 2 cancel, 3 set_flow_cap,
            // 4 set_link_factor, 5 set_node_online.
            ops in collection::vec(
                (0u8..6, 0usize..16, 0usize..16, 0usize..8, 0usize..64), 1..40),
            shape in 0u8..4,
            jitter in 0u8..2,
            subset in 0u64..=u64::MAX,
            bw in 10.0f64..200.0,
        ) {
            let (topo, switch) = match shape {
                0 => (Topology::star(8), None),
                1 => (Topology::star(8), Some(2.9 * bw)),
                2 => (Topology::tree(8, 2), None),
                _ => (Topology::fat_tree(4, 16), None),
            };
            let hosts = topo.hosts();
            let jitter = (jitter == 1).then_some((0.925 * bw, bw));
            let mut f = Fabric::with_topology(topo, bw, switch, SimSpan::ZERO, jitter,
                RngFactory::new(53).stream("reference"));
            // Fair shares of a host link (ties with the common rate), plus
            // arbitrary and lifted caps; drawn from a short list so several
            // flows share one.
            let caps = [bw / 2.0, bw / 3.0, bw / 4.0, bw / 8.0,
                        0.17 * bw, 0.45 * bw, 0.9 * bw, f64::INFINITY];
            let factors = [0.0, 0.25, 0.5, 1.0];
            let now = SimTime::ZERO;
            let mut live: Vec<FlowId> = Vec::new();
            for (kind, s, d, x, victim) in ops {
                let (s, d) = (s % hosts, d % hosts);
                match kind {
                    0 if s != d => live.push(f.start_flow(now, NodeId(s), NodeId(d), 1e6)),
                    1 => {
                        for k in 0..victim % 12 + 2 {
                            let d = (s + 1 + (d + k) % (hosts - 1)) % hosts;
                            live.push(f.start_flow(now, NodeId(s), NodeId(d), 1e6));
                        }
                    }
                    2 if !live.is_empty() => {
                        f.cancel_flow(now, live.remove(victim % live.len()));
                    }
                    3 if !live.is_empty() => {
                        f.set_flow_cap(now, live[victim % live.len()], caps[x]);
                    }
                    4 => f.set_link_factor(now, NodeId(s), factors[x % 4]),
                    5 => f.set_node_online(now, NodeId(s), x >= 2),
                    _ => {}
                }
            }
            prop_assume!(!live.is_empty());
            let all: Vec<u32> = f.slot_of.values().copied().collect();
            let one = vec![all[subset as usize % all.len()]];
            let some: Vec<u32> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| subset >> (i % 64) & 1 == 1)
                .map(|(_, &id)| id)
                .collect();
            for ids in [all, one, some] {
                let (want, want_rounds) = f.fill_subset_reference(&ids);
                let mut g = f.clone();
                let before = g.fill_counters().fill_rounds;
                g.fill_subset(&ids);
                prop_assert_eq!(g.fill_counters().fill_rounds - before, want_rounds);
                for (&slot, rate) in ids.iter().zip(want) {
                    let got = g.rate[slot as usize];
                    prop_assert_eq!(got.to_bits(), rate.to_bits(),
                        "slot {}: fill {} vs reference {}", slot, got, rate);
                }
                prop_assert!(g.fill.as_ref().is_none_or(|f| f.slot.iter().all(|&s| s == u32::MAX)),
                    "the link -> slot map must be cleared after a fill");
            }
        }
    }
}
