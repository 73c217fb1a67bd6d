//! The request-level simulation loop (§4.1).
//!
//! For every request the simulator:
//!
//! 1. routes it per the design — along the shortest path toward the origin
//!    (any on-path cache may answer, with an optional scoped sibling lookup
//!    at cache-equipped tree routers), or directly to the nearest replica
//!    (zero lookup cost, the ICN ideal);
//! 2. serves it at the first eligible cache, or at the origin;
//! 3. transfers the object back along the response path, counting one
//!    transfer (or the object's bytes) on every traversed link, and
//!    **stores the object in every cache-equipped router on that path**;
//! 4. accounts latency = sum of traversed link costs + 1 (the serving hop,
//!    so a hit in the requesting leaf's own cache costs 1).
//!
//! The simulator is request-granular by design: no packets, TCP, or queueing
//! ("we use a request-level simulator and thus we do not model packet-level,
//! TCP, or router queueing effects", §4.1).

use crate::capacity::CapacityTracker;
use crate::config::{ExperimentConfig, InsertionPolicy};
use crate::costs::CostTable;
use crate::design::{DesignSpec, Routing};
use crate::dir::ReplicaDir;
use crate::fault::{FaultGroups, FaultSchedule, NO_GROUP};
use crate::instrument::SimObs;
use crate::metrics::{RunMetrics, LATENCY_HIST_SCALE};
use icn_cache::budget::per_node_budgets;
use icn_cache::CacheSlot;
// lint:allow(feature-gate-obs): TraceRecord is a plain data type built in every configuration; the `obs` feature gates instrumentation, not types
use icn_obs::TraceRecord;
use icn_topology::{Network, NodeId};
use icn_workload::trace::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Where a request was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Server {
    /// A cache at this router, reached at this index on the request path.
    Cache { node: NodeId, path_idx: usize },
    /// A sibling cache reached by a scoped cooperative lookup from the
    /// router at this path index.
    Sibling { sibling: NodeId, via_idx: usize },
    /// The origin PoP root.
    Origin(NodeId),
}

/// Where a nearest-replica request is served once faults are considered.
enum NrChoice {
    /// A live replica at this cost.
    Replica {
        /// Path cost from the requesting leaf to the replica.
        cost: f64,
        /// The serving router.
        node: NodeId,
        /// The replica is corrupted and the design cannot detect it: the
        /// poisoned bytes are delivered and counted as an integrity
        /// failure (`corrupt_served`).
        poisoned: bool,
    },
    /// No eligible replica; the (reachable) origin serves.
    Origin,
    /// Origin unreachable and no live replica: the request fails.
    Failed,
}

/// Materialized fault state for the current request window.
///
/// The [`FaultSchedule`] itself is stateless; this caches its answers for
/// one window as flat `Vec<bool>`s so the per-request cost under faults is
/// an index, not a hash. Rebuilt at every window transition by
/// [`Simulator::advance_faults`] — the run loop visits request indices in
/// order, so windows advance gap-free and crash events (which flush cache
/// contents) are never skipped.
struct FaultState {
    schedule: FaultSchedule,
    /// Window the vectors below describe; `u64::MAX` forces the first
    /// rebuild at request 0.
    window: u64,
    node_down: Vec<bool>,
    link_down: Vec<bool>,
    origin_degraded: Vec<bool>,
    /// Fast skip for path-liveness checks when no link is down.
    any_link_down: bool,
    /// True when any fault (node, link, or origin) is active this window;
    /// drives the latency-under-failure histogram.
    fault_active: bool,
    /// Serving-capacity gate applied to *degraded* origin PoPs, reusing
    /// the §5.1 capacity model (indexed by PoP, not router).
    origin_capacity: CapacityTracker,
    /// Topology-derived shared-risk groups (§ DESIGN.md "Correlated fault
    /// model"); `None` unless the config carries a disaster layer with a
    /// positive group rate, so independent-fault runs pay nothing.
    groups: Option<FaultGroups>,
    /// Per-group down state for the current window (scratch, parallel to
    /// `groups`).
    group_down: Vec<bool>,
    /// PoPs degraded this window by cascading overload (scratch).
    cascade: Vec<bool>,
}

impl FaultState {
    fn new(schedule: FaultSchedule, net: &Network) -> Self {
        let origin_capacity =
            CapacityTracker::new(schedule.config().degraded_origin, net.pops() as usize);
        let groups = schedule
            .config()
            .disaster
            .filter(|d| d.group_rate > 0.0)
            .map(|_| FaultGroups::derive(net));
        let group_count = groups.as_ref().map_or(0, |g| g.count() as usize);
        Self {
            schedule,
            window: u64::MAX,
            node_down: vec![false; net.node_count() as usize],
            link_down: vec![false; net.link_count() as usize],
            origin_degraded: vec![false; net.pops() as usize],
            any_link_down: false,
            fault_active: false,
            origin_capacity,
            groups,
            group_down: vec![false; group_count],
            cascade: vec![false; net.pops() as usize],
        }
    }

    /// Re-evaluates every entity's fault state for window `w`.
    fn rebuild(&mut self, w: u64, net: &Network) {
        // Cascading overload seeds are read off the *outgoing* window's
        // state before it is overwritten: a degraded origin that actually
        // saturated its capacity sheds load onto its core neighbors next
        // window. Consecutive windows only — a cascade dies across a gap
        // in the request stream, and a zero-rate schedule (never degraded,
        // never saturated) can never seed one. The seed vector includes
        // any prior cascade, so sustained overload compounds outward.
        let cascading = self
            .schedule
            .config()
            .disaster
            .is_some_and(|d| d.cascade_overload);
        if cascading {
            let consecutive = self.window != u64::MAX && w == self.window + 1;
            for q in 0..self.cascade.len() {
                self.cascade[q] = consecutive
                    && net.core.neighbors(q as u32).iter().any(|&p| {
                        self.origin_degraded[p as usize] && self.origin_capacity.is_saturated(p)
                    });
            }
        }
        self.window = w;
        let mut any_node = false;
        for (n, down) in self.node_down.iter_mut().enumerate() {
            *down = self.schedule.node_down(n as u32, w);
            any_node |= *down;
        }
        let mut any_link = false;
        for (l, down) in self.link_down.iter_mut().enumerate() {
            *down = self.schedule.link_down(l as u32, w);
            any_link |= *down;
        }
        let mut any_origin = false;
        for (p, deg) in self.origin_degraded.iter_mut().enumerate() {
            *deg = self.schedule.origin_degraded(p as u16, w);
            any_origin |= *deg;
        }
        // Shared-risk overlay: every member of a down group is down,
        // OR-ed over the independent per-entity state.
        if let Some(groups) = &self.groups {
            let mut any_group = false;
            for g in 0..groups.count() {
                let down = self.schedule.group_down(g, w);
                self.group_down[g as usize] = down;
                any_group |= down;
            }
            if any_group {
                for (n, down) in self.node_down.iter_mut().enumerate() {
                    let g = groups.node_group(n as u32);
                    if g != NO_GROUP && self.group_down[g as usize] {
                        *down = true;
                        any_node = true;
                    }
                }
                for (l, down) in self.link_down.iter_mut().enumerate() {
                    for g in groups.link_groups_of(l as u32) {
                        if g != NO_GROUP && self.group_down[g as usize] {
                            *down = true;
                            any_link = true;
                        }
                    }
                }
            }
        }
        if cascading {
            for (q, deg) in self.origin_degraded.iter_mut().enumerate() {
                if self.cascade[q] {
                    *deg = true;
                    any_origin = true;
                }
            }
        }
        self.any_link_down = any_link;
        self.fault_active = any_node || any_link || any_origin;
    }
}

/// A configured simulator bound to a network, an origin map, and object
/// sizes. Feed it a request stream with [`Simulator::run`].
pub struct Simulator<'a> {
    net: &'a Network,
    spec: DesignSpec,
    cfg: ExperimentConfig,
    /// Path costs precomputed over `net` × `cfg.latency`; every hot-path
    /// cost query is a table load instead of an `O(depth)` climb.
    costs: CostTable,
    /// One enum-dispatched slot per router: cache probes inline instead of
    /// chasing a `Box<dyn CachePolicy>` vtable per hop.
    caches: Vec<CacheSlot>,
    /// `equipped[n]` = the router carries a cache — a struct-of-arrays
    /// mirror of `CacheSlot::is_equipped`. The hot gates (sibling coop,
    /// response-path insertion, crash flushing) test equipment far more
    /// often than they touch cache contents; a flat `bool` load keeps
    /// those passes on one contiguous array instead of striding through
    /// the enum slots.
    equipped: Vec<bool>,
    /// The cache-equipped routers holding each object (see
    /// [`crate::dir`]), kept in sync with `caches` under nearest-replica
    /// routing and `None` otherwise.
    dir: Option<ReplicaDir>,
    origins: &'a [u16],
    object_sizes: &'a [u32],
    capacity: Option<CapacityTracker>,
    /// Deterministic fault injection; `None` (the default) keeps the
    /// fault-free hot path — every fault check starts with one
    /// `Option::is_none` branch.
    fault: Option<FaultState>,
    /// Pending lease expiries under a TTL policy: `(lease end, node,
    /// object)` in insertion order. Stamps are `insert time + ttl` with a
    /// monotone insert clock, so the front is always the next lease due —
    /// a plain queue, no heap needed. Entries for renewed or flushed
    /// leases go stale; [`CacheSlot::expire`] rejects them by stamp.
    ttl_queue: VecDeque<(u64, NodeId, u32)>,
    /// Lease length when the configured policy is TTL (all equipped slots
    /// share one policy); `None` keeps the expiry drain off the hot path.
    ttl_len: Option<u64>,
    /// Drives probabilistic insertion decisions; fixed seed keeps runs
    /// reproducible.
    rng: StdRng,
    metrics: RunMetrics,
    /// Optional instrumentation (timers, trace records, progress); a no-op
    /// shell when the `obs` feature is disabled.
    obs: Option<SimObs>,
    path_buf: Vec<NodeId>,
    nodes_buf: Vec<NodeId>,
    links_buf: Vec<u32>,
    /// Scratch for sibling tree indices in the cooperative lookup — the
    /// lookup runs on every cache-equipped router a miss climbs past, so
    /// allocating a fresh `Vec` per probe would be a per-miss heap hit.
    siblings_buf: Vec<u32>,
    /// Scratch for nearest-replica candidate lists (capacity-limited and
    /// faulted selection) — same rationale as `siblings_buf`. Split into
    /// parallel cost/node arrays so the select-min scan is two contiguous
    /// slice walks (struct-of-arrays: no `(f64, u32)` padding, and the
    /// cost lane vectorizes) instead of striding through 16-byte tuples.
    cand_cost: Vec<f64>,
    /// Candidate node ids, parallel to `cand_cost`.
    cand_node: Vec<NodeId>,
    /// Validation mode (`ICN_SIM_REFERENCE=1`): every path cost comes from
    /// [`LatencyModel::path_cost`], and nearest-replica candidates come
    /// from ground truth — every equipped router whose cache holds the
    /// object — instead of the replica directory. `scripts/check.sh`
    /// byte-compares fig6 output with and without the flag, so a
    /// directory that drifts from the caches, or a cost table that drifts
    /// from the model, changes a figure.
    ///
    /// [`LatencyModel::path_cost`]: crate::latency::LatencyModel::path_cost
    reference: bool,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator. `origins[object]` is the owning PoP;
    /// `object_sizes[object]` is used when `cfg.weight_by_size` is set.
    pub fn new(
        net: &'a Network,
        cfg: ExperimentConfig,
        origins: &'a [u16],
        object_sizes: &'a [u32],
    ) -> Self {
        assert_eq!(origins.len(), object_sizes.len(), "origins/sizes mismatch");
        let objects = origins.len() as u64;
        let spec = cfg.design.spec(net);
        let budgets = per_node_budgets(
            cfg.budget_policy,
            cfg.f_fraction,
            objects,
            &net.core.populations,
            net.nodes_per_pop(),
        );
        let mut caches: Vec<CacheSlot> = Vec::with_capacity(net.node_count() as usize);
        for n in 0..net.node_count() {
            if spec.cache_set.has_cache(net, n) {
                let cap = if spec.infinite_budget {
                    objects as usize
                } else {
                    (budgets[n as usize] as f64 * spec.budget_multiplier).round() as usize
                };
                caches.push(CacheSlot::build(cfg.policy, cap));
            } else {
                caches.push(CacheSlot::None);
            }
        }
        // Build-mode switch: selects the slow reference implementation that check.sh
        // byte-compares against the flat path; within either mode runs are bit-reproducible.
        // lint:allow(deterministic-core-reach): build-mode switch, not a per-run input
        let reference = std::env::var_os("ICN_SIM_REFERENCE").is_some_and(|v| v != "0");
        let costs = CostTable::new(net, cfg.latency);
        let dir = (spec.routing == Routing::NearestReplica)
            .then(|| ReplicaDir::new(origins.len(), &costs));
        let capacity = cfg
            .capacity
            .map(|c| CapacityTracker::new(c, net.node_count() as usize));
        let fault = cfg
            .fault
            .map(|fc| FaultState::new(FaultSchedule::new(fc), net));
        let metrics = RunMetrics::new(
            net.link_count() as usize,
            net.pops() as usize,
            net.tree.depth,
        );
        let ttl_len = caches.iter().find_map(CacheSlot::ttl);
        let equipped = caches.iter().map(CacheSlot::is_equipped).collect();
        Self {
            net,
            spec,
            cfg,
            costs,
            caches,
            equipped,
            dir,
            origins,
            object_sizes,
            capacity,
            fault,
            ttl_queue: VecDeque::new(),
            ttl_len,
            rng: StdRng::seed_from_u64(0xd1ce_cafe),
            metrics,
            obs: None,
            path_buf: Vec::new(),
            nodes_buf: Vec::new(),
            links_buf: Vec::new(),
            siblings_buf: Vec::new(),
            cand_cost: Vec::new(),
            cand_node: Vec::new(),
            reference,
        }
    }

    /// Switches between the flat hot path (default) and the reference
    /// implementation it must match bit-for-bit; see the `reference` field.
    /// Exposed so determinism tests can flip modes without racing on the
    /// process-wide `ICN_SIM_REFERENCE` environment variable. The replica
    /// directory is maintained in both modes, so the flip is valid even
    /// mid-run.
    pub fn set_reference(&mut self, reference: bool) {
        self.reference = reference;
    }

    /// The routers currently holding `object` per the nearest-replica
    /// directory, ascending by `NodeId` (empty under shortest-path
    /// routing, which keeps no directory).
    pub fn replicas_of(&self, object: u32) -> Vec<NodeId> {
        self.dir
            .as_ref()
            .map_or_else(Vec::new, |d| d.replicas(object, &self.costs))
    }

    /// The equipped routers whose cache holds `object`, ascending — the
    /// ground truth [`Simulator::replicas_of`] must equal.
    pub fn holders_of(&self, object: u32) -> Vec<NodeId> {
        self.holders(object).collect()
    }

    /// Every equipped router whose cache slot holds `object`, down nodes
    /// included (a crash flushes a cache; an outage alone does not).
    fn holders(&self, object: u32) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.net.node_count()).filter(move |&n| {
            self.equipped[n as usize] && self.caches[n as usize].contains(object as u64)
        })
    }

    /// Attaches instrumentation; subsequent [`Simulator::run`] calls report
    /// through it. See [`crate::instrument::SimObs`].
    pub fn attach_obs(&mut self, obs: SimObs) {
        self.obs = Some(obs);
    }

    /// Processes a request stream and returns the accumulated metrics.
    pub fn run(&mut self, requests: &[Request]) -> &RunMetrics {
        self.run_streamed(requests.iter().copied())
    }

    /// Processes requests straight off an iterator — the whole trace never
    /// needs to exist in memory. Driving this with
    /// [`TraceIter`](icn_workload::trace::TraceIter) runs a synthesized
    /// workload in O(locality-window) memory instead of O(trace), and is
    /// bit-identical to materializing the same iterator into a `Vec` and
    /// calling [`Simulator::run`] (asserted in `tests/determinism.rs`).
    pub fn run_streamed<I>(&mut self, requests: I) -> &RunMetrics
    where
        I: IntoIterator<Item = Request>,
    {
        let mut count = 0u64;
        for req in requests {
            if let Some(o) = &self.obs {
                o.on_request(count);
            }
            self.process(count, &req);
            count += 1;
        }
        if let Some(o) = &self.obs {
            o.on_finish(count);
        }
        &self.metrics
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The resolved design knobs.
    pub fn spec(&self) -> &DesignSpec {
        &self.spec
    }

    fn process(&mut self, idx: u64, req: &Request) {
        // Sampled profiler span covering the whole request — the parent of
        // every other phase span. Pure measurement: no branch below
        // depends on it, so figures are byte-identical with it on or off.
        let _request_span = self.obs.as_ref().and_then(|o| o.request_span(idx));
        let leaf = self.net.leaf(req.pop as u32, req.leaf as u32);
        let origin_pop = self.origins[req.object as usize] as u32;
        self.metrics.requests += 1;
        if self.ttl_len.is_some() {
            self.expire_due(idx);
        }
        if self.fault.is_some() {
            let fault_span = self.obs.as_ref().and_then(|o| o.fault_span(idx));
            self.advance_faults(idx);
            drop(fault_span);
        }
        match self.spec.routing {
            Routing::ShortestPathToOrigin => self.process_sp(idx, leaf, req.object, origin_pop),
            Routing::NearestReplica => self.process_nr(idx, leaf, req.object, origin_pop),
        }
    }

    /// Retires every lease due at or before `now`: an entry inserted at
    /// `t` serves hits strictly before `t + ttl`, so a stamp of `now` is
    /// already dead when request `now` is processed. Stale queue entries
    /// — the lease was renewed (new stamp) or the cache flushed by a
    /// crash — fail [`CacheSlot::expire`]'s stamp check and are dropped
    /// without touching the directory.
    fn expire_due(&mut self, now: u64) {
        while let Some(&(stamp, node, object)) = self.ttl_queue.front() {
            if stamp > now {
                break;
            }
            self.ttl_queue.pop_front();
            if self.caches[node as usize].expire(object as u64, stamp) {
                if let Some(dir) = &mut self.dir {
                    dir.remove(object, node, &self.costs);
                }
            }
        }
    }

    /// Rolls the fault state forward to the window containing `idx`,
    /// flushing the contents of every cache whose crash event fires in a
    /// newly entered window (a crash is a cold restart, not a pause).
    fn advance_faults(&mut self, idx: u64) {
        let Some(mut fault) = self.fault.take() else {
            return;
        };
        let w = fault.schedule.window_of(idx);
        if w != fault.window {
            // The run loop processes indices in order, so at most one new
            // window opens per call — but iterate defensively in case a
            // caller feeds a sparse index sequence, so no crash (and its
            // flush) is ever skipped.
            let first = if fault.window == u64::MAX {
                0
            } else {
                fault.window + 1
            };
            for step in first..=w {
                for n in 0..self.net.node_count() {
                    if !self.equipped[n as usize] {
                        continue;
                    }
                    // A shared-risk group event is a power event for every
                    // member: cold restart, same as an individual crash.
                    let crashed = fault.schedule.node_crashes(n, step)
                        || fault.groups.as_ref().is_some_and(|g| {
                            let grp = g.node_group(n);
                            grp != NO_GROUP && fault.schedule.group_event(grp, step)
                        });
                    if crashed {
                        self.flush_cache(n);
                    }
                }
            }
            fault.rebuild(w, self.net);
        }
        self.fault = Some(fault);
    }

    /// True when the cached copy of `object` at `node` is corrupted in the
    /// current fault window (always false without a fault schedule).
    #[inline]
    fn replica_corrupted(&self, node: NodeId, object: u32) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.schedule.replica_corrupted(node, object, f.window))
    }

    /// Drops a detected-poisoned replica of `object` at `node`: cache
    /// removal plus nearest-replica directory sync (the same invariant
    /// lease expiry maintains in [`Simulator::expire_due`]).
    fn evict_replica(&mut self, node: NodeId, object: u32) {
        if self.caches[node as usize].remove(object as u64) {
            if let Some(dir) = &mut self.dir {
                dir.remove(object, node, &self.costs);
            }
        }
    }

    /// Empties the cache at `node` (crash semantics), keeping the
    /// nearest-replica directory consistent.
    fn flush_cache(&mut self, node: NodeId) {
        let c = &mut self.caches[node as usize];
        if c.is_equipped() {
            if !c.is_empty() {
                if let Some(dir) = &mut self.dir {
                    dir.remove_node(node, &self.costs);
                }
            }
            c.clear();
        }
    }

    /// True when the cache node is not crashed (vacuously true without a
    /// fault schedule).
    #[inline]
    fn node_up(&self, node: NodeId) -> bool {
        self.fault
            .as_ref()
            .is_none_or(|f| !f.node_down[node as usize])
    }

    /// True when every link on the unique path between `a` and `b` is up.
    fn path_live(&mut self, a: NodeId, b: NodeId) -> bool {
        match &self.fault {
            None => return true,
            Some(f) if !f.any_link_down => return true,
            Some(_) => {}
        }
        let mut links = std::mem::take(&mut self.links_buf);
        links.clear();
        self.net.path_links_into(a, b, &mut links);
        let live = match &self.fault {
            Some(f) => links.iter().all(|&l| !f.link_down[l as usize]),
            None => true,
        };
        self.links_buf = links;
        live
    }

    /// The link id between two *adjacent* routers on a shortest path that
    /// only climbs (`a` is the deeper endpoint, or both are PoP roots).
    #[inline]
    fn link_between(&self, a: NodeId, b: NodeId) -> u32 {
        let (pa, pb) = (self.net.pop_of(a), self.net.pop_of(b));
        if pa == pb {
            self.net.tree_link(a)
        } else {
            self.net.core_link(pa, pb)
        }
    }

    /// Index of the last node on `path` still reachable from `path[0]`
    /// under the current link faults (the whole path when fault-free).
    fn reachable_prefix(&self, path: &[NodeId]) -> usize {
        let last = path.len() - 1;
        let Some(f) = &self.fault else {
            return last;
        };
        if !f.any_link_down {
            return last;
        }
        for j in 1..path.len() {
            if f.link_down[self.link_between(path[j - 1], path[j]) as usize] {
                return j - 1;
            }
        }
        last
    }

    /// Gate for an origin serve: a degraded origin PoP serves through the
    /// reduced-capacity tracker; a saturated one fails the request.
    /// Healthy origins (and fault-free runs) always serve.
    #[inline]
    fn try_origin(&mut self, origin_pop: u32, idx: u64) -> bool {
        match &mut self.fault {
            None => true,
            Some(f) => {
                !f.origin_degraded[origin_pop as usize]
                    || f.origin_capacity.try_serve(origin_pop, idx)
            }
        }
    }

    /// Accounts one served request's latency (and, during fault-active
    /// windows, the under-failure distribution).
    #[inline]
    fn record_served(&mut self, latency: f64) {
        self.metrics.total_latency += latency;
        self.metrics.record_latency(latency);
        if self.fault.as_ref().is_some_and(|f| f.fault_active) {
            self.metrics.record_fault_latency(latency);
        }
    }

    /// Accounts one failed request: counted, but no latency and no
    /// transfers (nothing was delivered).
    fn record_failed(&mut self, idx: u64, object: u32) {
        self.metrics.failed_requests += 1;
        if let Some(o) = &self.obs {
            o.on_failed();
            o.trace_with(|design| TraceRecord {
                seq: idx,
                object: object as u64,
                design,
                level: 0,
                hops: 0,
                hit: false,
                coop: false,
                cost_milli: 0,
            });
        }
    }

    /// Shortest-path-to-origin routing: walk the unique path from the leaf
    /// to the origin PoP root; the first cache containing the object
    /// answers; cache-equipped tree routers optionally do a scoped sibling
    /// lookup on miss.
    fn process_sp(&mut self, idx: u64, leaf: NodeId, object: u32, origin_pop: u32) {
        let route_span = self.obs.as_ref().and_then(|o| o.route_span(idx));
        let mut path = std::mem::take(&mut self.path_buf);
        self.net.sp_path_nodes_into(leaf, origin_pop, &mut path);
        let last = path.len() - 1;

        // Under link faults the walk stops at the last reachable node; the
        // origin only serves when the whole path is live — EDGE designs
        // "fall through to origin", so a severed origin path with no
        // on-path copy is a failed request.
        let reach = self.reachable_prefix(&path);

        let mut server = if reach == last {
            Some(Server::Origin(path[last]))
        } else {
            None
        };
        // Latency charged for detected-corrupt fetches discarded along the
        // way (the wasted round trip to the poisoned copy and back).
        let mut penalty = 0.0;
        // The eventual serve delivers corrupted bytes the design cannot
        // detect.
        let mut poisoned = false;
        let probe_span = self.obs.as_ref().and_then(|o| o.probe_span(idx));
        'walk: for (i, &node) in path.iter().enumerate() {
            if i == last || i > reach {
                break; // the origin always serves what it owns
            }
            if self.cache_contains(node, object) && self.try_capacity(node, idx) {
                if self.replica_corrupted(node, object) {
                    if self.spec.self_certifying {
                        // Self-certified names: the poisoned copy is caught
                        // on receipt, discarded, and the walk continues —
                        // at the cost of the wasted fetch.
                        self.metrics.corrupt_detected += 1;
                        self.evict_replica(node, object);
                        penalty += self.path_cost(path[0], node) + 1.0;
                    } else {
                        poisoned = true;
                        server = Some(Server::Cache { node, path_idx: i });
                        break;
                    }
                } else {
                    server = Some(Server::Cache { node, path_idx: i });
                    break;
                }
            }
            if self.spec.sibling_coop
                && self.equipped[node as usize]
                && self.node_up(node)
                && self.net.tree_index(node) != 0
            {
                // Scoped cooperative lookup in the access-tree siblings.
                let coop_span = self.obs.as_ref().and_then(|o| o.coop_span(idx));
                let pop = self.net.pop_of(node);
                let t = self.net.tree_index(node);
                let mut sibs = std::mem::take(&mut self.siblings_buf);
                sibs.clear();
                sibs.extend(self.net.tree.siblings(t));
                let mut found = None;
                for &st in &sibs {
                    let sib = self.net.node(pop, st);
                    if self.detour_live(node, sib)
                        && self.cache_contains(sib, object)
                        && self.try_capacity(sib, idx)
                    {
                        if self.replica_corrupted(sib, object) {
                            if self.spec.self_certifying {
                                self.metrics.corrupt_detected += 1;
                                self.evict_replica(sib, object);
                                penalty += self.path_cost(path[0], sib) + 1.0;
                                continue; // next sibling may hold a clean copy
                            }
                            poisoned = true;
                        }
                        found = Some(sib);
                        break;
                    }
                }
                self.siblings_buf = sibs;
                drop(coop_span);
                if let Some(sib) = found {
                    server = Some(Server::Sibling {
                        sibling: sib,
                        via_idx: i,
                    });
                    break 'walk;
                }
            }
        }
        drop(probe_span);
        drop(route_span);

        // A degraded, saturated origin fails the request like an
        // unreachable one.
        if matches!(server, Some(Server::Origin(_))) && !self.try_origin(origin_pop, idx) {
            server = None;
        }
        match server {
            Some(server) => self.account_sp(
                idx, &path, server, leaf, object, origin_pop, penalty, poisoned,
            ),
            // Failed requests deliver nothing: detection penalties are
            // dropped with the request (no latency is recorded at all).
            None => self.record_failed(idx, object),
        }
        self.path_buf = path;
    }

    /// True when both links of the sibling detour (`via` → parent →
    /// `sibling`) are up.
    #[inline]
    fn detour_live(&self, via: NodeId, sibling: NodeId) -> bool {
        match &self.fault {
            None => true,
            Some(f) => {
                !f.any_link_down
                    || (!f.link_down[self.net.tree_link(via) as usize]
                        && !f.link_down[self.net.tree_link(sibling) as usize])
            }
        }
    }

    /// Accounts latency, congestion, response-path caching, and server load
    /// for a shortest-path serve. `penalty` is extra latency from detected
    /// corrupt fetches discarded before this serve; `poisoned` marks a
    /// serve that delivered corrupted bytes undetected.
    #[allow(clippy::too_many_arguments)]
    fn account_sp(
        &mut self,
        idx: u64,
        path: &[NodeId],
        server: Server,
        _leaf: NodeId,
        object: u32,
        origin_pop: u32,
        penalty: f64,
        poisoned: bool,
    ) {
        // Held to the end of the function: the span covers latency and
        // congestion accounting plus response-path insertion.
        let _transfer_span = self.obs.as_ref().and_then(|o| o.transfer_span(idx));
        let depth = self.net.tree.depth;
        let weight = self.transfer_weight(object);
        let (serve_idx, detour_cost, detour_links) = match server {
            Server::Cache { path_idx, .. } => (path_idx, 0.0, 0),
            Server::Origin(_) => (path.len() - 1, 0.0, 0),
            Server::Sibling { sibling, via_idx } => {
                // Detour: node -> parent -> sibling, two tree links at the
                // node's level.
                let level = self.net.level_of(path[via_idx]);
                let link_cost = self.cfg.latency.tree_link_cost(level, depth);
                // Congestion: the sibling's uplink and the via node's
                // uplink both carry the transfer.
                self.add_transfer(self.net.tree_link(sibling), weight);
                self.add_transfer(self.net.tree_link(path[via_idx]), weight);
                (via_idx, 2.0 * link_cost, 2)
            }
        };

        // Congestion on every climbed link.
        for j in 1..=serve_idx {
            let (a, b) = (path[j - 1], path[j]);
            let (pa, pb) = (self.net.pop_of(a), self.net.pop_of(b));
            if pa == pb {
                self.add_transfer(self.net.tree_link(a), weight);
            } else {
                self.add_transfer(self.net.core_link(pa, pb), weight);
            }
        }
        // Latency: cost of the climbed prefix plus any detour plus the
        // serving hop. The climbed prefix of a shortest path is itself a
        // shortest path, so its cost is one [`CostTable`] lookup; the
        // reference mode re-accumulates it hop by hop (bit-identical —
        // every link cost is an integer-valued f64, see `crate::costs`).
        let cost = if self.reference {
            let mut c = 0.0;
            for j in 1..=serve_idx {
                let (a, b) = (path[j - 1], path[j]);
                if self.net.pop_of(a) == self.net.pop_of(b) {
                    c += self.cfg.latency.tree_link_cost(self.net.level_of(a), depth);
                } else {
                    c += self.cfg.latency.core_link_cost(depth);
                }
            }
            c
        } else {
            self.costs.path_cost(path[0], path[serve_idx])
        };
        let latency = cost + detour_cost + 1.0 + penalty;
        self.record_served(latency);
        if poisoned {
            self.metrics.corrupt_served += 1;
        }

        // Server-side bookkeeping.
        let serving_level = match server {
            Server::Cache { node, .. } => {
                self.metrics.cache_hits += 1;
                let level = self.net.level_of(node);
                self.metrics.hits_by_level[level as usize] += 1;
                self.cache_touch(node, object);
                level
            }
            Server::Sibling { sibling, .. } => {
                self.metrics.cache_hits += 1;
                self.metrics.coop_hits += 1;
                let level = self.net.level_of(sibling);
                self.metrics.hits_by_level[level as usize] += 1;
                self.cache_touch(sibling, object);
                level
            }
            Server::Origin(_) => {
                self.metrics.origin_hits += 1;
                self.metrics.origin_served[origin_pop as usize] += 1;
                0
            }
        };

        if let Some(o) = &self.obs {
            let hit = !matches!(server, Server::Origin(_));
            o.trace_with(|design| TraceRecord {
                seq: idx,
                object: object as u64,
                design,
                level: serving_level,
                hops: (serve_idx + detour_links) as u32,
                hit,
                coop: matches!(server, Server::Sibling { .. }),
                cost_milli: (latency * LATENCY_HIST_SCALE).round() as u64,
            });
        }

        // Response-path caching per the insertion policy. Under the
        // paper's default every cache-equipped router between the server
        // and the leaf stores the object; for a sibling serve the response
        // additionally descends through the via node's parent.
        // "First below the server" for leave-copy-down means the first
        // *cache-equipped* router downstream of the server (standard LCD
        // semantics in cache hierarchies — copies descend one cache level
        // per request).
        let _evict_span = self.obs.as_ref().and_then(|o| o.evict_span(idx));
        let mut lcd_available = true;
        match server {
            Server::Sibling { via_idx, .. } => {
                // Response: sibling -> parent -> via node -> ... -> leaf.
                if via_idx + 1 < path.len() {
                    self.insert_on_response(idx, path[via_idx + 1], object, &mut lcd_available);
                }
                self.insert_on_response(idx, path[via_idx], object, &mut lcd_available);
                for j in (0..via_idx).rev() {
                    self.insert_on_response(idx, path[j], object, &mut lcd_available);
                }
            }
            _ => {
                // Walk downstream from the server toward the leaf.
                for j in (0..serve_idx).rev() {
                    self.insert_on_response(idx, path[j], object, &mut lcd_available);
                }
            }
        }
    }

    /// Nearest-replica routing: serve at the replica (or origin) with the
    /// minimum path cost from the leaf, with zero lookup overhead.
    fn process_nr(&mut self, idx: u64, leaf: NodeId, object: u32, origin_pop: u32) {
        let route_span = self.obs.as_ref().and_then(|o| o.route_span(idx));
        let origin_root = self.net.pop_root(origin_pop);

        // Fast path: the requesting leaf's own cache. The block form keeps
        // the profiler span scoped to the probe while preserving the
        // short-circuit.
        let leaf_hit = {
            let _probe_span = self.obs.as_ref().and_then(|o| o.probe_span(idx));
            self.cache_contains(leaf, object) && self.try_capacity(leaf, idx)
        };
        // Latency charged for detected-corrupt fetches discarded before
        // the eventual serve.
        let mut penalty = 0.0;
        if leaf_hit {
            let leaf_poisoned = self.replica_corrupted(leaf, object);
            if leaf_poisoned && self.spec.self_certifying {
                // The local copy fails verification: discard it, charge
                // the wasted local fetch, and fall through to the full
                // replica selection below.
                self.metrics.corrupt_detected += 1;
                self.evict_replica(leaf, object);
                penalty = 1.0;
            } else {
                if leaf_poisoned {
                    self.metrics.corrupt_served += 1;
                }
                self.record_served(1.0);
                self.metrics.cache_hits += 1;
                let level = self.net.level_of(leaf);
                self.metrics.hits_by_level[level as usize] += 1;
                self.cache_touch(leaf, object);
                if let Some(o) = &self.obs {
                    o.trace_with(|design| TraceRecord {
                        seq: idx,
                        object: object as u64,
                        design,
                        level,
                        hops: 0,
                        hit: true,
                        coop: false,
                        cost_milli: LATENCY_HIST_SCALE as u64,
                    });
                }
                return;
            }
        }

        let origin_cost = self.path_cost(leaf, origin_root);
        // Replica-directory lookup + candidate gathering; the cost-based
        // selection inside nests as a child phase.
        let dir_span = self.obs.as_ref().and_then(|o| o.dir_span(idx));
        let choice = if self.fault.is_none() {
            // Fault-free: the flat path takes the directory's nearest
            // replica in one pass; capacity limits and the reference
            // oracle probe the full candidate set.
            let server = if self.capacity.is_some() || self.reference {
                self.select_nr_capacity(leaf, object, origin_cost, idx)
            } else {
                let _select_span = self.obs.as_ref().and_then(|o| o.select_span(idx));
                self.dir
                    .as_ref()
                    .and_then(|d| d.nearest(object, &self.costs.from(leaf)))
                    .filter(|&(c, _)| c < origin_cost)
            };
            match server {
                Some((c, n)) => NrChoice::Replica {
                    cost: c,
                    node: n,
                    poisoned: false,
                },
                None => NrChoice::Origin,
            }
        } else {
            self.select_nr_faulted(leaf, object, origin_root, origin_cost, idx, &mut penalty)
        };
        drop(dir_span);

        let (cost, server_node, is_origin, poisoned) = match choice {
            NrChoice::Replica {
                cost,
                node,
                poisoned,
            } => (cost, node, false, poisoned),
            NrChoice::Origin => {
                // A degraded, saturated origin fails the request.
                if !self.try_origin(origin_pop, idx) {
                    drop(route_span);
                    self.record_failed(idx, object);
                    return;
                }
                (origin_cost, origin_root, true, false)
            }
            NrChoice::Failed => {
                drop(route_span);
                self.record_failed(idx, object);
                return;
            }
        };
        drop(route_span);
        // Covers latency/congestion accounting and response-path insertion.
        let _transfer_span = self.obs.as_ref().and_then(|o| o.transfer_span(idx));

        let latency = cost + 1.0 + penalty;
        self.record_served(latency);
        if poisoned {
            self.metrics.corrupt_served += 1;
        }
        let serving_level = if is_origin {
            self.metrics.origin_hits += 1;
            self.metrics.origin_served[origin_pop as usize] += 1;
            0
        } else {
            self.metrics.cache_hits += 1;
            let level = self.net.level_of(server_node);
            self.metrics.hits_by_level[level as usize] += 1;
            self.cache_touch(server_node, object);
            level
        };

        // Congestion along the response path.
        let weight = self.transfer_weight(object);
        let mut links = std::mem::take(&mut self.links_buf);
        links.clear();
        self.net.path_links_into(leaf, server_node, &mut links);
        for &l in &links {
            self.add_transfer(l, weight);
        }
        if let Some(o) = &self.obs {
            let hops = links.len() as u32;
            o.trace_with(|design| TraceRecord {
                seq: idx,
                object: object as u64,
                design,
                level: serving_level,
                hops,
                hit: !is_origin,
                coop: false,
                cost_milli: (latency * LATENCY_HIST_SCALE).round() as u64,
            });
        }
        self.links_buf = links;

        // Response-path caching per the insertion policy (the server
        // itself is skipped; it already has the object).
        let _evict_span = self.obs.as_ref().and_then(|o| o.evict_span(idx));
        let mut nodes = std::mem::take(&mut self.nodes_buf);
        nodes.clear();
        self.net.path_nodes_into(server_node, leaf, &mut nodes);
        let mut lcd_available = true;
        for &n in nodes.iter().skip(1) {
            self.insert_on_response(idx, n, object, &mut lcd_available);
        }
        self.nodes_buf = nodes;
    }

    /// Path cost between two routers: a [`CostTable`] lookup on the hot
    /// path, or the full [`LatencyModel`](crate::latency::LatencyModel)
    /// recomputation in reference mode. The two are bit-identical.
    #[inline]
    fn path_cost(&self, a: NodeId, b: NodeId) -> f64 {
        if self.reference {
            self.cfg.latency.path_cost(self.net, a, b)
        } else {
            self.costs.path_cost(a, b)
        }
    }

    /// Takes the candidate scratch buffers (`cand_cost`/`cand_node`),
    /// filled with every replica of `object` other than `leaf` whose cost
    /// is below `max_cost`: from the directory, or in reference mode from
    /// the caches themselves, costed by the latency model. Reference
    /// candidates use the raw cache slot, not
    /// [`Simulator::cache_contains`], because the directory lists down
    /// nodes too; the selections check liveness when they probe. Callers
    /// hand the buffers back when done.
    fn gather_candidates(
        &mut self,
        object: u32,
        leaf: NodeId,
        max_cost: f64,
    ) -> (Vec<f64>, Vec<NodeId>) {
        let mut costs = std::mem::take(&mut self.cand_cost);
        let mut nodes = std::mem::take(&mut self.cand_node);
        costs.clear();
        nodes.clear();
        if self.reference {
            for n in self.holders(object) {
                if n == leaf {
                    continue;
                }
                let c = self.cfg.latency.path_cost(self.net, leaf, n);
                if c < max_cost {
                    costs.push(c);
                    nodes.push(n);
                }
            }
        } else if let Some(dir) = &self.dir {
            dir.candidates(
                object,
                &self.costs.from(leaf),
                max_cost,
                &mut costs,
                &mut nodes,
            );
        }
        (costs, nodes)
    }

    /// Capacity-limited nearest-replica selection: probe candidates in
    /// ascending `(cost, NodeId)` order until one has serving capacity
    /// left; the origin serves when none does or when it is at least as
    /// close. Allocation-free: candidates live in the persistent scratch
    /// buffer, and the common case (nearest candidate has capacity) is a
    /// single select-min pass with no sort. A failed `try_capacity` probe
    /// does not mutate the tracker, so discarding the probed minimum and
    /// rescanning preserves exact probe order without sorting.
    fn select_nr_capacity(
        &mut self,
        leaf: NodeId,
        object: u32,
        origin_cost: f64,
        idx: u64,
    ) -> Option<(f64, NodeId)> {
        let _select_span = self.obs.as_ref().and_then(|o| o.select_span(idx));
        let (mut costs, mut nodes) = self.gather_candidates(object, leaf, origin_cost);
        let mut chosen = None;
        while let Some(i) = min_candidate(&costs, &nodes) {
            let (cost, node) = (costs[i], nodes[i]);
            if self.try_capacity(node, idx) {
                chosen = Some((cost, node));
                break;
            }
            costs.swap_remove(i);
            nodes.swap_remove(i);
        }
        self.cand_cost = costs;
        self.cand_node = nodes;
        chosen
    }

    /// Nearest-replica server selection under an active fault schedule:
    /// ICN-NR falls back to the next-nearest *live* replica (up node, live
    /// path), preferring the origin when it is reachable and at least as
    /// close. With the origin unreachable, any live replica serves at any
    /// cost; with none, the request fails.
    ///
    /// Shares the fault-free ordering contract: candidates are considered
    /// in ascending `(cost, NodeId)` order (select-min over the candidate
    /// scratch), so under a zero-failure schedule every liveness check
    /// passes and the selection reduces exactly to the fault-free paths.
    /// `penalty` accumulates the wasted round-trip latency of replicas
    /// whose corruption was caught by self-certification (the copy is
    /// evicted and the scan continues).
    fn select_nr_faulted(
        &mut self,
        leaf: NodeId,
        object: u32,
        origin_root: NodeId,
        origin_cost: f64,
        idx: u64,
        penalty: &mut f64,
    ) -> NrChoice {
        let _select_span = self.obs.as_ref().and_then(|o| o.select_span(idx));
        let origin_reachable = self.path_live(leaf, origin_root);
        let mut choice = None;
        let (mut costs, mut nodes) = self.gather_candidates(object, leaf, f64::INFINITY);
        while let Some(i) = min_candidate(&costs, &nodes) {
            let (cost, node) = (costs[i], nodes[i]);
            if origin_reachable && cost >= origin_cost {
                break; // origin is at least as close; prefer it
            }
            costs.swap_remove(i);
            nodes.swap_remove(i);
            if !self.node_up(node) || !self.path_live(leaf, node) {
                continue;
            }
            if self.try_capacity(node, idx) {
                let corrupted = self.replica_corrupted(node, object);
                if corrupted && self.spec.self_certifying {
                    self.metrics.corrupt_detected += 1;
                    self.evict_replica(node, object);
                    *penalty += cost + 1.0;
                    continue; // scan on for a clean copy
                }
                choice = Some(NrChoice::Replica {
                    cost,
                    node,
                    poisoned: corrupted,
                });
                break;
            }
        }
        self.cand_cost = costs;
        self.cand_node = nodes;
        choice.unwrap_or(if origin_reachable {
            NrChoice::Origin
        } else {
            NrChoice::Failed
        })
    }

    #[inline]
    fn transfer_weight(&self, object: u32) -> u64 {
        if self.cfg.weight_by_size {
            self.object_sizes[object as usize] as u64
        } else {
            1
        }
    }

    #[inline]
    fn add_transfer(&mut self, link: u32, weight: u64) {
        self.metrics.link_transfers[link as usize] += weight;
    }

    #[inline]
    fn cache_contains(&self, node: NodeId, object: u32) -> bool {
        self.node_up(node) && self.caches[node as usize].contains(object as u64)
    }

    #[inline]
    fn cache_touch(&mut self, node: NodeId, object: u32) {
        self.caches[node as usize].touch(object as u64);
    }

    /// Inserts `object` into the cache at `node` (if any) at logical time
    /// `idx`, keeping the nearest-replica directory in sync. The origin
    /// PoP root never caches its own objects — it already hosts them in
    /// its (infinite) origin store.
    fn cache_insert(&mut self, idx: u64, node: NodeId, object: u32) {
        if self.origins[object as usize] as u32 == self.net.pop_of(node)
            && self.net.tree_index(node) == 0
        {
            return;
        }
        // A crashed node stores nothing until its outage ends.
        if !self.node_up(node) {
            return;
        }
        if !self.equipped[node as usize] {
            return;
        }
        let c = &mut self.caches[node as usize];
        let had = c.contains(object as u64);
        let evicted = c.insert_at(object as u64, idx);
        let stored = c.contains(object as u64);
        // Under a TTL policy every successful insert — fresh or renewal —
        // opens a lease ending at `idx + ttl`; queue it for the drain in
        // [`Simulator::expire_due`]. Renewals leave the old queue entry
        // behind as a stale stamp.
        if let Some(ttl) = self.ttl_len {
            if stored {
                self.ttl_queue.push_back((idx + ttl, node, object));
            }
        }
        if let Some(dir) = &mut self.dir {
            if let Some(e) = evicted {
                dir.remove(e as u32, node, &self.costs);
            }
            if !had && stored {
                dir.insert(object, node, &self.costs);
            }
        }
    }

    /// Applies the insertion policy to one router on the response path,
    /// walked from the server toward the client. `lcd_available` tracks
    /// whether the leave-copy-down slot (the first cache-equipped router
    /// below the server) is still unclaimed.
    #[inline]
    fn insert_on_response(
        &mut self,
        idx: u64,
        node: NodeId,
        object: u32,
        lcd_available: &mut bool,
    ) {
        let equipped = self.equipped[node as usize];
        let insert = match self.cfg.insertion {
            InsertionPolicy::Everywhere => true,
            InsertionPolicy::LeaveCopyDown => {
                let take = equipped && *lcd_available;
                if take {
                    *lcd_available = false;
                }
                take
            }
            InsertionPolicy::Probabilistic { p } => equipped && self.rng.gen::<f64>() < p,
        };
        if insert {
            self.cache_insert(idx, node, object);
        }
    }

    /// Capacity gate: true when the node may serve this request (and
    /// reserves a slot). Unlimited when no capacity model is configured.
    #[inline]
    fn try_capacity(&mut self, node: NodeId, idx: u64) -> bool {
        match &mut self.capacity {
            None => true,
            Some(t) => t.try_serve(node, idx),
        }
    }
}

/// Index of the `(cost, NodeId)`-minimal candidate in the parallel
/// `costs`/`nodes` arrays, `None` when empty. The composite key is a total
/// order over candidates (node ids are unique within a directory), so the
/// minimum — and therefore every selection built on it — is independent of
/// candidate order. Takes struct-of-arrays slices so the scan is two
/// contiguous walks.
#[inline]
fn min_candidate(costs: &[f64], nodes: &[NodeId]) -> Option<usize> {
    debug_assert_eq!(costs.len(), nodes.len());
    let mut best: Option<(usize, f64, NodeId)> = None;
    for (i, (&c, &n)) in costs.iter().zip(nodes).enumerate() {
        if best.is_none_or(|(_, bc, bn)| c < bc || (c == bc && n < bn)) {
            best = Some((i, c, n));
        }
    }
    best.map(|(i, _, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignKind;
    use icn_topology::{pop::PopGraph, AccessTree};
    use icn_workload::trace::Request;

    /// Two PoPs joined by one core link, binary trees of depth 2:
    /// 7 routers per pop, leaves at tree indices 3..=6.
    fn two_pop_net() -> Network {
        let core = PopGraph::new(
            "pair",
            vec!["A".into(), "B".into()],
            vec![1_000, 1_000],
            vec![(0, 1)],
        );
        Network::new(core, AccessTree::new(2, 2))
    }

    fn req(pop: u16, leaf: u16, object: u32) -> Request {
        Request { pop, leaf, object }
    }

    /// All objects owned by pop 1 ("B"), unit sizes.
    fn sim_with<'a>(
        net: &'a Network,
        design: DesignKind,
        origins: &'a [u16],
        sizes: &'a [u32],
    ) -> Simulator<'a> {
        let mut cfg = ExperimentConfig::baseline(design);
        // Plenty of budget so tests control hits explicitly.
        cfg.f_fraction = 0.5;
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        Simulator::new(net, cfg, origins, sizes)
    }

    #[test]
    fn nocache_latency_is_distance_plus_one() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::NoCache, &origins, &sizes);
        // Leaf 0 of pop 0 to origin root of pop 1: 2 (climb) + 1 (core) = 3
        // links, latency 4.
        let m = sim.run(&[req(0, 0, 0)]);
        assert_eq!(m.total_latency, 4.0);
        assert_eq!(m.origin_hits, 1);
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.origin_served[1], 1);
        // Congestion: exactly the three links on the path carry 1 transfer.
        assert_eq!(m.link_transfers.iter().sum::<u64>(), 3);
        assert_eq!(m.max_congestion(), 1);
    }

    #[test]
    fn edge_caches_at_leaf_after_first_request() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::Edge, &origins, &sizes);
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
        // First: miss -> origin (latency 4); second: leaf hit (latency 1).
        assert_eq!(m.total_latency, 5.0);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.origin_hits, 1);
        assert_eq!(m.hits_by_level[2], 1);
    }

    #[test]
    fn edge_does_not_use_interior_caches() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::Edge, &origins, &sizes);
        // Same object from two different leaves of pop 0: both go to
        // origin (no interior caching, no cooperation).
        let m = sim.run(&[req(0, 0, 0), req(0, 2, 0)]);
        assert_eq!(m.origin_hits, 2);
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn edge_coop_serves_from_sibling() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::EdgeCoop, &origins, &sizes);
        // Leaf 0 warms its cache; leaf 1 is its sibling (same parent).
        let m = sim.run(&[req(0, 0, 0), req(0, 1, 0)]);
        assert_eq!(m.origin_hits, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.coop_hits, 1);
        // Sibling serve: 2 links + serving hop = 3; total 4 + 3.
        assert_eq!(m.total_latency, 7.0);
        // Non-sibling leaf 2 cannot cooperate with leaf 0.
        let mut sim2 = sim_with(&net, DesignKind::EdgeCoop, &origins, &sizes);
        let m2 = sim2.run(&[req(0, 0, 0), req(0, 2, 0)]);
        assert_eq!(m2.coop_hits, 0);
        assert_eq!(m2.origin_hits, 2);
    }

    #[test]
    fn icn_sp_hits_on_path_interior_cache() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::IcnSp, &origins, &sizes);
        // Leaf 0 (tree index 3) warms every router on its path.
        // Leaf 2 (tree index 5) shares only the pop root with that path:
        // expect a hit at the root, latency 2 + 1.
        let m = sim.run(&[req(0, 0, 0), req(0, 2, 0)]);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.total_latency, 4.0 + 3.0);
        assert_eq!(m.hits_by_level[0], 1);
    }

    #[test]
    fn icn_nr_finds_cross_tree_replica() {
        let net = two_pop_net();
        // Object 0 owned by pop 1; both requests from pop 0.
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::IcnNr, &origins, &sizes);
        // First request from leaf 0 warms the whole path including pop 0's
        // root and the leaf. Second request from leaf 2 (different subtree):
        // nearest replica is pop 0's root at distance 2 (vs origin at 3).
        let m = sim.run(&[req(0, 0, 0), req(0, 2, 0)]);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.origin_hits, 1);
        assert_eq!(m.total_latency, 4.0 + 3.0);
    }

    #[test]
    fn icn_nr_prefers_closer_replica_over_origin() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::IcnNr, &origins, &sizes);
        // Warm leaf 0's sibling subtree: request from leaf 1 (tree index 4,
        // sibling of leaf 0). NR then serves leaf 0's request from the
        // shared parent at distance 1 (latency 2).
        let m = sim.run(&[req(0, 1, 0), req(0, 0, 0)]);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.total_latency, 4.0 + 2.0);
    }

    #[test]
    fn origin_pop_requests_are_cheap() {
        let net = two_pop_net();
        let origins = vec![0u16; 4]; // owned by pop 0
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::NoCache, &origins, &sizes);
        // Leaf 0 of pop 0 to its own root: 2 links, latency 3.
        let m = sim.run(&[req(0, 0, 0)]);
        assert_eq!(m.total_latency, 3.0);
        assert_eq!(m.origin_served[0], 1);
    }

    #[test]
    fn origin_root_does_not_cache_own_objects() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::IcnNr, &origins, &sizes);
        sim.run(&[req(1, 0, 0)]);
        // The origin root (pop 1, tree index 0) must not appear in the
        // replica directory for its own object.
        let root = net.pop_root(1);
        assert!(!sim.replicas_of(0).contains(&root));
        // But the leaf of pop 1 does cache it.
        assert!(sim.replicas_of(0).contains(&net.leaf(1, 0)));
    }

    #[test]
    fn replica_directory_tracks_evictions() {
        let net = two_pop_net();
        let origins = vec![1u16; 10];
        let sizes = vec![1u32; 10];
        let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        cfg.f_fraction = 0.1; // capacity 1 per cache
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        sim.run(&[req(0, 0, 0), req(0, 0, 1)]);
        let leaf = net.leaf(0, 0);
        // Object 0 was evicted from the leaf by object 1.
        assert!(!sim.replicas_of(0).contains(&leaf));
        assert!(sim.replicas_of(1).contains(&leaf));
    }

    #[test]
    fn selection_is_independent_of_directory_order() {
        // The ordering contract: selection depends on the directory only
        // as a *set*. Above 128 nodes per PoP the directory keeps
        // order-carrying lists, so adversarially permuting every list
        // mid-run must not change a single metric bit. (The mask layout
        // is canonical by construction.)
        let core = PopGraph::new(
            "pair",
            vec!["A".into(), "B".into()],
            vec![1_000, 1_000],
            vec![(0, 1)],
        );
        let net = Network::new(core, AccessTree::new(2, 7));
        let origins = vec![1u16; 8];
        let sizes = vec![1u32; 8];
        // Interleaved requests from sibling and cousin leaves so objects
        // are cached at several equal-cost nodes and ties actually occur.
        let reqs: Vec<Request> = (0..256u64)
            .map(|i| req((i % 2) as u16, (i * 37 % 128) as u16, (i % 8) as u32))
            .collect();
        let mid = reqs.len() / 2;
        let mut plain = sim_with(&net, DesignKind::IcnNr, &origins, &sizes);
        plain.run(&reqs);
        let want = plain.metrics().clone();
        for flavor in 0..3u64 {
            let mut sim = sim_with(&net, DesignKind::IcnNr, &origins, &sizes);
            sim.run(&reqs[..mid]);
            let lists = sim.dir.as_mut().and_then(|d| d.lists_mut()).unwrap();
            assert!(
                lists.iter().any(|l| l.len() > 2),
                "too few replicas to permute"
            );
            for (o, list) in lists.iter_mut().enumerate() {
                match flavor {
                    0 => list.reverse(),
                    1 => {
                        let n = list.len().max(1);
                        list.rotate_left(o % n);
                    }
                    _ => list.sort_unstable_by_key(|&n| u32::MAX - n),
                }
            }
            let got = sim.run(&reqs[mid..]).clone();
            assert_eq!(want, got, "shuffle flavor {flavor} changed the outcome");
        }
    }

    proptest::proptest! {
        /// Repeatedly extracting `min_candidate` with `swap_remove` — the
        /// probe loop of both multi-candidate selections — visits the
        /// candidates in exactly their stable `(cost, NodeId)` sort order.
        /// Costs are finite, non-negative, integer-valued and heavily tied:
        /// the simulator's domain. The sort keys on `total_cmp`, the scan
        /// on `<`; the two disagree only on `-0.0` and NaN, and candidate
        /// costs are never either.
        #[test]
        fn min_candidate_extraction_is_the_stable_sort_order(
            cost_units in proptest::prop::collection::vec(0u32..6, 0..48),
            stride in 1u32..1009,
            offset in 0u32..1009,
        ) {
            // 1009 is prime, so `i * stride + offset` is distinct mod 1009
            // for every i below it: node ids stay unique, as in a directory.
            let mut nodes: Vec<NodeId> = (0..cost_units.len() as u32)
                .map(|i| (i * stride + offset) % 1009)
                .collect();
            let mut costs: Vec<f64> = cost_units.iter().map(|&c| c as f64).collect();
            let mut want: Vec<(f64, NodeId)> =
                costs.iter().copied().zip(nodes.iter().copied()).collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut got = Vec::new();
            while let Some(i) = min_candidate(&costs, &nodes) {
                got.push((costs[i], nodes[i]));
                costs.swap_remove(i);
                nodes.swap_remove(i);
            }
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn infinite_budget_never_evicts() {
        let net = two_pop_net();
        let origins: Vec<u16> = vec![1; 50];
        let sizes = vec![1u32; 50];
        let mut sim = sim_with(&net, DesignKind::InfiniteEdge, &origins, &sizes);
        let reqs: Vec<Request> = (0..50).map(|o| req(0, 0, o)).collect();
        sim.run(&reqs);
        let repeat: Vec<Request> = (0..50).map(|o| req(0, 0, o)).collect();
        let before = sim.metrics().cache_hits;
        sim.run(&repeat);
        assert_eq!(sim.metrics().cache_hits - before, 50, "all repeats hit");
    }

    #[test]
    fn capacity_overload_redirects_to_origin() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        cfg.f_fraction = 0.5;
        cfg.capacity = Some(crate::capacity::ServingCapacity {
            per_node: 1,
            window: 1000,
        });
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        // Warm the leaf (origin serve), then two hits: only one allowed.
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 0), req(0, 0, 0)]);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.origin_hits, 2);
    }

    #[test]
    fn size_weighted_congestion() {
        let net = two_pop_net();
        let origins = vec![1u16; 2];
        let sizes = vec![100u32, 1];
        let mut cfg = ExperimentConfig::baseline(DesignKind::NoCache);
        cfg.weight_by_size = true;
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 1)]);
        // Both requests traverse the same 3 links; weights 100 + 1.
        assert_eq!(m.max_congestion(), 101);
    }

    #[test]
    fn leave_copy_down_inserts_only_below_server() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut cfg = ExperimentConfig::baseline(DesignKind::IcnSp);
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        cfg.f_fraction = 0.5;
        cfg.insertion = crate::config::InsertionPolicy::LeaveCopyDown;
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        // First request from pop-0 leaf 0: origin (pop 1 root) serves; LCD
        // stores only at the router one hop below the origin — pop 0's
        // root (the core neighbor on the response path).
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
        // Second identical request: the leaf still has no copy, so it must
        // climb to pop 0's root (distance 2, latency 3) instead of hitting
        // at the leaf (latency 1 under Everywhere).
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.total_latency, 4.0 + 3.0);
    }

    #[test]
    fn probabilistic_insertion_extremes() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        for (p, expect_hits) in [(0.0, 0u64), (1.0, 1u64)] {
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.f_fraction = 0.5;
            cfg.insertion = crate::config::InsertionPolicy::Probabilistic { p };
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
            assert_eq!(m.cache_hits, expect_hits, "p = {p}");
        }
    }

    /// Every cached object must appear in the nearest-replica directory
    /// at exactly its holders — the invariant lease expiry and crash
    /// flushes both have to preserve.
    fn assert_directory_matches_caches(sim: &Simulator, objects: u32) {
        for o in 0..objects {
            assert_eq!(
                sim.replicas_of(o),
                sim.holders_of(o),
                "object {o}: directory out of sync"
            );
        }
    }

    mod ttl {
        use super::*;
        use icn_cache::PolicyKind;

        #[test]
        fn leases_expire_and_misses_return() {
            // Edge + 2-tick leases: warm (origin), hit inside the lease,
            // expired miss (origin again, re-warm), hit again.
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.f_fraction = 0.5;
            cfg.policy = PolicyKind::Ttl { ttl: 2 };
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let r = req(0, 0, 0);
            let m = sim.run(&[r, r, r, r]);
            assert_eq!(m.origin_hits, 2, "lease [0, 2) is up at idx 2");
            assert_eq!(m.cache_hits, 2);
        }

        #[test]
        fn expiry_drops_directory_entries() {
            let net = two_pop_net();
            let origins = vec![1u16; 8];
            let sizes = vec![1u32; 8];
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.f_fraction = 0.5;
            cfg.policy = PolicyKind::Ttl { ttl: 3 };
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            // idx 0 replicates object 0 along the response path (leases
            // end at 3); idx 1–3 keep time moving with another object.
            let m = sim
                .run(&[req(0, 0, 0), req(0, 1, 1), req(0, 1, 1), req(0, 1, 1)])
                .clone();
            assert!(
                sim.replicas_of(0).is_empty(),
                "object 0's leases were due at idx 3"
            );
            assert_directory_matches_caches(&sim, 8);
            // Requests 2 and 3 hit object 1's still-live lease at its leaf.
            assert_eq!(m.cache_hits, 2);
        }

        #[test]
        fn renewal_outlives_the_original_stamp() {
            // Regression for the expiry queue's stamp check: a renewed
            // lease leaves its old queue entry behind, and that stale
            // entry must not expire the renewal when it drains.
            //
            // Capacity gating forces the renewal: with 1 serve per node
            // per window, the leaf's copy is unusable at idx 2, a farther
            // replica serves, and the response re-inserts at the leaf —
            // renewing its lease to [2, 12) while (10, leaf, 0) is still
            // queued.
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.f_fraction = 0.5;
            cfg.policy = PolicyKind::Ttl { ttl: 10 };
            cfg.capacity = Some(crate::capacity::ServingCapacity {
                per_node: 1,
                window: 1_000,
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let mut reqs = vec![req(0, 0, 0), req(0, 0, 0), req(0, 0, 0)];
            // Filler requests push logical time to idx 10, draining the
            // stamp-10 entries (object 0's original leases).
            reqs.extend((3..=10).map(|_| req(0, 3, 1)));
            sim.run(&reqs);
            let leaf = net.leaf(0, 0);
            assert_eq!(
                sim.replicas_of(0),
                vec![leaf],
                "only the renewed leaf lease survives the stamp-10 drain"
            );
            assert_directory_matches_caches(&sim, 4);
        }

        #[test]
        fn reference_mode_is_bit_identical_under_ttl() {
            // Expiry must keep the directory in sync with the caches, which
            // the reference mode reads directly. Both must agree.
            let net = two_pop_net();
            let origins = vec![1u16; 8];
            let sizes = vec![1u32; 8];
            let reqs: Vec<Request> = (0..300u64)
                .map(|i| req((i % 2) as u16, (i % 4) as u16, (i * 7 % 8) as u32))
                .collect();
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.f_fraction = 0.25;
            cfg.policy = PolicyKind::Ttl { ttl: 17 };
            let mut flat = Simulator::new(&net, cfg.clone(), &origins, &sizes);
            let mut reference = Simulator::new(&net, cfg, &origins, &sizes);
            reference.set_reference(true);
            let a = flat.run(&reqs).clone();
            let b = reference.run(&reqs).clone();
            assert_eq!(a, b);
            assert_directory_matches_caches(&flat, 8);
            assert_directory_matches_caches(&reference, 8);
        }
    }

    mod faults {
        use super::*;
        use crate::capacity::ServingCapacity;
        use crate::fault::{FaultConfig, FaultSchedule};

        fn link_only(seed: u64, rate: f64, window: u32) -> FaultConfig {
            FaultConfig {
                window,
                link_failure_rate: rate,
                ..FaultConfig::zero(seed)
            }
        }

        /// Deterministic seed search: the first seed whose schedule keeps
        /// every link up in windows `healthy` and cuts exactly the
        /// pop0–pop1 core link in windows `cut`. Purely a function of the
        /// schedule hash, so the found seed is stable across runs,
        /// processes, and worker counts.
        fn seed_with_core_cut(
            net: &Network,
            cfg_of: impl Fn(u64) -> FaultConfig,
            healthy: &[u64],
            cut: &[u64],
        ) -> u64 {
            let core = net.core_link(0, 1);
            (0..1_000_000u64)
                .find(|&seed| {
                    let s = FaultSchedule::new(cfg_of(seed));
                    healthy
                        .iter()
                        .all(|&w| (0..net.link_count()).all(|l| !s.link_down(l, w)))
                        && cut.iter().all(|&w| {
                            (0..net.link_count()).all(|l| s.link_down(l, w) == (l == core))
                        })
                })
                .expect("no seed with the wanted core-cut pattern in 1M tries")
        }

        #[test]
        fn zero_schedule_is_bit_identical_to_no_fault_run() {
            let net = two_pop_net();
            let origins = vec![1u16; 8];
            let sizes = vec![1u32; 8];
            let reqs: Vec<Request> = (0..200).map(|i| req(0, (i % 4) as u16, i % 8)).collect();
            for design in [
                DesignKind::Edge,
                DesignKind::EdgeCoop,
                DesignKind::IcnSp,
                DesignKind::IcnNr,
            ] {
                let mut plain = sim_with(&net, design, &origins, &sizes);
                let base = plain.run(&reqs).clone();
                let mut cfg = ExperimentConfig::baseline(design);
                cfg.f_fraction = 0.5;
                cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
                cfg.fault = Some(FaultConfig::zero(0xdead_beef));
                let mut faulted = Simulator::new(&net, cfg, &origins, &sizes);
                let m = faulted.run(&reqs).clone();
                assert_eq!(base, m, "{design:?}: zero schedule perturbed the run");
                assert_eq!(m.failed_requests, 0);
                assert_eq!(m.availability_pct(), 100.0);
                assert_eq!(m.fault_latency_hist.count(), 0);
            }
        }

        #[test]
        fn total_link_failure_fails_every_cross_pop_request() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::NoCache);
            cfg.fault = Some(link_only(7, 1.0, 1_000));
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 1, 1), req(1, 0, 2)]);
            assert_eq!(m.requests, 3);
            assert_eq!(m.failed_requests, 3, "origin unreachable behind dead links");
            assert_eq!(m.availability_pct(), 0.0);
            assert_eq!(m.total_latency, 0.0, "failed requests add no latency");
            assert_eq!(m.link_transfers.iter().sum::<u64>(), 0);
            assert_eq!(m.served(), 0);
        }

        #[test]
        fn edge_cache_masks_an_origin_partition() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            // Requests 0 / 1 / 2 land in windows 0 / 1 / 2 (window = 1).
            let seed = seed_with_core_cut(&net, |s| link_only(s, 0.1, 1), &[0], &[1, 2]);
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(link_only(seed, 0.1, 1));
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            // Window 0 (healthy): origin serve warms the leaf. Windows 1–2
            // (core cut): the cached object still serves locally, while an
            // uncached object fails — graceful degradation, not collapse.
            let m = sim.run(&[req(0, 0, 0), req(0, 0, 0), req(0, 0, 1)]);
            assert_eq!(m.cache_hits, 1, "cached object survives the partition");
            assert_eq!(m.origin_hits, 1);
            assert_eq!(m.failed_requests, 1, "uncached object cannot reach origin");
            assert_eq!(
                m.fault_latency_hist.count(),
                1,
                "the window-1 leaf hit lands in the under-failure histogram"
            );
        }

        #[test]
        fn nr_falls_back_to_a_farther_live_replica_when_origin_is_cut() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            // Window length 4: warm-up requests 0..4 share healthy window
            // 0; the probe request (index 4) lands in window 1 with the
            // core link cut.
            let seed = seed_with_core_cut(&net, |s| link_only(s, 0.1, 4), &[0], &[1]);
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.f_fraction = 0.5; // Uniform budget: 2 objects per cache
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(link_only(seed, 0.1, 4));
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            // Warm-up engineers a world where the ONLY replica of object 0
            // is leaf (0,2): leaf (0,2) fetches it, then leaf (0,3)'s
            // fetches of objects 1..=3 evict object 0 from the shared
            // interior caches (capacity 2, LRU) but not from leaf (0,2).
            // From leaf (0,0), that replica costs 4 — farther than the
            // origin at cost 3, so fault-free ICN-NR would pick the
            // origin. With the core cut, it must fall back to the farther
            // live replica instead of failing.
            let m = sim
                .run(&[
                    req(0, 2, 0),
                    req(0, 3, 1),
                    req(0, 3, 2),
                    req(0, 3, 3),
                    req(0, 0, 0),
                ])
                .clone();
            assert_eq!(m.requests, 5);
            assert_eq!(m.failed_requests, 0, "a live replica exists");
            assert_eq!(m.origin_hits, 4, "the probe must not reach the origin");
            assert_eq!(m.cache_hits, 1, "served by the leaf (0,2) replica");
            // 4 warm serves at latency 4 + the detour serve at cost 4 + 1.
            assert_eq!(m.total_latency, 4.0 * 4.0 + 5.0);

            // Control: the identical request sequence without faults picks
            // the origin for the probe (cost 3 beats the replica's 4).
            let mut plain_cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            plain_cfg.f_fraction = 0.5;
            plain_cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            let mut plain = Simulator::new(&net, plain_cfg, &origins, &sizes);
            let p = plain
                .run(&[
                    req(0, 2, 0),
                    req(0, 3, 1),
                    req(0, 3, 2),
                    req(0, 3, 3),
                    req(0, 0, 0),
                ])
                .clone();
            assert_eq!(p.origin_hits, 5, "fault-free NR prefers the origin");
            assert_eq!(p.total_latency, 4.0 * 4.0 + 4.0);
        }

        #[test]
        fn permanently_crashed_caches_never_serve_or_store() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(FaultConfig {
                node_crash_rate: 1.0,
                ..FaultConfig::zero(3)
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 0, 0), req(0, 0, 0)]);
            assert_eq!(m.cache_hits, 0, "a crashed cache cannot serve");
            assert_eq!(m.origin_hits, 3, "links are healthy: origin still serves");
            assert_eq!(m.failed_requests, 0);
        }

        #[test]
        fn crashed_nodes_leave_the_replica_directory() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(FaultConfig {
                node_crash_rate: 1.0,
                ..FaultConfig::zero(3)
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
            assert!(
                sim.replicas_of(0).is_empty(),
                "crashed nodes must not advertise replicas: {:?}",
                sim.replicas_of(0)
            );
        }

        #[test]
        fn crash_flushes_are_safe_under_ttl_leases() {
            // A crash flush empties caches while the expiry queue still
            // holds their lease stamps; those entries must drain as
            // no-ops, and post-crash re-insertions (new stamps) must not
            // be expired by them. The directory stays exact throughout.
            let net = two_pop_net();
            let origins = vec![1u16; 8];
            let sizes = vec![1u32; 8];
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.policy = icn_cache::PolicyKind::Ttl { ttl: 9 };
            cfg.fault = Some(FaultConfig {
                node_crash_rate: 0.3,
                window: 40,
                ..FaultConfig::zero(5)
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let reqs: Vec<Request> = (0..400u64)
                .map(|i| req((i % 2) as u16, (i % 4) as u16, (i * 3 % 8) as u32))
                .collect();
            let m = sim.run(&reqs).clone();
            assert_eq!(m.requests, 400);
            assert_directory_matches_caches(&sim, 8);
        }

        #[test]
        fn zero_disaster_layer_is_bit_identical_to_no_fault_run() {
            // A disaster layer with zero rates (and zero corruption) must
            // not perturb a single bit of any design's run.
            let net = two_pop_net();
            let origins = vec![1u16; 8];
            let sizes = vec![1u32; 8];
            let reqs: Vec<Request> = (0..200).map(|i| req(0, (i % 4) as u16, i % 8)).collect();
            for design in [DesignKind::Edge, DesignKind::IcnSp, DesignKind::IcnNr] {
                let mut plain = sim_with(&net, design, &origins, &sizes);
                let base = plain.run(&reqs).clone();
                let mut cfg = ExperimentConfig::baseline(design);
                cfg.f_fraction = 0.5;
                cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
                cfg.fault = Some(FaultConfig {
                    disaster: Some(crate::fault::DisasterConfig {
                        group_rate: 0.0,
                        group_mttr_windows: 4,
                        geometric_repair: false,
                        cascade_overload: true,
                    }),
                    ..FaultConfig::zero(0xd15a)
                });
                let mut faulted = Simulator::new(&net, cfg, &origins, &sizes);
                let m = faulted.run(&reqs).clone();
                assert_eq!(base, m, "{design:?}: zero disaster layer perturbed the run");
                assert_eq!(m.corrupt_served, 0);
                assert_eq!(m.corrupt_detected, 0);
                assert_eq!(m.correct_availability_pct(), 100.0);
            }
        }

        #[test]
        fn certain_group_failure_takes_down_every_subtree_and_bundle() {
            // group_rate = 1: every PoP subtree and every core bundle is
            // down in every window. No router can serve or store, no core
            // link is live, and every leaf's uplink is dead — total
            // blackout.
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(FaultConfig {
                disaster: Some(crate::fault::DisasterConfig {
                    group_rate: 1.0,
                    group_mttr_windows: 1,
                    geometric_repair: false,
                    cascade_overload: false,
                }),
                ..FaultConfig::zero(17)
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 1, 1), req(1, 0, 2)]);
            assert_eq!(m.failed_requests, 3, "a total disaster fails everything");
            assert_eq!(m.availability_pct(), 0.0);
        }

        #[test]
        fn cascading_overload_spreads_saturation_to_core_neighbors() {
            // Find a seed where pop 1 (the only core neighbor of pop 0) is
            // degraded in windows 0 and 1 while pop 0 is not — any pop-0
            // degradation in the test must then come from the cascade.
            let degraded_cfg = |seed: u64, cascade: bool| FaultConfig {
                window: 2,
                origin_degraded_rate: 0.5,
                degraded_origin: ServingCapacity {
                    per_node: 1,
                    window: 2,
                },
                disaster: Some(crate::fault::DisasterConfig {
                    group_rate: 0.0,
                    group_mttr_windows: 1,
                    geometric_repair: false,
                    cascade_overload: cascade,
                }),
                ..FaultConfig::zero(seed)
            };
            let seed = (0..1_000_000u64)
                .find(|&s| {
                    let sch = FaultSchedule::new(degraded_cfg(s, true));
                    (0..2).all(|w| sch.origin_degraded(1, w) && !sch.origin_degraded(0, w))
                })
                .expect("no seed with the wanted degradation pattern");
            let net = two_pop_net();
            // Objects 0..2 owned by pop 1; objects 2..4 owned by pop 0.
            let origins = vec![1u16, 1, 0, 0];
            let sizes = vec![1u32; 4];
            // Window 0: two requests saturate degraded pop 1 (capacity 1,
            // one fails). Window 1: pop 0 inherits the shed load via the
            // cascade, so its second serve fails too.
            let reqs = [req(0, 0, 0), req(0, 1, 0), req(0, 0, 2), req(0, 1, 2)];
            let mut cfg = ExperimentConfig::baseline(DesignKind::NoCache);
            cfg.fault = Some(degraded_cfg(seed, true));
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&reqs).clone();
            assert_eq!(m.failed_requests, 2, "cascade saturates pop 0 in window 1");

            // Control: identical schedule without the cascade rule — pop 0
            // stays healthy and serves both window-1 requests.
            let mut cfg = ExperimentConfig::baseline(DesignKind::NoCache);
            cfg.fault = Some(degraded_cfg(seed, false));
            let mut control = Simulator::new(&net, cfg, &origins, &sizes);
            let c = control.run(&reqs).clone();
            assert_eq!(c.failed_requests, 1, "without cascade only pop 1 sheds");
        }

        #[test]
        fn corruption_is_served_by_edge_but_detected_by_icn() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let corrupt = FaultConfig {
                corruption_rate: 1.0,
                ..FaultConfig::zero(23)
            };
            // EDGE cannot verify: the poisoned leaf copy is delivered.
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(corrupt);
            let mut edge = Simulator::new(&net, cfg, &origins, &sizes);
            let e = edge.run(&[req(0, 0, 0), req(0, 0, 0)]).clone();
            assert_eq!(e.cache_hits, 1, "EDGE still counts the (poisoned) hit");
            assert_eq!(e.corrupt_served, 1);
            assert_eq!(e.corrupt_detected, 0);
            assert_eq!(e.availability_pct(), 100.0, "reachability is unharmed");
            assert_eq!(
                e.correct_availability_pct(),
                50.0,
                "but one serve was poison"
            );

            // ICN-NR self-certifies: every poisoned replica on the path is
            // caught, evicted, and charged as a wasted round trip; the
            // origin delivers the authentic copy.
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(corrupt);
            let mut icn = Simulator::new(&net, cfg, &origins, &sizes);
            let m = icn.run(&[req(0, 0, 0), req(0, 0, 0)]).clone();
            assert_eq!(
                m.corrupt_served, 0,
                "self-certification never serves poison"
            );
            assert_eq!(
                m.corrupt_detected, 3,
                "leaf, interior, and pop-root replicas all caught"
            );
            assert_eq!(m.origin_hits, 2, "the clean copy comes from the origin");
            assert_eq!(m.correct_availability_pct(), 100.0);
            // Warm serve at 4; retry serve = origin (3 + 1) + wasted
            // fetches at the leaf (0 + 1), interior (1 + 1), root (2 + 1).
            assert_eq!(m.total_latency, 4.0 + 10.0);
            assert_directory_matches_caches(&icn, 4);
        }

        #[test]
        fn detected_corruption_in_sp_walk_retries_upstream() {
            // ICN-SP with a poisoned leaf copy: the walk discards it and
            // the next on-path copy (or origin) serves, charged the wasted
            // fetch.
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let corrupt = FaultConfig {
                corruption_rate: 1.0,
                ..FaultConfig::zero(29)
            };
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnSp);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(corrupt);
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]).clone();
            assert_eq!(m.corrupt_served, 0);
            assert_eq!(m.corrupt_detected, 3, "all three on-path copies caught");
            assert_eq!(m.origin_hits, 2);
            // Warm 4; retry = origin 4 + wasted fetches at costs 0/1/2 + 1.
            assert_eq!(m.total_latency, 4.0 + 10.0);
        }

        #[test]
        fn degraded_origin_saturates_and_fails_overflow() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::NoCache);
            cfg.fault = Some(FaultConfig {
                origin_degraded_rate: 1.0,
                degraded_origin: ServingCapacity {
                    per_node: 1,
                    window: 1_000,
                },
                ..FaultConfig::zero(11)
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 1, 0), req(0, 2, 0)]);
            assert_eq!(m.origin_hits, 1, "degraded origin serves one per window");
            assert_eq!(m.failed_requests, 2);
            assert!((m.availability_pct() - 100.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lfu_policy_also_works() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
        cfg.policy = icn_cache::policy::PolicyKind::Lfu;
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        cfg.f_fraction = 0.5;
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
        assert_eq!(m.cache_hits, 1);
    }
}
