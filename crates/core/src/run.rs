//! The control loop of one scenario run, as an owned [`Run`].
//!
//! [`SimulationDriver::run_traced`](crate::SimulationDriver::run_traced)
//! builds a `Run` from the scenario, steps the tick engine over
//! `Run::tick`, writes snapshots between ticks, and ends with
//! `Run::finish`. Every tick calls the same named phases in a fixed
//! order:
//!
//! 1. `faults` — due infrastructure faults strike;
//! 2. `due_events` — per-request arrivals, node changes, scaling periods;
//! 3. `client_cohorts` — cohort-mode client arrivals;
//! 4. `child_hops` — graph mode: hops queued by last tick's completions;
//! 5. `advance` — the resource model advances and its outcomes settle;
//! 6. `roll_call` — the per-service availability roll call;
//! 7. `warp` — closed-form skip of a provably idle stretch.
//!
//! `Run::snapshot_write` and `Run::snapshot_restore` serialize the run
//! field for field, in one order, side by side.

use std::collections::{BTreeMap, HashMap};

use hyscale_cluster::{
    Cluster, Cohort, ContainerId, ContainerSpec, FailedRequest, FailureKind, FaultInjector, MemMb,
    NodeId, Request, ServiceId, TickReport,
};
use hyscale_metrics::{
    AvailabilityTracker, CostMeter, MetricsRegistry, RequestOutcomes, TimeSeries,
};
use hyscale_sim::{
    fnv1a, EventQueue, SimDuration, SimRng, SimTime, SnapReader, SnapWriter, SnapshotError,
    TickEngine, TickOutcome,
};
use hyscale_trace::{EventKind, TraceSink};
use hyscale_workload::ArrivalProcess;

use crate::actions::ScalingAction;
use crate::balancer::LoadBalancer;
use crate::controlplane::{ControlPlane, ControlPlaneStats};
use crate::driver::{NodeEvent, RunReport, ScalingCounts, ScenarioConfig, SnapshotPolicy};
use crate::error::CoreError;
use crate::flowgraph::{EntryPointStats, GraphTracker, PendingHop};
use crate::monitor::Monitor;
use crate::recovery::RecoveryManager;

/// Events on the run's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A client request for service index `usize` arrives.
    Arrival(usize),
    /// The Monitor's scaling period fires.
    Scale,
    /// A scheduled machine addition/removal (index into
    /// `config.node_events`).
    NodeChange(usize),
}

/// Everything one run of a scenario reads and writes between ticks.
pub(crate) struct Run<'a> {
    config: &'a ScenarioConfig,
    /// Digest of `config`, stamped into every snapshot.
    cfg_digest: u64,
    horizon: SimTime,
    node_ids: Vec<NodeId>,
    service_ids: Vec<ServiceId>,
    /// Per-service container templates the recovery path respawns from.
    templates: HashMap<ServiceId, ContainerSpec>,
    /// Per-tick availability roll calls cost one pass over all
    /// containers, so they only run for scenarios that can actually
    /// lose replicas to the infrastructure.
    track_availability: bool,

    cluster: Cluster,
    monitor: Monitor,
    balancer: LoadBalancer,
    recovery: RecoveryManager,
    injector: FaultInjector,
    arrivals: Vec<ArrivalProcess>,
    arrival_rngs: Vec<SimRng>,
    demand_rngs: Vec<SimRng>,
    /// Retry-backoff jitter; only ever drawn from in the serial phase.
    resilience_rng: SimRng,
    events: EventQueue<Event>,
    graph: Option<GraphTracker>,

    requests: RequestOutcomes,
    per_service: BTreeMap<ServiceId, RequestOutcomes>,
    scaling: ScalingCounts,
    cost: CostMeter,
    replicas_ts: TimeSeries,
    cpu_ts: TimeSeries,
    mem_ts: TimeSeries,
    availability: BTreeMap<ServiceId, AvailabilityTracker>,
    /// Per-service balancer routing deltas `(routed, rejected)` since the
    /// last scaling period (emitted as `BalancerStats`, then reset).
    balancer_deltas: Vec<(u64, u64)>,
    /// Run totals for the end-of-run counter dump.
    balancer_total: (u64, u64),
    deaths_total: u64,
    respawns_total: u64,
    recovery_failures_total: u64,
    /// Ticks the time warp skipped in closed form.
    warp_ticks: u64,

    // Scratch buffers reused across ticks (the hot loop allocates
    // nothing in steady state).
    tick_report: TickReport,
    cohort_routes: Vec<(ContainerId, u64)>,
    ready_counts: Vec<u32>,
}

impl<'a> Run<'a> {
    /// Builds the run's deterministic starting state: cluster, initial
    /// placement, platform, RNG streams, and the first queued events.
    pub(crate) fn new(config: &'a ScenarioConfig) -> Result<Self, CoreError> {
        let mut master_rng = SimRng::seed_from(config.seed);

        // --- Cluster setup -------------------------------------------------
        let mut cluster = Cluster::new(config.cluster);
        cluster.set_parallelism(config.parallelism);
        let node_ids: Vec<NodeId> = config
            .nodes
            .iter()
            .map(|spec| cluster.add_node(*spec))
            .collect();

        for (node_idx, spec) in &config.antagonists {
            let spec = spec.clone().with_startup_secs(0.0);
            cluster.start_container(node_ids[*node_idx], spec, SimTime::ZERO)?;
        }

        // Initial replicas, placed round-robin across nodes. They are
        // pre-warmed (no startup delay): the paper's services are already
        // running when an experiment's measurement window opens.
        let mut placement_cursor = 0usize;
        for service in &config.services {
            for _ in 0..config.initial_replicas {
                let node = node_ids[placement_cursor % node_ids.len()];
                placement_cursor += 1;
                let spec = service.container.clone().with_startup_secs(0.0);
                cluster.start_container(node, spec, SimTime::ZERO)?;
            }
        }

        // --- Platform setup -------------------------------------------------
        let templates: HashMap<ServiceId, ContainerSpec> = config
            .services
            .iter()
            .map(|s| (s.id, s.container.clone()))
            .collect();
        let algorithm = config.algorithm.build(config.hpa, config.hyscale);
        let mut monitor = Monitor::new(algorithm, &cluster, templates.clone());
        let recovery = RecoveryManager::new(config.recovery);
        let injector = FaultInjector::new(&config.faults, &node_ids);

        // --- Workload setup ---------------------------------------------------
        let arrival_rngs: Vec<SimRng> =
            config.services.iter().map(|_| master_rng.split()).collect();
        let demand_rngs: Vec<SimRng> = config.services.iter().map(|_| master_rng.split()).collect();
        // Control-plane streams split *after* the workload streams so a
        // disabled control plane leaves every legacy stream untouched
        // (the splits still happen, keeping seeds comparable across
        // configs that only toggle `control_plane.enabled`).
        let cp_rng = master_rng.split();
        let lb_rng = master_rng.split();
        // The resilience stream (retry-backoff jitter) splits last and
        // unconditionally, so toggling the layer never shifts any other
        // stream.
        let resilience_rng = master_rng.split();

        let service_ids: Vec<ServiceId> = config.services.iter().map(|s| s.id).collect();
        let balancer = if config.control_plane.enabled {
            monitor.set_control_plane(ControlPlane::new(config.control_plane, cp_rng));
            let mut lb = LoadBalancer::with_breakers(config.control_plane.breaker, lb_rng);
            // The balancer's first backend snapshot is the initial
            // placement; later ones arrive once per scaling period.
            lb.refresh(&cluster, &service_ids);
            lb
        } else {
            LoadBalancer::new()
        };

        // Graph mode: client load attaches only to entry points; every
        // non-entry tier sees purely derived traffic. Non-entry services
        // never draw from their arrival streams, which is exactly why an
        // edge-free graph (every service an entry) reproduces the
        // graph-free run bit for bit.
        let graph = config
            .graph
            .as_ref()
            .map(|g| GraphTracker::new(g.clone(), &config.services, config.resilience));

        let mut run = Run {
            config,
            cfg_digest: config_digest(config),
            horizon: SimTime::ZERO + config.duration,
            node_ids,
            service_ids,
            templates,
            track_availability: !config.faults.is_empty() || !config.node_events.is_empty(),
            cluster,
            monitor,
            balancer,
            recovery,
            injector,
            arrivals: config
                .services
                .iter()
                .map(|s| ArrivalProcess::new(s.load.clone()))
                .collect(),
            arrival_rngs,
            demand_rngs,
            resilience_rng,
            events: EventQueue::new(),
            graph,
            requests: RequestOutcomes::new(),
            per_service: config
                .services
                .iter()
                .map(|s| (s.id, RequestOutcomes::new()))
                .collect(),
            scaling: ScalingCounts::default(),
            cost: CostMeter::new(),
            replicas_ts: TimeSeries::new("replicas"),
            cpu_ts: TimeSeries::new("cpu-used-cores"),
            mem_ts: TimeSeries::new("mem-used-mb"),
            availability: config
                .services
                .iter()
                .map(|s| (s.id, AvailabilityTracker::new()))
                .collect(),
            balancer_deltas: vec![(0, 0); config.services.len()],
            balancer_total: (0, 0),
            deaths_total: 0,
            respawns_total: 0,
            recovery_failures_total: 0,
            warp_ticks: 0,
            tick_report: TickReport::default(),
            cohort_routes: Vec::new(),
            ready_counts: Vec::new(),
        };

        if !config.cohort_arrivals {
            // Per-request mode: each service runs a thinned Poisson
            // process of individual arrival events. Cohort mode draws a
            // per-tick Poisson count in `client_cohorts` instead.
            for idx in 0..config.services.len() {
                if !run.takes_client_load(idx) {
                    continue;
                }
                let first =
                    run.arrivals[idx].next_arrival(SimTime::ZERO, &mut run.arrival_rngs[idx]);
                if first < SimTime::MAX {
                    run.events.schedule(first, Event::Arrival(idx));
                }
            }
        }
        run.events
            .schedule(SimTime::ZERO + config.scale_period, Event::Scale);
        for (idx, (secs, _)) in config.node_events.iter().enumerate() {
            run.events
                .schedule(SimTime::from_secs(*secs), Event::NodeChange(idx));
        }
        Ok(run)
    }

    /// Whether service `idx` receives client load (in graph mode only
    /// entry points do).
    fn takes_client_load(&self, idx: usize) -> bool {
        self.graph.as_ref().is_none_or(|t| t.is_entry(idx))
    }

    /// Runs one tick starting at `now`, phase by phase.
    pub(crate) fn tick(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        trace: &mut TraceSink,
    ) -> TickOutcome {
        self.faults(now, trace);
        self.due_events(now, trace);
        if self.config.cohort_arrivals {
            self.client_cohorts(now, dt, trace);
        }
        self.child_hops(now, trace);
        let had_outcomes = self.advance(now, dt, trace);
        self.roll_call(now, dt.as_secs());
        if self.config.time_warp && !had_outcomes {
            self.warp(now, dt, trace)
        } else {
            TickOutcome::Continue
        }
    }

    /// Phase 1: fault injection strikes at the start of the tick, in the
    /// serial phase (never inside the parallel node workers), so chaos
    /// runs stay bit-identical at any parallelism setting.
    fn faults(&mut self, now: SimTime, trace: &mut TraceSink) {
        if self.injector.drained() {
            return;
        }
        for failure in self
            .injector
            .apply_due_traced(&mut self.cluster, now, trace)
        {
            self.record_failure(&failure, trace);
        }
    }

    /// Phase 2: delivers the events due at the start of the tick.
    fn due_events(&mut self, now: SimTime, trace: &mut TraceSink) {
        while let Some((event_time, event)) = self.events.pop_due(now) {
            match event {
                Event::Arrival(idx) => self.arrival(idx, event_time, now, trace),
                Event::NodeChange(idx) => self.node_change(idx, now, trace),
                Event::Scale => self.scale_period(now, trace),
            }
        }
    }

    /// One per-request client arrival on service `idx`, issued at `at`:
    /// shed, or route and admit it; then schedule the next arrival.
    fn arrival(&mut self, idx: usize, at: SimTime, now: SimTime, trace: &mut TraceSink) {
        let config = self.config;
        let service = &config.services[idx];
        if !self.shed(idx, 1, at, trace) {
            self.record_issued(service.id, 1);
            let mut request = service.make_request(at, &mut self.demand_rngs[idx]);
            // In graph mode every arrival opens a root; a request the
            // balancer or admission rejects either retries (resilience
            // on) or fails it on the spot (seal resolves roots that
            // registered no hop).
            let entry_hop = self.open_root(idx, 1, &mut request);
            let admitted = match self.balancer.route(&self.cluster, service.id, now) {
                Some(target) => {
                    self.balancer_deltas[idx].0 += 1;
                    self.balancer_total.0 += 1;
                    match self.cluster.admit_request(target, request, now) {
                        Ok(id) => {
                            if let (Some(t), Some(hop)) = (self.graph.as_mut(), entry_hop.as_ref())
                            {
                                t.register_hop(hop.root, id.index(), hop);
                            }
                            self.balancer.record_success(target, now, trace);
                            true
                        }
                        Err(_) => {
                            // Feeds the replica's circuit breaker (no-op
                            // for the live-mode balancer).
                            self.balancer.record_failure(target, now, trace);
                            false
                        }
                    }
                }
                None => {
                    self.balancer_deltas[idx].1 += 1;
                    self.balancer_total.1 += 1;
                    false
                }
            };
            if !admitted {
                self.tally_failures(service.id, FailureKind::QueueAbort, 1);
                if let (Some(t), Some(hop)) = (self.graph.as_mut(), entry_hop.as_ref()) {
                    t.on_unadmitted(hop, 1, now, &mut self.resilience_rng, trace);
                }
            }
            if let (Some(t), Some(hop)) = (self.graph.as_mut(), entry_hop) {
                t.seal_root(hop.root);
            }
        }
        let next = self.arrivals[idx].next_arrival(at, &mut self.arrival_rngs[idx]);
        if next < SimTime::MAX && next < self.horizon {
            self.events.schedule(next, Event::Arrival(idx));
        }
    }

    /// A scheduled machine addition or removal.
    fn node_change(&mut self, idx: usize, now: SimTime, trace: &mut TraceSink) {
        match &self.config.node_events[idx].1 {
            NodeEvent::Decommission(node_idx) => {
                let failures = self
                    .cluster
                    .decommission_node(self.node_ids[*node_idx], now)
                    .unwrap_or_default();
                for failure in &failures {
                    self.record_failure(failure, trace);
                }
            }
            NodeEvent::Commission(spec) => {
                self.cluster.add_node(*spec);
            }
        }
    }

    /// The Monitor's scaling period: scale, recover dead replicas,
    /// refresh the balancer, sample the report series and the cost.
    fn scale_period(&mut self, now: SimTime, trace: &mut TraceSink) {
        let config = self.config;
        let period_secs = config.scale_period.as_secs();
        // Muted NodeManagers (stat outages) leave their containers on
        // stale usage this period.
        self.monitor
            .set_stat_outages(self.injector.muted_nodes(now));
        let report = self
            .monitor
            .run_period_traced(&mut self.cluster, now, period_secs, trace);
        for action in &report.applied {
            match action {
                ScalingAction::Update { .. } | ScalingAction::SetNetCap { .. } => {
                    self.scaling.vertical += 1;
                }
                ScalingAction::Spawn { .. } => self.scaling.spawns += 1,
                ScalingAction::Remove { .. } => self.scaling.removals += 1,
            }
        }
        for failure in &report.removal_failures {
            self.record_failure(failure, trace);
        }

        // Replicas that died underneath the platform are respawned
        // through the recovery path (placement + capped exponential
        // backoff).
        self.deaths_total += report.dead_replicas.len() as u64;
        for (service, _) in &report.dead_replicas {
            if let Some(t) = self.availability.get_mut(service) {
                t.record_death();
            }
        }
        let recovered = self
            .recovery
            .run_traced(&mut self.cluster, &self.templates, now, trace);
        self.respawns_total += recovered.respawned.len() as u64;
        self.recovery_failures_total += recovered.failed.len() as u64;
        for (service, _) in &recovered.respawned {
            if let Some(t) = self.availability.get_mut(service) {
                t.record_respawn();
            }
        }
        for service in &recovered.failed {
            if let Some(t) = self.availability.get_mut(service) {
                t.record_recovery_failure();
            }
        }

        // The balancer hears the period's final replica roll call (post
        // scaling + recovery). Snapshot mode routes off this until the
        // next period; live mode ignores it.
        self.balancer.refresh(&self.cluster, &self.service_ids);

        // Periodic samples for the report.
        let secs = now.as_secs();
        let view = &report.view;
        self.replicas_ts.push(secs, view.total_replicas() as f64);
        let cpu_used: f64 = view.services.iter().map(|s| s.total_cpu_used().get()).sum();
        let mem_used: f64 = view.services.iter().map(|s| s.total_mem_used().get()).sum();
        self.cpu_ts.push(secs, cpu_used);
        self.mem_ts.push(secs, mem_used);
        let allocated: f64 = view
            .services
            .iter()
            .flat_map(|s| s.replicas.iter())
            .map(|r| r.cpu_requested.get())
            .sum();
        let busy_nodes = view
            .nodes
            .iter()
            .filter(|n| !n.hosted_services.is_empty())
            .count();
        self.cost
            .record_interval(period_secs, allocated, view.total_replicas(), busy_nodes);

        // Periodic trace snapshots: per-node allocator headroom, then
        // this period's routing deltas (reset only when journaled).
        if trace.is_enabled() {
            self.cluster.trace_pressure(now, trace);
            for (service, delta) in config.services.iter().zip(&mut self.balancer_deltas) {
                let (routed, rejected) = std::mem::take(delta);
                trace.emit(
                    now,
                    EventKind::BalancerStats {
                        service: service.id.index(),
                        routed,
                        rejected,
                    },
                );
            }
        }

        self.events
            .schedule(now + config.scale_period, Event::Scale);
    }

    /// Phase 3: cohort-mode client arrivals. One Poisson draw per service
    /// per tick, carried as a single flow cohort and waterfilled across
    /// replicas. The draw uses the same arrival/demand RNG streams as
    /// per-request mode (one count draw, one profile draw), so seeds stay
    /// comparable across services.
    fn client_cohorts(&mut self, now: SimTime, dt: SimDuration, trace: &mut TraceSink) {
        let config = self.config;
        let dt_secs = dt.as_secs();
        for (idx, service) in config.services.iter().enumerate() {
            if !self.takes_client_load(idx) {
                continue;
            }
            let mean = service.load.rate_at(now) * dt_secs;
            let n = self.arrival_rngs[idx].poisson(mean);
            if n == 0 || self.shed(idx, n, now, trace) {
                continue;
            }
            self.record_issued(service.id, n);
            // One demand draw shared by every member: exactly
            // `ServiceSpec::make_cohort`, with the root's deadline applied
            // before the cohort is cut.
            let mut request = service.make_request(now, &mut self.demand_rngs[idx]);
            let entry_hop = self.open_root(idx, n, &mut request);
            let cohort = Cohort::from_request(&request, n);
            let (routed, rejected) =
                self.admit_cohort(idx, &cohort, entry_hop.as_ref(), now, trace);
            // A root with no admitted hop and no queued retry resolves
            // right here.
            if let (Some(t), Some(hop)) = (self.graph.as_mut(), entry_hop) {
                t.seal_root(hop.root);
            }
            trace.emit(
                now,
                EventKind::CohortFlow {
                    service: service.id.index(),
                    count: n,
                    routed,
                    rejected,
                },
            );
        }
    }

    /// Phase 4, graph mode: admits the child hops queued by hops that
    /// completed last tick. Children ride the cohort machinery regardless
    /// of arrival mode (one aggregate record per admitted share, valid
    /// for count = 1), and their arrival time is the parent's finish —
    /// the gap until `now` is the inter-tier queueing delay the spans
    /// report.
    fn child_hops(&mut self, now: SimTime, trace: &mut TraceSink) {
        let pending = match self.graph.as_mut() {
            Some(t) if t.has_pending() => t.take_due(now),
            _ => return,
        };
        let config = self.config;
        for hop in &pending {
            let service = &config.services[hop.service];
            self.record_issued(service.id, hop.count);
            let tracker = self.graph.as_ref().expect("pending hops imply a tracker");
            let child = Request::new(
                service.id,
                hop.arrival,
                hop.cpu_secs,
                MemMb(hop.mem_mb),
                hop.megabits,
            )
            .with_disk(hop.disk_megabits)
            .with_timeout(tracker.hop_timeout(hop.root, hop.arrival, service.timeout));
            let cohort = Cohort::from_request(&child, hop.count).with_attempt(hop.attempt);
            self.admit_cohort(hop.service, &cohort, Some(hop), now, trace);
            // The queued entry itself is settled last, so the root cannot
            // resolve before its shares register.
            let tracker = self.graph.as_mut().expect("pending hops imply a tracker");
            tracker.settle_queued(hop.root);
        }
        let tracker = self.graph.as_mut().expect("pending hops imply a tracker");
        tracker.return_pending_scratch(pending);
    }

    /// Waterfills `cohort` across service `idx`'s replicas and admits
    /// each share. Admitted shares register under `hop` (graph mode) and
    /// close the replica's breaker loop; rejected and unrouted members
    /// are tallied as queue aborts and, in graph mode, either re-queue as
    /// one retry hop (resilience on, retryable — counting toward the
    /// root's pending total before the caller settles or seals it, so
    /// the root cannot resolve under them) or fail the root. Returns the
    /// `(routed, rejected)` member counts.
    fn admit_cohort(
        &mut self,
        idx: usize,
        cohort: &Cohort,
        hop: Option<&PendingHop>,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> (u64, u64) {
        let service = cohort.service;
        self.cohort_routes.clear();
        let unrouted = self.balancer.route_cohort(
            &self.cluster,
            service,
            cohort.count,
            now,
            &mut self.cohort_routes,
        );
        let mut routed = 0u64;
        let mut rejected = unrouted;
        for &(target, members) in &self.cohort_routes {
            let mut share = cohort.clone();
            share.count = members;
            match self.cluster.admit_cohort(target, share, now) {
                Ok(base) => {
                    routed += members;
                    if let (Some(t), Some(hop)) = (self.graph.as_mut(), hop) {
                        t.register_hop(hop.root, base.index(), hop);
                    }
                    self.balancer.record_success(target, now, trace);
                }
                Err(_) => {
                    rejected += members;
                    // Feeds the replica's circuit breaker (no-op for the
                    // live-mode balancer).
                    self.balancer.record_failure(target, now, trace);
                }
            }
        }
        if rejected > 0 {
            self.tally_failures(service, FailureKind::QueueAbort, rejected);
            if let (Some(t), Some(hop)) = (self.graph.as_mut(), hop) {
                t.on_unadmitted(hop, rejected, now, &mut self.resilience_rng, trace);
            }
        }
        self.balancer_deltas[idx].0 += routed;
        self.balancer_deltas[idx].1 += rejected;
        self.balancer_total.0 += routed;
        self.balancer_total.1 += rejected;
        (routed, rejected)
    }

    /// Graph mode: opens a root for `count` client arrivals shaped like
    /// `request` on entry point `idx` and returns its entry hop. The
    /// request's timeout becomes `min(service timeout, deadline budget)`.
    /// `None` without a graph.
    fn open_root(&mut self, idx: usize, count: u64, request: &mut Request) -> Option<PendingHop> {
        let t = self.graph.as_mut()?;
        let root = t.begin_root(idx, request.arrival, count);
        request.timeout = t.hop_timeout(root, request.arrival, request.timeout);
        Some(PendingHop {
            service: idx,
            depth: 0,
            root,
            count,
            cpu_secs: request.cpu_secs,
            mem_mb: request.mem.0,
            megabits: request.megabits_out,
            disk_megabits: request.disk_megabits,
            arrival: request.arrival,
            attempt: 0,
            policy: 0,
        })
    }

    /// Counts `n` issued requests on `service`, overall and per service.
    fn record_issued(&mut self, service: ServiceId, n: u64) {
        self.requests.record_issued_n(n);
        self.per_service
            .get_mut(&service)
            .expect("known service")
            .record_issued_n(n);
    }

    /// Overload shedding: at or above the in-flight watermark a new root
    /// of `members` arrivals on entry point `idx` is dropped unissued
    /// (counted as shed, not failed) so queued work can drain. The
    /// watermark reads serial-phase cluster state, so the decision is
    /// identical at any worker count; the skipped demand draw is
    /// deterministic per config for the same reason. Returns whether the
    /// root was shed.
    fn shed(&mut self, idx: usize, members: u64, at: SimTime, trace: &mut TraceSink) -> bool {
        let Some(t) = self.graph.as_mut().filter(|t| t.sheds()) else {
            return false;
        };
        let in_flight = self.cluster.service_in_flight(self.service_ids[idx]);
        if in_flight < t.shed_watermark() {
            return false;
        }
        t.record_shed(idx, members, in_flight, at, trace);
        true
    }

    /// Phase 5: advances the resource model one tick and settles its
    /// outcomes. Returns whether any request completed or failed.
    fn advance(&mut self, now: SimTime, dt: SimDuration, trace: &mut TraceSink) -> bool {
        // One report buffer, reused across ticks.
        let mut report = std::mem::take(&mut self.tick_report);
        self.cluster.advance_into(now, dt, &mut report);
        let had_outcomes = !report.completed.is_empty() || !report.failed.is_empty();
        for done in report.completed.drain(..) {
            let secs = done.response_time.as_secs();
            self.requests.record_completed_n(secs, done.count);
            if let Some(out) = self.per_service.get_mut(&done.service) {
                out.record_completed_n(secs, done.count);
            }
            if let Some(tracker) = self.graph.as_mut() {
                // Journals the hop's span, queues its children for next
                // tick, and resolves the root if this was its last
                // outstanding hop.
                tracker.on_completed(&done, &self.config.services, trace);
            }
        }
        for failed in report.failed.drain(..) {
            self.record_failure(&failed, trace);
        }
        self.tick_report = report;
        had_outcomes
    }

    /// Phase 6: availability roll call over a span of `span_secs` that
    /// starts at `at` (one tick, or a whole warped stretch, across which
    /// liveness is constant): a service is up iff at least one ready
    /// replica exists.
    fn roll_call(&mut self, at: SimTime, span_secs: f64) {
        if !self.track_availability {
            return;
        }
        self.cluster.ready_replicas_into(at, &mut self.ready_counts);
        for (service, tracker) in self.availability.iter_mut() {
            let up = self
                .ready_counts
                .get(service.as_usize())
                .is_some_and(|&n| n > 0);
            tracker.record_tick(span_secs, up);
        }
    }

    /// Phase 7, time warp: when this tick ended with nothing in flight
    /// and nothing due before the next event boundary, advances the idle
    /// stretch in closed form and tells the engine to skip it. The
    /// boundary is the earliest of the next queued event (a Scale event
    /// is always queued), the next fault or recovery, and the horizon; in
    /// cohort mode the span is additionally shrunk until the load
    /// patterns are provably silent over it.
    fn warp(&mut self, now: SimTime, dt: SimDuration, trace: &mut TraceSink) -> TickOutcome {
        if self.cluster.total_in_flight() != 0
            || !self.graph.as_ref().is_none_or(GraphTracker::is_idle)
        {
            return TickOutcome::Continue;
        }
        let end = now + dt;
        let mut boundary = self
            .events
            .peek_time()
            .unwrap_or(self.horizon)
            .min(self.horizon);
        if let Some(due) = self.injector.next_due_time() {
            boundary = boundary.min(due);
        }
        if boundary <= end {
            return TickOutcome::Continue;
        }
        let dt_us = dt.as_micros().max(1);
        // Number of tick starts in [end, boundary): ticks starting at or
        // past the boundary must run normally.
        let mut k = (boundary - end).as_micros().div_ceil(dt_us);
        if self.config.cohort_arrivals {
            while k > 0 {
                let span_end = end + dt * k;
                let quiet = self
                    .config
                    .services
                    .iter()
                    .all(|s| s.load.max_rate_in(end, span_end) == 0.0);
                if quiet {
                    break;
                }
                k /= 2;
            }
        }
        let warped = self.cluster.advance_warp(end, dt, k);
        if warped == 0 {
            return TickOutcome::Continue;
        }
        self.warp_ticks += warped;
        // advance_warp clamps at startup boundaries, so one roll call
        // covers the whole span.
        self.roll_call(end, dt.as_secs() * warped as f64);
        trace.emit(
            end,
            EventKind::TimeWarp {
                ticks: warped,
                span_us: dt.as_micros() * warped,
            },
        );
        TickOutcome::SkipAhead(warped)
    }

    /// Tallies one aborted/failed request exactly once, into both the
    /// overall and the per-service outcomes, according to the paper's
    /// taxonomy: scale-in and decommission aborts are **removal**
    /// failures, while timeouts, queue aborts, and infrastructure deaths
    /// are tallied separately and rolled up as **connection** failures in
    /// reports. Every failure-recording site funnels through here, so a
    /// request can never be double-counted or dropped — and, in graph
    /// mode, so every lost hop reliably fails its root (or, with the
    /// resilience layer enabled and a retryable failure, re-queues as a
    /// retry hop). The failed attempt is tallied either way: retries are
    /// extra issued load, so per-attempt accounting keeps `completed +
    /// failures ≤ issued` intact.
    fn record_failure(&mut self, failure: &FailedRequest, trace: &mut TraceSink) {
        if let Some(tracker) = self.graph.as_mut() {
            tracker.on_failed(failure, &mut self.resilience_rng, trace);
        }
        // Per-request paths always carry count 1; aborted cohorts arrive
        // as one aggregate record carrying their member count.
        self.tally_failures(failure.service, failure.kind, failure.count);
    }

    /// Bumps the failure tally of `kind` by `count`, overall and for
    /// `service`.
    fn tally_failures(&mut self, service: ServiceId, kind: FailureKind, count: u64) {
        record_failure_tally(&mut self.requests, kind, count);
        if let Some(out) = self.per_service.get_mut(&service) {
            record_failure_tally(out, kind, count);
        }
    }

    /// Writes a snapshot at the tick boundary the engine just crossed
    /// into `policy`'s directory.
    pub(crate) fn snapshot_to_file(
        &mut self,
        policy: &SnapshotPolicy,
        engine: &TickEngine,
        trace: &mut TraceSink,
    ) -> Result<(), SnapshotError> {
        let tick = engine.ticks_run();
        let boundary = engine.now();
        // The Snapshot event is emitted *before* the state is serialized,
        // so the captured trace cursor already counts it: an interrupted
        // journal ends exactly where the resumed journal begins.
        trace.emit(
            boundary,
            EventKind::Snapshot {
                tick,
                now_us: boundary.as_micros(),
            },
        );
        // Replay any lazily-parked idle ticks so the serialized
        // windows/EWMAs match a full-scan run.
        self.cluster.flush_pending();
        let frame = self
            .snapshot_write(boundary, tick, trace.total_emitted())
            .finish();
        std::fs::create_dir_all(&policy.dir)?;
        std::fs::write(policy.file_for(tick), frame)?;
        Ok(())
    }

    /// Serializes the complete run state, taken at tick boundary `now`
    /// after `ticks_run` ticks with `trace_seq` journal events emitted,
    /// into an (unframed) snapshot payload. [`SnapWriter::finish`] frames
    /// it; [`SnapWriter::digest`] turns it into the end-of-run state
    /// digest. `snapshot_restore` reads the same fields in the same
    /// order.
    pub(crate) fn snapshot_write(
        &self,
        now: SimTime,
        ticks_run: u64,
        trace_seq: u64,
    ) -> SnapWriter {
        let mut w = SnapWriter::new();
        w.put_u64(self.cfg_digest);
        w.put_u64(now.as_micros());
        w.put_u64(ticks_run);
        w.put_u64(trace_seq);
        self.cluster.snapshot_write(&mut w);
        self.monitor.snapshot_write(&mut w);
        self.balancer.snapshot_write(&mut w);
        self.recovery.snapshot_write(&mut w);
        self.injector.snapshot_write(&mut w);
        write_rngs(&mut w, &self.arrival_rngs);
        write_rngs(&mut w, &self.demand_rngs);
        write_rngs(&mut w, std::slice::from_ref(&self.resilience_rng));
        let entries = self.events.entries_in_order();
        w.put_usize(entries.len());
        for (time, event) in entries {
            w.put_u64(time.as_micros());
            let (tag, idx) = match *event {
                Event::Arrival(idx) => (0, Some(idx)),
                Event::Scale => (1, None),
                Event::NodeChange(idx) => (2, Some(idx)),
            };
            w.put_u8(tag);
            if let Some(idx) = idx {
                w.put_usize(idx);
            }
        }
        write_outcomes(&mut w, &self.requests);
        write_service_map(&mut w, &self.per_service, write_outcomes);
        w.put_u64(self.scaling.vertical);
        w.put_u64(self.scaling.spawns);
        w.put_u64(self.scaling.removals);
        let (core_secs, container_secs, busy_node_secs, elapsed_secs) = self.cost.raw_parts();
        w.put_f64(core_secs);
        w.put_f64(container_secs);
        w.put_f64(busy_node_secs);
        w.put_f64(elapsed_secs);
        write_series(&mut w, &self.replicas_ts);
        write_series(&mut w, &self.cpu_ts);
        write_series(&mut w, &self.mem_ts);
        write_service_map(&mut w, &self.availability, write_availability);
        w.put_usize(self.balancer_deltas.len());
        for &(routed, rejected) in &self.balancer_deltas {
            w.put_u64(routed);
            w.put_u64(rejected);
        }
        w.put_u64(self.balancer_total.0);
        w.put_u64(self.balancer_total.1);
        w.put_u64(self.deaths_total);
        w.put_u64(self.respawns_total);
        w.put_u64(self.recovery_failures_total);
        w.put_u64(self.warp_ticks);
        match &self.graph {
            None => w.put_u8(0),
            Some(tracker) => {
                w.put_u8(1);
                tracker.snapshot_write(&mut w);
            }
        }
        w
    }

    /// Overlays a payload written by `snapshot_write` onto this freshly
    /// built run, mirroring it field for field. Returns the engine clock
    /// `(now, ticks_run)` and the journal cursor the snapshot was taken
    /// at. Content the scenario could not have produced — another
    /// scenario's digest, event or tally indices out of range, a service
    /// key set other than the scenario's — is rejected with a typed
    /// error rather than left to fail later.
    pub(crate) fn snapshot_restore(
        &mut self,
        r: &mut SnapReader<'_>,
    ) -> Result<(SimTime, u64, u64), SnapshotError> {
        let found = r.get_u64()?;
        if found != self.cfg_digest {
            return Err(SnapshotError::ConfigMismatch {
                expected: self.cfg_digest,
                found,
            });
        }
        let now = SimTime::from_micros(r.get_u64()?);
        let ticks_run = r.get_u64()?;
        let trace_seq = r.get_u64()?;
        self.cluster.snapshot_restore(r)?;
        self.monitor.snapshot_restore(r)?;
        self.balancer.snapshot_restore(r)?;
        self.recovery.snapshot_restore(r)?;
        self.injector.snapshot_restore(r)?;
        restore_rngs(r, &mut self.arrival_rngs)?;
        restore_rngs(r, &mut self.demand_rngs)?;
        restore_rngs(r, std::slice::from_mut(&mut self.resilience_rng))?;
        self.events = EventQueue::new();
        for _ in 0..r.get_usize()? {
            let time = SimTime::from_micros(r.get_u64()?);
            let event = match r.get_u8()? {
                0 => Event::Arrival(r.get_usize()?),
                1 => Event::Scale,
                2 => Event::NodeChange(r.get_usize()?),
                tag => {
                    return Err(SnapshotError::Corrupt(format!(
                        "unknown driver-event tag {tag}"
                    )));
                }
            };
            let in_range = match event {
                // Arrival events exist only in per-request mode, and only
                // for services that take client load (a non-entry arrival
                // would open a root on a graph interior).
                Event::Arrival(idx) => {
                    !self.config.cohort_arrivals
                        && idx < self.config.services.len()
                        && self.takes_client_load(idx)
                }
                Event::Scale => true,
                Event::NodeChange(idx) => idx < self.config.node_events.len(),
            };
            if !in_range {
                return Err(SnapshotError::Corrupt(format!(
                    "events: {event:?} does not index the scenario"
                )));
            }
            self.events.schedule(time, event);
        }
        self.requests = read_outcomes(r)?;
        self.per_service = read_service_map(r, &self.per_service, "per_service", read_outcomes)?;
        self.scaling = ScalingCounts {
            vertical: r.get_u64()?,
            spawns: r.get_u64()?,
            removals: r.get_u64()?,
        };
        self.cost =
            CostMeter::from_raw_parts((r.get_f64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?));
        read_series_into(r, &mut self.replicas_ts)?;
        read_series_into(r, &mut self.cpu_ts)?;
        read_series_into(r, &mut self.mem_ts)?;
        self.availability =
            read_service_map(r, &self.availability, "availability", read_availability)?;
        let n = r.get_usize()?;
        if n != self.balancer_deltas.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot carries {n} balancer tallies, scenario has {} services",
                self.balancer_deltas.len()
            )));
        }
        for delta in self.balancer_deltas.iter_mut() {
            *delta = (r.get_u64()?, r.get_u64()?);
        }
        self.balancer_total = (r.get_u64()?, r.get_u64()?);
        self.deaths_total = r.get_u64()?;
        self.respawns_total = r.get_u64()?;
        self.recovery_failures_total = r.get_u64()?;
        self.warp_ticks = r.get_u64()?;
        // Graph-tracker state (presence is pinned by the config digest,
        // but the tag is still validated).
        match (r.get_u8()?, self.graph.as_mut()) {
            (0, None) => {}
            (1, Some(tracker)) => tracker.snapshot_restore(r)?,
            (tag, tracker) => {
                return Err(SnapshotError::Corrupt(format!(
                    "graph-state tag {tag} does not match scenario (graph {})",
                    if tracker.is_some() { "on" } else { "off" }
                )));
            }
        }
        r.expect_done()?;
        Ok((now, ticks_run, trace_seq))
    }

    /// Ends the run at the engine's position: emits the counter dump
    /// (unless `halted`) and builds the report.
    pub(crate) fn finish(
        mut self,
        engine: &TickEngine,
        halted: bool,
        trace: &mut TraceSink,
    ) -> RunReport {
        let config = self.config;
        // Control-plane health counters: the Monitor's control plane
        // tallies the report/actuation/safe-mode side; the balancer owns
        // the breaker tally.
        let mut control_plane_stats = self
            .monitor
            .control_plane()
            .map(|cp| cp.stats)
            .unwrap_or_default();
        control_plane_stats.breaker_opens = self.balancer.breaker_opens();

        // Any nodes still parked at the horizon replay their pending
        // idle ticks now, so end-of-run reads (and the digest below)
        // match the full-scan engine exactly.
        self.cluster.flush_pending();
        // End-of-horizon state digest: cheap bit-exactness witness for
        // the resume-equivalence battery. Skipped for halted runs (their
        // state is mid-flight by design).
        let state_digest = (!halted
            && engine.finished()
            && (config.snapshot.is_some() || config.resume.is_some()))
        .then(|| {
            self.snapshot_write(engine.now(), engine.ticks_run(), trace.total_emitted())
                .digest()
        });

        // A halted (snapshot-and-stop) run skips the counter dump: the
        // resumed run emits it at the true horizon, keeping the
        // concatenated journal identical to an uninterrupted one.
        if trace.is_enabled() && !halted {
            self.emit_counters(&control_plane_stats, trace);
        }

        let resilience = self
            .graph
            .as_ref()
            .map(|t| t.resilience_stats())
            .unwrap_or_default();
        RunReport {
            name: config.name.clone(),
            algorithm: config.algorithm,
            seeds: vec![config.seed],
            requests: self.requests,
            per_service: self.per_service,
            scaling: self.scaling,
            cost: self.cost,
            replicas: self.replicas_ts,
            cpu_used: self.cpu_ts,
            mem_used: self.mem_ts,
            availability: self
                .availability
                .into_iter()
                .map(|(s, t)| (s, t.finalize()))
                .collect(),
            faults: self.injector.log(),
            control_plane: control_plane_stats,
            warp_ticks: self.warp_ticks,
            entry_points: self
                .graph
                .map(GraphTracker::into_entry_stats)
                .unwrap_or_default(),
            resilience,
            state_digest,
        }
    }

    /// Final counter dump through the metrics registry: names register
    /// once, in a fixed order, so the journal tail is deterministic by
    /// construction. Graph counters are appended only for graph
    /// scenarios so a graph-free journal stays byte-identical to
    /// pre-graph builds.
    fn emit_counters(&self, cp: &ControlPlaneStats, trace: &mut TraceSink) {
        let requests = &self.requests;
        let mut totals: Vec<(&'static str, u64)> = vec![
            ("requests.issued", requests.issued),
            ("requests.completed", requests.completed),
            ("failures.connection", requests.failures.connection()),
            ("failures.removal", requests.failures.removal),
            ("scaling.vertical", self.scaling.vertical),
            ("scaling.spawns", self.scaling.spawns),
            ("scaling.removals", self.scaling.removals),
            ("balancer.routed", self.balancer_total.0),
            ("balancer.rejected", self.balancer_total.1),
            ("recovery.respawns", self.respawns_total),
            ("recovery.failures", self.recovery_failures_total),
            ("replica.deaths", self.deaths_total),
            ("controlplane.reports_lost", cp.reports_lost),
            ("controlplane.reports_late", cp.reports_late),
            ("controlplane.reports_duplicated", cp.reports_duplicated),
            ("controlplane.actuation_failures", cp.actuation_failures),
            ("controlplane.actuation_retries", cp.actuation_retries),
            ("controlplane.actuations_deduped", cp.actuations_deduped),
            ("controlplane.actuations_abandoned", cp.actuations_abandoned),
            ("controlplane.breaker_opens", cp.breaker_opens),
            ("controlplane.safe_mode_periods", cp.safe_mode_periods),
            ("controlplane.stale_vetoes", cp.stale_vetoes),
            ("timewarp.ticks_skipped", self.warp_ticks),
        ];
        if let Some(tracker) = self.graph.as_ref() {
            let stats = tracker.entry_stats();
            let sum = |field: fn(&EntryPointStats) -> u64| stats.iter().map(field).sum();
            totals.push(("graph.roots_completed", sum(|s| s.roots_completed)));
            totals.push(("graph.roots_failed", sum(|s| s.roots_failed)));
            // Resilience counters only exist for resilience-enabled
            // scenarios, so a resilience-free journal stays
            // byte-identical to builds without the layer.
            if self.config.resilience.enabled {
                let rs = tracker.resilience_stats();
                totals.push(("retry.attempts", rs.retries));
                totals.push(("retry.members", rs.retried_members));
                totals.push(("retry.budget_exhausted", rs.budget_exhausted));
                totals.push(("retry.deadline_exceeded", rs.deadline_exceeded));
                totals.push(("shed.roots", rs.shed_roots));
                totals.push(("shed.members", rs.shed_members));
                totals.push(("goodput.members", rs.goodput_members));
                totals.push(("wasted.members", rs.wasted_members));
            }
        }
        let mut registry = MetricsRegistry::new();
        for (name, value) in totals {
            let id = registry.counter(name);
            registry.add(id, value);
        }
        for (name, value) in registry.counters() {
            trace.emit(self.horizon, EventKind::Counter { name, value });
        }
    }
}

/// Bumps one outcome record's failure tally by kind.
fn record_failure_tally(out: &mut RequestOutcomes, kind: FailureKind, count: u64) {
    match kind {
        FailureKind::Removal => out.record_removal_failures(count),
        FailureKind::Timeout => out.record_timeout_failures(count),
        FailureKind::QueueAbort => out.record_queue_abort_failures(count),
        FailureKind::InfraDeath => out.record_infra_death_failures(count),
    }
}

/// Digest of every configuration field that shapes the deterministic
/// simulation, via the fields' `Debug` forms. Excludes `parallelism`
/// (bit-identical at any worker count) and the snapshot/resume controls
/// themselves, so a resumed run may snapshot differently or run on more
/// workers than the run that wrote the file.
fn config_digest(config: &ScenarioConfig) -> u64 {
    let repr = format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}",
        config.name,
        config.seed,
        config.duration,
        config.tick,
        config.scale_period,
        config.nodes,
        config.services,
        config.initial_replicas,
        config.algorithm,
        config.hpa,
        config.hyscale,
        config.cluster,
        config.antagonists,
        config.node_events,
        config.faults,
        config.recovery,
        config.control_plane,
        config.cohort_arrivals,
        config.time_warp,
        config.graph,
        config.resilience,
    );
    fnv1a(repr.as_bytes())
}

/// Writes the internal states of a slice of RNG streams.
fn write_rngs(w: &mut SnapWriter, rngs: &[SimRng]) {
    w.put_usize(rngs.len());
    for rng in rngs {
        for word in rng.state() {
            w.put_u64(word);
        }
    }
}

/// Restores RNG streams written by [`write_rngs`] in place; the count
/// must match the scenario's stream count exactly.
fn restore_rngs(r: &mut SnapReader<'_>, rngs: &mut [SimRng]) -> Result<(), SnapshotError> {
    let n = r.get_usize()?;
    if n != rngs.len() {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot carries {n} RNG streams, scenario expects {}",
            rngs.len()
        )));
    }
    for rng in rngs {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.get_u64()?;
        }
        *rng = SimRng::from_state(state);
    }
    Ok(())
}

/// Writes a per-service map in ascending service order.
fn write_service_map<T>(
    w: &mut SnapWriter,
    map: &BTreeMap<ServiceId, T>,
    write: fn(&mut SnapWriter, &T),
) {
    w.put_usize(map.len());
    for (&svc, value) in map {
        w.put_u32(svc.index());
        write(w, value);
    }
}

/// Reads a map written by [`write_service_map`]. Its keys must be exactly
/// `expected`'s (the scenario's services): the run looks services up by
/// id and relies on every one being present.
fn read_service_map<T>(
    r: &mut SnapReader<'_>,
    expected: &BTreeMap<ServiceId, T>,
    field: &str,
    read: fn(&mut SnapReader<'_>) -> Result<T, SnapshotError>,
) -> Result<BTreeMap<ServiceId, T>, SnapshotError> {
    let mut map = BTreeMap::new();
    for _ in 0..r.get_usize()? {
        let svc = ServiceId::new(r.get_u32()?);
        map.insert(svc, read(r)?);
    }
    if !map.keys().eq(expected.keys()) {
        return Err(SnapshotError::Corrupt(format!(
            "{field}: snapshot covers {} services, not exactly the scenario's {}",
            map.len(),
            expected.len()
        )));
    }
    Ok(map)
}

/// Writes request outcomes including every response-time sample, so the
/// restored Welford accumulator is bit-exact (it is replay-order
/// deterministic). Runs are written expanded, one sample at a time, so
/// the frame does not depend on how the summary stores them.
#[doc(hidden)]
pub fn write_outcomes(w: &mut SnapWriter, o: &RequestOutcomes) {
    w.put_u64(o.issued);
    w.put_u64(o.completed);
    w.put_u64(o.failures.removal);
    w.put_u64(o.failures.timeout);
    w.put_u64(o.failures.queue_abort);
    w.put_u64(o.failures.infra_death);
    w.put_usize(o.response_times.count());
    for v in o.response_times.samples() {
        w.put_f64(v);
    }
    w.put_u64(o.response_times.nan_dropped());
}

/// Reads outcomes written by [`write_outcomes`].
fn read_outcomes(r: &mut SnapReader<'_>) -> Result<RequestOutcomes, SnapshotError> {
    let mut o = RequestOutcomes::new();
    o.issued = r.get_u64()?;
    o.completed = r.get_u64()?;
    o.failures.removal = r.get_u64()?;
    o.failures.timeout = r.get_u64()?;
    o.failures.queue_abort = r.get_u64()?;
    o.failures.infra_death = r.get_u64()?;
    for _ in 0..r.get_usize()? {
        o.response_times.record(r.get_f64()?);
    }
    for _ in 0..r.get_u64()? {
        o.response_times.record(f64::NAN);
    }
    Ok(o)
}

/// Writes one availability tracker's raw state.
fn write_availability(w: &mut SnapWriter, tracker: &AvailabilityTracker) {
    let parts = tracker.raw_parts();
    w.put_f64(parts.0);
    w.put_f64(parts.1);
    w.put_u64(parts.2);
    w.put_u64(parts.3);
    w.put_f64(parts.4);
    w.put_opt_f64(parts.5);
    w.put_u64(parts.6);
    w.put_u64(parts.7);
    w.put_u64(parts.8);
}

/// Reads a tracker written by [`write_availability`].
fn read_availability(r: &mut SnapReader<'_>) -> Result<AvailabilityTracker, SnapshotError> {
    Ok(AvailabilityTracker::from_raw_parts((
        r.get_f64()?,
        r.get_f64()?,
        r.get_u64()?,
        r.get_u64()?,
        r.get_f64()?,
        r.get_opt_f64()?,
        r.get_u64()?,
        r.get_u64()?,
        r.get_u64()?,
    )))
}

/// Writes one time series as its `(secs, value)` points.
fn write_series(w: &mut SnapWriter, ts: &TimeSeries) {
    let points = ts.points();
    w.put_usize(points.len());
    for &(secs, value) in points {
        w.put_f64(secs);
        w.put_f64(value);
    }
}

/// Appends points written by [`write_series`] into a (fresh) series.
fn read_series_into(r: &mut SnapReader<'_>, ts: &mut TimeSeries) -> Result<(), SnapshotError> {
    for _ in 0..r.get_usize()? {
        let secs = r.get_f64()?;
        let value = r.get_f64()?;
        ts.push(secs, value);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::AlgorithmKind;
    use crate::controlplane::ControlPlaneConfig;
    use crate::driver::ScenarioBuilder;
    use crate::resilience::ResilienceConfig;
    use hyscale_cluster::{FaultKind, FaultPlan};
    use hyscale_workload::{LoadPattern, RetryPolicy, ServiceGraph, ServiceProfile};

    /// Event mode with faults and a hot degraded control plane.
    fn chaos_events_config() -> ScenarioConfig {
        let mut cp = ControlPlaneConfig::degraded();
        cp.loss_prob = 0.2;
        cp.delay_prob = 0.3;
        cp.duplicate_prob = 0.1;
        cp.actuation_failure_prob = 0.4;
        ScenarioBuilder::new("run-chaos-events")
            .nodes(3)
            .services(
                2,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 3.0 },
            )
            .duration_secs(60.0)
            .algorithm(AlgorithmKind::HyScaleCpu)
            .seed(4242)
            .parallelism(1)
            .faults(
                FaultPlan::new()
                    .with(
                        12.0,
                        FaultKind::NodeCrash {
                            node: 0,
                            down_secs: 10.0,
                        },
                    )
                    .with(20.0, FaultKind::OomKill { service: 1 }),
            )
            .node_event(15.0, NodeEvent::Decommission(2))
            .control_plane(cp)
            .build()
    }

    /// Cohort arrivals + time warp over a three-tier graph with the
    /// resilience layer on: bursts leave idle spans for the warp, and a
    /// node crash feeds retries through tight queues.
    fn graph_cohort_warp_config() -> ScenarioConfig {
        let mut config = ScenarioBuilder::new("run-graph-cohort-warp")
            .nodes(3)
            .services(
                3,
                ServiceProfile::CpuBound,
                LoadPattern::Burst {
                    base: 0.0,
                    peak: 30.0,
                    period_secs: 20.0,
                    duty: 0.3,
                },
            )
            .duration_secs(60.0)
            .algorithm(AlgorithmKind::HyScaleCpu)
            .seed(4242)
            .parallelism(1)
            .cohort_arrivals(true)
            .time_warp(true)
            .graph(ServiceGraph::new(3).with_edge(0, 1, 2).with_edge(1, 2, 1))
            .faults(FaultPlan::new().with(
                22.0,
                FaultKind::NodeCrash {
                    node: 0,
                    down_secs: 15.0,
                },
            ))
            .resilience(
                ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(1.0, 8.0, 0.1))
                    .with_root_budget_secs(20.0)
                    .with_budget(25.0, 64.0)
                    .with_shed_watermark(400),
            )
            .build();
        for spec in &mut config.services {
            spec.container = spec.container.clone().with_queue_cap(16);
        }
        config
    }

    /// Steps a fresh run of `config` until at least `ticks` ticks ran.
    fn run_until(config: &ScenarioConfig, ticks: u64) -> (Run<'_>, TickEngine) {
        let mut run = Run::new(config).expect("run builds");
        let mut engine = TickEngine::new(config.tick, run.horizon).expect("engine");
        let mut sink = TraceSink::disabled();
        while engine.ticks_run() < ticks {
            engine
                .step(|now, dt| run.tick(now, dt, &mut sink))
                .expect("tick");
        }
        (run, engine)
    }

    /// Writes `run` as it stands (at tick zero) and restores the frame
    /// into a fresh run of the same scenario.
    fn restore_written(run: &Run<'_>) -> Result<(SimTime, u64, u64), SnapshotError> {
        let frame = run.snapshot_write(SimTime::ZERO, 0, 0).finish();
        let mut fresh = Run::new(run.config).expect("run builds");
        fresh.snapshot_restore(&mut SnapReader::open(&frame)?)
    }

    fn assert_corrupt(result: Result<(SimTime, u64, u64), SnapshotError>, field: &str) {
        match result {
            Err(SnapshotError::Corrupt(why)) => {
                assert!(why.contains(field), "error should name {field}: {why}")
            }
            other => panic!("expected a Corrupt error naming {field}, got {other:?}"),
        }
    }

    /// Write → restore → write must reproduce the payload byte for byte.
    fn assert_round_trip(config: &ScenarioConfig, ticks: u64) -> Run<'_> {
        let (mut run, engine) = run_until(config, ticks);
        run.cluster.flush_pending();
        let first = run
            .snapshot_write(engine.now(), engine.ticks_run(), 17)
            .finish();
        let mut fresh = Run::new(config).expect("run builds");
        let clock = fresh
            .snapshot_restore(&mut SnapReader::open(&first).expect("valid frame"))
            .expect("restores");
        assert_eq!(clock, (engine.now(), engine.ticks_run(), 17));
        let second = fresh.snapshot_write(clock.0, clock.1, clock.2).finish();
        assert!(
            first == second,
            "{}: rewritten snapshot differs from the restored one",
            config.name
        );
        run
    }

    #[test]
    fn round_trip_event_mode_with_faults_and_degraded_control() {
        let config = chaos_events_config();
        let run = assert_round_trip(&config, 250);
        assert!(run.requests.issued > 0 && run.requests.completed > 0);
        assert_eq!(
            run.injector.log().node_crashes,
            1,
            "snapshot lands mid-crash"
        );
        assert!(
            run.monitor
                .control_plane()
                .is_some_and(|cp| cp.stats.reports_lost > 0),
            "degraded control plane never lost a report"
        );
    }

    #[test]
    fn round_trip_cohort_warp_with_graph_and_resilience() {
        let config = graph_cohort_warp_config();
        let run = assert_round_trip(&config, 260);
        assert!(run.warp_ticks > 0, "the warp never fired");
        let tracker = run.graph.as_ref().expect("graph scenario");
        assert!(
            !tracker.is_idle(),
            "snapshot should land with roots in flight"
        );
        assert!(
            tracker.resilience_stats().retries > 0,
            "the crash should have queued retries: {:?}",
            tracker.resilience_stats()
        );
    }

    #[test]
    fn restore_rejects_an_arrival_for_an_unknown_service() {
        let config = chaos_events_config();
        let mut run = Run::new(&config).expect("run builds");
        run.events
            .schedule(SimTime::from_secs(1.0), Event::Arrival(99));
        assert_corrupt(restore_written(&run), "events");
    }

    #[test]
    fn restore_rejects_an_arrival_on_a_non_entry_service() {
        let mut config = graph_cohort_warp_config();
        config.cohort_arrivals = false;
        let mut run = Run::new(&config).expect("run builds");
        // Service 1 is a graph interior: it takes no client load.
        run.events
            .schedule(SimTime::from_secs(1.0), Event::Arrival(1));
        assert_corrupt(restore_written(&run), "events");
    }

    #[test]
    fn restore_rejects_an_arrival_event_in_cohort_mode() {
        let config = graph_cohort_warp_config();
        let mut run = Run::new(&config).expect("run builds");
        // Service 0 is an entry point, but cohort mode draws arrivals per
        // tick and never queues arrival events.
        run.events
            .schedule(SimTime::from_secs(1.0), Event::Arrival(0));
        assert_corrupt(restore_written(&run), "events");
    }

    #[test]
    fn restore_rejects_an_unknown_node_change() {
        let config = chaos_events_config();
        let mut run = Run::new(&config).expect("run builds");
        run.events
            .schedule(SimTime::from_secs(1.0), Event::NodeChange(5));
        assert_corrupt(restore_written(&run), "events");
    }

    #[test]
    fn restore_rejects_a_missing_per_service_key() {
        let config = chaos_events_config();
        let mut run = Run::new(&config).expect("run builds");
        run.per_service.remove(&ServiceId::new(1));
        assert_corrupt(restore_written(&run), "per_service");
    }

    #[test]
    fn restore_rejects_a_foreign_per_service_key() {
        let config = chaos_events_config();
        let mut run = Run::new(&config).expect("run builds");
        let outcomes = run.per_service.remove(&ServiceId::new(1)).expect("known");
        run.per_service.insert(ServiceId::new(77), outcomes);
        assert_corrupt(restore_written(&run), "per_service");
    }

    #[test]
    fn restore_rejects_a_missing_availability_key() {
        let config = chaos_events_config();
        let mut run = Run::new(&config).expect("run builds");
        run.availability.remove(&ServiceId::new(0));
        assert_corrupt(restore_written(&run), "availability");
    }

    #[test]
    fn restore_accepts_an_untouched_run() {
        let config = chaos_events_config();
        let run = Run::new(&config).expect("run builds");
        assert_eq!(
            restore_written(&run).expect("restores"),
            (SimTime::ZERO, 0, 0)
        );
    }
}
