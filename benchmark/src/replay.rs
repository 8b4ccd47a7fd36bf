//! The layer replay: a benchmark-owned copy of the driver's tick loop
//! that calls each layer's public entry point in the driver's phase
//! order and wraps every call in a span.
//!
//! The driver keeps its phases inside one function, so per-layer host
//! time cannot be read from outside it. The replay rebuilds the same
//! set-up from the same configuration, splits the same RNG streams in
//! the same order, and runs the same phases:
//!
//! 0. faults — `FaultInjector::apply_due`;
//! 1. due events — per-request arrivals (`ArrivalProcess::next_arrival`,
//!    `ServiceSpec::make_request`, `LoadBalancer::route`,
//!    `Cluster::admit_request`) and the scaling period
//!    (`Monitor::run_period`, `RecoveryManager::run`,
//!    `LoadBalancer::refresh`);
//!    1b. cohort arrivals (`ServiceSpec::make_cohort`,
//!    `LoadBalancer::route_cohort`, `Cluster::admit_cohort`);
//!    1c. call-graph child hops, admitted like cohorts;
//! 2. the node tick — `Cluster::advance_into`;
//! 3. the availability roll call — `Cluster::ready_replicas_into`.
//!
//! For a scenario without a call graph the replay reproduces the
//! driver's simulation exactly, so its completion count must equal the
//! driver's. `GraphTracker` has no public entry point, so with a graph
//! the replay derives child hops itself from the graph's edges (members
//! × fan-out, child demands × edge multipliers, admitted next tick) and
//! models no retries, deadlines, budgets or shedding: its counts then
//! only approximate the driver's, and the fidelity line says so.

use std::collections::HashMap;
use std::time::Instant;

use hyscale_cluster::{
    Cluster, Cohort, ContainerId, ContainerSpec, FaultInjector, MemMb, NodeId, Request, ServiceId,
    TickReport,
};
use hyscale_core::{
    ControlPlane, LoadBalancer, Monitor, RecoveryManager, ResilienceConfig, ScenarioConfig,
};
use hyscale_sim::{EventQueue, SimRng, SimTime, TickEngine, TickOutcome};
use hyscale_trace::TraceSink;
use hyscale_workload::ArrivalProcess;

/// Host time spent in one kind of span, and how many spans there were.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Spans recorded.
    pub calls: u64,
    /// Total host nanoseconds inside them.
    pub ns: u64,
}

impl Span {
    /// Mean nanoseconds per span (0 when none were recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Runs `f` inside a span of kind `span`, returning its nanoseconds too.
#[inline]
fn timed<T>(span: &mut Span, f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    span.calls += 1;
    span.ns += ns;
    (out, ns)
}

/// Everything one or more replays recorded.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Set-up before the first tick (cluster, platform, workload).
    pub setup: Span,
    /// Whole tick bodies; the children below run inside them.
    pub tick: Span,
    /// Arrival draws: `next_arrival` + `make_request`, or the Poisson
    /// count + `make_cohort` in cohort mode.
    pub arrival: Span,
    /// `LoadBalancer::route`.
    pub route: Span,
    /// `LoadBalancer::route_cohort` (client cohorts and child hops).
    pub route_cohort: Span,
    /// `LoadBalancer::refresh`.
    pub refresh: Span,
    /// `Cluster::admit_request` / `Cluster::admit_cohort`.
    pub admit: Span,
    /// `Cluster::advance_into`.
    pub advance: Span,
    /// `Cluster::ready_replicas_into` (scenarios with faults only).
    pub rollcall: Span,
    /// `Monitor::run_period` with its stat-outage update.
    pub monitor: Span,
    /// `RecoveryManager::run`.
    pub recovery: Span,
    /// `FaultInjector::apply_due`.
    pub faults: Span,
    /// The replay's own active-node sampling after each tick (benchmark
    /// overhead, outside the tick spans).
    pub probe: Span,
    /// Nanoseconds of every tick, in order.
    pub tick_ns: Vec<u64>,
    /// Nanoseconds of every `advance_into`, in order.
    pub advance_ns: Vec<u64>,
    /// Nanoseconds of every scaling period (monitor call), in order.
    pub period_ns: Vec<u64>,
    /// Arrival draws: one per per-request arrival or per cohort batch.
    pub arrivals: u64,
    /// Members the balancer found no replica for.
    pub unrouted: u64,
    /// Members a routed replica refused at admission.
    pub admit_rejected: u64,
    /// Sum over ticks of the active-node count after the node tick.
    pub active_node_ticks: u64,
    /// Completed members.
    pub completed: u64,
    /// Failed members (timeouts, aborts, crashes, removals).
    pub failed: u64,
    /// Scaling actions the monitor applied.
    pub actions: u64,
    /// Host nanoseconds from the start of set-up to the last tick.
    pub wall_ns: u64,
}

impl Layers {
    /// Nanoseconds attributed to some span: set-up, whole ticks and the
    /// active-node probe after each tick. Every layer span sits inside
    /// a tick, so this is the sum of all self times.
    pub fn attributed_ns(&self) -> u64 {
        self.setup.ns + self.tick.ns + self.probe.ns
    }

    /// Nanoseconds of tick bodies spent outside every layer span: the
    /// replay's own event and tally bookkeeping.
    pub fn tick_self_ns(&self) -> u64 {
        let children = self.arrival.ns
            + self.route.ns
            + self.route_cohort.ns
            + self.refresh.ns
            + self.admit.ns
            + self.advance.ns
            + self.rollcall.ns
            + self.monitor.ns
            + self.recovery.ns
            + self.faults.ns;
        self.tick.ns.saturating_sub(children)
    }

    /// Mean active nodes per tick.
    pub fn active_nodes_mean(&self) -> f64 {
        if self.tick.calls == 0 {
            0.0
        } else {
            self.active_node_ticks as f64 / self.tick.calls as f64
        }
    }

    /// The simulated counts, which must repeat exactly on every replay
    /// of the same configuration and seed.
    pub fn counts(&self) -> [u64; 9] {
        [
            self.tick.calls,
            self.arrivals,
            self.unrouted,
            self.admit_rejected,
            self.active_node_ticks,
            self.completed,
            self.failed,
            self.actions,
            self.monitor.calls,
        ]
    }
}

/// Driver events the replay schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(usize),
    Scale,
}

/// A child hop waiting for admission at the next tick.
#[derive(Debug, Clone, Copy)]
struct Hop {
    service: usize,
    count: u64,
    arrival: SimTime,
    cpu_secs: f64,
    mem_mb: f64,
    megabits: f64,
    disk_megabits: f64,
}

/// Replays one scenario run, adding its spans and counts to `layers`.
///
/// # Errors
///
/// Fails on configurations the replay does not model (antagonists,
/// scheduled node events, snapshots, time warp) and on set-up errors.
pub fn replay(config: &ScenarioConfig, layers: &mut Layers) -> Result<(), String> {
    if !config.antagonists.is_empty() || !config.node_events.is_empty() {
        return Err("the replay models neither antagonists nor node events".into());
    }
    if config.snapshot.is_some() || config.resume.is_some() || config.time_warp {
        return Err("the replay does not snapshot, resume or time-warp".into());
    }
    config.validate().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut trace = TraceSink::disabled();

    // --- Set-up, in the driver's order -----------------------------------
    let mut master_rng = SimRng::seed_from(config.seed);
    let mut cluster = Cluster::new(config.cluster);
    cluster.set_parallelism(config.parallelism);
    let node_ids: Vec<NodeId> = config
        .nodes
        .iter()
        .map(|spec| cluster.add_node(*spec))
        .collect();
    let mut placement_cursor = 0usize;
    for service in &config.services {
        for _ in 0..config.initial_replicas {
            let node = node_ids[placement_cursor % node_ids.len()];
            placement_cursor += 1;
            let spec = service.container.clone().with_startup_secs(0.0);
            cluster
                .start_container(node, spec, SimTime::ZERO)
                .map_err(|e| e.to_string())?;
        }
    }
    let templates: HashMap<ServiceId, ContainerSpec> = config
        .services
        .iter()
        .map(|s| (s.id, s.container.clone()))
        .collect();
    let algorithm = config.algorithm.build(config.hpa, config.hyscale);
    let mut monitor = Monitor::new(algorithm, &cluster, templates.clone());
    let mut recovery = RecoveryManager::new(config.recovery);
    let mut injector = FaultInjector::new(&config.faults, &node_ids);
    let mut arrival_rngs: Vec<SimRng> =
        config.services.iter().map(|_| master_rng.split()).collect();
    let mut demand_rngs: Vec<SimRng> = config.services.iter().map(|_| master_rng.split()).collect();
    let cp_rng = master_rng.split();
    let lb_rng = master_rng.split();
    let service_ids: Vec<ServiceId> = config.services.iter().map(|s| s.id).collect();
    let mut balancer = if config.control_plane.enabled {
        monitor.set_control_plane(ControlPlane::new(config.control_plane, cp_rng));
        let mut lb = LoadBalancer::with_breakers(config.control_plane.breaker, lb_rng);
        lb.refresh(&cluster, &service_ids);
        lb
    } else {
        LoadBalancer::new()
    };
    let mut arrivals: Vec<ArrivalProcess> = config
        .services
        .iter()
        .map(|s| ArrivalProcess::new(s.load.clone()))
        .collect();
    let graph = config.graph.as_ref();
    let takes_client_load = |idx: usize| graph.is_none_or(|g| g.is_entry(idx));
    let service_index: HashMap<ServiceId, usize> = service_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();

    let mut events: EventQueue<Event> = EventQueue::new();
    if !config.cohort_arrivals {
        for (idx, process) in arrivals.iter_mut().enumerate() {
            if !takes_client_load(idx) {
                continue;
            }
            let first = process.next_arrival(SimTime::ZERO, &mut arrival_rngs[idx]);
            if first < SimTime::MAX {
                events.schedule(first, Event::Arrival(idx));
            }
        }
    }
    events.schedule(SimTime::ZERO + config.scale_period, Event::Scale);
    let track_availability = !config.faults.is_empty();
    let horizon = SimTime::ZERO + config.duration;
    let mut engine = TickEngine::new(config.tick, horizon).map_err(|e| e.to_string())?;
    let scale_period_secs = config.scale_period.as_secs();
    let mut tick_report = TickReport::default();
    let mut routes: Vec<(ContainerId, u64)> = Vec::new();
    let mut ready_counts: Vec<u32> = Vec::new();
    let mut pending: Vec<Hop> = Vec::new();
    let mut due: Vec<Hop> = Vec::new();
    layers.setup.calls += 1;
    layers.setup.ns += start.elapsed().as_nanos() as u64;

    // --- The tick loop ----------------------------------------------------
    while !engine.finished() {
        let mut tick_ns = 0;
        engine
            .step(|now, dt| {
                let tick_start = Instant::now();
                let l = &mut *layers;

                // 0. Faults strike first.
                if !injector.drained() {
                    let (failures, _) =
                        timed(&mut l.faults, || injector.apply_due(&mut cluster, now));
                    l.failed += failures.iter().map(|f| f.count).sum::<u64>();
                }

                // 1. Due events: per-request arrivals and scaling periods.
                while let Some((event_time, event)) = events.pop_due(now) {
                    match event {
                        Event::Arrival(idx) => {
                            let service = &config.services[idx];
                            l.arrivals += 1;
                            let (request, _) = timed(&mut l.arrival, || {
                                service.make_request(event_time, &mut demand_rngs[idx])
                            });
                            let (target, _) =
                                timed(&mut l.route, || balancer.route(&cluster, service.id, now));
                            match target {
                                Some(target) => {
                                    let (admitted, _) = timed(&mut l.admit, || {
                                        cluster.admit_request(target, request, now)
                                    });
                                    if admitted.is_ok() {
                                        balancer.record_success(target, now, &mut trace);
                                    } else {
                                        l.admit_rejected += 1;
                                        l.failed += 1;
                                        balancer.record_failure(target, now, &mut trace);
                                    }
                                }
                                None => {
                                    l.unrouted += 1;
                                    l.failed += 1;
                                }
                            }
                            let (next, _) = timed(&mut l.arrival, || {
                                arrivals[idx].next_arrival(event_time, &mut arrival_rngs[idx])
                            });
                            if next < SimTime::MAX && next < horizon {
                                events.schedule(next, Event::Arrival(idx));
                            }
                        }
                        Event::Scale => {
                            let (report, ns) = timed(&mut l.monitor, || {
                                monitor.set_stat_outages(injector.muted_nodes(now));
                                monitor.run_period(&mut cluster, now, scale_period_secs)
                            });
                            l.period_ns.push(ns);
                            l.actions += report.applied.len() as u64;
                            l.failed +=
                                report.removal_failures.iter().map(|f| f.count).sum::<u64>();
                            timed(&mut l.recovery, || {
                                recovery.run(&mut cluster, &templates, now)
                            });
                            timed(&mut l.refresh, || balancer.refresh(&cluster, &service_ids));
                            events.schedule(now + config.scale_period, Event::Scale);
                        }
                    }
                }

                // 1b. Cohort arrivals: one Poisson batch per service.
                if config.cohort_arrivals {
                    let dt_secs = dt.as_secs();
                    for (idx, service) in config.services.iter().enumerate() {
                        if !takes_client_load(idx) {
                            continue;
                        }
                        let (cohort, _) = timed(&mut l.arrival, || {
                            let mean = service.load.rate_at(now) * dt_secs;
                            let n = arrival_rngs[idx].poisson(mean);
                            (n > 0).then(|| service.make_cohort(now, n, &mut demand_rngs[idx]))
                        });
                        let Some(cohort) = cohort else {
                            continue;
                        };
                        l.arrivals += 1;
                        admit_cohort(
                            l,
                            &mut cluster,
                            &mut balancer,
                            &mut routes,
                            &mut trace,
                            service.id,
                            cohort,
                            now,
                        );
                    }
                }

                // 1c. Child hops queued by last tick's completions.
                std::mem::swap(&mut pending, &mut due);
                for hop in due.drain(..) {
                    let service = &config.services[hop.service];
                    let child = Request::new(
                        service.id,
                        hop.arrival,
                        hop.cpu_secs,
                        MemMb(hop.mem_mb),
                        hop.megabits,
                    )
                    .with_disk(hop.disk_megabits)
                    .with_timeout(service.timeout);
                    let cohort = Cohort::from_request(&child, hop.count);
                    admit_cohort(
                        l,
                        &mut cluster,
                        &mut balancer,
                        &mut routes,
                        &mut trace,
                        service.id,
                        cohort,
                        now,
                    );
                }

                // 2. The node tick.
                let (_, ns) = timed(&mut l.advance, || {
                    cluster.advance_into(now, dt, &mut tick_report)
                });
                l.advance_ns.push(ns);
                for done in tick_report.completed.drain(..) {
                    l.completed += done.count;
                    if let Some(g) = graph {
                        let parent = service_index[&done.service];
                        for edge in g.children(parent) {
                            let child = &config.services[edge.child];
                            pending.push(Hop {
                                service: edge.child,
                                count: done.count * edge.fan_out,
                                arrival: done.finished,
                                cpu_secs: child.cpu_secs_per_req * edge.cpu_mult,
                                mem_mb: child.mem_per_req.get() * edge.mem_mult,
                                megabits: child.megabits_per_req * edge.net_mult,
                                disk_megabits: child.disk_megabits_per_req * edge.disk_mult,
                            });
                        }
                    }
                }
                l.failed += tick_report.failed.drain(..).map(|f| f.count).sum::<u64>();

                // 3. Availability roll call.
                if track_availability {
                    timed(&mut l.rollcall, || {
                        cluster.ready_replicas_into(now, &mut ready_counts)
                    });
                }
                tick_ns = tick_start.elapsed().as_nanos() as u64;

                // The replay's own probe, outside the tick's time.
                let (active, _) = timed(&mut l.probe, || cluster.active_node_indices().len());
                l.active_node_ticks += active as u64;
                TickOutcome::Continue
            })
            .map_err(|e| e.to_string())?;
        layers.tick.calls += 1;
        layers.tick.ns += tick_ns;
        layers.tick_ns.push(tick_ns);
    }
    layers.wall_ns += start.elapsed().as_nanos() as u64;
    Ok(())
}

/// The graph-free twin of a run: the same configuration without its
/// call graph and resilience layer, so the replay must reproduce the
/// driver on it exactly, faults, stat outages and recovery included.
pub fn graph_free_twin(config: &ScenarioConfig) -> ScenarioConfig {
    let mut twin = config.clone();
    twin.graph = None;
    twin.resilience = ResilienceConfig::default();
    twin
}

/// Routes one cohort through the balancer's waterfill and admits each
/// share, as the driver does for client cohorts and child hops.
#[allow(clippy::too_many_arguments)]
fn admit_cohort(
    l: &mut Layers,
    cluster: &mut Cluster,
    balancer: &mut LoadBalancer,
    routes: &mut Vec<(ContainerId, u64)>,
    trace: &mut TraceSink,
    service: ServiceId,
    cohort: Cohort,
    now: SimTime,
) {
    routes.clear();
    let count = cohort.count;
    let (unrouted, _) = timed(&mut l.route_cohort, || {
        balancer.route_cohort(cluster, service, count, now, routes)
    });
    l.unrouted += unrouted;
    l.failed += unrouted;
    for &(target, members) in routes.iter() {
        let mut share = cohort.clone();
        share.count = members;
        let (admitted, _) = timed(&mut l.admit, || cluster.admit_cohort(target, share, now));
        if admitted.is_ok() {
            balancer.record_success(target, now, trace);
        } else {
            l.admit_rejected += members;
            l.failed += members;
            balancer.record_failure(target, now, trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Size, Workload};
    use hyscale_core::SimulationDriver;

    #[test]
    fn replay_reproduces_graph_free_driver_runs() {
        for w in [Workload::PaperSweep, Workload::BigCluster] {
            for (_, config) in w.configs(5, Size::Tiny) {
                let mut layers = Layers::default();
                replay(&config, &mut layers).unwrap();
                let report = SimulationDriver::run(&config).unwrap();
                assert_eq!(
                    layers.completed, report.requests.completed,
                    "{}",
                    config.name
                );
                assert_eq!(
                    layers.failed,
                    report.requests.failures.total(),
                    "{}",
                    config.name
                );
            }
        }
    }

    #[test]
    fn replay_reproduces_the_graph_free_twin_of_graph_retry() {
        for seed in [3, 8] {
            let (_, config) = &Workload::GraphRetry.configs(seed, Size::Tiny)[0];
            let twin = graph_free_twin(config);
            assert!(twin.graph.is_none() && !twin.faults.is_empty());
            let mut layers = Layers::default();
            replay(&twin, &mut layers).unwrap();
            let report = SimulationDriver::run(&twin).unwrap();
            assert!(layers.faults.calls > 0 && layers.recovery.calls > 0);
            assert!(report.faults.total_applied() > 0);
            assert_eq!(layers.completed, report.requests.completed, "seed {seed}");
            assert_eq!(
                layers.failed,
                report.requests.failures.total(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn span_self_times_add_up() {
        let (_, config) = &Workload::GraphRetry.configs(3, Size::Tiny)[0];
        let mut layers = Layers::default();
        replay(config, &mut layers).unwrap();
        assert!(layers.attributed_ns() <= layers.wall_ns);
        assert!(layers.tick_self_ns() <= layers.tick.ns);
        assert!(layers.completed > 0 && layers.faults.calls > 0);
        assert_eq!(layers.tick_ns.len() as u64, layers.tick.calls);
    }

    #[test]
    fn replay_counts_repeat() {
        let (_, config) = &Workload::GraphRetry.configs(9, Size::Tiny)[0];
        let mut a = Layers::default();
        let mut b = Layers::default();
        replay(config, &mut a).unwrap();
        replay(config, &mut b).unwrap();
        assert_eq!(a.counts(), b.counts());
    }
}
