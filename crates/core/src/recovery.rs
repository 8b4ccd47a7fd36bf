//! Replica recovery after infrastructure failures.
//!
//! The Monitor's scaling algorithms react to *load*; this module reacts
//! to *death*. When replicas disappear underneath the platform (node
//! crash, OOM-kill — surfaced by the Monitor's roll call as
//! `dead_replicas`), the [`RecoveryManager`] respawns replacements
//! through the same placement path the autoscalers use, so a recovered
//! service looks exactly like a scaled one. Respawn attempts that find no
//! feasible node back off exponentially (capped), mirroring
//! `RestartPolicy` backoff in real Docker/Kubernetes, and are reported as
//! recovery failures for the availability accounting.

use std::collections::HashMap;

use hyscale_cluster::{Cluster, ContainerSpec, NodeId, ServiceId};
use hyscale_sim::{SimDuration, SimTime, SnapReader, SnapWriter, SnapshotError};
use hyscale_trace::{EventKind, TraceSink};

use crate::algorithms::PlacementPolicy;

/// Tunables for the recovery path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Replica floor per managed service: recovery respawns until each
    /// service has at least this many non-removed replicas (running *or*
    /// starting — a replacement already booting counts).
    pub min_replicas: usize,
    /// First retry delay after a failed respawn attempt.
    pub base_backoff_secs: f64,
    /// Retry delay ceiling (backoff doubles per consecutive failure).
    pub max_backoff_secs: f64,
    /// Node choice among feasible candidates.
    pub placement: PlacementPolicy,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            min_replicas: 1,
            base_backoff_secs: 5.0,
            max_backoff_secs: 40.0,
            placement: PlacementPolicy::default(),
        }
    }
}

impl RecoveryConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason if the backoff range is not
    /// finite-positive or inverted.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.base_backoff_secs.is_finite() && self.base_backoff_secs > 0.0) {
            return Err(format!(
                "base_backoff_secs must be positive, got {}",
                self.base_backoff_secs
            ));
        }
        if !(self.max_backoff_secs.is_finite() && self.max_backoff_secs >= self.base_backoff_secs) {
            return Err(format!(
                "max_backoff_secs must be >= base_backoff_secs, got {}",
                self.max_backoff_secs
            ));
        }
        Ok(())
    }
}

/// What one recovery pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Successful respawns, as `(service, node placed on)`.
    pub respawned: Vec<(ServiceId, NodeId)>,
    /// Services whose respawn attempt found no feasible node this pass
    /// (one entry per service per pass, regardless of deficit size).
    pub failed: Vec<ServiceId>,
}

/// Per-service retry state.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    /// Attempts before this time are suppressed.
    next_attempt: SimTime,
    /// Delay to impose after the next failure.
    current_secs: f64,
}

/// Respawns dead replicas with capped exponential backoff.
#[derive(Debug, Clone)]
pub struct RecoveryManager {
    config: RecoveryConfig,
    backoff: HashMap<ServiceId, Backoff>,
}

impl RecoveryManager {
    /// Creates a manager with the given tunables.
    pub fn new(config: RecoveryConfig) -> Self {
        RecoveryManager {
            config,
            backoff: HashMap::new(),
        }
    }

    /// One recovery pass: for each templated service below the replica
    /// floor, try to respawn the deficit through the placement policy.
    ///
    /// Call once per Monitor period, after scaling actions have been
    /// applied. Respawned replicas boot with the template's normal
    /// startup delay — a recovered replica cold-starts, it is not
    /// pre-warmed like the scenario's initial replicas.
    pub fn run(
        &mut self,
        cluster: &mut Cluster,
        templates: &HashMap<ServiceId, ContainerSpec>,
        now: SimTime,
    ) -> RecoveryReport {
        self.run_traced(cluster, templates, now, &mut TraceSink::disabled())
    }

    /// Like [`RecoveryManager::run`], but records every respawn
    /// ([`EventKind::RecoveryRespawn`]) and every backoff arming
    /// ([`EventKind::RecoveryBackoff`], with the retry deadline) into
    /// `trace`.
    pub fn run_traced(
        &mut self,
        cluster: &mut Cluster,
        templates: &HashMap<ServiceId, ContainerSpec>,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> RecoveryReport {
        let mut report = RecoveryReport::default();

        // Deterministic service order regardless of HashMap iteration.
        let mut services: Vec<ServiceId> = templates.keys().copied().collect();
        services.sort_unstable();

        for service in services {
            let template = &templates[&service];
            let have = cluster.replica_count(service);
            let deficit = self.config.min_replicas.saturating_sub(have);
            if deficit == 0 {
                // Healthy: forget any backoff so the next incident starts
                // from the base delay again.
                self.backoff.remove(&service);
                continue;
            }
            if let Some(state) = self.backoff.get(&service) {
                if now < state.next_attempt {
                    continue; // still backing off from the last failure
                }
            }

            let mut spawned_any = false;
            let mut exhausted = false;
            for _ in 0..deficit {
                let placed = self
                    .place(cluster, template)
                    .filter(|&node| cluster.start_container(node, template.clone(), now).is_ok());
                match placed {
                    Some(node) => {
                        trace.emit(
                            now,
                            EventKind::RecoveryRespawn {
                                service: service.index(),
                                node: node.index(),
                            },
                        );
                        report.respawned.push((service, node));
                        spawned_any = true;
                    }
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }

            if exhausted {
                report.failed.push(service);
                let current = self
                    .backoff
                    .get(&service)
                    .map(|s| s.current_secs)
                    .unwrap_or(self.config.base_backoff_secs);
                let next_attempt = now + SimDuration::from_secs(current);
                trace.emit(
                    now,
                    EventKind::RecoveryBackoff {
                        service: service.index(),
                        retry_at_us: next_attempt.as_micros(),
                    },
                );
                self.backoff.insert(
                    service,
                    Backoff {
                        next_attempt,
                        current_secs: (current * 2.0).min(self.config.max_backoff_secs),
                    },
                );
            } else if spawned_any {
                self.backoff.remove(&service);
            }
        }
        report
    }

    /// Picks the preferred feasible node for one replica of `template`,
    /// or `None` if nothing fits.
    fn place(&self, cluster: &Cluster, template: &ContainerSpec) -> Option<NodeId> {
        let mut candidates: Vec<(NodeId, f64, f64)> = cluster
            .nodes()
            .filter_map(|n| {
                let (free_cpu, free_mem) = cluster.free_resources(n.id()).ok()?;
                Some((n.id(), free_cpu.get(), free_mem.get()))
            })
            .collect();
        candidates.sort_by(|a, b| {
            self.config
                .placement
                .prefer(a.1, a.0.index(), b.1, b.0.index())
        });
        candidates
            .iter()
            .find(|&&(_, free_cpu, free_mem)| {
                free_cpu >= template.cpu_request.get() && free_mem >= template.mem_limit.get()
            })
            .map(|&(node, _, _)| node)
    }

    /// Serializes the per-service backoff table, sorted by service
    /// (snapshot support). The configuration is rebuilt from scenario
    /// config on restore.
    pub fn snapshot_write(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(u32, u64, f64)> = self
            .backoff
            .iter()
            .map(|(svc, b)| (svc.index(), b.next_attempt.as_micros(), b.current_secs))
            .collect();
        entries.sort_unstable_by_key(|&(svc, ..)| svc);
        w.put_usize(entries.len());
        for (svc, next_attempt, current_secs) in entries {
            w.put_u32(svc);
            w.put_u64(next_attempt);
            w.put_f64(current_secs);
        }
    }

    /// Overlays the backoff table captured by
    /// [`RecoveryManager::snapshot_write`].
    pub fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.backoff.clear();
        for _ in 0..r.get_usize()? {
            let svc = ServiceId::new(r.get_u32()?);
            let next_attempt = SimTime::from_micros(r.get_u64()?);
            let current_secs = r.get_f64()?;
            self.backoff.insert(
                svc,
                Backoff {
                    next_attempt,
                    current_secs,
                },
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_cluster::{ClusterConfig, ContainerState, Cores, MemMb, NodeSpec};

    fn templates(svc: ServiceId) -> HashMap<ServiceId, ContainerSpec> {
        let mut t = HashMap::new();
        t.insert(svc, ContainerSpec::new(svc).with_startup_secs(1.0));
        t
    }

    #[test]
    fn respawns_up_to_the_floor_with_cold_start() {
        let mut cl = Cluster::new(ClusterConfig::default());
        cl.add_node(NodeSpec::uniform_worker());
        let svc = ServiceId::new(0);
        let mut mgr = RecoveryManager::new(RecoveryConfig {
            min_replicas: 2,
            ..RecoveryConfig::default()
        });
        let now = SimTime::from_secs(10.0);
        let report = mgr.run(&mut cl, &templates(svc), now);
        assert_eq!(report.respawned.len(), 2);
        assert!(report.failed.is_empty());
        let replicas = cl.service_replicas(svc);
        assert_eq!(replicas.len(), 2);
        // Cold start: the replacements are Starting, not pre-warmed.
        assert!(replicas
            .iter()
            .all(|&id| cl.container(id).unwrap().state() == ContainerState::Starting));
        // A second pass is a no-op: starting replicas count toward the
        // floor, so no duplicate respawns pile up during boot.
        let again = mgr.run(&mut cl, &templates(svc), now);
        assert!(again.respawned.is_empty());
    }

    #[test]
    fn backoff_doubles_and_caps_then_resets_on_success() {
        let mut cl = Cluster::new(ClusterConfig::default());
        // A node too small to host the template: every attempt fails.
        cl.add_node(NodeSpec::small().with_memory(MemMb(64.0)));
        let svc = ServiceId::new(0);
        let t = templates(svc);
        let cfg = RecoveryConfig {
            min_replicas: 1,
            base_backoff_secs: 5.0,
            max_backoff_secs: 20.0,
            ..RecoveryConfig::default()
        };
        let mut mgr = RecoveryManager::new(cfg);

        let r0 = mgr.run(&mut cl, &t, SimTime::ZERO);
        assert_eq!(r0.failed, vec![svc]);
        // Suppressed until 5 s.
        assert!(mgr
            .run(&mut cl, &t, SimTime::from_secs(4.9))
            .failed
            .is_empty());
        // Second failure at 5 s; next delay 10 s.
        assert_eq!(
            mgr.run(&mut cl, &t, SimTime::from_secs(5.0)).failed,
            vec![svc]
        );
        assert!(mgr
            .run(&mut cl, &t, SimTime::from_secs(14.9))
            .failed
            .is_empty());
        // Third at 15 s; next delay 20 s (capped); fourth at 35 s.
        assert_eq!(
            mgr.run(&mut cl, &t, SimTime::from_secs(15.0)).failed,
            vec![svc]
        );
        assert!(mgr
            .run(&mut cl, &t, SimTime::from_secs(34.9))
            .failed
            .is_empty());
        assert_eq!(
            mgr.run(&mut cl, &t, SimTime::from_secs(35.0)).failed,
            vec![svc]
        );
        // The cap holds: the fifth attempt is 20 s later, not 40.
        assert_eq!(
            mgr.run(&mut cl, &t, SimTime::from_secs(55.0)).failed,
            vec![svc]
        );

        // Capacity appears; the respawn lands and backoff resets.
        cl.add_node(NodeSpec::uniform_worker());
        let r = mgr.run(&mut cl, &t, SimTime::from_secs(75.0));
        assert_eq!(r.respawned.len(), 1);
        assert!(mgr.backoff.is_empty());
    }

    #[test]
    fn placement_policy_picks_the_preferred_node() {
        let mut cl = Cluster::new(ClusterConfig::default());
        let big = cl.add_node(NodeSpec::uniform_worker().with_cores(Cores(8.0)));
        let small = cl.add_node(NodeSpec::uniform_worker());
        let svc = ServiceId::new(0);
        let t = templates(svc);

        let mut spread = RecoveryManager::new(RecoveryConfig {
            placement: PlacementPolicy::Spread,
            ..RecoveryConfig::default()
        });
        let r = spread.run(&mut cl, &t, SimTime::ZERO);
        assert_eq!(r.respawned, vec![(svc, big)]);

        let mut cl2 = Cluster::new(ClusterConfig::default());
        let _big = cl2.add_node(NodeSpec::uniform_worker().with_cores(Cores(8.0)));
        let small2 = cl2.add_node(NodeSpec::uniform_worker());
        let mut pack = RecoveryManager::new(RecoveryConfig {
            placement: PlacementPolicy::Pack,
            ..RecoveryConfig::default()
        });
        let r2 = pack.run(&mut cl2, &t, SimTime::ZERO);
        assert_eq!(r2.respawned, vec![(svc, small2)]);
        let _ = small;
    }

    #[test]
    fn healthy_services_clear_backoff_state() {
        let mut cl = Cluster::new(ClusterConfig::default());
        cl.add_node(NodeSpec::small().with_memory(MemMb(64.0)));
        let svc = ServiceId::new(0);
        let t = templates(svc);
        let mut mgr = RecoveryManager::new(RecoveryConfig::default());
        mgr.run(&mut cl, &t, SimTime::ZERO);
        assert!(!mgr.backoff.is_empty());
        // Capacity arrives and a replica shows up through another path
        // (e.g. the autoscaler): recovery stands down and forgets.
        let node = cl.add_node(NodeSpec::uniform_worker());
        cl.start_container(node, t[&svc].clone(), SimTime::from_secs(6.0))
            .unwrap();
        mgr.run(&mut cl, &t, SimTime::from_secs(6.0));
        assert!(mgr.backoff.is_empty());
    }

    #[test]
    fn config_validation() {
        assert!(RecoveryConfig::default().validate().is_ok());
        assert!(RecoveryConfig {
            base_backoff_secs: 0.0,
            ..RecoveryConfig::default()
        }
        .validate()
        .is_err());
        assert!(RecoveryConfig {
            base_backoff_secs: 10.0,
            max_backoff_secs: 5.0,
            ..RecoveryConfig::default()
        }
        .validate()
        .is_err());
    }
}
