//! Cluster builders and seeded traffic shared by the worker-pool test
//! binaries.

use hyscale::cluster::{
    Cluster, ClusterConfig, ContainerId, ContainerSpec, Cores, MemMb, NodeSpec, Request, ServiceId,
};
use hyscale::sim::{SimRng, SimTime};

pub const DT_MS: u64 = 100;

/// A small busy cluster: every node hosts replicas, every replica gets
/// seeded traffic each tick.
pub fn build_uniform(parallelism: usize, nodes: usize) -> (Cluster, Vec<ContainerId>) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.set_parallelism(parallelism);
    let mut containers = Vec::new();
    for n in 0..nodes {
        let node = cluster.add_node(NodeSpec::uniform_worker());
        for c in 0..2 {
            let service = ServiceId::new(((n * 2 + c) % 4) as u32);
            let spec = ContainerSpec::new(service)
                .with_cpu_request(Cores(1.0))
                .with_mem_limit(MemMb(256.0))
                .with_startup_secs(0.0);
            let id = cluster
                .start_container(node, spec, SimTime::ZERO)
                .expect("node exists");
            containers.push(id);
        }
    }
    (cluster, containers)
}

pub fn tick_traffic(
    cluster: &mut Cluster,
    containers: &[ContainerId],
    rng: &mut SimRng,
    now: SimTime,
) {
    for &id in containers {
        if rng.uniform_f64() < 0.7 {
            let service = cluster.container(id).expect("exists").spec().service;
            let request = Request::new(
                service,
                now,
                rng.uniform_range(0.01, 0.12),
                MemMb(4.0),
                rng.uniform_range(0.0, 1.0),
            );
            let _ = cluster.admit_request(id, request, now);
        }
    }
}
