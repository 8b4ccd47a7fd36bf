//! Lifecycle and partitioning regression tests for the persistent
//! tick-worker pool: a panicking worker propagates instead of
//! deadlocking, `set_parallelism` resizes pool and scratch mid-run
//! without changing a bit of output, and heavily skewed container
//! placement — the case container-weighted partitioning exists for —
//! stays byte-identical serial vs parallel and across repeated runs.
//! The thread-leak tests live in `worker_pool_threads.rs`: they read the
//! process-wide thread count, which the tests here disturb.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hyscale::cluster::{
    Cluster, ClusterConfig, ContainerId, ContainerSpec, Cores, MemMb, NodeId, NodeSpec, ServiceId,
    TickReport,
};
use hyscale::sim::{SimDuration, SimRng, SimTime};

mod common;
use common::{build_uniform, tick_traffic, DT_MS};

/// One node carrying ~10x the containers of every other node: the
/// skew that index-chunked partitioning handles badly.
fn build_skewed(parallelism: usize) -> (Cluster, Vec<ContainerId>) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.set_parallelism(parallelism);
    let mut containers = Vec::new();
    let hot = cluster.add_node(NodeSpec::uniform_worker());
    for c in 0..20 {
        let spec = ContainerSpec::new(ServiceId::new((c % 5) as u32))
            .with_cpu_request(Cores(0.2))
            .with_mem_limit(MemMb(128.0))
            .with_startup_secs(0.0);
        containers.push(
            cluster
                .start_container(hot, spec, SimTime::ZERO)
                .expect("hot node fits"),
        );
    }
    for n in 0..7 {
        let node = cluster.add_node(NodeSpec::uniform_worker());
        let spec = ContainerSpec::new(ServiceId::new((n % 5) as u32))
            .with_cpu_request(Cores(1.0))
            .with_mem_limit(MemMb(256.0))
            .with_startup_secs(0.0);
        containers.push(
            cluster
                .start_container(node, spec, SimTime::ZERO)
                .expect("node fits"),
        );
    }
    (cluster, containers)
}

#[test]
fn worker_panic_propagates_instead_of_deadlocking() {
    let (mut cluster, containers) = build_uniform(4, 8);
    let mut rng = SimRng::seed_from(0xBAD);
    let dt = SimDuration::from_millis(DT_MS);
    let mut now = SimTime::ZERO;
    for _ in 0..5 {
        tick_traffic(&mut cluster, &containers, &mut rng, now);
        cluster.advance(now, dt);
        now += dt;
    }

    // Poison a node near the end of the list so it lands on a pool
    // worker, not the coordinator's first partition.
    cluster.inject_tick_panic(Some(NodeId::new(7)));
    let at = now;
    let result = catch_unwind(AssertUnwindSafe(|| {
        cluster.advance(at, dt);
    }));
    let payload = result.expect_err("poisoned tick must panic, not hang");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("injected tick panic"), "got: {msg}");

    // The pool survived the unwind: it keeps propagating...
    let again = catch_unwind(AssertUnwindSafe(|| {
        cluster.advance(at, dt);
    }));
    assert!(again.is_err(), "second poisoned tick must panic too");

    // ...and once the poison is cleared, ticks run normally again and
    // the cluster can be dropped without hanging on a stuck worker.
    cluster.inject_tick_panic(None);
    for _ in 0..5 {
        tick_traffic(&mut cluster, &containers, &mut rng, now);
        cluster.advance(now, dt);
        now += dt;
    }
}

#[test]
fn serial_poison_panics_identically() {
    // The hook goes through the same code path serially, so the panic
    // contract does not depend on the pool.
    let (mut cluster, _) = build_uniform(1, 4);
    cluster.inject_tick_panic(Some(NodeId::new(2)));
    let result = catch_unwind(AssertUnwindSafe(|| {
        cluster.advance(SimTime::ZERO, SimDuration::from_millis(DT_MS));
    }));
    assert!(result.is_err());
}

#[test]
fn reconfiguring_parallelism_mid_run_is_bit_identical() {
    // A resize schedule that moves up, down, to serial, and oversubscribed.
    let schedule: &[(usize, usize)] = &[(0, 1), (50, 4), (100, 2), (150, 8), (200, 1), (250, 3)];
    let drive = |resizes: bool| -> (Vec<TickReport>, Vec<String>) {
        let (mut cluster, containers) = build_uniform(1, 9);
        let mut rng = SimRng::seed_from(0x5EED);
        let dt = SimDuration::from_millis(DT_MS);
        let mut now = SimTime::ZERO;
        let mut reports = Vec::new();
        for tick in 0..300 {
            if resizes {
                if let Some(&(_, workers)) = schedule.iter().find(|&&(at, _)| at == tick) {
                    cluster.set_parallelism(workers);
                }
            }
            tick_traffic(&mut cluster, &containers, &mut rng, now);
            reports.push(cluster.advance(now, dt));
            now += dt;
        }
        let usage = containers
            .iter()
            .map(|&id| format!("{:?}", cluster.container_usage(id)))
            .collect();
        (reports, usage)
    };
    let (serial_reports, serial_usage) = drive(false);
    let (resized_reports, resized_usage) = drive(true);
    for (tick, (s, p)) in serial_reports.iter().zip(&resized_reports).enumerate() {
        assert_eq!(s, p, "tick {tick} diverged after a resize");
    }
    assert_eq!(serial_usage, resized_usage, "final usage diverged");
}

#[test]
fn cloned_cluster_respawns_its_own_pool_and_matches() {
    let (mut original, containers) = build_uniform(4, 8);
    let mut rng = SimRng::seed_from(0xC10E);
    let dt = SimDuration::from_millis(DT_MS);
    let mut now = SimTime::ZERO;
    for _ in 0..20 {
        tick_traffic(&mut original, &containers, &mut rng, now);
        original.advance(now, dt);
        now += dt;
    }
    // The clone shares no threads with the original, but advancing both
    // with the same traffic must stay bit-identical.
    let mut clone = original.clone();
    let mut rng_a = SimRng::seed_from(0xF00D);
    let mut rng_b = SimRng::seed_from(0xF00D);
    for _ in 0..20 {
        tick_traffic(&mut original, &containers, &mut rng_a, now);
        tick_traffic(&mut clone, &containers, &mut rng_b, now);
        let a = original.advance(now, dt);
        let b = clone.advance(now, dt);
        assert_eq!(a, b, "clone diverged from original");
        now += dt;
    }
}

#[test]
fn skewed_cluster_is_bit_identical_serial_vs_parallel() {
    let drive = |parallelism: usize| -> (Vec<TickReport>, Vec<String>) {
        let (mut cluster, containers) = build_skewed(parallelism);
        let mut rng = SimRng::seed_from(0x0DD);
        let dt = SimDuration::from_millis(DT_MS);
        let mut now = SimTime::ZERO;
        let mut reports = Vec::new();
        for _ in 0..250 {
            tick_traffic(&mut cluster, &containers, &mut rng, now);
            reports.push(cluster.advance(now, dt));
            now += dt;
        }
        let usage = containers
            .iter()
            .map(|&id| format!("{:?}", cluster.container_usage(id)))
            .collect();
        (reports, usage)
    };
    let (serial_reports, serial_usage) = drive(1);
    for workers in [2, 4, 8] {
        let (par_reports, par_usage) = drive(workers);
        for (tick, (s, p)) in serial_reports.iter().zip(&par_reports).enumerate() {
            assert_eq!(s, p, "tick {tick} diverged at {workers} workers");
        }
        assert_eq!(
            serial_usage, par_usage,
            "usage diverged at {workers} workers"
        );
    }
}

#[test]
fn skewed_cluster_partition_is_stable_across_repeats() {
    // The weighted partition is a pure function of cluster state, so two
    // identical seeded runs must produce byte-identical reports *and*
    // identical wall-clock-independent state at every tick — rerunning
    // is the observable form of "the partition is stable".
    let run = |seed: u64| -> Vec<TickReport> {
        let (mut cluster, containers) = build_skewed(4);
        let mut rng = SimRng::seed_from(seed);
        let dt = SimDuration::from_millis(DT_MS);
        let mut now = SimTime::ZERO;
        let mut reports = Vec::new();
        for _ in 0..200 {
            tick_traffic(&mut cluster, &containers, &mut rng, now);
            reports.push(cluster.advance(now, dt));
            now += dt;
        }
        reports
    };
    assert_eq!(run(0x11), run(0x11), "same seed must replay identically");
    assert_ne!(run(0x11), run(0x22), "different seeds must actually differ");
}
