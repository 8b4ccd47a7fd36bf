//! The benchmark's three workloads, built from the simulator's own
//! scenario constructors.
//!
//! Each workload is a list of `(algorithm, config)` runs, all seeded from
//! the benchmark's `--seed`. The reason each one exists is in
//! [`Workload::why`] and in `METRICS.md`.

use hyscale_bench::scenarios::{cpu_bound, mixed, retry_storm, Burst, Scale};
use hyscale_cluster::MemMb;
use hyscale_core::{AlgorithmKind, ScenarioBuilder, ScenarioConfig};
use hyscale_workload::{LoadPattern, ServiceProfile, ServiceSpec};

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 6 and 7 (CPU-bound and mixed CPU+memory, high burst) at
    /// paper scale, all four algorithms: eight runs through
    /// `runner::sweep`.
    PaperSweep,
    /// The budgeted arm of `retry_storm` at paper scale with one hybrid
    /// algorithm: one single-threaded run through the call graph,
    /// resilience layer, faults and recovery.
    GraphRetry,
    /// About 2,400 nodes with one replica each and cohort arrivals, so
    /// every node carries work: one run.
    BigCluster,
}

/// How large to build a workload: `Full` is the benchmark of record,
/// `Tiny` is the seconds-scale shape the benchmark's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// A miniature of the same shape, for tests.
    Tiny,
}

impl Size {
    /// The `--size` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// Looks a size up by its `--size` spelling.
    pub fn parse(name: &str) -> Option<Size> {
        [Size::Full, Size::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::GraphRetry,
        Workload::BigCluster,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::GraphRetry => "graph_retry",
            Workload::BigCluster => "big_cluster",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the benchmark has this workload, as in
    /// `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSweep => {
                "Figs. 6-7 high-burst sweep at paper scale, 4 algorithms x 2 profiles: per-request routing, monitor, swap model, run concurrency"
            }
            Workload::GraphRetry => {
                "one budgeted retry_storm run at paper scale: call-graph child hops, retries, budgets, shedding, faults and recovery"
            }
            Workload::BigCluster => {
                "2,400 nodes, one replica each, cohort arrivals: advance prepass/merge/reindex, routing waterfill, monitor over many nodes"
            }
        }
    }

    /// The runs this workload makes, each seeded with `seed`.
    pub fn configs(self, seed: u64, size: Size) -> Vec<(AlgorithmKind, ScenarioConfig)> {
        let mut runs = match self {
            Workload::PaperSweep => {
                let scale = paper_scale(size);
                let mut runs = Vec::new();
                for kind in AlgorithmKind::ALL {
                    runs.push((kind, cpu_bound(&scale, Burst::High, kind)));
                }
                for kind in AlgorithmKind::ALL {
                    runs.push((kind, mixed(&scale, Burst::High, kind)));
                }
                runs
            }
            Workload::GraphRetry => {
                let kind = AlgorithmKind::HyScaleCpu;
                vec![(kind, retry_storm(&paper_scale(size), kind, true))]
            }
            Workload::BigCluster => {
                let kind = AlgorithmKind::HyScaleCpu;
                vec![(kind, big_cluster(size, kind))]
            }
        };
        for (_, config) in &mut runs {
            config.seed = seed;
        }
        runs
    }
}

/// The paper's scale (19 workers, 15 services, one hour), or a tiny
/// stand-in with the same load-to-capacity ratio.
fn paper_scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::full(),
        Size::Tiny => Scale {
            duration_secs: 60.0,
            ..Scale::bench()
        },
    }
}

/// Replicas per service on the big cluster. With `SERVICES` services
/// that is one initial replica per node: the driver places initial
/// replicas round-robin, so service `i` owns nodes `i*R .. (i+1)*R`.
const REPLICAS: usize = 100;
const SERVICES: usize = 24;

/// About 2,400 nodes, one replica each, cohort arrivals.
///
/// Each service's load swings between 60% and 100% of the CPU of the
/// four-core nodes its replicas sit on, so the autoscaler keeps its
/// replicas and most nodes carry work on every tick (about 2,000 of
/// 2,400 on average). One-core-second requests and a queue cap of 32
/// spread each tick's cohort over several replicas. The load is a
/// smooth wave so the autoscaler has decisions to make.
fn big_cluster(size: Size, kind: AlgorithmKind) -> ScenarioConfig {
    let (services, replicas, secs) = match size {
        Size::Full => (SERVICES, REPLICAS, 300.0),
        Size::Tiny => (3, 4, 20.0),
    };
    let cpu_per_req = 1.0;
    let node_cores = 4.0;
    let peak = node_cores / cpu_per_req * replicas as f64;
    let mut builder = ScenarioBuilder::new(format!("big-cluster-{kind}"))
        .nodes(services * replicas)
        .initial_replicas(replicas)
        .duration_secs(secs)
        .cohort_arrivals(true)
        .algorithm(kind);
    for i in 0..services {
        let load = LoadPattern::Wave {
            base: 0.6 * peak,
            amplitude: 0.4 * peak,
            period_secs: 120.0,
        };
        let mut spec = ServiceSpec::synthetic(i as u32, ServiceProfile::CpuBound, load)
            .with_demands(cpu_per_req, MemMb(4.0), 0.1);
        spec.container = spec.container.clone().with_queue_cap(32);
        builder = builder.service(spec);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn configs_are_valid_and_seeded() {
        for w in Workload::ALL {
            for size in [Size::Full, Size::Tiny] {
                let runs = w.configs(77, size);
                assert!(!runs.is_empty());
                for (_, c) in &runs {
                    c.validate().unwrap();
                    assert_eq!(c.seed, 77);
                }
            }
        }
        assert_eq!(Workload::PaperSweep.configs(1, Size::Full).len(), 8);
    }

    #[test]
    fn big_cluster_places_one_replica_per_node() {
        let (_, c) = &Workload::BigCluster.configs(1, Size::Full)[0];
        assert_eq!(c.nodes.len(), c.services.len() * c.initial_replicas);
        assert!(c.nodes.len() >= 2_400);
        assert!(c.cohort_arrivals);
    }
}
