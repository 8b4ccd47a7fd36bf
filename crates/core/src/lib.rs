//! HyScale: hybrid and network autoscaling of dockerized microservices.
//!
//! This crate implements the paper's contribution — two hybrid
//! (vertical + horizontal) autoscaling algorithms, a dedicated network
//! scaling algorithm, the Kubernetes HPA baseline they are benchmarked
//! against, and the autoscaler platform that hosts them:
//!
//! * [`KubernetesHpa`] — the Kubernetes horizontal autoscaling control law
//!   (Sec. IV-A.1): `NumReplicas = ceil(Σ utilization / target)` with a
//!   ±10% tolerance band and minimum scale-up/scale-down intervals.
//! * [`NetworkHpa`] — the paper's exploratory horizontal scaler driven by
//!   egress bandwidth usage instead of CPU (Sec. IV-A.2).
//! * [`HyScaleCpu`] — hybrid scaler on CPU: per-replica resource
//!   reclamation and acquisition by `docker update`, horizontal scaling
//!   only when vertical scaling cannot meet demand (Sec. IV-B.1).
//! * [`HyScaleCpuMem`] — extends HyScaleCPU to memory and swap, with
//!   mutual CPU+memory thresholds for replica removal and placement
//!   (Sec. IV-B.2).
//!
//! The platform mirrors the paper's architecture (Sec. V): a central
//! [`Monitor`] gathers per-container usage through per-node
//! [`NodeManager`]s, feeds a [`ClusterView`] to the selected
//! [`Autoscaler`], and applies the returned [`ScalingAction`]s to the
//! simulated [`Cluster`](hyscale_cluster::Cluster); [`LoadBalancer`]s
//! proxy client requests to replicas.
//!
//! End-to-end experiments are run through [`ScenarioBuilder`] /
//! [`SimulationDriver`], which wire the workload generators, the cluster,
//! and the platform together and produce a [`RunReport`].
//!
//! # Example
//!
//! ```
//! use hyscale_core::{AlgorithmKind, ScenarioBuilder};
//! use hyscale_workload::{LoadPattern, ServiceProfile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = ScenarioBuilder::new("demo")
//!     .nodes(4)
//!     .services(2, ServiceProfile::CpuBound, LoadPattern::low_burst())
//!     .duration_secs(60.0)
//!     .algorithm(AlgorithmKind::HyScaleCpu)
//!     .seed(1)
//!     .run()?;
//! assert!(report.requests.issued > 0);
//! println!("mean rt = {:.1} ms", report.requests.mean_response_secs() * 1e3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actions;
mod algorithms;
mod balancer;
mod controlplane;
mod driver;
mod error;
mod flowgraph;
mod monitor;
mod nodemanager;
mod recovery;
mod resilience;
mod run;
mod view;

pub use actions::ScalingAction;
pub use algorithms::{
    veto_stale_reductions, AlgorithmKind, Autoscaler, HpaConfig, HyScaleConfig, HyScaleCpu,
    HyScaleCpuMem, KubernetesHpa, NetworkHpa, NoScaling, PlacementPolicy, RescaleGate,
    VerticalOnly,
};
pub use balancer::{BreakerConfig, LoadBalancer};
pub use controlplane::{
    ActuationOutcome, ControlPlane, ControlPlaneConfig, ControlPlaneStats, NEVER_REPORTED,
};
pub use driver::{
    NodeEvent, RunReport, ScalingCounts, ScenarioBuilder, ScenarioConfig, SimulationDriver,
    SnapshotPolicy,
};
pub use error::CoreError;
pub use flowgraph::EntryPointStats;
pub use monitor::{Monitor, MonitorReport};
pub use nodemanager::NodeManager;
pub use recovery::{RecoveryConfig, RecoveryManager, RecoveryReport};
pub use resilience::{ResilienceConfig, ResilienceStats};
#[doc(hidden)]
pub use run::write_outcomes;
pub use view::{ClusterView, NodeView, ReplicaView, ServiceView};
