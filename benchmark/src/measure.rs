//! Timed runs of the driver, from outside: untraced runs and sweeps for
//! the end-to-end numbers, traced runs for the journal counts, and the
//! layer replay for per-layer host time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use hyscale_bench::runner;
use hyscale_core::{AlgorithmKind, RunReport, ScenarioConfig, SimulationDriver};
use hyscale_trace::{export, EventKind, RunMeta, TraceSink};

use crate::digest::sweep_digest;
use crate::replay::{replay, Layers};

/// The runs of one workload.
pub type Runs = [(AlgorithmKind, ScenarioConfig)];

/// Events the journal ring keeps, as in the repository's trace tools.
pub const JOURNAL_CAPACITY: usize = 1 << 18;

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// One untraced pass over the workload: `runner::sweep` when it has
/// several runs, `SimulationDriver::run` when it has one. Returns the
/// host seconds and the digest of the reports.
pub fn untraced(runs: &Runs) -> Result<(f64, u64), String> {
    if let [(_, config)] = runs {
        let start = Instant::now();
        let report = SimulationDriver::run(config).map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        return Ok((wall, sweep_digest([&report])));
    }
    let seed = runs.first().map_or(0, |(_, c)| c.seed);
    let owned = runs.to_vec();
    let start = Instant::now();
    let rows = runner::sweep(owned, &[seed]).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    Ok((wall, sweep_digest(rows.iter().map(|r| &r.report))))
}

/// Each run alone and in turn, timed one by one: the per-run walls
/// behind `runner.run_wall_s_p50` and `runner.concurrency`.
pub fn serial_walls(runs: &Runs) -> Result<(Vec<f64>, u64), String> {
    let mut walls = Vec::with_capacity(runs.len());
    let mut reports = Vec::with_capacity(runs.len());
    for (_, config) in runs {
        let start = Instant::now();
        let report = SimulationDriver::run(config).map_err(|e| e.to_string())?;
        walls.push(start.elapsed().as_secs_f64());
        reports.push(report);
    }
    Ok((walls, sweep_digest(&reports)))
}

/// What the journals of one traced pass held.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Events emitted, retained or not.
    pub events: u64,
    /// Events the ring overwrote.
    pub dropped: u64,
    /// Bytes of JSONL exported.
    pub bytes: u64,
    /// `Span` events among the retained ones.
    pub spans: u64,
}

impl std::ops::AddAssign for JournalStats {
    fn add_assign(&mut self, rhs: JournalStats) {
        self.events += rhs.events;
        self.dropped += rhs.dropped;
        self.bytes += rhs.bytes;
        self.spans += rhs.spans;
    }
}

/// One traced pass.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Host seconds of the pass: traced runs plus JSONL export.
    pub wall_s: f64,
    /// Digest of the reports; must equal the untraced one.
    pub digest: u64,
    /// Journal totals over the pass's runs.
    pub journal: JournalStats,
    /// Host seconds spent in `export::jsonl`, summed over runs.
    pub export_s: f64,
    /// The reports, in run order.
    pub reports: Vec<RunReport>,
}

/// One traced run into a ring of `capacity` events, exported as JSONL
/// when `export` is set.
fn traced_run(
    config: &ScenarioConfig,
    capacity: usize,
    export: bool,
) -> Result<(RunReport, TraceSink, u64, f64), String> {
    let mut sink = TraceSink::with_capacity(capacity);
    let report = SimulationDriver::run_traced(config, &mut sink).map_err(|e| e.to_string())?;
    if !export {
        return Ok((report, sink, 0, 0.0));
    }
    let start = Instant::now();
    let journal = export::jsonl(
        &sink,
        &RunMeta {
            scenario: &config.name,
            seed: config.seed,
            algorithm: config.algorithm.label(),
        },
    );
    let export_s = start.elapsed().as_secs_f64();
    Ok((report, sink, journal.len() as u64, export_s))
}

/// A traced pass over the workload, with the same run-level
/// concurrency as `runner::sweep`: up to `available_parallelism`
/// workers pull runs off a shared cursor. Each run journals into its
/// own ring of `capacity` events and, when `export` is set, exports it
/// as JSONL.
pub fn traced(runs: &Runs, capacity: usize, export: bool) -> Result<Traced, String> {
    type Slot = Option<Result<(RunReport, TraceSink, u64, f64), String>>;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(runs.len().max(1));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Slot> = (0..runs.len()).map(|_| None).collect();
    let start = Instant::now();
    if workers <= 1 {
        for (slot, (_, config)) in slots.iter_mut().zip(runs) {
            *slot = Some(traced_run(config, capacity, export));
        }
    } else {
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    // The cursor only hands out indices; results travel
                    // over the channel.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, config)) = runs.get(i) else {
                        break;
                    };
                    if tx.send((i, traced_run(config, capacity, export))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, out) in rx {
                slots[i] = Some(out);
            }
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut journal = JournalStats::default();
    let mut export_s = 0.0;
    let mut reports = Vec::with_capacity(runs.len());
    for slot in slots {
        let (report, sink, bytes, secs) = slot.expect("every run was claimed")?;
        journal += JournalStats {
            events: sink.total_emitted(),
            dropped: sink.dropped(),
            bytes,
            spans: sink
                .events()
                .filter(|e| matches!(e.kind, EventKind::Span { .. }))
                .count() as u64,
        };
        export_s += secs;
        reports.push(report);
    }
    Ok(Traced {
        wall_s,
        digest: sweep_digest(&reports),
        journal,
        export_s,
        reports,
    })
}

/// Host seconds of set-up: building the workload's configurations and
/// running each for a single tick, which covers cluster, platform and
/// workload set-up plus one tick and the report.
pub fn setup_once(build: impl Fn() -> Vec<(AlgorithmKind, ScenarioConfig)>) -> Result<f64, String> {
    let start = Instant::now();
    for (_, mut config) in build() {
        config.duration = config.tick;
        SimulationDriver::run(&config).map_err(|e| e.to_string())?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Replays every run of the workload into one set of layer spans.
pub fn replay_all(runs: &Runs) -> Result<Layers, String> {
    let mut layers = Layers::default();
    for (_, config) in runs {
        replay(config, &mut layers)?;
    }
    Ok(layers)
}

/// The per-layer values one replay yields, keyed by metric name.
pub fn layer_values(l: &Layers) -> BTreeMap<&'static str, f64> {
    let us = |ns: &[u64], p: f64| {
        if ns.is_empty() {
            0.0
        } else {
            percentile(&ns.iter().map(|&v| v as f64 / 1e3).collect::<Vec<_>>(), p)
        }
    };
    let tick = l.tick.ns.max(1) as f64;
    let per_arrival = if l.arrivals == 0 {
        0.0
    } else {
        l.arrival.ns as f64 / l.arrivals as f64
    };
    BTreeMap::from([
        ("workload.arrival_draw_ns", per_arrival),
        ("balancer.route_ns", l.route.mean_ns()),
        ("balancer.route_cohort_ns", l.route_cohort.mean_ns()),
        ("balancer.refresh_us", l.refresh.mean_ns() / 1e3),
        ("cluster.admit_ns", l.admit.mean_ns()),
        (
            "cluster.admission_share",
            (l.route.ns + l.route_cohort.ns + l.admit.ns) as f64 / tick,
        ),
        ("cluster.advance_us_p50", us(&l.advance_ns, 50.0)),
        ("cluster.advance_us_p99", us(&l.advance_ns, 99.0)),
        ("cluster.advance_share", l.advance.ns as f64 / tick),
        ("monitor.period_us_p50", us(&l.period_ns, 50.0)),
        ("monitor.period_us_p99", us(&l.period_ns, 99.0)),
        ("monitor.share", l.monitor.ns as f64 / tick),
        ("recovery.run_us", l.recovery.mean_ns() / 1e3),
        ("recovery.fault_apply_us", l.faults.mean_ns() / 1e3),
        ("tick.wall_us_p50", us(&l.tick_ns, 50.0)),
        ("tick.wall_us_p99", us(&l.tick_ns, 99.0)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Size, Workload};

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn traced_pass_matches_untraced_digest() {
        let runs = Workload::PaperSweep.configs(4, Size::Tiny);
        let (_, plain) = untraced(&runs).unwrap();
        let (_, serial) = serial_walls(&runs).unwrap();
        let t = traced(&runs, JOURNAL_CAPACITY, true).unwrap();
        assert_eq!(plain, t.digest);
        assert_eq!(plain, serial);
        assert!(t.journal.events > 0 && t.journal.bytes > 0);
        assert_eq!(t.reports.len(), runs.len());
    }
}
