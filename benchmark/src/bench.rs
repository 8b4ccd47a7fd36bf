//! The two kinds of benchmark run: end-to-end (`--trace 0`) and
//! per-layer (`--trace 1`).

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use hyscale_core::{RunReport, ScenarioConfig, SimulationDriver};

use crate::digest::recorded;
use crate::measure::{
    layer_values, median, replay_all, serial_walls, setup_once, traced, untraced, JournalStats,
    JOURNAL_CAPACITY,
};
use crate::replay::{graph_free_twin, replay, Layers};
use crate::workload::{Size, Workload};

/// Fewest untraced/traced pairs an end-to-end run makes, however short
/// `--seconds` is.
const MIN_PAIRS: usize = 3;
/// Fewest traced-run-plus-replay rounds a per-layer run makes.
const MIN_ROUNDS: usize = 2;
/// Set-up is timed this many times at least, and for up to
/// `SETUP_BUDGET` beyond that, capped at `SETUP_MAX` samples.
const SETUP_MIN: usize = 9;
const SETUP_MAX: usize = 201;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Least share of the replay's wall time its spans must account for.
const MIN_ATTRIBUTED: f64 = 0.95;
/// Where the replay's completions over the driver's must lie on a
/// workload with a call graph, where the replay models no retries,
/// deadlines, budgets or shedding.
const GRAPH_COMPLETION_RATIO: RangeInclusive<f64> = 0.8..=1.25;

/// One benchmark run's verdict and numbers.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Checks made (digest comparisons, count repeats, fidelity checks).
    pub attempted: u64,
    /// Checks that failed, or runs that errored.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one check and notes it when it fails.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// The digest every run must reproduce: the one `table` records
    /// for this run when it has a line for it, else none yet, so that
    /// the first digest seen becomes the reference.
    fn recorded(
        &mut self,
        table: &str,
        workload: Workload,
        size: Size,
        seed: u64,
    ) -> Result<Option<u64>, String> {
        let found = recorded(table, workload.name(), size.name(), seed)?;
        self.notes.push(match found {
            Some(d) => format!("digest: every run must reproduce the recorded {d:016x}"),
            None => format!(
                "digest: nothing recorded for {} {} seed {seed}; runs are only checked \
                 against each other",
                workload.name(),
                size.name()
            ),
        });
        Ok(found)
    }

    /// Compares a digest with the reference, which the first digest
    /// seen becomes when there is none yet.
    fn digest(&mut self, reference: &mut Option<u64>, digest: u64, what: &str) {
        let expected = *reference.get_or_insert(digest);
        self.check(digest == expected, || {
            format!("{what} digest {digest:016x} differs from {expected:016x}")
        });
    }
}

/// End-to-end run: set-up, peak memory, and interleaved untraced and
/// traced passes for `seconds`. Every run must reproduce the digest
/// `table` records for it.
///
/// # Errors
///
/// Fails when the workload cannot run at all.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    size: Size,
    seconds: f64,
    exe: &Path,
    table: &str,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let build = || workload.configs(seed, size);

    let mut setups = Vec::new();
    let setup_start = Instant::now();
    while setups.len() < SETUP_MIN
        || (setup_start.elapsed() < SETUP_BUDGET && setups.len() < SETUP_MAX)
    {
        setups.push(setup_once(build)?);
    }

    let mut reference = out.recorded(table, workload, size, seed)?;
    let (rss_mb, child_digest) = rss_probe(exe, workload, seed, size)?;
    out.digest(&mut reference, child_digest, "separate-process run");

    let runs = build();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let start = Instant::now();
    let mut last_pair = 0.0;
    while walls.len() < MIN_PAIRS || fits(start, last_pair, seconds) {
        let pair_start = Instant::now();
        let (wall, digest) = untraced(&runs)?;
        walls.push(wall);
        out.digest(&mut reference, digest, "untraced run");
        let t = traced(&runs, JOURNAL_CAPACITY, true)?;
        traced_walls.push(t.wall_s);
        out.digest(&mut reference, t.digest, "traced run");
        last_pair = pair_start.elapsed().as_secs_f64();
    }
    out.notes.push(format!(
        "samples: {} set-ups, {} untraced and {} traced passes of {} run(s)",
        setups.len(),
        walls.len(),
        traced_walls.len(),
        runs.len()
    ));
    out.notes
        .push(format!("untraced walls (s): {}", seconds_list(&walls)));
    out.notes
        .push(format!("traced walls (s): {}", seconds_list(&traced_walls)));
    let ok_frac = 1.0 - out.failed as f64 / out.attempted as f64;
    out.values = BTreeMap::from([
        ("wall_s", median(&walls)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", rss_mb),
        ("traced_wall_s", median(&traced_walls)),
        ("ok_frac", ok_frac),
    ]);
    Ok(out)
}

/// Runs the workload once, untraced, in a fresh copy of this program,
/// and returns that process's peak resident memory in MB (MiB) and the
/// run's digest.
fn rss_probe(exe: &Path, workload: Workload, seed: u64, size: Size) -> Result<(f64, u64), String> {
    let output = Command::new(exe)
        .args(["--rss-probe", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--size", size.name()])
        .output()
        .map_err(|e| format!("cannot start the memory probe: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "memory probe failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("rss_probe "))
        .ok_or("memory probe printed no result")?;
    let mut parts = line.split_whitespace();
    let kb: f64 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("memory probe printed no peak")?;
    let digest = parts
        .next()
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or("memory probe printed no digest")?;
    Ok((kb / 1024.0, digest))
}

/// The child side of [`rss_probe`]: one untraced pass, then the peak
/// resident set from `/proc/self/status`.
///
/// # Errors
///
/// Fails when the run fails or the kernel reports no peak.
pub fn rss_probe_child(workload: Workload, seed: u64, size: Size) -> Result<String, String> {
    let (_, digest) = untraced(&workload.configs(seed, size))?;
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(format!("rss_probe {kb} {digest:016x}"))
}

/// Whether another repetition lasting about `last` seconds should start:
/// it should end by `seconds` after `start`, give or take half of it.
fn fits(start: Instant, last: f64, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + last / 2.0 < seconds
}

/// Samples as a space-separated list with millisecond precision.
fn seconds_list(samples: &[f64]) -> String {
    let parts: Vec<String> = samples.iter().map(|s| format!("{s:.3}")).collect();
    parts.join(" ")
}

/// Per-layer run: first the replay against the driver on the graph-free
/// twin of every run with a call graph, then rounds of an untraced
/// pass, a serial pass (one run at a time), a traced pass and a layer
/// replay for `seconds`. Every run must reproduce the digest `table`
/// records for it, and every count must repeat exactly from round to
/// round.
///
/// # Errors
///
/// Fails when the workload cannot run at all.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    size: Size,
    seconds: f64,
    table: &str,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let runs = workload.configs(seed, size);
    let graph_free = runs.iter().all(|(_, c)| c.graph.is_none());
    let mut reference = out.recorded(table, workload, size, seed)?;
    for (_, config) in runs.iter().filter(|(_, c)| c.graph.is_some()) {
        twin_check(&mut out, config)?;
    }

    let start = Instant::now();
    let mut export_ms = Vec::new();
    let mut per_round: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first: Option<(JournalStats, Layers, Vec<RunReport>)> = None;
    let mut last_round = 0.0;
    while per_round.len() < MIN_ROUNDS || fits(start, last_round, seconds) {
        let round_start = Instant::now();
        let (wall, digest) = untraced(&runs)?;
        out.digest(&mut reference, digest, "untraced run");
        // A single run is its own serial pass.
        let run_walls = if runs.len() > 1 {
            let (run_walls, digest) = serial_walls(&runs)?;
            out.digest(&mut reference, digest, "serial run");
            run_walls
        } else {
            vec![wall]
        };
        let t = traced(&runs, JOURNAL_CAPACITY, true)?;
        export_ms.push(t.export_s * 1e3);
        out.digest(&mut reference, t.digest, "traced run");
        let layers = replay_all(&runs)?;

        let attributed = layers.attributed_ns() as f64 / layers.wall_ns.max(1) as f64;
        out.check(attributed >= MIN_ATTRIBUTED, || {
            format!(
                "replay spans cover only {:.1}% of its wall time",
                attributed * 100.0
            )
        });
        let driver_completed: u64 = t.reports.iter().map(|r| r.requests.completed).sum();
        let driver_failed: u64 = t.reports.iter().map(|r| r.requests.failures.total()).sum();
        let ratio = layers.completed as f64 / driver_completed.max(1) as f64;
        if graph_free {
            out.check(
                layers.completed == driver_completed && layers.failed == driver_failed,
                || {
                    format!(
                        "replay completed/failed {}/{} but the driver {driver_completed}/{driver_failed}",
                        layers.completed, layers.failed
                    )
                },
            );
        } else {
            out.check(GRAPH_COMPLETION_RATIO.contains(&ratio), || {
                format!(
                    "replay-to-driver completion ratio {ratio:.3} is outside \
                     {GRAPH_COMPLETION_RATIO:?}"
                )
            });
        }
        if per_round.is_empty() {
            out.notes.push(format!(
                "fidelity: replay completed {} failed {} in {:.3} s host ({:.1}% in spans, \
                 {:.1}% tick bookkeeping); driver completed {driver_completed} failed \
                 {driver_failed} in {:.3} s host{}",
                layers.completed,
                layers.failed,
                layers.wall_ns as f64 / 1e9,
                attributed * 100.0,
                100.0 * layers.tick_self_ns() as f64 / layers.wall_ns.max(1) as f64,
                run_walls.iter().sum::<f64>(),
                if graph_free {
                    " (must match)".to_string()
                } else {
                    format!(
                        "; completion ratio {ratio:.3}, must lie in {GRAPH_COMPLETION_RATIO:?} \
                         (the replay has no retries, deadlines, budgets or shedding)"
                    )
                }
            ));
        }
        last_round = round_start.elapsed().as_secs_f64();
        let mut values = layer_values(&layers);
        values.insert("cluster.active_nodes_mean", layers.active_nodes_mean());
        values.insert("runner.run_wall_s_p50", median(&run_walls));
        values.insert("runner.concurrency", run_walls.iter().sum::<f64>() / wall);
        values.insert("trace.overhead_frac", t.wall_s / wall - 1.0);
        per_round.push(values);

        match &first {
            None => first = Some((t.journal, layers, t.reports)),
            Some((journal, replayed, _)) => {
                out.check(*journal == t.journal, || {
                    format!("journal {:?} differs from {journal:?}", t.journal)
                });
                out.check(replayed.counts() == layers.counts(), || {
                    format!(
                        "replay counts {:?} differ from {:?}",
                        layers.counts(),
                        replayed.counts()
                    )
                });
            }
        }
    }
    let (journal, layers, reports) = first.expect("at least one round ran");

    // Span events, counted exactly: when the standard ring wrapped,
    // journal once more into a ring that holds the whole run.
    let hops = if journal.dropped == 0 {
        journal.spans
    } else {
        let full = traced(&runs, journal.events as usize, false)?;
        out.digest(&mut reference, full.digest, "full-journal run");
        out.check(full.journal.dropped == 0, || {
            "full journal still wrapped".into()
        });
        full.journal.spans
    };

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for key in per_round[0].keys() {
        let samples: Vec<f64> = per_round.iter().map(|v| v[key]).collect();
        values.insert(key, median(&samples));
    }
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let goodput = sum(|r| r.resilience.goodput_members);
    let wasted = sum(|r| r.resilience.wasted_members);
    values.extend([
        ("workload.arrivals", layers.arrivals as f64),
        ("balancer.unrouted", layers.unrouted as f64),
        ("cluster.admit_rejected", layers.admit_rejected as f64),
        ("monitor.actions", sum(|r| r.scaling.total())),
        ("recovery.respawns", sum(|r| r.total_respawns())),
        ("recovery.failures", sum(|r| r.total_recovery_failures())),
        ("faults.applied", sum(|r| r.faults.total_applied())),
        (
            "flowgraph.roots",
            sum(|r| r.entry_points.iter().map(|e| e.roots_started).sum()),
        ),
        ("flowgraph.hops", hops as f64),
        ("flowgraph.retries", sum(|r| r.resilience.retries)),
        ("flowgraph.shed_roots", sum(|r| r.resilience.shed_roots)),
        (
            "flowgraph.budget_refusals",
            sum(|r| r.resilience.budget_exhausted),
        ),
        (
            "flowgraph.goodput_ratio",
            if goodput + wasted > 0.0 {
                goodput / (goodput + wasted)
            } else {
                0.0
            },
        ),
        ("trace.events", journal.events as f64),
        ("trace.dropped", journal.dropped as f64),
        ("trace.journal_mb", journal.bytes as f64 / (1024.0 * 1024.0)),
        ("trace.export_ms", median(&export_ms)),
    ]);
    out.notes.push(format!(
        "samples: {} rounds of untraced pass + serial pass + traced pass + replay over {} run(s)",
        per_round.len(),
        runs.len()
    ));
    out.values = values;
    Ok(out)
}

/// Checks that the layer replay reproduces the driver exactly on the
/// graph-free twin of `config`: the same faults, stat outages, recovery
/// and roll calls, without the call graph and resilience layer the
/// replay does not model.
fn twin_check(out: &mut Outcome, config: &ScenarioConfig) -> Result<(), String> {
    let twin = graph_free_twin(config);
    let mut layers = Layers::default();
    replay(&twin, &mut layers)?;
    let report = SimulationDriver::run(&twin).map_err(|e| e.to_string())?;
    let (completed, failed) = (report.requests.completed, report.requests.failures.total());
    out.check(
        layers.completed == completed && layers.failed == failed,
        || {
            format!(
                "graph-free twin: replay completed/failed {}/{} but the driver {completed}/{failed}",
                layers.completed, layers.failed
            )
        },
    );
    out.notes.push(format!(
        "fidelity: graph-free twin of {}: replay completed {} failed {} ({} fault calls, \
         {} recovery calls); driver completed {completed} failed {failed} (must match)",
        config.name, layers.completed, layers.failed, layers.faults.calls, layers.recovery.calls
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::record_line;

    #[test]
    fn a_tampered_recorded_digest_fails_the_check() {
        let (workload, seed) = (Workload::GraphRetry, 3);
        let (_, digest) = untraced(&workload.configs(seed, Size::Tiny)).unwrap();
        let table = |d| record_line(workload.name(), Size::Tiny.name(), seed, d);

        let good = per_layer(workload, seed, Size::Tiny, 0.0, &table(digest)).unwrap();
        assert_eq!(good.failed, 0, "{:#?}", good.notes);
        assert!(good.notes.iter().any(|n| n.contains("the recorded")));

        let bad = per_layer(workload, seed, Size::Tiny, 0.0, &table(digest ^ 1)).unwrap();
        assert!(bad.failed > 0);
        assert!(bad.notes.iter().any(|n| n.contains("differs from")));
    }

    #[test]
    fn an_unrecorded_seed_is_checked_against_itself() {
        let out = per_layer(Workload::PaperSweep, 3, Size::Tiny, 0.0, "").unwrap();
        assert_eq!(out.failed, 0, "{:#?}", out.notes);
        assert!(out.notes.iter().any(|n| n.contains("nothing recorded")));
    }
}
