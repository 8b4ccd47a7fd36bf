//! The output check: a digest of each run's simulated statistics.
//!
//! The simulator is deterministic, so every run of one configuration and
//! seed must produce the same digest, traced or not, in this process or
//! another. The digest covers request tallies, the response-time
//! summary, scaling counts, resilience and entry-point statistics,
//! availability and the fault log. It never includes host time.
//!
//! Each workload's digests are also recorded in `digests.txt`, keyed by
//! workload, size and seed, so a change that makes the simulation
//! deterministically different fails the check too. `--record` prints
//! fresh lines for that file when the simulation is meant to change.

use std::fmt::Write as _;

use hyscale_core::RunReport;
use hyscale_metrics::{RequestOutcomes, Summary};
use hyscale_sim::fnv1a;

/// The digests recorded for this revision of the simulator, one run per
/// line: `<workload> <size> <seed> <digest in hex>`. Blank lines and
/// lines starting with `#` are ignored.
pub const RECORDED: &str = include_str!("../digests.txt");

/// The digest `table` records for `workload` at `size` and `seed`, if it
/// has a line for them.
///
/// # Errors
///
/// Fails on a malformed line, or when two lines for the same run
/// disagree.
pub fn recorded(table: &str, workload: &str, size: &str, seed: u64) -> Result<Option<u64>, String> {
    let mut found = None;
    for (i, line) in table.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let malformed = || format!("digest table line {}: {line:?} is malformed", i + 1);
        let [w, sz, sd, d] = line.split_whitespace().collect::<Vec<_>>()[..] else {
            return Err(malformed());
        };
        let line_seed: u64 = sd.parse().map_err(|_| malformed())?;
        let digest = u64::from_str_radix(d, 16).map_err(|_| malformed())?;
        if (w, sz, line_seed) != (workload, size, seed) {
            continue;
        }
        if found.is_some_and(|f| f != digest) {
            return Err(format!(
                "digest table line {}: a second, different digest for {workload} {size} {seed}",
                i + 1
            ));
        }
        found = Some(digest);
    }
    Ok(found)
}

/// The `digests.txt` line for one run.
pub fn record_line(workload: &str, size: &str, seed: u64, digest: u64) -> String {
    format!("{workload} {size} {seed} {digest:016x}")
}

/// FNV-1a digest of one run's simulated statistics.
pub fn report_digest(report: &RunReport) -> u64 {
    let mut s = String::new();
    let _ = write!(
        s,
        "{}|{:?}|{:?}",
        report.name, report.algorithm, report.seeds
    );
    outcomes(&mut s, &report.requests);
    for (svc, out) in &report.per_service {
        let _ = write!(s, "|svc{}", svc.index());
        outcomes(&mut s, out);
    }
    let _ = write!(
        s,
        "|{:?}|{:?}|{:?}|{:?}|{}",
        report.scaling, report.resilience, report.faults, report.control_plane, report.warp_ticks
    );
    for (svc, a) in &report.availability {
        let _ = write!(s, "|avail{}:{a:?}", svc.index());
    }
    for e in &report.entry_points {
        let _ = write!(
            s,
            "|entry{}:{},{},{},{},{}",
            e.service.index(),
            e.roots_started,
            e.roots_completed,
            e.roots_failed,
            e.members_completed,
            e.members_failed
        );
        summary(&mut s, &e.e2e_secs);
    }
    fnv1a(s.as_bytes())
}

/// Digest of an ordered list of runs (a sweep): order matters, as
/// `runner::sweep` promises input-ordered results.
pub fn sweep_digest<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> u64 {
    let mut s = String::new();
    for r in reports {
        let _ = write!(s, "{:016x};", report_digest(r));
    }
    fnv1a(s.as_bytes())
}

fn outcomes(s: &mut String, o: &RequestOutcomes) {
    let _ = write!(s, "|{},{},{:?}", o.issued, o.completed, o.failures);
    summary(s, &o.response_times);
}

fn summary(s: &mut String, sm: &Summary) {
    // `Debug` on f64 prints the shortest string that round-trips, so
    // equal strings mean bit-identical values.
    let _ = write!(
        s,
        ",n{},{:?},{:?},{:?},{:?},{:?}",
        sm.count(),
        sm.mean(),
        sm.min(),
        sm.max(),
        sm.percentile(95.0),
        sm.percentile(99.0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup() {
        let table = "# comment\n\npaper_sweep full 3 00000000000000ff\ngraph_retry tiny 3 1\n";
        assert_eq!(recorded(table, "paper_sweep", "full", 3), Ok(Some(0xff)));
        assert_eq!(recorded(table, "graph_retry", "tiny", 3), Ok(Some(1)));
        assert_eq!(recorded(table, "paper_sweep", "tiny", 3), Ok(None));
        assert_eq!(recorded(table, "paper_sweep", "full", 4), Ok(None));
        assert_eq!(
            recorded(
                &record_line("big_cluster", "full", 9, 0xabc),
                "big_cluster",
                "full",
                9
            ),
            Ok(Some(0xabc))
        );
        assert!(recorded("paper_sweep full x 1", "paper_sweep", "full", 1).is_err());
        assert!(recorded("paper_sweep full 1", "paper_sweep", "full", 1).is_err());
        assert!(recorded("a b 1 2\na b 1 3", "a", "b", 1).is_err());
    }

    #[test]
    fn recorded_table_parses() {
        assert!(recorded(RECORDED, "paper_sweep", "full", 1).is_ok());
    }
}
