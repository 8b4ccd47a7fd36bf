//! The host record printed beside the metrics: which revision ran, on
//! how many hardware threads, and whether this machine can show a
//! multi-core gain at all.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Facts about the machine and checkout a result was measured on.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub git_revision: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Speed-up of a trivially parallel loop on `min(nproc, 2)` threads
    /// over one thread; near 1.0 means no multi-core gain can show.
    pub parallel_headroom: f64,
}

impl HostRecord {
    /// Probes the host; takes a few hundred milliseconds.
    pub fn probe() -> HostRecord {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        HostRecord {
            git_revision: git_revision(Path::new(".")),
            nproc,
            parallel_headroom: parallel_headroom(nproc.min(2)),
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_revision\": \"{}\", \"nproc\": {}, \"parallel_headroom\": {:.3}}}",
            self.git_revision, self.nproc, self.parallel_headroom
        )
    }
}

/// Reads the revision from `.git` under `root` without running git, so
/// nothing outside the checkout is read.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    // Packed refs: "<sha> <ref>" lines.
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A compute-only loop with no shared state.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..iters {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    black_box(x)
}

/// One-thread time over `threads`-thread time for the same total work.
fn parallel_headroom(threads: usize) -> f64 {
    const WORK: u64 = 60_000_000;
    let start = Instant::now();
    spin(WORK);
    let serial = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| spin(WORK / threads as u64));
        }
    });
    let parallel = start.elapsed().as_secs_f64();
    serial / parallel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revision_of_a_directory_without_git_is_unknown() {
        // The package's source directory is never a git root.
        assert_eq!(git_revision(Path::new("src")), "unknown");
    }

    #[test]
    fn probe_reports_sane_numbers() {
        let host = HostRecord::probe();
        assert!(host.nproc >= 1);
        assert!(host.parallel_headroom > 0.0);
        assert!(host.to_json().contains("\"nproc\""));
    }
}
