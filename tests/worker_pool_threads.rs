//! Thread-lifecycle tests for the persistent tick-worker pool: shrinking
//! the pool joins its workers, and dropping a `Cluster` joins every
//! worker (no thread leak across repeated construction).
//!
//! Both tests count the process's pool worker threads, so they live in
//! their own test binary — no sibling test starts or stops pools
//! underneath them — and take [`THREAD_COUNT`] so they never run at the
//! same time as each other.

use std::sync::{Mutex, MutexGuard, PoisonError};

use hyscale::sim::{SimDuration, SimRng, SimTime};

mod common;
use common::{build_uniform, tick_traffic, DT_MS};

/// Held for the whole of each test that reads the process thread count.
static THREAD_COUNT: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; its count is still ours to read.
    THREAD_COUNT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tick-pool worker threads alive in this process, read from
/// `/proc/self/task/*/comm` (Linux CI and dev boxes; the leak test is
/// skipped elsewhere). A worker names itself `hyscale-tick-<i>` once it
/// first runs; until then it still carries the name of the thread that
/// spawned it, which is this test's thread. Counting both, and never
/// this thread or the harness's own threads, keeps the tally exact
/// whatever the harness starts or stops meanwhile.
#[cfg(target_os = "linux")]
fn pool_thread_count() -> usize {
    let comm = |task: &std::path::Path| std::fs::read_to_string(task.join("comm")).ok();
    let me = std::fs::canonicalize("/proc/thread-self").expect("resolve /proc/thread-self");
    let my_name = comm(&me).expect("read own thread name");
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| task.ok().map(|t| t.path()))
        .filter(|task| task.file_name() != me.file_name())
        // A thread that exits mid-scan has no name left to read.
        .filter_map(|task| comm(&task))
        .filter(|name| name.starts_with("hyscale-tick-") || *name == my_name)
        .count()
}

#[test]
fn repeated_reconfiguration_does_not_accumulate_threads() {
    let _serial = serialize();
    let (mut cluster, containers) = build_uniform(4, 6);
    let mut rng = SimRng::seed_from(0x7EAD);
    let dt = SimDuration::from_millis(DT_MS);
    let mut now = SimTime::ZERO;
    // Churn the pool size; each resize joins the old pool first.
    for round in 0..20 {
        cluster.set_parallelism(1 + (round % 5));
        tick_traffic(&mut cluster, &containers, &mut rng, now);
        cluster.advance(now, dt);
        now += dt;
    }
    #[cfg(target_os = "linux")]
    {
        cluster.set_parallelism(3);
        cluster.advance(now, dt);
        let with_pool = pool_thread_count();
        cluster.set_parallelism(1);
        let serial_again = pool_thread_count();
        assert_eq!(
            serial_again,
            with_pool - 2,
            "shrinking to serial joins the pool's 2 threads"
        );
    }
}

#[test]
#[cfg(target_os = "linux")]
fn dropping_clusters_joins_all_workers() {
    let _serial = serialize();
    // Warm up allocators/runtime threads, then measure the baseline.
    {
        let (mut cluster, _) = build_uniform(4, 6);
        cluster.advance(SimTime::ZERO, SimDuration::from_millis(DT_MS));
    }
    let baseline = pool_thread_count();
    for _ in 0..25 {
        let (mut cluster, containers) = build_uniform(4, 6);
        let mut rng = SimRng::seed_from(0xD20B);
        tick_traffic(&mut cluster, &containers, &mut rng, SimTime::ZERO);
        cluster.advance(SimTime::ZERO, SimDuration::from_millis(DT_MS));
        drop(cluster);
    }
    let after = pool_thread_count();
    assert_eq!(
        baseline, after,
        "thread count grew across 25 construct/drop cycles"
    );
}
