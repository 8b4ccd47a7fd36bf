//! Streaming summary statistics with exact percentiles.

use std::cell::{Cell, RefCell};
use std::fmt;

/// Longest run one stored entry can hold; a longer stretch of equal
/// samples is split into runs of this length plus a remainder.
const RUN_CAP: u32 = u32::MAX;

/// Accumulates samples and answers count/mean/min/max/std-dev/percentile
/// queries.
///
/// The mean and variance are maintained streamingly (Welford's algorithm);
/// percentiles are exact, computed from a retained copy of the samples
/// (exactness beats sketching for paper-reproduction purposes).
///
/// The copy is run-length coded, because cohort runs settle many
/// members with one response time: a cluster-scale run keeps millions of
/// samples per summary but only about one stored entry per settled
/// cohort record. Bitwise-equal consecutive samples collapse into one
/// run once three of them are consecutive; shorter stretches stay
/// single values, so per-request streams store one `f64` per sample as
/// before and never pay for the runs. A run costs one stored value plus
/// one 8-byte `(index, count)` entry in a sparse side list.
///
/// The stored state is canonical: it depends only on the sample
/// sequence, not on whether the samples arrived through
/// [`Summary::record_n`], repeated [`Summary::record`], [`Summary::merge`]
/// or a snapshot replay of [`Summary::samples`]. Two summaries fed the
/// same sequence are therefore equal down to their `Debug` output.
///
/// # Example
///
/// ```
/// use hyscale_metrics::Summary;
///
/// let s: Summary = (1..=100).map(f64::from).collect();
/// assert_eq!(s.count(), 100);
/// assert_eq!(s.mean(), 50.5);
/// assert_eq!(s.percentile(50.0), 50.5);
/// assert_eq!(s.percentile(100.0), 100.0);
///
/// let mut cohort = Summary::new();
/// cohort.record_n(0.25, 1_000);
/// assert_eq!(cohort.count(), 1_000);
/// assert_eq!(cohort.percentile(99.0), 0.25);
/// ```
#[derive(Clone)]
pub struct Summary {
    /// One value per stored entry, in insertion order: either a single
    /// sample or the value of a run.
    values: Vec<f64>,
    /// The runs among `values`, ascending by index: `(index, count)` with
    /// `3 <= count <= RUN_CAP`. Equal samples at the tail of the sequence
    /// number at most two singles, or they would form a run.
    runs: Vec<(u32, u32)>,
    /// Samples recorded (the expanded length of `values`).
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// Whether the samples arrived in non-decreasing order, so
    /// percentile queries can read `values` without sorting a copy.
    sorted: bool,
    /// NaN samples rejected at record time (see [`Summary::record`]).
    nan_dropped: u64,
    /// Rank index for percentile queries, built lazily and reused (no
    /// reallocation) until invalidated by the next record.
    cache: RefCell<RankIndex>,
    cache_valid: Cell<bool>,
}

/// Sorted view of a [`Summary`]'s stored entries that maps an expanded
/// sample rank to its value without expanding the runs.
#[derive(Debug, Clone, Default)]
struct RankIndex {
    /// The stored values sorted by `total_cmp`; unused (left empty) while
    /// the summary's own `values` are already in order.
    sorted: Vec<f64>,
    /// `(position, total)` for each sorted position that carries repeat
    /// members beyond its first, ascending by position; `total` counts
    /// the repeats at this and every earlier position.
    extras: Vec<(usize, u64)>,
}

impl RankIndex {
    /// The value at expanded rank `k` of `sorted` (the summary's values
    /// in sorted order) with this index's repeats.
    fn at(&self, sorted: &[f64], k: u64) -> f64 {
        // Entry `(pos, total)` covers expanded ranks `pos + before ..=
        // pos + total`, `before` being the previous entry's total. Take
        // the first entry whose ranks do not end below `k`: ranks short
        // of its own are single values shifted by `before`.
        let i = self
            .extras
            .partition_point(|&(pos, total)| pos as u64 + total < k);
        let before = if i == 0 { 0 } else { self.extras[i - 1].1 };
        let run = self.extras.get(i).map_or(usize::MAX, |e| e.0);
        sorted[((k - before) as usize).min(run)]
    }
}

impl Default for Summary {
    /// Identical to [`Summary::new`] (an empty summary with proper
    /// `min`/`max` sentinels, not zeroed fields).
    fn default() -> Self {
        Summary::new()
    }
}

impl fmt::Debug for Summary {
    /// Prints the observable state only, never the lazily built query
    /// cache, so the output does not depend on earlier queries.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Summary")
            .field("count", &self.count)
            .field("mean", &self.mean)
            .field("m2", &self.m2)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("nan_dropped", &self.nan_dropped)
            .field("values", &self.values)
            .field("runs", &self.runs)
            .finish()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            values: Vec::new(),
            runs: Vec::new(),
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sorted: true,
            nan_dropped: 0,
            cache: RefCell::new(RankIndex::default()),
            cache_valid: Cell::new(false),
        }
    }

    /// Records one sample.
    ///
    /// NaN values are **dropped**, not recorded: a NaN sample would
    /// poison the mean and every percentile sort. Drops are counted in
    /// [`Summary::nan_dropped`] so callers can notice a polluted input
    /// stream instead of failing deep inside a later report query.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of one value — a cohort whose members share a
    /// response time. Bit-identical to `n` calls of [`Summary::record`]:
    /// the moments take `n` Welford steps, but the samples are stored as
    /// one run, so memory follows calls rather than members.
    ///
    /// # Panics
    ///
    /// Panics if the summary would store more than `u32::MAX` entries
    /// (32 GiB of values).
    pub fn record_n(&mut self, value: f64, n: u64) {
        if value.is_nan() {
            self.nan_dropped += n;
            return;
        }
        if n == 0 {
            return;
        }
        self.cache_valid.set(false);
        for _ in 0..n {
            let k = self.count as f64 + 1.0;
            let delta = value - self.mean;
            self.mean += delta / k;
            self.m2 += delta * (value - self.mean);
            self.count += 1;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if let Some(&last) = self.values.last() {
            if value < last {
                self.sorted = false;
            }
        }
        self.append(value, n, RUN_CAP);
    }

    /// Appends `n` copies of `value` to the stored sequence, keeping the
    /// canonical form: a maximal stretch of bitwise-equal samples is
    /// stored as runs of `cap` members, then the remainder as one run
    /// when it has three or more members, else as single values.
    fn append(&mut self, value: f64, mut n: u64, cap: u32) {
        let bits = value.to_bits();
        while n > 0 {
            let len = self.values.len();
            let tail_run = self.runs.last_mut().filter(|r| r.0 as usize + 1 == len);
            let run_end = match tail_run {
                Some(run) if self.values[len - 1].to_bits() == bits && run.1 < cap => {
                    let grow = n.min(u64::from(cap - run.1));
                    run.1 += grow as u32;
                    n -= grow;
                    continue;
                }
                Some(_) => len,
                None => self.runs.last().map_or(0, |r| r.0 as usize + 1),
            };
            let singles = self.values[run_end..]
                .iter()
                .rev()
                .take(2)
                .take_while(|v| v.to_bits() == bits)
                .count();
            let total = singles as u64 + n;
            if total < 3 {
                self.values.extend(std::iter::repeat_n(value, n as usize));
                return;
            }
            self.values.truncate(len - singles);
            let index = u32::try_from(self.values.len())
                .expect("a Summary stores at most u32::MAX entries");
            self.values.push(value);
            let take = total.min(u64::from(cap));
            self.runs.push((index, take as u32));
            n = total - take;
        }
    }

    /// The stored entries in insertion order, as `(value, members)`.
    fn entries(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut runs = self.runs.iter().peekable();
        self.values.iter().enumerate().map(move |(i, &v)| {
            match runs.next_if(|r| r.0 as usize == i) {
                Some(&(_, n)) => (v, u64::from(n)),
                None => (v, 1),
            }
        })
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The recorded samples in insertion order (snapshot support), with
    /// runs expanded.
    ///
    /// Replaying these through [`Summary::record`] in order — plus
    /// [`Summary::nan_dropped`] NaN records — rebuilds a bit-identical
    /// summary, because Welford's updates are order-deterministic and the
    /// stored form is canonical.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.entries()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n as usize))
    }

    /// Number of stored entries backing the samples: single values plus
    /// runs. Memory grows with this, not with [`Summary::count`].
    pub fn stored_entries(&self) -> usize {
        self.values.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample; 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// Population standard deviation; 0.0 when fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Exact percentile (nearest-rank with linear interpolation).
    ///
    /// The rank `p` is defined for every `f64`:
    ///
    /// * out-of-range `p` is clamped into `[0, 100]`, so `p < 0` returns
    ///   the minimum and `p > 100` the maximum — never an interpolation
    ///   with a negative or past-the-end rank;
    /// * a NaN `p` is treated as 0 (the minimum), keeping the return
    ///   value a real sample instead of poisoning downstream arithmetic;
    /// * an empty summary returns 0.0 for every `p`, matching
    ///   [`Summary::mean`]/[`Summary::min`]/[`Summary::max`].
    pub fn percentile(&self, p: f64) -> f64 {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        if self.is_empty() {
            return 0.0;
        }
        // (Re)build the rank index at most once per batch of records,
        // reusing its allocations.
        if !self.cache_valid.get() {
            self.rebuild_index();
            self.cache_valid.set(true);
        }
        let index = self.cache.borrow();
        let sorted = if self.sorted {
            &self.values
        } else {
            &index.sorted
        };
        let rank = p / 100.0 * (self.count - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        if lo == hi {
            index.at(sorted, lo)
        } else {
            let frac = rank - lo as f64;
            index.at(sorted, lo) * (1.0 - frac) + index.at(sorted, hi) * frac
        }
    }

    /// Builds the rank index: the values in `total_cmp` order (unless
    /// already in order) and each run's repeats at the first sorted
    /// position of its value. Equal values are bitwise-equal under
    /// `total_cmp`, so which of them carries the repeats is immaterial.
    fn rebuild_index(&self) {
        let mut index = self.cache.borrow_mut();
        let RankIndex { sorted, extras } = &mut *index;
        extras.clear();
        if self.sorted {
            extras.extend(
                self.runs
                    .iter()
                    .map(|&(i, n)| (i as usize, u64::from(n - 1))),
            );
        } else {
            sorted.clone_from(&self.values);
            sorted.sort_unstable_by(f64::total_cmp);
            extras.extend(self.runs.iter().map(|&(i, n)| {
                let v = self.values[i as usize];
                let pos = sorted.partition_point(|x| x.total_cmp(&v).is_lt());
                (pos, u64::from(n - 1))
            }));
            extras.sort_unstable_by_key(|e| e.0);
        }
        // Merge repeats sharing a position, then make the counts running
        // totals.
        let mut total = 0;
        let mut kept = 0;
        for i in 0..extras.len() {
            let (pos, repeats) = extras[i];
            total += repeats;
            if kept > 0 && extras[kept - 1].0 == pos {
                extras[kept - 1].1 = total;
            } else {
                extras[kept] = (pos, total);
                kept += 1;
            }
        }
        extras.truncate(kept);
    }

    /// NaN samples dropped at record time.
    pub fn nan_dropped(&self) -> u64 {
        self.nan_dropped
    }

    /// Median (the 50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Number of samples strictly greater than `threshold`.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.entries()
            .filter(|&(v, _)| v > threshold)
            .map(|(_, n)| n)
            .sum::<u64>() as usize
    }

    /// Merges another summary's samples into this one (including its
    /// count of dropped NaN inputs).
    pub fn merge(&mut self, other: &Summary) {
        for (v, n) in other.entries() {
            self.record_n(v, n);
        }
        self.nan_dropped += other.nan_dropped;
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn moments_match_closed_form() {
        let s: Summary = (1..=10).map(f64::from).collect();
        assert_eq!(s.count(), 10);
        assert_eq!(s.mean(), 5.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
        // population std dev of 1..=10 = sqrt(8.25)
        assert!((s.std_dev() - 8.25_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let s: Summary = vec![10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.median(), 25.0);
        assert!((s.percentile(25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_on_unsorted_input() {
        let s: Summary = vec![5.0, 1.0, 4.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
    }

    #[test]
    fn merge_combines_sample_sets() {
        let mut a: Summary = vec![1.0, 2.0].into_iter().collect();
        let b: Summary = vec![3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
    }

    #[test]
    fn nan_is_dropped_and_counted() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        assert_eq!(s.count(), 0);
        assert_eq!(s.nan_dropped(), 1);
        s.record(2.0);
        s.record(f64::NAN);
        s.record(4.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.nan_dropped(), 2);
        // Queries stay finite and ignore the dropped samples entirely.
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 4.0);
        assert!(s.median().is_finite());
    }

    #[test]
    fn merge_propagates_nan_dropped() {
        let mut a = Summary::new();
        a.record(f64::NAN);
        let mut b = Summary::new();
        b.record(f64::NAN);
        b.record(1.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.nan_dropped(), 2);
    }

    #[test]
    fn default_matches_new() {
        // A derived Default would zero min/max instead of using the
        // ±infinity sentinels; the first sample must win outright.
        let mut s = Summary::default();
        s.record(5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
        let mut neg = Summary::default();
        neg.record(-3.0);
        assert_eq!(neg.max(), -3.0);
    }

    #[test]
    fn percentile_queries_do_not_reallocate() {
        let mut s = Summary::new();
        // Descending input keeps `values` unsorted, forcing cache use.
        s.extend((0..1000).rev().map(f64::from));
        let _ = s.percentile(50.0);
        let ptr = s.cache.borrow().sorted.as_ptr();
        // Repeated queries reuse the already-sorted cache: same buffer,
        // no clone-and-sort per call.
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let _ = s.percentile(p);
        }
        assert_eq!(
            s.cache.borrow().sorted.as_ptr(),
            ptr,
            "query reallocated cache"
        );
        // Record/query cycles rebuild the cache via clone_from, reusing
        // the buffer once its capacity has settled.
        s.record(-1.0);
        assert_eq!(s.percentile(0.0), -1.0);
        let (settled_ptr, settled_cap) = {
            let c = s.cache.borrow();
            (c.sorted.as_ptr(), c.sorted.capacity())
        };
        s.record(-2.0);
        assert_eq!(s.percentile(0.0), -2.0);
        let c = s.cache.borrow();
        assert_eq!(c.sorted.as_ptr(), settled_ptr, "rebuild reallocated cache");
        assert_eq!(c.sorted.capacity(), settled_cap, "rebuild changed capacity");
    }

    #[test]
    fn out_of_range_percentile_clamps() {
        let s: Summary = vec![1.0, 2.0, 3.0].into_iter().collect();
        // Below 0 clamps to the minimum, above 100 to the maximum.
        assert_eq!(s.percentile(-5.0), 1.0);
        assert_eq!(s.percentile(-0.0), 1.0);
        assert_eq!(s.percentile(101.0), 3.0);
        assert_eq!(s.percentile(f64::INFINITY), 3.0);
        assert_eq!(s.percentile(f64::NEG_INFINITY), 1.0);
        // NaN ranks are treated as 0 — a real sample, never NaN out.
        assert_eq!(s.percentile(f64::NAN), 1.0);
    }

    #[test]
    fn empty_summary_percentile_is_zero_for_every_rank() {
        let s = Summary::new();
        for p in [-10.0, 0.0, 50.0, 100.0, 250.0, f64::NAN] {
            assert_eq!(s.percentile(p), 0.0);
        }
    }

    #[test]
    fn single_sample() {
        let s: Summary = vec![42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn count_above_threshold() {
        let s: Summary = vec![0.5, 1.0, 1.5, 2.0].into_iter().collect();
        assert_eq!(s.count_above(1.0), 2); // strictly greater
        assert_eq!(s.count_above(0.0), 4);
        assert_eq!(s.count_above(5.0), 0);
        assert_eq!(Summary::new().count_above(0.0), 0);
    }

    #[test]
    fn extend_appends() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.count(), 3);
    }

    /// SplitMix64: a dependency-free seeded stream for the property test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The percentile of the per-sample representation this summary
    /// replaced: index the samples directly while they arrived in
    /// `<`-order, else a `total_cmp`-sorted copy.
    fn reference_percentile(samples: &[f64], p: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let mut sorted = samples.to_vec();
        if samples.windows(2).any(|w| w[1] < w[0]) {
            sorted.sort_unstable_by(f64::total_cmp);
        }
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    fn assert_identical(a: &Summary, b: &Summary, what: &str) {
        assert_eq!(a.count(), b.count(), "{what}: count");
        assert_eq!(a.nan_dropped(), b.nan_dropped(), "{what}: nan_dropped");
        for (x, y, name) in [
            (a.mean(), b.mean(), "mean"),
            (a.std_dev(), b.std_dev(), "std_dev"),
            (a.min(), b.min(), "min"),
            (a.max(), b.max(), "max"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name}");
        }
        for t in [-1.0, -0.0, 0.0, 1.5, 2.0, 100.0] {
            assert_eq!(
                a.count_above(t),
                b.count_above(t),
                "{what}: count_above {t}"
            );
        }
        let sa: Vec<u64> = a.samples().map(f64::to_bits).collect();
        let sb: Vec<u64> = b.samples().map(f64::to_bits).collect();
        assert_eq!(sa, sb, "{what}: samples");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: Debug");
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(
                a.percentile(p).to_bits(),
                b.percentile(p).to_bits(),
                "{what}: p{p}"
            );
        }
    }

    #[test]
    fn record_n_is_bit_identical_to_repeated_record() {
        let pool = [0.0, -0.0, 1.5, 2.0, -3.25, 7.0, 1e300, f64::NAN];
        let lengths = [1, 1, 1, 2, 2, 3, 4, 7, 50];
        for seed in 0..300u64 {
            let mut rng = seed;
            let chunks = 1 + next(&mut rng) % 40;
            let mut stream: Vec<(f64, u64)> = (0..chunks)
                .map(|_| {
                    let v = pool[(next(&mut rng) % pool.len() as u64) as usize];
                    let n = lengths[(next(&mut rng) % lengths.len() as u64) as usize];
                    (v, n)
                })
                .collect();
            if seed % 3 == 0 {
                // Ascending streams take the no-sort percentile path; the
                // stable sort leaves -0.0 and +0.0 interleaved.
                stream.retain(|c| !c.0.is_nan());
                stream.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("no NaN"));
            }

            let mut batched = Summary::new();
            let mut single = Summary::new();
            let mut expanded = Vec::new();
            for &(v, n) in &stream {
                batched.record_n(v, n);
                for _ in 0..n {
                    single.record(v);
                    if !v.is_nan() {
                        expanded.push(v);
                    }
                }
            }
            let what = format!("seed {seed}");
            assert_identical(&batched, &single, &what);

            // Samples replay in insertion order, runs expanded.
            let replay: Vec<u64> = batched.samples().map(f64::to_bits).collect();
            let want: Vec<u64> = expanded.iter().map(|v| v.to_bits()).collect();
            assert_eq!(replay, want, "{what}: samples()");
            for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
                assert_eq!(
                    batched.percentile(p).to_bits(),
                    reference_percentile(&expanded, p).to_bits(),
                    "{what}: p{p} against the per-sample reference"
                );
            }

            // Merging two halves stores what one stream stores.
            let cut = (next(&mut rng) % (stream.len() as u64 + 1)) as usize;
            let mut merged = Summary::new();
            let mut rest = Summary::new();
            for &(v, n) in &stream[..cut] {
                merged.record_n(v, n);
            }
            for &(v, n) in &stream[cut..] {
                rest.record_n(v, n);
            }
            merged.merge(&rest);
            assert_identical(&merged, &single, &format!("{what} merged at {cut}"));
        }
    }

    #[test]
    fn runs_form_from_three_consecutive_equal_samples() {
        let mut s = Summary::new();
        s.extend([1.0, 1.0]);
        assert_eq!((s.stored_entries(), s.runs.len()), (2, 0));
        s.record(1.0);
        assert_eq!((s.stored_entries(), s.runs.as_slice()), (1, &[(0, 3)][..]));
        // -0.0 is not bitwise-equal to +0.0: it starts a new stretch.
        s.extend([0.0, 0.0, -0.0, -0.0, -0.0]);
        assert_eq!(s.stored_entries(), 4);
        assert_eq!(s.runs, vec![(0, 3), (3, 3)]);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn over_long_stretches_split_into_capped_runs() {
        // Bulk and one-at-a-time appends agree for every split point.
        for total in 0..20u64 {
            let mut bulk = Summary::new();
            bulk.append(2.0, 1, 4);
            bulk.append(5.0, total, 4);
            let mut step = Summary::new();
            step.append(2.0, 1, 4);
            for _ in 0..total {
                step.append(5.0, 1, 4);
            }
            assert_eq!((&bulk.values, &bulk.runs), (&step.values, &step.runs));
            let stored: u64 = bulk.runs.iter().map(|r| u64::from(r.1) - 1).sum();
            assert_eq!(
                bulk.values.len() as u64 + stored,
                total + 1,
                "total {total}"
            );
            assert!(bulk.runs.iter().all(|r| (3..=4).contains(&r.1)));
        }
        let mut s = Summary::new();
        s.append(5.0, 10, 4);
        // 10 = 4 + 4 + 2: two full runs, then two single values.
        assert_eq!(s.values, vec![5.0, 5.0, 5.0, 5.0]);
        assert_eq!(s.runs, vec![(0, 4), (1, 4)]);
    }

    #[test]
    fn million_member_record_n_stores_one_run() {
        let mut s = Summary::new();
        s.record_n(0.125, 1_000_000);
        assert_eq!(s.count(), 1_000_000);
        assert_eq!(s.stored_entries(), 1);
        assert_eq!(s.runs, vec![(0, 1_000_000)]);
        assert_eq!(s.mean(), 0.125);
        assert_eq!(s.percentile(99.0), 0.125);
        assert_eq!(s.count_above(0.1), 1_000_000);
        assert_eq!(s.samples().count(), 1_000_000);
    }

    #[test]
    fn debug_ignores_the_query_cache() {
        let mut queried = Summary::new();
        queried.extend([3.0, 1.0, 2.0]);
        queried.record_n(0.5, 5);
        let fresh = queried.clone();
        let _ = queried.percentile(50.0);
        assert_eq!(format!("{queried:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn percentiles_index_through_runs() {
        let mut s = Summary::new();
        s.record_n(3.0, 4);
        s.record(1.0);
        s.record_n(2.0, 3);
        s.record_n(3.0, 3);
        // Expanded and sorted: 1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3.
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(10.0), 2.0);
        assert_eq!(s.percentile(30.0), 2.0);
        assert_eq!(s.percentile(35.0), 2.5);
        assert_eq!(s.percentile(40.0), 3.0);
        assert_eq!(s.percentile(100.0), 3.0);
        assert_eq!(s.count_above(2.0), 7);
    }
}
