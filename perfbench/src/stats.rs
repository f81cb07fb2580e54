//! Measurement arithmetic: percentile selection, open-loop lateness
//! accounting, and deltas of the daemon's wire `Stats` counters.
//!
//! Everything here is pure, so the unit tests at the bottom pin it down
//! without booting a daemon.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use uss_core::HistogramSnapshot;
use uss_server::ServerStats;

/// One percentile picked from a sample, with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The selected sample value.
    pub value: f64,
    /// Samples strictly after the selected rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(p * n)` (clamped to `1..=n`), and the number of samples
/// ranked after it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Pick> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Pick {
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// A latency sample in milliseconds, sorted once for percentile reads.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` (NaN-free by construction: they are durations).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `p`-percentile, or 0 with no samples beyond for an empty sample.
    pub fn pick(&self, p: f64) -> Pick {
        percentile(&self.sorted, p).unwrap_or(Pick {
            value: 0.0,
            beyond: 0,
        })
    }

    /// Shorthand for `pick(p).value`.
    pub fn at(&self, p: f64) -> f64 {
        self.pick(p).value
    }
}

/// Median of a small set of repeated measurements (e.g. set-up times).
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).at(0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// An open-loop schedule: operation `k` is due at `t0 + k * period`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When operation 0 is due.
    pub t0: Instant,
    /// Spacing between consecutive operations.
    pub period: Duration,
}

impl Schedule {
    /// When operation `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        // Periods are microseconds and k stays far below 2^32 in any run.
        self.t0 + self.period * u32::try_from(k).expect("schedule index fits in u32")
    }
}

/// Completion times and latencies of one phase's operations, read as
/// medians over fixed windows: a burst of contention from outside the program
/// moves one window, not the run's figure.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Completion time of each operation, s after the phase started.
    pub at_s: Vec<f64>,
    /// Latency of each operation, ms.
    pub lat_ms: Vec<f64>,
}

impl Series {
    /// Records one operation.
    pub fn push(&mut self, at_s: f64, lat_ms: f64) {
        self.at_s.push(at_s);
        self.lat_ms.push(lat_ms);
    }

    /// Operations recorded.
    pub fn len(&self) -> usize {
        self.lat_ms.len()
    }

    /// The operations of each full `window_s` window, as `(completion s,
    /// latency ms)` in order; the whole series as one window when it spans
    /// less than one full window.
    fn windows(&self, window_s: f64) -> Vec<Vec<(f64, f64)>> {
        let ops = self.at_s.iter().copied().zip(self.lat_ms.iter().copied());
        let full = self.at_s.last().map_or(0, |&t| (t / window_s) as usize);
        if full == 0 {
            return vec![ops.collect()];
        }
        let mut out = vec![Vec::new(); full];
        for (t, l) in ops {
            if let Some(w) = out.get_mut((t / window_s) as usize) {
                w.push((t, l));
            }
        }
        out
    }

    /// Median over windows of operations completed per second, each window's
    /// rate read between its first and last completion; over the whole
    /// series (from its start) when it spans less than one window.
    pub fn rate(&self, window_s: f64) -> f64 {
        let Some(&last) = self.at_s.last() else {
            return 0.0;
        };
        if last < window_s {
            return self.len() as f64 / last;
        }
        let rates: Vec<f64> = self
            .windows(window_s)
            .iter()
            .filter(|w| w.len() > 1)
            .map(|w| (w.len() - 1) as f64 / (w[w.len() - 1].0 - w[0].0))
            .collect();
        median(&rates)
    }

    /// Median over windows of the latency `p`-percentile.
    pub fn pct(&self, p: f64, window_s: f64) -> f64 {
        let per: Vec<f64> = self
            .windows(window_s)
            .into_iter()
            .map(|w| Sample::new(w.into_iter().map(|(_, l)| l).collect()).at(p))
            .collect();
        median(&per)
    }
}

/// Per-operation accounting of an open-loop generator: latency counts from
/// when each operation was *due*, so a stall also charges the operations
/// queued behind it; lateness is how long after its due time the generator
/// actually sent it.
#[derive(Debug, Clone, Default)]
pub struct PacedLog {
    /// Completion time (s after the schedule's start) and due-to-completion
    /// latency of each operation.
    pub series: Series,
    /// Due-to-send time of each operation, in ms (0 when sent on time).
    pub late_ms: Vec<f64>,
}

impl PacedLog {
    /// Records operation `k` of `sched`, sent at `sent` and completed at
    /// `done`.
    pub fn record(&mut self, sched: &Schedule, k: u64, sent: Instant, done: Instant) {
        let due = sched.due(k);
        self.series.push(
            done.saturating_duration_since(sched.t0).as_secs_f64(),
            ms(done.saturating_duration_since(due)),
        );
        self.late_ms.push(ms(sent.saturating_duration_since(due)));
    }
}

/// Wire `Stats` reduced to what the benchmark reads: server-wide request and
/// error counts, latency histograms, and every per-stream sample summed by
/// family (plus the per-shard values of the families that carry a shard).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsView {
    /// Requests served, by request kind − 1.
    pub requests: Vec<u64>,
    /// Error frames sent, by error code − 1.
    pub error_frames: Vec<u64>,
    /// Latency histograms, by request kind − 1.
    pub latency: Vec<HistogramSnapshot>,
    /// Rows the stream's engine enqueued.
    pub rows_ingested: u64,
    /// Per-family sums over every sample of the stream.
    pub families: BTreeMap<String, u64>,
    /// Per-family, per-shard values.
    pub shards: BTreeMap<String, BTreeMap<u64, u64>>,
}

/// Splits `family{labels}` into the family name and its `shard` label.
fn parse_sample(name: &str) -> (&str, Option<u64>) {
    let Some((family, labels)) = name.split_once('{') else {
        return (name, None);
    };
    let shard = labels
        .split(',')
        .find_map(|kv| kv.strip_prefix("shard=\""))
        .and_then(|v| v.trim_end_matches(['"', '}']).parse().ok());
    (family, shard)
}

impl StatsView {
    /// Reduces a snapshot to the named stream's view.
    pub fn of(stats: &ServerStats, stream: &str) -> Self {
        let mut view = Self {
            requests: stats.requests.to_vec(),
            error_frames: stats.error_frames.to_vec(),
            latency: stats.latency.clone(),
            ..Self::default()
        };
        if let Some(s) = stats.streams.iter().find(|s| s.name == stream) {
            view.rows_ingested = s.rows_ingested;
            for (name, value) in &s.samples {
                let (family, shard) = parse_sample(name);
                *view.families.entry(family.to_string()).or_default() += value;
                if let Some(shard) = shard {
                    view.shards
                        .entry(family.to_string())
                        .or_default()
                        .insert(shard, *value);
                }
            }
        }
        view
    }

    /// A family's summed value (0 when absent).
    pub fn family(&self, name: &str) -> u64 {
        self.families.get(name).copied().unwrap_or(0)
    }
}

/// Counter growth between two snapshots of the same daemon. Counters only
/// grow, so a shrinking value means the snapshots are out of order or come
/// from two daemons — an error, not a zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsDelta {
    /// Growth of [`StatsView::requests`].
    pub requests: Vec<u64>,
    /// Growth of [`StatsView::error_frames`].
    pub error_frames: Vec<u64>,
    /// Bucket-wise growth of each latency histogram.
    pub latency: Vec<HistogramSnapshot>,
    /// Growth of [`StatsView::rows_ingested`].
    pub rows_ingested: u64,
    /// Growth of every counter family.
    pub families: BTreeMap<String, u64>,
    /// Growth per family and shard.
    pub shards: BTreeMap<String, BTreeMap<u64, u64>>,
}

fn grow(before: u64, after: u64, what: &str) -> Result<u64, String> {
    after
        .checked_sub(before)
        .ok_or_else(|| format!("{what} went backwards: {before} -> {after}"))
}

fn grow_all(before: &[u64], after: &[u64], what: &str) -> Result<Vec<u64>, String> {
    if before.len() != after.len() {
        return Err(format!("{what}: snapshot shapes differ"));
    }
    before
        .iter()
        .zip(after)
        .map(|(&b, &a)| grow(b, a, what))
        .collect()
}

/// Bucket-wise difference of two snapshots of one histogram.
pub fn histogram_delta(
    before: &HistogramSnapshot,
    after: &HistogramSnapshot,
) -> Result<HistogramSnapshot, String> {
    let old: BTreeMap<u8, u64> = before.buckets.iter().copied().collect();
    let mut buckets = Vec::new();
    for &(index, count) in &after.buckets {
        let d = grow(
            old.get(&index).copied().unwrap_or(0),
            count,
            "histogram bucket",
        )?;
        if d > 0 {
            buckets.push((index, d));
        }
    }
    if old
        .keys()
        .any(|k| !after.buckets.iter().any(|&(i, _)| i == *k))
    {
        return Err("histogram bucket vanished".to_string());
    }
    Ok(HistogramSnapshot {
        buckets,
        count: grow(before.count, after.count, "histogram count")?,
        sum: grow(before.sum, after.sum, "histogram sum")?,
    })
}

/// The `p`-quantile of a log2-bucketed histogram, interpolated linearly by
/// rank inside the bucket that holds it. Bucket `i >= 1` holds the values of
/// bit width `i`, i.e. `[2^(i-1), 2^i - 1]`; bucket 0 holds only 0. Returns 0
/// for an empty histogram.
pub fn histogram_quantile(h: &HistogramSnapshot, p: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let target = (p * h.count as f64).max(f64::MIN_POSITIVE);
    let mut seen = 0u64;
    for &(index, n) in &h.buckets {
        #[allow(clippy::cast_precision_loss)]
        if (seen + n) as f64 >= target {
            if index == 0 {
                return 0.0;
            }
            let lo = (1u64 << (index - 1)) as f64;
            let hi = ((1u128 << index) - 1) as f64;
            let frac = (target - seen as f64) / n as f64;
            return lo + frac * (hi - lo);
        }
        seen += n;
    }
    h.buckets
        .last()
        .map_or(0.0, |&(index, _)| ((1u128 << index) - 1) as f64)
}

impl StatsDelta {
    /// Growth from `before` to `after`.
    ///
    /// # Errors
    ///
    /// Any counter that shrank, or snapshots of different shapes.
    pub fn between(before: &StatsView, after: &StatsView) -> Result<Self, String> {
        let mut families = BTreeMap::new();
        for (name, &value) in &after.families {
            families.insert(
                name.clone(),
                grow(before.family(name), value, name).or_else(|e| {
                    // Gauges (high-water marks, memory) may move either way;
                    // their delta is not meaningful, so keep the late value.
                    if is_gauge(name) {
                        Ok(value)
                    } else {
                        Err(e)
                    }
                })?,
            );
        }
        let mut shards = BTreeMap::new();
        for (name, per) in &after.shards {
            let old = before.shards.get(name);
            let mut out = BTreeMap::new();
            for (&shard, &value) in per {
                let b = old.and_then(|o| o.get(&shard)).copied().unwrap_or(0);
                let d = if is_gauge(name) {
                    value
                } else {
                    grow(b, value, name)?
                };
                out.insert(shard, d);
            }
            shards.insert(name.clone(), out);
        }
        let latency = before
            .latency
            .iter()
            .zip(&after.latency)
            .map(|(b, a)| histogram_delta(b, a))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            requests: grow_all(&before.requests, &after.requests, "requests")?,
            error_frames: grow_all(&before.error_frames, &after.error_frames, "error frames")?,
            latency,
            rows_ingested: grow(before.rows_ingested, after.rows_ingested, "rows ingested")?,
            families,
            shards,
        })
    }

    /// A family's growth (0 when absent).
    pub fn family(&self, name: &str) -> u64 {
        self.families.get(name).copied().unwrap_or(0)
    }
}

/// Families that are gauges rather than counters: their "delta" is the late
/// value.
fn is_gauge(family: &str) -> bool {
    matches!(
        family,
        "uss_ring_occupancy_high_water" | "uss_sketch_memory_bytes"
    )
}

/// `num / den`, or 0 when the base is 0 (the base is reported alongside).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uss_server::StreamStats;

    #[test]
    fn percentile_picks_nearest_rank_and_counts_the_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.5),
            Some(Pick {
                value: 500.0,
                beyond: 500
            })
        );
        assert_eq!(
            percentile(&v, 0.99),
            Some(Pick {
                value: 990.0,
                beyond: 10
            })
        );
        assert_eq!(
            percentile(&v, 0.999),
            Some(Pick {
                value: 999.0,
                beyond: 1
            })
        );
        assert_eq!(
            percentile(&v, 1.0),
            Some(Pick {
                value: 1000.0,
                beyond: 0
            })
        );
        // p = 0 clamps to the first rank, not an out-of-range index.
        assert_eq!(
            percentile(&v, 0.0),
            Some(Pick {
                value: 1.0,
                beyond: 999
            })
        );
        assert_eq!(percentile(&[], 0.5), None);
        // A sample of 99 cannot support p99: nothing lies beyond it.
        let small: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.99).unwrap().beyond, 0);
        // Sample sorts its input.
        let s = Sample::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.at(0.5), 2.0);
        assert_eq!(median(&[5.0, 1.0, 9.0, 7.0]), 5.0);
    }

    #[test]
    fn paced_log_charges_latency_from_the_due_time() {
        let t0 = Instant::now();
        let sched = Schedule {
            t0,
            period: Duration::from_millis(5),
        };
        assert_eq!(sched.due(3), t0 + Duration::from_millis(15));
        let mut log = PacedLog::default();
        // On time: sent at due, done 1 ms later.
        log.record(&sched, 0, t0, t0 + Duration::from_millis(1));
        // A stall: op 1 sent 7 ms late and done 2 ms after sending.
        let due1 = sched.due(1);
        log.record(
            &sched,
            1,
            due1 + Duration::from_millis(7),
            due1 + Duration::from_millis(9),
        );
        // Sent early (generator woke before due): lateness floors at 0.
        let due2 = sched.due(2);
        log.record(
            &sched,
            2,
            due2 - Duration::from_millis(1),
            due2 + Duration::from_millis(1),
        );
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let lat = &log.series.lat_ms;
        assert!(close(lat[0], 1.0));
        assert!(close(lat[1], 9.0));
        assert!(close(log.late_ms[1], 7.0));
        assert!(close(log.late_ms[2], 0.0));
        assert!(close(lat[2], 1.0));
        // Completion times count from the schedule's start.
        assert!(close(log.series.at_s[1], 0.014));
    }

    #[test]
    fn series_reads_medians_over_full_windows() {
        let mut s = Series::default();
        // Window 0: 10 ops of 1 ms; window 1: 10 ops of 50 ms; window 2: 20
        // ops of 2 ms; then a partial window that is ignored.
        for i in 0..10 {
            s.push(0.05 + f64::from(i) * 0.1, 1.0);
        }
        for i in 0..10 {
            s.push(1.05 + f64::from(i) * 0.1, 50.0);
        }
        for i in 0..20 {
            s.push(2.025 + f64::from(i) * 0.05, 2.0);
        }
        s.push(3.5, 1000.0);
        assert!((s.rate(1.0) - 10.0).abs() < 1e-9);
        assert_eq!(s.pct(0.5, 1.0), 2.0);
        assert_eq!(s.pct(0.99, 1.0), 2.0);
        // Shorter than one window: the whole series.
        let mut short = Series::default();
        short.push(0.25, 3.0);
        short.push(0.5, 5.0);
        assert_eq!(short.rate(1.0), 4.0);
        assert_eq!(short.pct(1.0, 1.0), 5.0);
    }

    fn snapshot(requests0: u64, rows: u64, shard_rows: [u64; 2], hwm: u64) -> ServerStats {
        let mut stats = ServerStats::default();
        stats.requests[0] = requests0;
        stats.latency = vec![HistogramSnapshot::default(); stats.requests.len()];
        stats.latency[0] = HistogramSnapshot {
            buckets: vec![(3, requests0)],
            count: requests0,
            sum: 5 * requests0,
        };
        stats.streams.push(StreamStats {
            name: "s".to_string(),
            rows_ingested: rows,
            requests: Default::default(),
            samples: vec![
                (
                    "uss_ingest_rows_total{stream=\"s\",shard=\"0\"}".to_string(),
                    shard_rows[0],
                ),
                (
                    "uss_ingest_rows_total{stream=\"s\",shard=\"1\"}".to_string(),
                    shard_rows[1],
                ),
                (
                    "uss_ring_occupancy_high_water{stream=\"s\",shard=\"0\"}".to_string(),
                    hwm,
                ),
                ("uss_temporal_late_rows_total{stream=\"s\"}".to_string(), 0),
            ],
        });
        stats
    }

    #[test]
    fn counter_deltas_subtract_per_family_and_shard() {
        let a = StatsView::of(&snapshot(2, 100, [60, 40], 3), "s");
        let b = StatsView::of(&snapshot(7, 400, [200, 200], 1), "s");
        let d = StatsDelta::between(&a, &b).unwrap();
        assert_eq!(d.requests[0], 5);
        assert_eq!(d.rows_ingested, 300);
        assert_eq!(d.family("uss_ingest_rows_total"), 300);
        assert_eq!(d.shards["uss_ingest_rows_total"][&0], 140);
        assert_eq!(d.shards["uss_ingest_rows_total"][&1], 160);
        // A gauge keeps its late value instead of a (negative) delta.
        assert_eq!(d.family("uss_ring_occupancy_high_water"), 1);
        assert_eq!(d.family("uss_temporal_late_rows_total"), 0);
        assert_eq!(d.latency[0].count, 5);
        assert_eq!(d.latency[0].buckets, vec![(3, 5)]);
        // Reversed snapshots are an error, not a silent zero.
        assert!(StatsDelta::between(&b, &a).is_err());
        // Another stream's view is empty.
        assert_eq!(
            StatsView::of(&snapshot(1, 1, [1, 0], 0), "t").rows_ingested,
            0
        );
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        // 10 values in bucket 4 ([8, 15]), 10 in bucket 5 ([16, 31]).
        let h = HistogramSnapshot {
            buckets: vec![(4, 10), (5, 10)],
            count: 20,
            sum: 400,
        };
        assert!((histogram_quantile(&h, 0.5) - 15.0).abs() < 1e-9);
        assert!((histogram_quantile(&h, 0.75) - 23.5).abs() < 1e-9);
        assert!((histogram_quantile(&h, 1.0) - 31.0).abs() < 1e-9);
        assert_eq!(histogram_quantile(&HistogramSnapshot::default(), 0.5), 0.0);
        let before = HistogramSnapshot {
            buckets: vec![(4, 4)],
            count: 4,
            sum: 40,
        };
        let d = histogram_delta(&before, &h).unwrap();
        assert_eq!(d.buckets, vec![(4, 6), (5, 10)]);
        assert_eq!(d.count, 16);
        assert!(histogram_delta(&h, &before).is_err());
    }

    #[test]
    fn ratio_reports_zero_on_an_empty_base() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
