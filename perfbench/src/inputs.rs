//! Seeded input generation and the generator's ground truth.
//!
//! Rows are `(item, ts)` with `ts` the global row index, so with a bucket
//! width of 1000 fine buckets rotate inside every 4096-row batch. A quarter of
//! the rows go to 16 heavy items (about 1.6% of rows each, the item set the
//! `bench_server` binary's generator produces); the rest spread over 50k tail
//! items. Item columns for a pool of batches are generated up front; a run
//! cycles through the pool and only stamps the timestamp column of a reused
//! buffer before each send, so the program always receives ready inputs.
//! Batch `k` carries rows `k * 4096 ..`, so every producer that continues
//! the batch index keeps timestamps increasing and no row arrives late.

use uss_core::persist::TemporalMeta;

/// Rows per `Ingest` request.
pub const BATCH_ROWS: usize = 4096;
/// Distinct item columns generated per run (1M rows).
pub const POOL_BATCHES: usize = 256;
/// The heavy items: every fourth id below 64.
pub const HEAVY: [u64; 16] = [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60];
/// First tail item id.
pub const TAIL_BASE: u64 = 1_000;
/// Number of tail items.
pub const TAIL_ITEMS: u64 = 50_000;
/// Time units per fine bucket (one row per time unit).
pub const BUCKET_WIDTH: u64 = 1_000;
/// The stream every workload uses.
pub const STREAM: &str = "bench";

/// The stream geometry of `bench_server`, with one shard per core of a
/// 2-core host.
pub fn spec(seed: u64) -> TemporalMeta {
    TemporalMeta {
        shards: 2,
        capacity: 1_024,
        seed,
        bucket_width: BUCKET_WIDTH,
        fine_buckets: 64,
        tier_factor: 4,
        tiers: 2,
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The item of row `i` under `seed`.
pub fn item_at(seed: u64, i: u64) -> u64 {
    let x = splitmix64(splitmix64(seed) ^ i);
    let r = x >> 2;
    if x & 3 == 0 {
        HEAVY[(r % 16) as usize]
    } else {
        TAIL_BASE + r % TAIL_ITEMS
    }
}

/// The pre-generated item columns of one run.
pub struct Inputs {
    pool: Vec<Vec<u64>>,
}

impl Inputs {
    /// Generates the pool for `seed`.
    pub fn new(seed: u64) -> Self {
        let pool = (0..POOL_BATCHES)
            .map(|b| {
                let base = (b * BATCH_ROWS) as u64;
                (0..BATCH_ROWS as u64)
                    .map(|i| item_at(seed, base + i))
                    .collect()
            })
            .collect();
        Self { pool }
    }

    /// The item column of global batch `k`.
    pub fn items(&self, k: u64) -> &[u64] {
        &self.pool[(k % POOL_BATCHES as u64) as usize]
    }

    /// Writes global batch `k` (items plus `ts` = global row index) into
    /// `buf`.
    pub fn fill(&self, k: u64, buf: &mut Vec<(u64, u64)>) {
        let base = k * BATCH_ROWS as u64;
        buf.clear();
        buf.extend(
            self.items(k)
                .iter()
                .enumerate()
                .map(|(i, &item)| (item, base + i as u64)),
        );
    }

    /// Exact per-item counts over global batches `0..batches`, indexed by
    /// item id.
    pub fn counts(&self, batches: u64) -> Vec<u64> {
        let mut counts = vec![0u64; (TAIL_BASE + TAIL_ITEMS) as usize];
        let cycles = batches / POOL_BATCHES as u64;
        let rest = (batches % POOL_BATCHES as u64) as usize;
        for (b, column) in self.pool.iter().enumerate() {
            let times = cycles + u64::from(b < rest);
            if times > 0 {
                for &item in column {
                    counts[item as usize] += times;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_sequence_and_keeps_the_mix() {
        let a: Vec<u64> = (0..1000).map(|i| item_at(1, i)).collect();
        let b: Vec<u64> = (0..1000).map(|i| item_at(2, i)).collect();
        assert_ne!(a, b);
        assert_eq!(a, (0..1000).map(|i| item_at(1, i)).collect::<Vec<_>>());
        let inputs = Inputs::new(3);
        let mut buf = Vec::new();
        inputs.fill(POOL_BATCHES as u64, &mut buf);
        assert_eq!(
            buf[0],
            (inputs.items(0)[0], (POOL_BATCHES * BATCH_ROWS) as u64)
        );
        assert_eq!(
            buf[BATCH_ROWS - 1].1,
            ((POOL_BATCHES + 1) * BATCH_ROWS - 1) as u64
        );
        let counts = inputs.counts(300);
        let rows = 300 * BATCH_ROWS as u64;
        assert_eq!(counts.iter().sum::<u64>(), rows);
        let heavy: u64 = HEAVY.iter().map(|&h| counts[h as usize]).sum();
        let share = heavy as f64 / rows as f64;
        assert!((share - 0.25).abs() < 0.01, "heavy share {share}");
        for &h in &HEAVY {
            let s = counts[h as usize] as f64 / rows as f64;
            assert!((s - 1.0 / 64.0).abs() < 0.002, "item {h} share {s}");
        }
    }
}
