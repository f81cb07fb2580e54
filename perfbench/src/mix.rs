//! The query mix every workload reads with.
//!
//! Request `j` takes its range from `j % 3` and its kind from `(j / 3) % 6`,
//! so all 18 range/kind pairs occur every 18 requests. Two thirds of the
//! requests read `All` or `LastBuckets(16)`, which the daemon's range cache
//! answers while the stream is unchanged. The other third read a `Between`
//! range that slides with `j`; it repeats only every 120 such requests, far
//! beyond the cache's 8 slots, so it always misses and folds through the
//! dyadic ladder.

use uss_core::{Query, TimeRange};

use crate::inputs::BUCKET_WIDTH;

/// Names of the request kinds, in mix order (five `Query` variants, then
/// keyed marginals).
pub const KIND_NAMES: [&str; 6] = [
    "subset_sum",
    "proportion",
    "top_k",
    "frequent_items",
    "rank_quantile",
    "marginals",
];
/// Marginals roll-up: `key = (item >> 3) & 0xFF`.
pub const MARGINAL_SHIFT: u8 = 3;
/// See [`MARGINAL_SHIFT`].
pub const MARGINAL_MASK: u64 = 0xFF;
/// Confidence of every interval answer.
pub const CONFIDENCE: f64 = 0.95;

/// One read request of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The range it reads.
    pub range: TimeRange,
    /// Index into [`KIND_NAMES`].
    pub kind: usize,
}

impl Op {
    /// The typed query, or `None` for keyed marginals.
    pub fn query(&self) -> Option<Query> {
        Some(match self.kind {
            0 => Query::SubsetSum {
                items: vec![4, 8, 1_000, 1_001],
            },
            1 => Query::Proportion {
                items: vec![4, 8, 1_000, 1_001],
            },
            2 => Query::TopK { k: 10 },
            3 => Query::FrequentItems { phi: 0.01 },
            4 => Query::RankQuantile { q: 0.5 },
            _ => return None,
        })
    }
}

/// Request `j` of the mix; `anchor_rows` is the newest row count the reader
/// has seen, which places the sliding `Between` window near the head.
pub fn op(j: u64, anchor_rows: u64) -> Op {
    let range = match j % 3 {
        0 => TimeRange::All,
        1 => TimeRange::LastBuckets(16),
        _ => {
            let m = j / 3;
            let newest = anchor_rows / BUCKET_WIDTH;
            let end = newest.saturating_sub(1 + m % 40);
            let start = end.saturating_sub(8 + m % 24);
            TimeRange::Between {
                start: start * BUCKET_WIDTH,
                end: end * BUCKET_WIDTH,
            }
        }
    };
    Op {
        range,
        kind: ((j / 3) % 6) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pair_occurs_and_between_never_repeats_within_the_cache() {
        let mut pairs = std::collections::BTreeSet::new();
        for j in 0..18 {
            let o = op(j, 2_000_000);
            pairs.insert((j % 3, o.kind));
        }
        assert_eq!(pairs.len(), 18);
        let between: Vec<TimeRange> = (0..3 * 130)
            .map(|j| op(j, 2_000_000))
            .filter(|o| matches!(o.range, TimeRange::Between { .. }))
            .map(|o| o.range)
            .collect();
        for (i, r) in between.iter().enumerate() {
            let recent = &between[i.saturating_sub(100)..i];
            assert!(
                !recent.contains(r),
                "Between range {r:?} repeats within 100"
            );
        }
        assert_eq!(
            op(0, 5).query(),
            Some(Query::SubsetSum {
                items: vec![4, 8, 1_000, 1_001]
            })
        );
        assert_eq!(op(15, 5).query(), None);
    }
}
