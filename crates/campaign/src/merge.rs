//! Incremental coverage merging and saturation detection.
//!
//! Shard maps stream in as jobs finish. [`MergeTree`] folds each one into
//! a single running map. Because [`CoverageMap::merge`] is a saturating
//! sum — associative and commutative — the final map is bit-identical no
//! matter in which order shards arrive (the property the
//! parallel/sequential equivalence tests lean on).
//!
//! [`SaturationTracker`] watches the stream of per-shard maps for a
//! design and reports when `k` consecutive shards contributed no newly
//! hit cover point — the trigger for cancelling that design's remaining
//! jobs.

use rtlcov_core::CoverageMap;
use std::collections::HashSet;

/// Running merge over coverage shards.
#[derive(Debug, Default)]
pub struct MergeTree {
    merged: CoverageMap,
    inserted: usize,
}

impl MergeTree {
    /// An empty tree.
    pub fn new() -> Self {
        MergeTree::default()
    }

    /// Number of shards inserted so far.
    pub fn len(&self) -> usize {
        self.inserted
    }

    /// Whether any shard has been inserted.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Fold one shard into the running map.
    pub fn insert(&mut self, map: CoverageMap) {
        self.inserted += 1;
        self.merged.merge(&map);
    }

    /// The merge of every shard inserted so far.
    pub fn merged(&self) -> CoverageMap {
        self.merged.clone()
    }
}

/// Plateau detector: counts consecutive shards with no new coverage.
#[derive(Debug)]
pub struct SaturationTracker {
    covered: HashSet<String>,
    streak: usize,
    threshold: usize,
}

impl SaturationTracker {
    /// A tracker that saturates after `threshold` consecutive
    /// no-new-coverage shards. `threshold == 0` disables detection.
    pub fn new(threshold: usize) -> Self {
        SaturationTracker {
            covered: HashSet::new(),
            streak: 0,
            threshold,
        }
    }

    /// Feed one shard's map. Returns `true` if the shard hit at least one
    /// cover point never hit before (declared-but-zero keys don't count).
    pub fn observe(&mut self, map: &CoverageMap) -> bool {
        let mut fresh = false;
        for (name, count) in map.iter() {
            if count > 0 && !self.covered.contains(name) {
                self.covered.insert(name.to_string());
                fresh = true;
            }
        }
        if fresh {
            self.streak = 0;
        } else {
            self.streak += 1;
        }
        fresh
    }

    /// Whether the plateau threshold has been reached.
    pub fn saturated(&self) -> bool {
        self.threshold > 0 && self.streak >= self.threshold
    }

    /// Distinct cover points hit so far.
    pub fn covered_points(&self) -> usize {
        self.covered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(entries: &[(&str, u64)]) -> CoverageMap {
        let mut m = CoverageMap::new();
        for (k, v) in entries {
            m.record(*k, *v);
        }
        m
    }

    #[test]
    fn tree_matches_sequential_merge_for_any_count() {
        for n in 0..20u64 {
            let shards: Vec<CoverageMap> = (0..n)
                .map(|i| shard(&[("a", i), (&format!("k{}", i % 3), 1)]))
                .collect();
            let mut tree = MergeTree::new();
            let mut reference = CoverageMap::new();
            for s in &shards {
                tree.insert(s.clone());
                reference.merge(s);
            }
            assert_eq!(tree.merged(), reference, "n = {n}");
            assert_eq!(tree.len(), n as usize);
        }
    }

    #[test]
    fn tree_preserves_saturation() {
        let mut tree = MergeTree::new();
        tree.insert(shard(&[("x", u64::MAX - 1)]));
        tree.insert(shard(&[("x", 5)]));
        assert_eq!(tree.merged().count("x"), Some(u64::MAX));
    }

    #[test]
    fn tracker_plateaus_after_k_stale_shards() {
        let mut t = SaturationTracker::new(2);
        assert!(t.observe(&shard(&[("a", 3)])));
        assert!(!t.saturated());
        // same key again: stale
        assert!(!t.observe(&shard(&[("a", 9)])));
        assert!(!t.saturated());
        // new key resets the streak
        assert!(t.observe(&shard(&[("b", 1)])));
        assert!(!t.observe(&shard(&[("a", 1)])));
        assert!(!t.saturated());
        assert!(!t.observe(&shard(&[("b", 2)])));
        assert!(t.saturated());
        assert_eq!(t.covered_points(), 2);
    }

    #[test]
    fn declared_but_unhit_points_do_not_count_as_coverage() {
        let mut t = SaturationTracker::new(1);
        let mut m = CoverageMap::new();
        m.declare("never");
        assert!(!t.observe(&m));
        assert!(t.saturated());
    }

    #[test]
    fn zero_threshold_never_saturates() {
        let mut t = SaturationTracker::new(0);
        for _ in 0..50 {
            t.observe(&CoverageMap::new());
        }
        assert!(!t.saturated());
    }
}
