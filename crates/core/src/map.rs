//! The simulator-independent coverage interchange format.
//!
//! Every backend — software simulators, the FPGA host, the formal tool —
//! reports coverage as a [`CoverageMap`]: a map from the cover statement's
//! hierarchical name (instance path + name) to a saturating count. Because
//! the format is identical across backends, maps can be trivially merged
//! (§5.3 of the paper).

use crate::json::{self, Json, JsonError};
use std::collections::BTreeMap;
use std::fmt;

/// Map from hierarchical cover-point name to saturating hit count.
///
/// ```
/// use rtlcov_core::map::CoverageMap;
/// let mut sw = CoverageMap::new();
/// sw.record("core.fetch_taken", 7);
/// let mut fpga = CoverageMap::new();
/// fpga.record("core.fetch_taken", 3);
/// fpga.record("core.icache_miss", 1);
/// sw.merge(&fpga);
/// assert_eq!(sw.count("core.fetch_taken"), Some(10));
/// assert_eq!(sw.count("core.icache_miss"), Some(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    counts: BTreeMap<String, u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `count` additional hits for `name` (saturating).
    pub fn record(&mut self, name: impl Into<String>, count: u64) {
        let entry = self.counts.entry(name.into()).or_insert(0);
        *entry = entry.saturating_add(count);
    }

    /// Borrowed-key twin of [`CoverageMap::record`]: saturating-add
    /// `count` hits to `name`, allocating a `String` only when the point
    /// is new. Merge trees hit the same keys over and over, so the common
    /// case is a pure in-place update with no allocation.
    pub fn record_ref(&mut self, name: &str, count: u64) {
        if let Some(entry) = self.counts.get_mut(name) {
            *entry = entry.saturating_add(count);
        } else {
            self.counts.insert(name.to_string(), count);
        }
    }

    /// Borrowed-key twin of [`CoverageMap::declare`]: insert `name` with
    /// zero hits, allocating only when the point is new.
    pub fn declare_ref(&mut self, name: &str) {
        if !self.counts.contains_key(name) {
            self.counts.insert(name.to_string(), 0);
        }
    }

    /// Whether `name` is a known cover point (hit or not).
    pub fn contains(&self, name: &str) -> bool {
        self.counts.contains_key(name)
    }

    /// Declare a cover point with zero hits (so uncovered points appear in
    /// reports).
    pub fn declare(&mut self, name: impl Into<String>) {
        self.counts.entry(name.into()).or_insert(0);
    }

    /// The count for a cover point, if the point is known.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts.get(name).copied()
    }

    /// Number of known cover points.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no cover point is known.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Number of cover points with a non-zero count.
    pub fn covered(&self) -> usize {
        self.counts.values().filter(|&&c| c > 0).count()
    }

    /// Fraction of points covered, in `[0, 1]`; 1.0 for an empty map.
    pub fn coverage_fraction(&self) -> f64 {
        if self.counts.is_empty() {
            1.0
        } else {
            self.covered() as f64 / self.counts.len() as f64
        }
    }

    /// Merge another map into this one (saturating adds; §5.3). Keys
    /// already present are updated in place without cloning their name.
    pub fn merge(&mut self, other: &CoverageMap) {
        for (name, count) in &other.counts {
            self.record_ref(name, *count);
        }
    }

    /// Merge any number of maps into one (the campaign merge-tree
    /// primitive). Saturating addition is associative and commutative, so
    /// the result is independent of both grouping and order — the pairwise
    /// tree reduction here returns exactly what a sequential left fold
    /// would, while keeping the reduction depth logarithmic.
    pub fn merge_many(maps: &[&CoverageMap]) -> CoverageMap {
        match maps {
            [] => CoverageMap::new(),
            [only] => (*only).clone(),
            _ => {
                let (left, right) = maps.split_at(maps.len() / 2);
                let mut merged = Self::merge_many(left);
                merged.merge(&Self::merge_many(right));
                merged
            }
        }
    }

    /// Names of points covered at least `threshold` times — the candidates
    /// for removal before FPGA instrumentation (§5.3).
    pub fn covered_at_least(&self, threshold: u64) -> Vec<&str> {
        self.counts
            .iter()
            .filter(|(_, &c)| c >= threshold)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Iterate over `(name, count)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(n, &c)| (n.as_str(), c))
    }

    /// Serialize to the JSON interchange format:
    /// `{"counts": {"<name>": <count>, ...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counts\": {");
        for (i, (name, count)) in self.counts.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json::write_escaped(&mut out, name);
            out.push_str(": ");
            out.push_str(&count.to_string());
        }
        if !self.counts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}");
        out
    }

    /// Parse from the JSON interchange format.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input or a document that is
    /// not a `{"counts": {...}}` object with unsigned-integer counts.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let doc = json::parse(s)?;
        let counts = doc
            .get("counts")
            .and_then(Json::as_object)
            .ok_or_else(|| JsonError {
                message: "missing `counts` object".into(),
                offset: 0,
            })?;
        let mut map = CoverageMap::new();
        for (name, value) in counts {
            let count = value.as_u64().ok_or_else(|| JsonError {
                message: format!("count for `{name}` is not an unsigned integer"),
                offset: 0,
            })?;
            map.counts.insert(name.clone(), count);
        }
        Ok(map)
    }
}

impl FromIterator<(String, u64)> for CoverageMap {
    /// Builds the map in bulk: sorts the pairs by name (a no-op pass for
    /// name-sorted input) and saturating-adds repeated names, so the
    /// result equals `record`ing every pair in turn.
    fn from_iter<I: IntoIterator<Item = (String, u64)>>(iter: I) -> Self {
        let mut pairs: Vec<(String, u64)> = iter.into_iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.saturating_add(next.1);
            }
            same
        });
        CoverageMap {
            counts: pairs.into_iter().collect(),
        }
    }
}

impl Extend<(String, u64)> for CoverageMap {
    fn extend<I: IntoIterator<Item = (String, u64)>>(&mut self, iter: I) {
        for (n, c) in iter {
            self.record(n, c);
        }
    }
}

impl fmt::Display for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} / {} cover points hit", self.covered(), self.len())?;
        for (name, count) in &self.counts {
            writeln!(f, "  {name}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut m = CoverageMap::new();
        m.record("a", 2);
        m.record("a", 3);
        m.declare("b");
        assert_eq!(m.count("a"), Some(5));
        assert_eq!(m.count("b"), Some(0));
        assert_eq!(m.count("c"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.covered(), 1);
    }

    #[test]
    fn borrowed_key_apis_match_owned_ones() {
        let mut owned = CoverageMap::new();
        owned.record("a", 2);
        owned.record("a", 3);
        owned.declare("b");
        let mut borrowed = CoverageMap::new();
        borrowed.record_ref("a", 2);
        borrowed.record_ref("a", 3);
        borrowed.declare_ref("b");
        borrowed.declare_ref("b"); // idempotent
        assert_eq!(owned, borrowed);
        assert!(borrowed.contains("a"));
        assert!(borrowed.contains("b"));
        assert!(!borrowed.contains("c"));
        // declare_ref never resets an existing count
        borrowed.declare_ref("a");
        assert_eq!(borrowed.count("a"), Some(5));
        // record_ref saturates like record
        borrowed.record_ref("a", u64::MAX);
        assert_eq!(borrowed.count("a"), Some(u64::MAX));
    }

    #[test]
    fn record_saturates() {
        let mut m = CoverageMap::new();
        m.record("a", u64::MAX);
        m.record("a", 10);
        assert_eq!(m.count("a"), Some(u64::MAX));
    }

    #[test]
    fn merge_is_commutative_on_counts() {
        let mut a = CoverageMap::new();
        a.record("x", 1);
        a.record("y", 2);
        let mut b = CoverageMap::new();
        b.record("y", 3);
        b.record("z", 4);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count("y"), Some(5));
    }

    #[test]
    fn json_roundtrip() {
        let mut m = CoverageMap::new();
        m.record("top.cover_0", 42);
        m.declare("top.sub.cover_1");
        let m2 = CoverageMap::from_json(&m.to_json()).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn removal_threshold() {
        let mut m = CoverageMap::new();
        m.record("hot", 100);
        m.record("warm", 10);
        m.record("cold", 2);
        m.declare("never");
        let removable = m.covered_at_least(10);
        assert_eq!(removable, vec!["hot", "warm"]);
    }

    #[test]
    fn coverage_fraction() {
        let mut m = CoverageMap::new();
        assert_eq!(m.coverage_fraction(), 1.0);
        m.declare("a");
        m.record("b", 1);
        assert!((m.coverage_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn collect_from_iterator() {
        let m: CoverageMap = vec![("a".to_string(), 1), ("b".to_string(), 2)]
            .into_iter()
            .collect();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn collect_sums_repeated_names_saturating() {
        let pairs = [
            ("b", 2),
            ("a", 1),
            ("b", 3),
            ("c", u64::MAX),
            ("a", 0),
            ("c", 1),
        ];
        let collected: CoverageMap = pairs.iter().map(|&(n, c)| (n.to_string(), c)).collect();
        let mut recorded = CoverageMap::new();
        for (n, c) in pairs {
            recorded.record(n, c);
        }
        assert_eq!(collected, recorded);
        assert_eq!(collected.count("a"), Some(1));
        assert_eq!(collected.count("b"), Some(5));
        assert_eq!(collected.count("c"), Some(u64::MAX));
    }

    #[test]
    fn merge_many_equals_sequential_fold() {
        let mut a = CoverageMap::new();
        a.record("x", 1);
        a.declare("only_declared");
        let mut b = CoverageMap::new();
        b.record("x", 2);
        b.record("y", 5);
        let mut c = CoverageMap::new();
        c.record("y", u64::MAX); // saturates with b's 5
        let tree = CoverageMap::merge_many(&[&a, &b, &c]);
        let mut fold = CoverageMap::new();
        for m in [&a, &b, &c] {
            fold.merge(m);
        }
        assert_eq!(tree, fold);
        assert_eq!(tree.count("x"), Some(3));
        assert_eq!(tree.count("y"), Some(u64::MAX));
        assert_eq!(tree.count("only_declared"), Some(0));
    }

    #[test]
    fn merge_many_trivial_inputs() {
        assert_eq!(CoverageMap::merge_many(&[]), CoverageMap::new());
        let mut a = CoverageMap::new();
        a.record("x", 7);
        assert_eq!(CoverageMap::merge_many(&[&a]), a);
    }
}

#[cfg(test)]
mod merge_properties {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary maps over a small name alphabet so merges collide often.
    /// Zero counts exercise declared-but-unhit keys: `record(name, 0)`
    /// inserts the key with count 0, exactly like `declare`.
    fn build(entries: Vec<(String, u64)>) -> CoverageMap {
        let mut m = CoverageMap::new();
        for (name, count) in entries {
            m.record(name, count);
        }
        m
    }

    proptest! {
        #[test]
        fn merge_many_is_associative(
            ea in prop::collection::vec(("[a-e]{1,2}", 0u64..100), 0..10),
            eb in prop::collection::vec(("[a-e]{1,2}", 0u64..100), 0..10),
            ec in prop::collection::vec(("[a-e]{1,2}", 0u64..100), 0..10),
        ) {
            let (a, b, c) = (build(ea), build(eb), build(ec));
            // ((a ⊕ b) ⊕ c) == (a ⊕ (b ⊕ c)) == merge_many's tree shape
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c, &a_bc);
            prop_assert_eq!(&CoverageMap::merge_many(&[&a, &b, &c]), &ab_c);
        }

        #[test]
        fn merge_many_is_order_independent(
            ea in prop::collection::vec(("[a-e]{1,2}", 0u64..100), 0..10),
            eb in prop::collection::vec(("[a-e]{1,2}", 0u64..100), 0..10),
            ec in prop::collection::vec(("[a-e]{1,2}", 0u64..100), 0..10),
            ed in prop::collection::vec(("[a-e]{1,2}", 0u64..100), 0..10),
        ) {
            let maps = [build(ea), build(eb), build(ec), build(ed)];
            let refs: Vec<&CoverageMap> = maps.iter().collect();
            let forward = CoverageMap::merge_many(&refs);
            let reversed: Vec<&CoverageMap> = maps.iter().rev().collect();
            let backward = CoverageMap::merge_many(&reversed);
            let rotated: Vec<&CoverageMap> =
                maps.iter().skip(2).chain(maps.iter().take(2)).collect();
            let rotated = CoverageMap::merge_many(&rotated);
            prop_assert_eq!(&forward, &backward);
            prop_assert_eq!(&forward, &rotated);
            // every declared key survives, hit or not
            for m in &maps {
                for (name, count) in m.iter() {
                    let merged = forward.count(name);
                    prop_assert!(merged.is_some(), "key {} lost in merge", name);
                    prop_assert!(merged.unwrap_or(0) >= count.min(1));
                }
            }
        }

        #[test]
        fn merge_many_counts_sum_without_overflow(
            entries in prop::collection::vec(("[a-c]", 0u64..1000), 0..12),
            copies in 1usize..6,
        ) {
            let one = build(entries);
            let refs: Vec<&CoverageMap> = std::iter::repeat_n(&one, copies).collect();
            let merged = CoverageMap::merge_many(&refs);
            for (name, count) in one.iter() {
                prop_assert_eq!(merged.count(name), Some(count * copies as u64));
            }
        }
    }
}
