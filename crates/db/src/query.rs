//! The query layer: run selection, merged maps, point lookups, holes,
//! diffs, and per-instance rollups.
//!
//! Every query starts from a [`Selector`] — a conjunction of optional
//! filters over the run key plus a logical-time lower bound — resolves it
//! to an ordered segment-id set, and works in name-id space: the selected
//! segments' cached `(name-id, count)` entries are saturating-added into
//! one dense per-id vector, and names are resolved only for the rows a
//! query returns. `point` needs no vector at all: it binary-searches one
//! id in each selected segment. Results are bit-identical to folding the
//! raw run maps with [`CoverageMap::merge`], the §5.3 merge the whole
//! system is built on.

use crate::manifest::RunInfo;
use crate::store::{CoverageDb, DbError};
use rtlcov_core::CoverageMap;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A conjunction of run filters. `None` fields match everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Selector {
    /// Match this design.
    pub design: Option<String>,
    /// Match this workload.
    pub workload: Option<String>,
    /// Match this backend.
    pub backend: Option<String>,
    /// Match this label.
    pub label: Option<String>,
    /// Only runs with logical time ≥ this.
    pub since: Option<u64>,
}

impl Selector {
    /// The match-everything selector.
    pub fn all() -> Self {
        Selector::default()
    }

    /// Whether a committed run matches.
    pub fn matches(&self, run: &RunInfo) -> bool {
        let field = |want: &Option<String>, have: &str| want.as_deref().is_none_or(|w| w == have);
        field(&self.design, &run.key.design)
            && field(&self.workload, &run.key.workload)
            && field(&self.backend, &run.key.backend)
            && field(&self.label, &run.key.label)
            && self.since.is_none_or(|t| run.id >= t)
    }

    /// Parse a comma-separated `key=value` list (`design=gcd,label=x`).
    /// Empty input selects everything.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown keys or malformed pairs.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut sel = Selector::default();
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("selector `{pair}` is not key=value"))?;
            match k {
                "design" => sel.design = Some(v.to_string()),
                "workload" => sel.workload = Some(v.to_string()),
                "backend" => sel.backend = Some(v.to_string()),
                "label" => sel.label = Some(v.to_string()),
                "since" => sel.since = Some(v.parse().map_err(|_| format!("bad since `{v}`"))?),
                other => return Err(format!("unknown selector key `{other}`")),
            }
        }
        Ok(sel)
    }
}

/// One name whose counts differ between two run sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// Cover-point name.
    pub name: String,
    /// Merged count in set A (`None` when the point is unknown there).
    pub a: Option<u64>,
    /// Merged count in set B.
    pub b: Option<u64>,
}

/// Aggregated coverage for one instance path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RollupRow {
    /// Cover points under the instance.
    pub points: u64,
    /// Points hit at least once.
    pub covered: u64,
    /// Saturating sum of all hits.
    pub hits: u64,
}

/// The instance path of a hierarchical cover name: everything before the
/// final `.` segment, following `rtlcov_core::instances`' convention
/// that a cover declared as `name` in an instance at `path` runs as
/// `path.name`. Top-level covers roll up under `"<top>"`.
pub fn instance_of(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((path, _)) => path,
        None => "<top>",
    }
}

/// The §5.3 saturating add into an optional merged count.
fn add(total: &mut Option<u64>, count: u64) {
    *total = Some(total.map_or(count, |t| t.saturating_add(count)));
}

impl CoverageDb {
    /// Segment ids matching `selector`, in logical-time order.
    pub fn select(&self, selector: &Selector) -> Vec<u64> {
        self.runs()
            .iter()
            .filter(|r| selector.matches(r))
            .map(|r| r.id)
            .collect()
    }

    /// The merged count of every name id over the segments `ids`; `None`
    /// for a name no selected run declares.
    fn counts(&self, ids: &[u64]) -> Result<Vec<Option<u64>>, DbError> {
        let mut counts = vec![None; self.interned_names()];
        for &id in ids {
            for &(name, count) in self.entries(id)?.iter() {
                add(&mut counts[name as usize], count);
            }
        }
        Ok(counts)
    }

    /// `(name id, row)` pairs with their ids resolved, sorted by name.
    fn by_name<T>(&self, rows: impl Iterator<Item = (usize, T)>) -> Vec<(&str, T)> {
        let mut rows: Vec<(&str, T)> = rows.map(|(id, row)| (self.name(id as u32), row)).collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// Every name the segments `ids` declare with its merged count, in
    /// name order.
    pub(crate) fn merged_rows(&self, ids: &[u64]) -> Result<Vec<(&str, u64)>, DbError> {
        let counts = self.counts(ids)?;
        Ok(self.by_name(
            counts
                .into_iter()
                .enumerate()
                .filter_map(|(id, count)| Some((id, count?))),
        ))
    }

    /// The merged map of every selected run.
    ///
    /// # Errors
    ///
    /// [`DbError`] when a segment fails to load; the first failure wins.
    pub fn merged(&self, selector: &Selector) -> Result<Arc<CoverageMap>, DbError> {
        self.merged_ids(&self.select(selector))
    }

    /// The merged map of an explicit id set (logical-time order).
    ///
    /// # Errors
    ///
    /// [`DbError`] when a segment fails to load.
    pub fn merged_ids(&self, ids: &[u64]) -> Result<Arc<CoverageMap>, DbError> {
        let rows = self.merged_rows(ids)?;
        Ok(Arc::new(
            rows.into_iter().map(|(n, c)| (n.to_string(), c)).collect(),
        ))
    }

    /// The merged count of one cover point across the selected runs
    /// (`None` when no selected run declares it).
    ///
    /// # Errors
    ///
    /// [`DbError`] when a segment fails to load.
    pub fn point(&self, selector: &Selector, name: &str) -> Result<Option<u64>, DbError> {
        let name_id = self.interner.lookup(name);
        let mut total = None;
        for id in self.select(selector) {
            let entries = self.entries(id)?;
            let Some(name_id) = name_id else { continue };
            if let Ok(i) = entries.binary_search_by_key(&name_id, |&(n, _)| n) {
                add(&mut total, entries[i].1);
            }
        }
        Ok(total)
    }

    /// Cover points no selected run has ever hit — the paper's candidates
    /// for directed tests or formal reachability checks — in name order.
    ///
    /// # Errors
    ///
    /// [`DbError`] when a segment fails to load.
    pub fn holes(&self, selector: &Selector) -> Result<Vec<String>, DbError> {
        let counts = self.counts(&self.select(selector))?;
        let holes = counts
            .into_iter()
            .enumerate()
            .filter(|(_, c)| *c == Some(0));
        Ok(self
            .by_name(holes)
            .into_iter()
            .map(|(name, _)| name.to_string())
            .collect())
    }

    /// Names whose merged counts differ between run sets `a` and `b`
    /// (including points known to only one side), in name order.
    ///
    /// # Errors
    ///
    /// [`DbError`] when a segment fails to load.
    pub fn diff(&self, a: &Selector, b: &Selector) -> Result<Vec<DiffEntry>, DbError> {
        let ca = self.counts(&self.select(a))?;
        let cb = self.counts(&self.select(b))?;
        let differ = ca
            .into_iter()
            .zip(cb)
            .enumerate()
            .filter(|(_, (a, b))| a != b);
        Ok(self
            .by_name(differ)
            .into_iter()
            .map(|(name, (a, b))| DiffEntry {
                name: name.to_string(),
                a,
                b,
            })
            .collect())
    }

    /// Per-instance rollup of the merged selection: group every cover
    /// point by its instance path ([`instance_of`]) and aggregate.
    ///
    /// # Errors
    ///
    /// [`DbError`] when a segment fails to load.
    pub fn rollup(&self, selector: &Selector) -> Result<BTreeMap<String, RollupRow>, DbError> {
        let counts = self.counts(&self.select(selector))?;
        let mut rows: BTreeMap<String, RollupRow> = BTreeMap::new();
        for (id, count) in counts.into_iter().enumerate() {
            let Some(count) = count else { continue };
            let instance = instance_of(self.name(id as u32));
            let row = match rows.get_mut(instance) {
                Some(row) => row,
                None => rows.entry(instance.to_string()).or_default(),
            };
            row.points += 1;
            if count > 0 {
                row.covered += 1;
            }
            row.hits = row.hits.saturating_add(count);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::RunKey;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtlcov-query-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn map(entries: &[(&str, u64)]) -> CoverageMap {
        let mut m = CoverageMap::new();
        for (k, v) in entries {
            m.record(*k, *v);
        }
        m
    }

    fn key(design: &str, workload: &str, backend: &str) -> RunKey {
        RunKey {
            design: design.into(),
            workload: workload.into(),
            backend: backend.into(),
            label: "t".into(),
        }
    }

    fn seeded(tag: &str) -> (CoverageDb, PathBuf) {
        let dir = tmp(tag);
        let mut db = CoverageDb::open(&dir).unwrap();
        db.ingest(
            &key("gcd", "s0", "interp"),
            &map(&[("m.a", 2), ("m.b", 0), ("n.c", 1)]),
        )
        .unwrap();
        db.ingest(
            &key("gcd", "s1", "interp"),
            &map(&[("m.a", 3), ("m.b", 0), ("n.c", 0)]),
        )
        .unwrap();
        db.ingest(&key("queue", "s0", "fpga"), &map(&[("q.x", 5), ("top", 0)]))
            .unwrap();
        (db, dir)
    }

    #[test]
    fn selector_parsing_and_matching() {
        let sel = Selector::parse("design=gcd,backend=interp,since=1").unwrap();
        assert_eq!(sel.design.as_deref(), Some("gcd"));
        assert_eq!(sel.since, Some(1));
        assert!(Selector::parse("").unwrap() == Selector::all());
        assert!(Selector::parse("nope=1").is_err());
        assert!(Selector::parse("design").is_err());
        assert!(Selector::parse("since=x").is_err());
    }

    #[test]
    fn merged_matches_direct_fold_and_select_filters() {
        let (db, dir) = seeded("merged");
        let all = db.merged(&Selector::all()).unwrap();
        let mut expect = map(&[("m.a", 5), ("m.b", 0), ("n.c", 1)]);
        expect.merge(&map(&[("q.x", 5), ("top", 0)]));
        assert_eq!(*all, expect);
        let gcd = db.merged(&Selector::parse("design=gcd").unwrap()).unwrap();
        assert_eq!(*gcd, map(&[("m.a", 5), ("m.b", 0), ("n.c", 1)]));
        let since = db.select(&Selector::parse("since=2").unwrap());
        assert_eq!(since, vec![2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn holes_and_point() {
        let (db, dir) = seeded("holes");
        let gcd = Selector::parse("design=gcd").unwrap();
        assert_eq!(db.holes(&gcd).unwrap(), vec!["m.b".to_string()]);
        assert_eq!(db.point(&gcd, "m.a").unwrap(), Some(5));
        assert_eq!(db.point(&gcd, "q.x").unwrap(), None);
        // n.c is a hole in shard s1 alone but not overall
        let s1 = Selector::parse("design=gcd,workload=s1").unwrap();
        assert!(db.holes(&s1).unwrap().contains(&"n.c".to_string()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diff_reports_changed_and_one_sided_points() {
        let (db, dir) = seeded("diff");
        let s0 = Selector::parse("design=gcd,workload=s0").unwrap();
        let s1 = Selector::parse("design=gcd,workload=s1").unwrap();
        let diff = db.diff(&s0, &s1).unwrap();
        assert_eq!(
            diff,
            vec![
                DiffEntry {
                    name: "m.a".into(),
                    a: Some(2),
                    b: Some(3)
                },
                DiffEntry {
                    name: "n.c".into(),
                    a: Some(1),
                    b: Some(0)
                },
            ]
        );
        // against queue: everything is one-sided
        let q = Selector::parse("design=queue").unwrap();
        let dq = db.diff(&s0, &q).unwrap();
        assert!(dq.iter().any(|d| d.name == "q.x" && d.a.is_none()));
        assert!(dq.iter().any(|d| d.name == "m.a" && d.b.is_none()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollup_groups_by_instance_path() {
        let (db, dir) = seeded("rollup");
        let rows = db.rollup(&Selector::all()).unwrap();
        assert_eq!(
            rows["m"],
            RollupRow {
                points: 2,
                covered: 1,
                hits: 5
            }
        );
        assert_eq!(
            rows["n"],
            RollupRow {
                points: 1,
                covered: 1,
                hits: 1
            }
        );
        assert_eq!(
            rows["q"],
            RollupRow {
                points: 1,
                covered: 1,
                hits: 5
            }
        );
        assert_eq!(
            rows["<top>"],
            RollupRow {
                points: 1,
                covered: 0,
                hits: 0
            }
        );
        assert_eq!(instance_of("a.b.c"), "a.b");
        assert_eq!(instance_of("solo"), "<top>");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_queries_hit_the_memo() {
        let (db, dir) = seeded("cache");
        let cold = CoverageDb::open(&dir).unwrap();
        let sel = Selector::all();
        let first = cold.merged(&sel).unwrap();
        assert_eq!(cold.memo_stats(), (0, 3), "three segments read from disk");
        assert_eq!(cold.merged(&sel).unwrap(), first);
        assert_eq!(cold.memo_stats(), (3, 3), "the repeat reads nothing");
        // ingest caches the entries it wrote
        db.merged(&sel).unwrap();
        assert_eq!(db.memo_stats(), (3, 0));
        fs::remove_dir_all(&dir).unwrap();
    }
}
