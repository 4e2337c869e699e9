//! Differential test of the query layer: every query the database answers
//! in name-id space equals the same query over a plain
//! `CoverageMap::merge` fold of the selected runs — before and after a
//! second handle commits runs with new names and the first one refreshes
//! (cached segment entries plus a grown name table).

use proptest::prelude::*;
use proptest::TestCaseResult;
use rtlcov_core::CoverageMap;
use rtlcov_db::query::instance_of;
use rtlcov_db::{CoverageDb, DiffEntry, RollupRow, RunKey, Selector};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const DESIGNS: [&str; 3] = ["gcd", "queue", "serv"];
const BACKENDS: [&str; 2] = ["interp", "essent"];
/// Names the first handle's runs draw from.
const POOL: [&str; 8] = [
    "top.a",
    "top.b",
    "top.u0.c",
    "top.u0.d",
    "top.u1.e",
    "solo",
    "top.u1.sub.f",
    "other",
];
/// Names only the second handle's runs use.
const LATE: [&str; 3] = ["late.x", "top.u0.late", "zz"];
const NEVER_INTERNED: &str = "never.interned";

/// `(design, backend, [(name, count class, small)])` per run.
type RunSpec = Vec<(usize, usize, Vec<(usize, u8, u64)>)>;
/// `(design or none, backend or none, since or none)` per selector.
type SelSpec = Vec<(usize, usize, u64)>;

/// A count drawn from 0, small values and values near `u64::MAX`.
fn count(class: u8, small: u64) -> u64 {
    match class {
        0 => 0,
        1 => small + 1,
        2 => u64::MAX - small,
        _ => u64::MAX,
    }
}

fn selector(&(design, backend, since): &(usize, usize, u64)) -> Selector {
    Selector {
        design: DESIGNS.get(design).map(|d| d.to_string()),
        backend: BACKENDS.get(backend).map(|b| b.to_string()),
        since: (since < 10).then_some(since),
        ..Selector::default()
    }
}

/// The committed runs, kept outside the database.
#[derive(Default)]
struct Model {
    runs: Vec<(u64, RunKey, CoverageMap)>,
}

impl Model {
    fn ingest(&mut self, db: &mut CoverageDb, spec: &RunSpec, names: &[&str], tag: &str) {
        for (i, (design, backend, entries)) in spec.iter().enumerate() {
            let key = RunKey {
                design: DESIGNS[*design].into(),
                workload: format!("{tag}{i}"),
                backend: BACKENDS[*backend].into(),
                label: "prop".into(),
            };
            let mut map = CoverageMap::new();
            for &(name, class, small) in entries {
                map.record(names[name % names.len()], count(class, small));
            }
            let out = db.ingest(&key, &map).expect("ingest");
            assert!(!out.deduplicated, "every run has its own key");
            self.runs.push((out.id, key, map));
        }
    }

    fn selected<'a>(
        &'a self,
        sel: &'a Selector,
    ) -> impl Iterator<Item = &'a (u64, RunKey, CoverageMap)> {
        let field = |want: &Option<String>, have: &str| want.as_deref().is_none_or(|w| w == have);
        self.runs.iter().filter(move |(id, key, _)| {
            field(&sel.design, &key.design)
                && field(&sel.backend, &key.backend)
                && sel.since.is_none_or(|t| *id >= t)
        })
    }

    fn fold(&self, sel: &Selector) -> CoverageMap {
        let mut out = CoverageMap::new();
        for (_, _, map) in self.selected(sel) {
            out.merge(map);
        }
        out
    }
}

fn diff(a: &CoverageMap, b: &CoverageMap) -> Vec<DiffEntry> {
    let mut out: Vec<DiffEntry> = a
        .iter()
        .filter(|&(name, ca)| b.count(name) != Some(ca))
        .map(|(name, ca)| DiffEntry {
            name: name.into(),
            a: Some(ca),
            b: b.count(name),
        })
        .collect();
    out.extend(
        b.iter()
            .filter(|(name, _)| !a.contains(name))
            .map(|(name, cb)| DiffEntry {
                name: name.into(),
                a: None,
                b: Some(cb),
            }),
    );
    out.sort_by(|x, y| x.name.cmp(&y.name));
    out
}

fn rollup(map: &CoverageMap) -> BTreeMap<String, RollupRow> {
    let mut rows: BTreeMap<String, RollupRow> = BTreeMap::new();
    for (name, count) in map.iter() {
        let row = rows.entry(instance_of(name).to_string()).or_default();
        row.points += 1;
        row.covered += u64::from(count > 0);
        row.hits = row.hits.saturating_add(count);
    }
    rows
}

/// Every query of `db` against the model's fold, for every selector.
fn check(db: &CoverageDb, model: &Model, selectors: &SelSpec) -> TestCaseResult {
    let everything = model.fold(&Selector::all());
    for spec in selectors {
        let sel = selector(spec);
        let fold = model.fold(&sel);
        let ids: Vec<u64> = model.selected(&sel).map(|(id, _, _)| *id).collect();
        prop_assert_eq!(db.select(&sel), ids, "select {:?}", sel);
        prop_assert_eq!(&*db.merged(&sel).unwrap(), &fold, "merged {:?}", sel);
        // known in the selection, known only outside it, never interned
        for name in POOL.iter().chain(&LATE).chain([&NEVER_INTERNED]) {
            prop_assert_eq!(
                db.point(&sel, name).unwrap(),
                fold.count(name),
                "point {} {:?} (declared anywhere: {})",
                name,
                sel,
                everything.contains(name)
            );
        }
        let holes: Vec<String> = fold
            .iter()
            .filter(|&(_, c)| c == 0)
            .map(|(n, _)| n.to_string())
            .collect();
        prop_assert_eq!(db.holes(&sel).unwrap(), holes, "holes {:?}", sel);
        prop_assert_eq!(db.rollup(&sel).unwrap(), rollup(&fold), "rollup {:?}", sel);
        for other in selectors {
            let other_sel = selector(other);
            prop_assert_eq!(
                db.diff(&sel, &other_sel).unwrap(),
                diff(&fold, &model.fold(&other_sel)),
                "diff {:?} vs {:?}",
                sel,
                other_sel
            );
        }
    }
    Ok(())
}

fn scratch() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rtlcov-query-diff-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn id_space_queries_equal_a_plain_fold(
        first in prop::collection::vec(
            (0usize..3, 0usize..2, prop::collection::vec((0usize..8, 0u8..4, 0u64..4), 0..10)),
            1..8,
        ),
        later in prop::collection::vec(
            (0usize..3, 0usize..2, prop::collection::vec((0usize..11, 0u8..4, 0u64..4), 0..10)),
            1..5,
        ),
        selectors in prop::collection::vec((0usize..4, 0usize..3, 0u64..16), 1..5),
    ) {
        let dir = scratch();
        let mut reader = CoverageDb::open(&dir).unwrap();
        let mut model = Model::default();
        model.ingest(&mut reader, &first, &POOL, "s");
        check(&reader, &model, &selectors)?;

        // another handle commits runs with new names; the reader keeps
        // its cached entries and picks up the grown name table
        let all_names: Vec<&str> = POOL.iter().chain(&LATE).copied().collect();
        let mut writer = CoverageDb::open(&dir).unwrap();
        model.ingest(&mut writer, &later, &all_names, "l");
        prop_assert!(reader.refresh().unwrap(), "the writer's commit is new");
        check(&reader, &model, &selectors)?;
        check(&CoverageDb::open(&dir).unwrap(), &model, &selectors)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
