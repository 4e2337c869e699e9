//! The query phase: a seeded mix of db operations, an independent model
//! of the stored runs to check answers against, and a minimal HTTP client.

use crate::util::Rng;
use crate::workloads::INGEST_EVERY;
use rtlcov_core::json::{self, Json};
use rtlcov_core::CoverageMap;
use rtlcov_db::query::instance_of;
use rtlcov_db::{CoverageDb, DbError, RunKey, Selector};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The committed runs, to check answers against: decoded once through a
/// handle separate from the server's, then grown by the client's ingests.
#[derive(Debug, Default)]
pub struct Model {
    runs: Vec<(u64, RunKey, CoverageMap)>,
}

impl Model {
    pub fn add(&mut self, id: u64, key: RunKey, map: CoverageMap) {
        self.runs.push((id, key, map));
    }

    /// Every committed run, decoded through `segment_map` on the given
    /// handle (not the one under test).
    pub fn from_db(db: &CoverageDb) -> Result<Model, DbError> {
        let mut model = Model::default();
        for run in db.runs() {
            let map = db.segment_map(run.id)?;
            model.add(run.id, run.key.clone(), (*map).clone());
        }
        Ok(model)
    }

    fn matches(sel: &Selector, id: u64, key: &RunKey) -> bool {
        let field = |want: &Option<String>, have: &str| want.as_deref().is_none_or(|w| w == have);
        field(&sel.design, &key.design)
            && field(&sel.workload, &key.workload)
            && field(&sel.backend, &key.backend)
            && field(&sel.label, &key.label)
            && sel.since.is_none_or(|t| id >= t)
    }

    fn selected_ids(&self, sel: &Selector) -> Vec<u64> {
        self.runs
            .iter()
            .filter(|(id, key, _)| Self::matches(sel, *id, key))
            .map(|(id, _, _)| *id)
            .collect()
    }

    /// Direct `CoverageMap::merge` fold of the selected runs.
    pub fn merged(&self, sel: &Selector) -> CoverageMap {
        let mut out = CoverageMap::new();
        for (id, key, map) in &self.runs {
            if Self::matches(sel, *id, key) {
                out.merge(map);
            }
        }
        out
    }

    fn designs(&self) -> Vec<String> {
        let set: BTreeSet<&str> = self
            .runs
            .iter()
            .map(|(_, k, _)| k.design.as_str())
            .collect();
        set.into_iter().map(str::to_string).collect()
    }

    fn backends(&self) -> Vec<String> {
        let set: BTreeSet<&str> = self
            .runs
            .iter()
            .map(|(_, k, _)| k.backend.as_str())
            .collect();
        set.into_iter().map(str::to_string).collect()
    }

    fn design_map(&self, design: &str) -> Option<&CoverageMap> {
        self.runs
            .iter()
            .find(|(_, k, _)| k.design == design)
            .map(|(_, _, m)| m)
    }

    fn max_id(&self) -> u64 {
        self.runs.iter().map(|(id, _, _)| *id).max().unwrap_or(0)
    }
}

/// One operation of the closed-loop client.
#[derive(Debug, Clone)]
pub enum Op {
    Query(Selector),
    Point(Selector, String),
    Holes(Selector),
    Diff(Selector, Selector),
    Rollup(Selector),
    /// Ingest one seeded new run through the client's own db handle.
    Ingest(RunKey, CoverageMap),
}

/// One `/v1/diff` row: name and the merged count on each side.
type DiffRow = (String, Option<u64>, Option<u64>);

pub const QUERY_KINDS: [&str; 5] = ["merged", "point", "holes", "diff", "rollup"];

impl Op {
    /// Index into [`QUERY_KINDS`]; `None` for ingests.
    pub fn kind(&self) -> Option<usize> {
        match self {
            Op::Query(_) => Some(0),
            Op::Point(..) => Some(1),
            Op::Holes(_) => Some(2),
            Op::Diff(..) => Some(3),
            Op::Rollup(_) => Some(4),
            Op::Ingest(..) => None,
        }
    }

    /// `(path, query string)` of the HTTP request.
    pub fn target(&self) -> (&'static str, String) {
        match self {
            Op::Query(s) => ("/v1/query", params(s, "")),
            Op::Point(s, name) => {
                let mut q = params(s, "");
                if !q.is_empty() {
                    q.push('&');
                }
                q.push_str("name=");
                q.push_str(&encode(name));
                ("/v1/point", q)
            }
            Op::Holes(s) => ("/v1/holes", params(s, "")),
            Op::Diff(a, b) => {
                let (pa, pb) = (params(a, "a."), params(b, "b."));
                let sep = if pa.is_empty() || pb.is_empty() {
                    ""
                } else {
                    "&"
                };
                ("/v1/diff", format!("{pa}{sep}{pb}"))
            }
            Op::Rollup(s) => ("/v1/rollup", params(s, "")),
            Op::Ingest(..) => unreachable!("ingests are not HTTP requests"),
        }
    }

    /// Call the query layer directly (the traced run's view of a request).
    pub fn run_direct(&self, db: &CoverageDb) -> Result<(), DbError> {
        match self {
            Op::Query(s) => db.merged(s).map(drop),
            Op::Point(s, name) => db.point(s, name).map(drop),
            Op::Holes(s) => db.holes(s).map(drop),
            Op::Diff(a, b) => db.diff(a, b).map(drop),
            Op::Rollup(s) => db.rollup(s).map(drop),
            Op::Ingest(..) => unreachable!("ingests are not queries"),
        }
    }

    /// Check an HTTP answer body against the model's direct merge.
    pub fn check(&self, body: &str, model: &Model) -> Result<(), String> {
        let doc = json::parse(body).map_err(|e| format!("unparsable body: {e}"))?;
        let ok = match self {
            Op::Query(s) => {
                let expect = model.merged(s);
                let ids: Vec<u64> = model.selected_ids(s);
                let got_ids: Option<Vec<u64>> = doc
                    .get("selected")
                    .and_then(Json::as_array)
                    .map(|a| a.iter().filter_map(Json::as_u64).collect());
                got_ids == Some(ids) && counts_of(doc.get("counts")) == Some(map_counts(&expect))
            }
            Op::Point(s, name) => {
                let expect = model.merged(s).count(name);
                doc.get("count").map(Json::as_u64) == Some(expect)
            }
            Op::Holes(s) => {
                let expect: Vec<String> = model
                    .merged(s)
                    .iter()
                    .filter(|(_, c)| *c == 0)
                    .map(|(n, _)| n.to_string())
                    .collect();
                let got: Option<Vec<String>> = doc.get("holes").and_then(Json::as_array).map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                });
                got == Some(expect)
            }
            Op::Diff(a, b) => {
                let (ma, mb) = (model.merged(a), model.merged(b));
                let names: BTreeSet<&str> = ma.iter().chain(mb.iter()).map(|(n, _)| n).collect();
                let expect: Vec<DiffRow> = names
                    .into_iter()
                    .map(|n| (n.to_string(), ma.count(n), mb.count(n)))
                    .filter(|(_, ca, cb)| ca != cb)
                    .collect();
                let got: Option<Vec<DiffRow>> =
                    doc.get("diff").and_then(Json::as_array).map(|rows| {
                        rows.iter()
                            .map(|r| {
                                (
                                    r.get("name")
                                        .and_then(Json::as_str)
                                        .unwrap_or("")
                                        .to_string(),
                                    r.get("a").and_then(Json::as_u64),
                                    r.get("b").and_then(Json::as_u64),
                                )
                            })
                            .collect()
                    });
                got == Some(expect)
            }
            Op::Rollup(s) => {
                let mut expect: BTreeMap<String, [u64; 3]> = BTreeMap::new();
                for (name, count) in model.merged(s).iter() {
                    let row = expect.entry(instance_of(name).to_string()).or_default();
                    row[0] += 1;
                    row[1] += u64::from(count > 0);
                    row[2] = row[2].saturating_add(count);
                }
                let got: Option<BTreeMap<String, [u64; 3]>> =
                    doc.get("rollup").and_then(Json::as_object).map(|rows| {
                        rows.iter()
                            .map(|(inst, r)| {
                                let field =
                                    |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
                                (
                                    inst.clone(),
                                    [field("points"), field("covered"), field("hits")],
                                )
                            })
                            .collect()
                    });
                got == Some(expect)
            }
            Op::Ingest(..) => true,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{self:?} answered {} bytes that disagree with the direct merge",
                body.len()
            ))
        }
    }
}

fn map_counts(map: &CoverageMap) -> BTreeMap<String, u64> {
    map.iter().map(|(n, c)| (n.to_string(), c)).collect()
}

fn counts_of(value: Option<&Json>) -> Option<BTreeMap<String, u64>> {
    value?
        .as_object()?
        .iter()
        .map(|(n, c)| c.as_u64().map(|c| (n.clone(), c)))
        .collect()
}

fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"._-".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

fn params(sel: &Selector, prefix: &str) -> String {
    let mut parts = Vec::new();
    for (key, value) in [
        ("design", &sel.design),
        ("workload", &sel.workload),
        ("backend", &sel.backend),
        ("label", &sel.label),
    ] {
        if let Some(v) = value {
            parts.push(format!("{prefix}{key}={}", encode(v)));
        }
    }
    if let Some(t) = sel.since {
        parts.push(format!("{prefix}since={t}"));
    }
    parts.join("&")
}

/// The operation generator. The shape of the mix is a fixed rotation, so
/// every seed sends the same share of each kind, scope and filter: query
/// kinds cycle, designs cycle in a seeded order, one query in four is
/// unscoped, one in three filters by backend and one in seven by `since`.
/// Nothing in the repository fixes these shares; they are assumptions,
/// which is why latency is also reported per query kind. The seed picks
/// the design order, the filter values, the point names and the ingested
/// counts. Every [`INGEST_EVERY`]-th operation is an ingest.
pub struct Mix {
    rng: Rng,
    issued: usize,
    queries: usize,
    ingested: usize,
    order: Vec<String>,
    tag: String,
}

impl Mix {
    pub fn new(seed: u64, tag: String) -> Self {
        Mix {
            rng: Rng::new(seed),
            issued: 0,
            queries: 0,
            ingested: 0,
            order: Vec::new(),
            tag,
        }
    }

    fn selector(&mut self, model: &Model, design: Option<String>) -> Selector {
        let q = self.queries;
        let backends = model.backends();
        let backend = q
            .is_multiple_of(3)
            .then(|| self.rng.pick(&backends).clone());
        let since = q
            .is_multiple_of(7)
            .then(|| self.rng.below(model.max_id() as usize + 1) as u64);
        Selector {
            design,
            backend,
            since,
            ..Selector::default()
        }
    }

    pub fn next_op(&mut self, model: &Model) -> Op {
        if self.order.is_empty() {
            self.order = model.designs();
            for i in (1..self.order.len()).rev() {
                let j = self.rng.below(i + 1);
                self.order.swap(i, j);
            }
        }
        self.issued += 1;
        if self.issued.is_multiple_of(INGEST_EVERY) {
            self.ingested += 1;
            let design = self.order[self.ingested % self.order.len()].clone();
            let template = model
                .design_map(&design)
                .expect("every modelled design has a run");
            let mut map = CoverageMap::new();
            for (name, _) in template.iter() {
                map.declare_ref(name);
                map.record_ref(name, self.rng.below(4) as u64);
            }
            let backends = model.backends();
            let key = RunKey {
                design,
                workload: format!("{}-{}", self.tag, self.ingested),
                backend: self.rng.pick(&backends).clone(),
                label: "bench-ingest".into(),
            };
            return Op::Ingest(key, map);
        }
        let q = self.queries;
        let design = self.order[(q / 5) % self.order.len()].clone();
        let scoped = ((q / 5) % 4 != 3).then(|| design.clone());
        let op = match q % 5 {
            0 => Op::Query(self.selector(model, scoped)),
            1 => {
                let names: Vec<String> = model
                    .design_map(&design)
                    .map(|m| m.iter().map(|(n, _)| n.to_string()).collect())
                    .unwrap_or_default();
                let name = self.rng.pick(&names).clone();
                Op::Point(self.selector(model, Some(design)), name)
            }
            2 => Op::Holes(self.selector(model, scoped)),
            3 => {
                let a = self.selector(model, Some(design.clone()));
                let b = self.selector(model, Some(design));
                Op::Diff(a, b)
            }
            _ => Op::Rollup(self.selector(model, scoped)),
        };
        self.queries += 1;
        op
    }

    /// Whether the seeded sampler picks this answer for a full check.
    pub fn sample_check(&mut self) -> bool {
        self.rng.below(8) == 0
    }
}

/// One `GET` over a fresh loopback connection; returns `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str, query: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let target = if query.is_empty() {
        path.to_string()
    } else {
        format!("{path}?{query}")
    };
    stream.write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}
