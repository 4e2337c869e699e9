//! Coverage-database benchmark: ingest throughput, cold vs warm
//! merge-query latency, and interning space savings.
//!
//! Builds a synthetic campaign — `RUNS` runs of `POINTS_PER_RUN` cover
//! points drawn from a shared hierarchical namespace, the shape a real
//! (design × shard × backend) campaign produces — ingests it into a
//! scratch database, and measures:
//!
//! 1. **ingest** — runs/s and points/s through the full crash-safe
//!    commit path (intern append, segment write, manifest rename);
//! 2. **query** — the same full-merge query cold (a fresh handle reads
//!    and verifies every segment), warm (every segment's entries already
//!    cached), and after one incremental ingest (which caches the new
//!    segment's entries), with the segment-cache hits and disk loads;
//! 3. **interning** — bytes of name text stored once in the name table
//!    versus once per run without interning.
//!
//! Writes `BENCH_db.json` (or `$1`) and prints the same numbers. Times
//! are integer microseconds and ratios are permille, because the
//! workspace's mini-JSON is integer-only by design.

use rtlcov_bench::{micros, obj, per_second};
use rtlcov_core::json::Json;
use rtlcov_core::CoverageMap;
use rtlcov_db::{CoverageDb, RunKey, Selector};
use std::time::Instant;

const RUNS: u64 = 64;
const POINTS_PER_RUN: u64 = 2000;
const MODULES: u64 = 16;

/// The synthetic map of one run: a contiguous window into the shared
/// namespace, so consecutive runs overlap heavily (as real shards of one
/// design do) while still introducing fresh names.
fn run_map(run: u64) -> CoverageMap {
    let mut map = CoverageMap::new();
    for i in 0..POINTS_PER_RUN {
        let point = run * (POINTS_PER_RUN / 4) + i; // 75% overlap with the previous run
        let name = format!(
            "top.core{}.pipeline.stage{}.cover_{point}",
            point % MODULES,
            point % 5
        );
        map.record(name, (run + point) % 17);
    }
    map
}

fn key(run: u64) -> RunKey {
    RunKey {
        design: "synthetic".into(),
        workload: format!("s{run}"),
        backend: "interp".into(),
        label: "bench".into(),
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_db.json".into());
    let dir = std::env::temp_dir().join(format!("rtlcov-bench-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. ingest throughput
    let maps: Vec<CoverageMap> = (0..RUNS).map(run_map).collect();
    let mut db = CoverageDb::open(&dir).expect("open scratch db");
    let start = Instant::now();
    for (run, map) in maps.iter().enumerate() {
        db.ingest(&key(run as u64), map).expect("ingest");
    }
    let ingest_us = micros(start);
    let total_points: u64 = maps.iter().map(|m| m.len() as u64).sum();

    // 2. query latency: cold (fresh process state), repeated, incremental
    let db = CoverageDb::open(&dir).expect("reopen");
    let everything = Selector::all();
    let start = Instant::now();
    let cold = db.merged(&everything).expect("cold query");
    let cold_us = micros(start);
    let start = Instant::now();
    let warm = db.merged(&everything).expect("warm query");
    let warm_us = micros(start);
    assert_eq!(cold, warm, "the segment cache must not change the result");

    let mut db = db;
    db.ingest(&key(RUNS), &run_map(RUNS))
        .expect("incremental ingest");
    let start = Instant::now();
    let grown = db.merged(&everything).expect("incremental query");
    let incremental_us = micros(start);
    assert!(grown.len() >= warm.len());

    // 3. interning savings
    let naive_bytes: u64 = maps
        .iter()
        .map(|m| m.iter().map(|(n, _)| n.len() as u64).sum::<u64>())
        .sum();
    let stored_bytes = db.interned_name_bytes();
    let (cache_hits, segment_loads) = db.memo_stats();

    let report = obj(vec![
        ("version", Json::UInt(1)),
        (
            "config",
            obj(vec![
                ("runs", Json::UInt(RUNS)),
                ("points_per_run", Json::UInt(POINTS_PER_RUN)),
                ("unique_names", Json::UInt(db.interned_names() as u64)),
            ]),
        ),
        (
            "ingest",
            obj(vec![
                ("total_us", Json::UInt(ingest_us)),
                ("runs_per_sec", Json::UInt(per_second(RUNS, ingest_us))),
                (
                    "points_per_sec",
                    Json::UInt(per_second(total_points, ingest_us)),
                ),
            ]),
        ),
        (
            "query",
            obj(vec![
                ("cold_us", Json::UInt(cold_us)),
                ("warm_us", Json::UInt(warm_us)),
                ("incremental_us", Json::UInt(incremental_us)),
                (
                    "warm_speedup_permille",
                    Json::UInt(cold_us.saturating_mul(1000) / warm_us.max(1)),
                ),
                ("segment_cache_hits", Json::UInt(cache_hits)),
                ("segment_loads", Json::UInt(segment_loads)),
            ]),
        ),
        (
            "interning",
            obj(vec![
                ("naive_bytes", Json::UInt(naive_bytes)),
                ("stored_bytes", Json::UInt(stored_bytes)),
                (
                    "savings_permille",
                    Json::UInt(
                        naive_bytes
                            .saturating_sub(stored_bytes)
                            .saturating_mul(1000)
                            / naive_bytes.max(1),
                    ),
                ),
            ]),
        ),
    ]);
    std::fs::write(&out, report.to_string()).expect("write BENCH_db.json");
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "ingest: {RUNS} runs / {total_points} points in {ingest_us} us \
         ({} runs/s, {} points/s)",
        per_second(RUNS, ingest_us),
        per_second(total_points, ingest_us)
    );
    println!(
        "query over {RUNS} runs: cold {cold_us} us, warm {warm_us} us, \
         incremental (+1 run) {incremental_us} us"
    );
    println!(
        "interning: {stored_bytes} bytes stored once vs {naive_bytes} naive \
         ({}% saved)",
        naive_bytes.saturating_sub(stored_bytes) * 100 / naive_bytes.max(1)
    );
    println!("wrote {out}");
}
