//! # rtlcov-db
//!
//! A persistent, embedded coverage database over the paper's central
//! insight (§5.3): because every backend reports the same
//! `cover-name → count` map, *storing* coverage is as simple as merging
//! it — runs from any simulator, the FPGA flow, or the formal engine all
//! land in one queryable store.
//!
//! Architecture, bottom up:
//!
//! * [`intern`] — a global append-only string table. Cover-point names
//!   repeat across every run of a design; each name is stored once and
//!   segments reference it by a `u32` id.
//! * [`segment`] — immutable, checksummed binary segments: one ingested
//!   run each, keyed by `(design, workload, backend, label, logical
//!   time)`, holding `(name-id, count)` pairs in strictly ascending id
//!   order (duplicates are structurally impossible to decode).
//! * [`manifest`] — the commit point. A segment (and any names it
//!   appended) becomes visible only when `MANIFEST.json` is atomically
//!   replaced; a crash mid-ingest leaves an orphan file the next open
//!   ignores and `gc` removes.
//! * [`store`] — [`store::CoverageDb`]: open/ingest/gc plus verified
//!   segment loading into an in-memory cache of each segment's
//!   `(name-id, count)` entries (ingest fills it with what it wrote).
//! * [`query`] — run selection ([`query::Selector`]), merged maps, point
//!   lookups, never-hit `holes`, run-set `diff`s, and per-instance
//!   rollups over the hierarchical names that `rtlcov_core::instances`
//!   emits. Queries add the cached entries into one dense per-name-id
//!   vector and resolve names only for the rows they return.
//! * [`http`] — a dependency-free HTTP/1.1 server on `std::net` exposing
//!   the query layer as JSON endpoints.

#![warn(missing_docs)]

pub mod http;
pub mod intern;
pub mod manifest;
pub mod query;
pub mod segment;
pub mod store;

pub use manifest::{Manifest, RunInfo, RunKey};
pub use query::{DiffEntry, RollupRow, Selector};
pub use store::{CoverageDb, DbError, IngestOutcome};

/// The 64-bit FNV-1a hash the database uses for checksums and content ids
/// (no cryptographic claims — this guards against torn writes and bit
/// rot, not adversaries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash from a previous digest. FNV is a running
/// fold, so `fnv1a(ab) == fnv1a_continue(fnv1a(a), b)` — the manifest
/// exploits this to checksum the append-only name table incrementally.
pub fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_a_running_fold() {
        let all = fnv1a(b"coverage-segment");
        let split = fnv1a_continue(fnv1a(b"coverage-"), b"segment");
        assert_eq!(all, split);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b""), 0);
    }
}
