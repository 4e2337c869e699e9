//! [`CoverageDb`]: open, ingest, load, refresh, gc.
//!
//! A database is a directory:
//!
//! ```text
//! db/
//!   MANIFEST.json   — the commit record (atomic rename; see `manifest`)
//!   names.tbl       — append-only interned name table (see `intern`)
//!   seg-<id>.rseg   — one immutable checksummed segment per ingested run
//! ```
//!
//! Ingest protocol (crash-safe by ordering alone):
//!
//! 1. intern any new names and append them to `names.tbl`;
//! 2. write `seg-<id>.rseg` via temp-file + rename;
//! 3. commit by atomically replacing `MANIFEST.json`.
//!
//! A crash before step 3 leaves the new segment unreferenced and the
//! name append past the committed length — both invisible to the next
//! open, and [`CoverageDb::gc`] deletes the orphans. Ingest is
//! idempotent: a run whose key and content hash match a committed
//! segment is skipped, so re-ingesting a resumed campaign is free.

use crate::intern::Interner;
use crate::manifest::{Manifest, RunInfo, RunKey};
use crate::memo::MergeMemo;
use crate::segment::{self, Segment};
use crate::{fnv1a, fnv1a_continue};
use rtlcov_core::CoverageMap;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Why a database operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Filesystem failure (message, since `io::Error` isn't `Clone`).
    Io(String),
    /// On-disk state failed validation (checksum, format, manifest).
    Corrupt(String),
    /// The caller referenced something the database doesn't have.
    NotFound(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "db io error: {e}"),
            DbError::Corrupt(e) => write!(f, "db corrupt: {e}"),
            DbError::NotFound(e) => write!(f, "db: {e} not found"),
        }
    }
}

impl std::error::Error for DbError {}

/// What [`CoverageDb::ingest`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The segment holding the run (new or pre-existing).
    pub id: u64,
    /// `true` when an identical committed run already existed and no new
    /// segment was written.
    pub deduplicated: bool,
}

/// Intern-independent content identity of a run: the key plus every
/// `(name, count)` pair in map order. Two ingests of the same run hash
/// identically even into databases whose intern tables differ.
fn content_hash(key: &RunKey, map: &CoverageMap) -> u64 {
    let mut hash = fnv1a(key.display().as_bytes());
    for (name, count) in map.iter() {
        hash = fnv1a_continue(hash, name.as_bytes());
        hash = fnv1a_continue(hash, &count.to_le_bytes());
    }
    hash
}

/// An embedded coverage database rooted at one directory.
#[derive(Debug)]
pub struct CoverageDb {
    dir: PathBuf,
    manifest: Manifest,
    /// The exact `MANIFEST.json` text `manifest` was parsed from or
    /// committed as (`None`: never committed). [`CoverageDb::refresh`]
    /// re-parses only when the file's bytes differ from these.
    manifest_text: Option<String>,
    interner: Interner,
    /// Decoded segment maps, cached by id (segments are immutable).
    seg_cache: Mutex<HashMap<u64, Arc<CoverageMap>>>,
    /// Memoized merge nodes shared by the query layer.
    pub(crate) memo: MergeMemo,
}

impl CoverageDb {
    /// Open (or create) the database at `dir`.
    ///
    /// # Errors
    ///
    /// [`DbError`] when the directory cannot be created or the committed
    /// state fails validation.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DbError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| DbError::Io(format!("create db dir: {e}")))?;
        let manifest_text = Manifest::read_text(&dir)?;
        let manifest = Manifest::from_text(manifest_text.as_deref())?;
        let interner = if manifest.names_len == 0 {
            Interner::new()
        } else {
            Interner::load(
                &dir.join("names.tbl"),
                manifest.names_len,
                manifest.names_hash,
            )?
        };
        Ok(CoverageDb {
            dir,
            manifest,
            manifest_text,
            interner,
            seg_cache: Mutex::new(HashMap::new()),
            memo: MergeMemo::new(),
        })
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed runs in logical-time order.
    pub fn runs(&self) -> &[RunInfo] {
        &self.manifest.segments
    }

    /// The committed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Number of interned cover-point names.
    pub fn interned_names(&self) -> usize {
        self.interner.len()
    }

    /// Total bytes of unique name text the intern table stores once
    /// (versus once per run without interning).
    pub fn interned_name_bytes(&self) -> u64 {
        self.interner.name_bytes()
    }

    /// Merge-cache statistics `(hits, misses)`.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.memo.hits(), self.memo.misses())
    }

    fn segment_file(id: u64) -> String {
        format!("seg-{id}.rseg")
    }

    /// Ingest one run. Returns the committed segment id, deduplicating
    /// against an identical committed run (same key, same content).
    ///
    /// # Errors
    ///
    /// Filesystem failures or verification failures. On error nothing is
    /// committed: the manifest still describes the previous state.
    pub fn ingest(&mut self, key: &RunKey, map: &CoverageMap) -> Result<IngestOutcome, DbError> {
        let content = content_hash(key, map);
        if let Some(existing) = self
            .manifest
            .segments
            .iter()
            .find(|s| s.key == *key && s.content == content)
        {
            return Ok(IngestOutcome {
                id: existing.id,
                deduplicated: true,
            });
        }
        // 1. intern names; append any new ones to the table
        let first_new_id = u32::try_from(self.interner.len()).expect("intern ids fit u32");
        let mut entries: Vec<(u32, u64)> = map
            .iter()
            .map(|(name, count)| (self.interner.intern(name), count))
            .collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        self.interner
            .append_from(&self.dir.join("names.tbl"), first_new_id)?;

        // 2. write the segment file (temp + rename; invisible until 3)
        let id = self.manifest.next_time;
        let segment = Segment {
            key: key.clone(),
            time: id,
            entries,
        };
        let bytes = segment::encode(&segment);
        let checksum = segment::stored_checksum(&bytes).expect("encode appends a checksum");
        let file = Self::segment_file(id);
        let path = self.dir.join(&file);
        let tmp = self.dir.join(format!("{file}.tmp"));
        fs::write(&tmp, &bytes).map_err(|e| DbError::Io(format!("write segment: {e}")))?;
        fs::rename(&tmp, &path).map_err(|e| DbError::Io(format!("rename segment: {e}")))?;

        // 3. commit: extend the manifest in place, roll back on failure
        let manifest = &mut self.manifest;
        let previous = (manifest.next_time, manifest.names_len, manifest.names_hash);
        manifest.next_time = id + 1;
        manifest.names_len = self.interner.committed_len();
        manifest.names_hash = self.interner.committed_hash();
        manifest.segments.push(RunInfo {
            id,
            key: key.clone(),
            file,
            checksum,
            content,
            points: map.len() as u64,
        });
        match manifest.commit(&self.dir) {
            Ok(text) => self.manifest_text = Some(text),
            Err(e) => {
                manifest.segments.pop();
                (manifest.next_time, manifest.names_len, manifest.names_hash) = previous;
                return Err(e);
            }
        }
        if let Ok(mut cache) = self.seg_cache.lock() {
            cache.insert(id, Arc::new(map.clone()));
        }
        Ok(IngestOutcome {
            id,
            deduplicated: false,
        })
    }

    /// The decoded map of one committed segment (cached after first
    /// load; segment checksums are verified on every disk read).
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] for an uncommitted id, [`DbError::Corrupt`]
    /// when the file fails verification or disagrees with the manifest.
    pub fn segment_map(&self, id: u64) -> Result<Arc<CoverageMap>, DbError> {
        if let Some(cached) = self.seg_cache.lock().ok().and_then(|c| c.get(&id).cloned()) {
            return Ok(cached);
        }
        let info = self
            .manifest
            .segments
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| DbError::NotFound(format!("segment {id}")))?;
        let bytes = fs::read(self.dir.join(&info.file))
            .map_err(|e| DbError::Io(format!("read segment {id}: {e}")))?;
        let stored = segment::stored_checksum(&bytes);
        if stored != Some(info.checksum) {
            return Err(DbError::Corrupt(format!(
                "segment {id} checksum disagrees with the manifest"
            )));
        }
        let segment = segment::decode(&bytes)?;
        if segment.key != info.key || segment.time != id {
            return Err(DbError::Corrupt(format!(
                "segment {id} metadata disagrees with the manifest"
            )));
        }
        let mut map = CoverageMap::new();
        for (name_id, count) in &segment.entries {
            let name = self.interner.resolve(*name_id).ok_or_else(|| {
                DbError::Corrupt(format!("segment {id} references unknown name id {name_id}"))
            })?;
            map.declare_ref(name);
            map.record_ref(name, *count);
        }
        let map = Arc::new(map);
        if let Ok(mut cache) = self.seg_cache.lock() {
            cache.insert(id, Arc::clone(&map));
        }
        Ok(map)
    }

    /// Re-read the committed state from disk, picking up segments another
    /// process (e.g. a running campaign) committed since open. Costs one
    /// file read and compare when the manifest bytes are unchanged
    /// (including after this handle's own ingest); only changed bytes
    /// are parsed and validated. Bytes, not mtime or inode: the commit's
    /// rename can reuse an inode number immediately. Caches survive:
    /// segments are immutable, so ids and merge nodes stay valid.
    ///
    /// # Errors
    ///
    /// Same as [`CoverageDb::open`]. A changed but corrupt manifest keeps
    /// failing until it is fixed; the previous state stays loaded.
    pub fn refresh(&mut self) -> Result<bool, DbError> {
        let text = Manifest::read_text(&self.dir)?;
        if text == self.manifest_text {
            return Ok(false);
        }
        let manifest = Manifest::from_text(text.as_deref())?;
        let interner = if manifest.names_len == 0 {
            Interner::new()
        } else {
            Interner::load(
                &self.dir.join("names.tbl"),
                manifest.names_len,
                manifest.names_hash,
            )?
        };
        self.manifest = manifest;
        self.manifest_text = text;
        self.interner = interner;
        Ok(true)
    }

    /// Delete files the manifest does not reference — segments from
    /// crashed ingests and stale temp files. Returns the deleted paths.
    ///
    /// # Errors
    ///
    /// Filesystem failures while scanning.
    pub fn gc(&self) -> Result<Vec<PathBuf>, DbError> {
        let mut removed = Vec::new();
        let entries =
            fs::read_dir(&self.dir).map_err(|e| DbError::Io(format!("scan db dir: {e}")))?;
        for entry in entries.flatten() {
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let referenced = name == "MANIFEST.json"
                || name == "names.tbl"
                || self.manifest.segments.iter().any(|s| s.file == name);
            if !referenced
                && (name.starts_with("seg-") || name.ends_with(".tmp"))
                && fs::remove_file(&path).is_ok()
            {
                removed.push(path);
            }
        }
        removed.sort();
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtlcov-db-{tag}-{}", std::process::id()));
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

    fn key(design: &str, workload: &str) -> RunKey {
        RunKey {
            design: design.into(),
            workload: workload.into(),
            backend: "interp".into(),
            label: "t".into(),
        }
    }

    #[test]
    fn ingest_commit_reopen_round_trips() {
        let dir = tmp("roundtrip");
        let mut db = CoverageDb::open(&dir).unwrap();
        let m = map(&[("top.a", 3), ("top.b", 0), ("top.c", u64::MAX)]);
        let out = db.ingest(&key("gcd", "s0"), &m).unwrap();
        assert!(!out.deduplicated);
        let db2 = CoverageDb::open(&dir).unwrap();
        assert_eq!(db2.runs().len(), 1);
        assert_eq!(*db2.segment_map(out.id).unwrap(), m);
        assert_eq!(db2.interned_names(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_is_idempotent_per_key_and_content() {
        let dir = tmp("idem");
        let mut db = CoverageDb::open(&dir).unwrap();
        let m = map(&[("x", 1)]);
        let first = db.ingest(&key("gcd", "s0"), &m).unwrap();
        let second = db.ingest(&key("gcd", "s0"), &m).unwrap();
        assert!(second.deduplicated);
        assert_eq!(first.id, second.id);
        // same key, different content: a new logical time
        let third = db.ingest(&key("gcd", "s0"), &map(&[("x", 2)])).unwrap();
        assert!(!third.deduplicated);
        assert_eq!(db.runs().len(), 2);
        // same content, different key: also new
        let fourth = db.ingest(&key("gcd", "s1"), &m).unwrap();
        assert!(!fourth.deduplicated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_are_interned_once_across_runs() {
        let dir = tmp("intern");
        let mut db = CoverageDb::open(&dir).unwrap();
        let m = map(&[("top.very.long.hierarchical.name", 1), ("top.other", 2)]);
        db.ingest(&key("gcd", "s0"), &m).unwrap();
        let names_after_one = db.interned_names();
        db.ingest(&key("gcd", "s1"), &m).unwrap();
        db.ingest(&key("gcd", "s2"), &map(&[("top.other", 9)]))
            .unwrap();
        assert_eq!(
            db.interned_names(),
            names_after_one,
            "no new names interned"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_segment_is_invisible_and_gc_removes_it() {
        let dir = tmp("crash");
        let mut db = CoverageDb::open(&dir).unwrap();
        db.ingest(&key("gcd", "s0"), &map(&[("a", 1)])).unwrap();
        // simulate a crash between segment write and manifest commit:
        // an orphan segment file plus a torn name-table append
        let orphan = dir.join("seg-99.rseg");
        fs::write(&orphan, b"RSEGpartial-write").unwrap();
        let mut names = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("names.tbl"))
            .unwrap();
        use std::io::Write;
        names.write_all(b"\x05\x00\x00\x00torn!").unwrap();
        drop(names);

        let reopened = CoverageDb::open(&dir).unwrap();
        assert_eq!(reopened.runs().len(), 1, "orphan is not a run");
        assert!(reopened.segment_map(0).is_ok());
        let removed = reopened.gc().unwrap();
        assert_eq!(removed, vec![orphan.clone()]);
        assert!(!orphan.exists());
        // and the next ingest still works (heals the torn append)
        let mut healed = CoverageDb::open(&dir).unwrap();
        healed.ingest(&key("gcd", "s1"), &map(&[("b", 1)])).unwrap();
        assert_eq!(CoverageDb::open(&dir).unwrap().runs().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_segment_is_detected_on_load() {
        let dir = tmp("tamper");
        let mut db = CoverageDb::open(&dir).unwrap();
        let out = db.ingest(&key("gcd", "s0"), &map(&[("a", 1)])).unwrap();
        let path = dir.join(CoverageDb::segment_file(out.id));
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let fresh = CoverageDb::open(&dir).unwrap();
        assert!(matches!(
            fresh.segment_map(out.id),
            Err(DbError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_sees_a_concurrent_committer() {
        let dir = tmp("refresh");
        let mut writer = CoverageDb::open(&dir).unwrap();
        writer.ingest(&key("gcd", "s0"), &map(&[("a", 1)])).unwrap();
        let mut reader = CoverageDb::open(&dir).unwrap();
        assert_eq!(reader.runs().len(), 1);
        assert!(!reader.refresh().unwrap(), "no change yet");
        writer.ingest(&key("gcd", "s1"), &map(&[("b", 2)])).unwrap();
        assert!(reader.refresh().unwrap());
        assert_eq!(reader.runs().len(), 2);
        assert_eq!(*reader.segment_map(1).unwrap(), map(&[("b", 2)]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_after_own_ingest_is_a_no_op() {
        let dir = tmp("refresh-own");
        let mut db = CoverageDb::open(&dir).unwrap();
        assert!(!db.refresh().unwrap(), "empty db, no manifest yet");
        db.ingest(&key("gcd", "s0"), &map(&[("a", 1)])).unwrap();
        assert!(!db.refresh().unwrap(), "own commit is already loaded");
        db.ingest(&key("gcd", "s1"), &map(&[("b", 1)])).unwrap();
        assert!(!db.refresh().unwrap());
        assert_eq!(db.runs().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_sees_another_handles_commit_after_its_own() {
        let dir = tmp("refresh-other");
        let mut a = CoverageDb::open(&dir).unwrap();
        let mut b = CoverageDb::open(&dir).unwrap();
        a.ingest(&key("gcd", "s0"), &map(&[("a", 1)])).unwrap();
        assert!(b.refresh().unwrap());
        b.ingest(&key("gcd", "s1"), &map(&[("b", 2)])).unwrap();
        assert!(!b.refresh().unwrap());
        assert!(a.refresh().unwrap(), "b's commit changed the bytes");
        assert_eq!(a.runs(), b.runs());
        assert_eq!(*a.segment_map(1).unwrap(), map(&[("b", 2)]));
        assert!(!a.refresh().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_reports_a_manifest_corrupted_after_open() {
        let dir = tmp("refresh-corrupt");
        let mut db = CoverageDb::open(&dir).unwrap();
        db.ingest(&key("gcd", "s0"), &map(&[("a", 1)])).unwrap();
        let path = dir.join("MANIFEST.json");
        let good = fs::read_to_string(&path).unwrap();
        // same length, one byte flipped: still a different file
        fs::write(&path, good.replacen("\"segments\"", "\"segmentz\"", 1)).unwrap();
        assert!(matches!(db.refresh(), Err(DbError::Corrupt(_))));
        assert!(db.refresh().is_err(), "the gate must not hide it next time");
        assert_eq!(db.runs().len(), 1, "the last good state stays loaded");
        fs::write(&path, &good).unwrap();
        assert!(
            !db.refresh().unwrap(),
            "restored bytes are the loaded state"
        );
        fs::write(&path, "").unwrap();
        assert!(db.refresh().is_err(), "an emptied manifest is corrupt too");
        fs::remove_dir_all(&dir).unwrap();
    }
}
