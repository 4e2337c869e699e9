//! The manifest: the database's single atomic commit point.
//!
//! `MANIFEST.json` names every committed segment (with its file and
//! checksum), the committed prefix of the name table, and the next
//! logical time. Ingest appends names and writes the segment file
//! *first*, then replaces the manifest via write-temp-and-rename — so a
//! crash at any earlier point leaves the new data invisible: the orphan
//! segment file is never referenced and the torn name append sits past
//! the committed length. The JSON form (the workspace's mini-JSON, u64
//! exact) keeps the commit record human-auditable, mirroring the
//! campaign's JSON shard envelopes.

use crate::DbError;
use rtlcov_core::json::{self, Json};
use std::fmt::Write;
use std::fs;
use std::path::Path;

/// Manifest format version.
pub const MANIFEST_VERSION: u64 = 1;

/// The identity of a run, minus the logical time the database assigns.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RunKey {
    /// Design under test.
    pub design: String,
    /// Stimulus workload (e.g. the campaign's shard, `"s3"`).
    pub workload: String,
    /// Backend that produced the counts.
    pub backend: String,
    /// Free-form run label (commit hash, campaign name, ...).
    pub label: String,
}

impl RunKey {
    /// Compact `design/workload/backend/label` rendering for logs.
    pub fn display(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.design, self.workload, self.backend, self.label
        )
    }
}

/// One committed segment, as recorded by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunInfo {
    /// Segment id == logical commit time (monotonic, never reused).
    pub id: u64,
    /// The run's identity.
    pub key: RunKey,
    /// Segment file name within the database directory.
    pub file: String,
    /// Trailing FNV-1a checksum of the segment file.
    pub checksum: u64,
    /// Intern-independent content identity (key + name/count pairs), for
    /// idempotent ingest.
    pub content: u64,
    /// Number of cover points in the segment.
    pub points: u64,
}

/// The committed state of the database.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Next logical time / segment id to assign.
    pub next_time: u64,
    /// Committed byte length of `names.tbl`.
    pub names_len: u64,
    /// Running FNV-1a digest of that committed prefix.
    pub names_hash: u64,
    /// Committed segments in logical-time order.
    pub segments: Vec<RunInfo>,
}

fn get_u64(value: &Json, key: &str) -> Result<u64, DbError> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| DbError::Corrupt(format!("manifest missing u64 `{key}`")))
}

fn get_str(value: &Json, key: &str) -> Result<String, DbError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| DbError::Corrupt(format!("manifest missing string `{key}`")))
}

impl Manifest {
    /// Serialize to the JSON commit record: compact, keys in sorted
    /// order — byte for byte what `Json::Object`'s `Display` would print
    /// for the same record, written without building that tree.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + 160 * self.segments.len());
        let _ = write!(
            out,
            "{{\"names_hash\":{},\"names_len\":{},\"next_time\":{},\"segments\":[",
            self.names_hash, self.names_len, self.next_time
        );
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"backend\":");
            json::write_escaped(&mut out, &s.key.backend);
            let _ = write!(
                out,
                ",\"checksum\":{},\"content\":{},\"design\":",
                s.checksum, s.content
            );
            json::write_escaped(&mut out, &s.key.design);
            out.push_str(",\"file\":");
            json::write_escaped(&mut out, &s.file);
            let _ = write!(out, ",\"id\":{},\"label\":", s.id);
            json::write_escaped(&mut out, &s.key.label);
            let _ = write!(out, ",\"points\":{},\"workload\":", s.points);
            json::write_escaped(&mut out, &s.key.workload);
            out.push('}');
        }
        let _ = write!(out, "],\"version\":{MANIFEST_VERSION}}}");
        out
    }

    /// Parse a manifest written by [`Manifest::to_json`].
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on malformed JSON, a future version, or
    /// segment ids that are not strictly ascending and below `next_time`.
    pub fn from_json(text: &str) -> Result<Self, DbError> {
        let value =
            json::parse(text).map_err(|e| DbError::Corrupt(format!("manifest json: {e}")))?;
        let version = get_u64(&value, "version")?;
        if version != MANIFEST_VERSION {
            return Err(DbError::Corrupt(format!(
                "unsupported manifest version {version} (this build reads {MANIFEST_VERSION})"
            )));
        }
        let mut manifest = Manifest {
            next_time: get_u64(&value, "next_time")?,
            names_len: get_u64(&value, "names_len")?,
            names_hash: get_u64(&value, "names_hash")?,
            segments: Vec::new(),
        };
        let segments = value
            .get("segments")
            .and_then(Json::as_array)
            .ok_or_else(|| DbError::Corrupt("manifest missing `segments` array".into()))?;
        for seg in segments {
            let id = get_u64(seg, "id")?;
            let after_last = manifest.segments.last().is_none_or(|last| id > last.id);
            if !after_last || id >= manifest.next_time {
                return Err(DbError::Corrupt(format!(
                    "manifest segment id {id} is out of order, repeated, or not below next_time {}",
                    manifest.next_time
                )));
            }
            manifest.segments.push(RunInfo {
                id,
                key: RunKey {
                    design: get_str(seg, "design")?,
                    workload: get_str(seg, "workload")?,
                    backend: get_str(seg, "backend")?,
                    label: get_str(seg, "label")?,
                },
                file: get_str(seg, "file")?,
                checksum: get_u64(seg, "checksum")?,
                content: get_u64(seg, "content")?,
                points: get_u64(seg, "points")?,
            });
        }
        Ok(manifest)
    }

    /// The committed manifest text in `dir`, or `None` when the database
    /// has never committed (no `MANIFEST.json`).
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] when the file exists but cannot be read as text.
    pub fn read_text(dir: &Path) -> Result<Option<String>, DbError> {
        match fs::read_to_string(dir.join("MANIFEST.json")) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(DbError::Io(format!("read manifest: {e}"))),
        }
    }

    /// Parse what [`Manifest::read_text`] returned; `None` is the empty
    /// manifest of a database that has never committed.
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] as for [`Manifest::from_json`].
    pub fn from_text(text: Option<&str>) -> Result<Self, DbError> {
        text.map_or_else(|| Ok(Manifest::default()), Self::from_json)
    }

    /// Atomically replace the on-disk manifest (write temp, rename).
    /// This call *is* the commit. Returns the committed text.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn commit(&self, dir: &Path) -> Result<String, DbError> {
        let path = dir.join("MANIFEST.json");
        let tmp = dir.join("MANIFEST.json.tmp");
        let text = self.to_json();
        fs::write(&tmp, &text).map_err(|e| DbError::Io(format!("write manifest temp: {e}")))?;
        fs::rename(&tmp, &path).map_err(|e| DbError::Io(format!("commit manifest: {e}")))?;
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample() -> Manifest {
        Manifest {
            next_time: 3,
            names_len: 120,
            names_hash: 0xdead_beef,
            segments: vec![
                RunInfo {
                    id: 0,
                    key: RunKey {
                        design: "gcd".into(),
                        workload: "s0".into(),
                        backend: "interp".into(),
                        label: "a".into(),
                    },
                    file: "seg-0.rseg".into(),
                    checksum: 1,
                    content: 2,
                    points: 10,
                },
                RunInfo {
                    id: 2,
                    key: RunKey {
                        design: "queue".into(),
                        workload: "s1".into(),
                        backend: "fpga".into(),
                        label: "b".into(),
                    },
                    file: "seg-2.rseg".into(),
                    checksum: u64::MAX,
                    content: 4,
                    points: 0,
                },
            ],
        }
    }

    /// The commit record as a `Json` tree printed by its `Display` — the
    /// serializer `to_json` replaced, kept as the byte-for-byte oracle.
    fn tree_json(m: &Manifest) -> String {
        fn obj(entries: Vec<(&str, Json)>) -> Json {
            Json::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect::<BTreeMap<_, _>>(),
            )
        }
        let segments: Vec<Json> = m
            .segments
            .iter()
            .map(|s| {
                obj(vec![
                    ("id", Json::UInt(s.id)),
                    ("design", Json::Str(s.key.design.clone())),
                    ("workload", Json::Str(s.key.workload.clone())),
                    ("backend", Json::Str(s.key.backend.clone())),
                    ("label", Json::Str(s.key.label.clone())),
                    ("file", Json::Str(s.file.clone())),
                    ("checksum", Json::UInt(s.checksum)),
                    ("content", Json::UInt(s.content)),
                    ("points", Json::UInt(s.points)),
                ])
            })
            .collect();
        obj(vec![
            ("version", Json::UInt(MANIFEST_VERSION)),
            ("next_time", Json::UInt(m.next_time)),
            ("names_len", Json::UInt(m.names_len)),
            ("names_hash", Json::UInt(m.names_hash)),
            ("segments", Json::Array(segments)),
        ])
        .to_string()
    }

    #[test]
    fn direct_serializer_matches_the_json_tree_byte_for_byte() {
        let empty = Manifest::default();
        assert_eq!(
            empty.to_json(),
            r#"{"names_hash":0,"names_len":0,"next_time":0,"segments":[],"version":1}"#
        );
        assert_eq!(empty.to_json(), tree_json(&empty));
        let mut m = sample();
        m.next_time = u64::MAX;
        m.segments.push(RunInfo {
            id: u64::MAX - 1, // the largest id below next_time
            key: RunKey {
                design: "de\"sign\\é".into(),
                workload: "s\u{1}\t\n€".into(),
                backend: "𝄞\\\"".into(),
                label: "ünïcödé \"label\" \\ path\\".into(),
            },
            file: "seg-\"ü\".rseg".into(),
            checksum: 0,
            content: u64::MAX,
            points: 123_456,
        });
        m.names_hash = u64::MAX;
        assert_eq!(m.to_json(), tree_json(&m));
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn json_round_trip() {
        let m = sample();
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
        let empty = Manifest::default();
        assert_eq!(Manifest::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn missing_manifest_loads_empty() {
        let dir = std::env::temp_dir().join(format!("rtlcov-manifest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::read_text(&dir).unwrap(), None);
        assert_eq!(Manifest::from_text(None).unwrap(), Manifest::default());
        // commit then reload
        let m = sample();
        let text = m.commit(&dir).unwrap();
        assert_eq!(Manifest::read_text(&dir).unwrap().as_deref(), Some(&*text));
        assert_eq!(Manifest::from_text(Some(&text)).unwrap(), m);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_ids_must_ascend_below_next_time() {
        let reject = |m: &Manifest| {
            assert!(
                matches!(Manifest::from_json(&m.to_json()), Err(DbError::Corrupt(_))),
                "{:?}",
                m.segments.iter().map(|s| s.id).collect::<Vec<_>>()
            );
        };
        let mut repeated = sample();
        repeated.segments[1].id = 0;
        reject(&repeated);
        let mut descending = sample();
        descending.segments.swap(0, 1);
        reject(&descending);
        let mut at_next_time = sample();
        at_next_time.segments[1].id = at_next_time.next_time;
        reject(&at_next_time);
        let mut last_below = sample();
        last_below.segments[1].id = last_below.next_time - 1;
        assert!(Manifest::from_json(&last_below.to_json()).is_ok());
    }

    #[test]
    fn future_version_is_rejected() {
        let text = sample().to_json().replace("\"version\":1", "\"version\":9");
        assert!(matches!(
            Manifest::from_json(&text),
            Err(DbError::Corrupt(_))
        ));
    }
}
