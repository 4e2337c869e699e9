//! A small hand-rolled HTTP/1.1 serving layer over [`CoverageDb`].
//!
//! Plain `std::net::TcpListener`, GET-only, JSON responses via the
//! workspace's mini-JSON — no frameworks, matching the repo's no-new-deps
//! rule. One request per connection (`Connection: close`), served
//! sequentially; the server refreshes the database before each request,
//! so a campaign committing into the same directory is visible live.
//! Each connection gets [`CONNECTION_TIMEOUT`] per read and write, so an
//! idle or stalled client delays the requests queued behind it by at
//! most that long instead of blocking the server.
//!
//! Endpoints (query parameters are the [`Selector`] fields —
//! `design`, `workload`, `backend`, `label`, `since`):
//!
//! | path         | extra params        | returns                         |
//! |--------------|---------------------|---------------------------------|
//! | `/health`    | —                   | `{"status":"ok","runs":N}`      |
//! | `/v1/runs`   | selector            | committed runs                  |
//! | `/v1/query`  | selector            | merged counts + summary         |
//! | `/v1/holes`  | selector            | never-hit cover points          |
//! | `/v1/point`  | selector + `name=`  | one merged count (null unknown) |
//! | `/v1/diff`   | `a.`/`b.`-prefixed  | differing points between sets   |
//! | `/v1/rollup` | selector            | per-instance aggregation        |

use crate::query::Selector;
use crate::store::{CoverageDb, DbError};
use rtlcov_core::json::Json;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Largest request head (request line + headers) we accept.
const MAX_HEAD: usize = 16 * 1024;

/// Per-connection read and write timeout; a client that sends nothing
/// (or stops reading) for this long is dropped.
pub const CONNECTION_TIMEOUT: Duration = Duration::from_secs(2);

/// Decode `%XX` escapes and `+`-as-space in a query component.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                        continue;
                    }
                    _ => out.push(b'%'),
                }
            }
            b'+' => out.push(b' '),
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse `k=v&k=v` into decoded pairs (valueless keys decode to `""`).
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

/// Build a [`Selector`] from `prefix`-stripped params; with a prefix,
/// unprefixed params belong to someone else and are skipped, without one
/// every param must be a selector field.
fn selector_from(params: &[(String, String)], prefix: &str) -> Result<Selector, String> {
    let mut sel = Selector::default();
    for (key, value) in params {
        let field = match key.strip_prefix(prefix) {
            Some(f) => f,
            None if prefix.is_empty() => key.as_str(),
            None => continue,
        };
        match field {
            "design" => sel.design = Some(value.clone()),
            "workload" => sel.workload = Some(value.clone()),
            "backend" => sel.backend = Some(value.clone()),
            "label" => sel.label = Some(value.clone()),
            "since" => sel.since = Some(value.parse().map_err(|_| format!("bad since `{value}`"))?),
            other => return Err(format!("unknown query parameter `{prefix}{other}`")),
        }
    }
    Ok(sel)
}

fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn error_body(message: &str) -> String {
    obj(vec![("error", Json::Str(message.to_string()))]).to_string()
}

fn db_error(e: &DbError) -> (u16, String) {
    let status = match e {
        DbError::NotFound(_) => 404,
        _ => 500,
    };
    (status, error_body(&e.to_string()))
}

/// Dispatch one parsed request to the query layer. Returns
/// `(status, JSON body)`; pure apart from the database reads, so the
/// routing logic is unit-testable without sockets.
pub fn respond(db: &CoverageDb, method: &str, path: &str, query: &str) -> (u16, String) {
    if method != "GET" {
        return (405, error_body("only GET is supported"));
    }
    let params = parse_query(query);
    let selector = |prefix: &str| selector_from(&params, prefix);
    match path {
        "/health" => (
            200,
            obj(vec![
                ("status", Json::Str("ok".into())),
                ("runs", Json::UInt(db.runs().len() as u64)),
            ])
            .to_string(),
        ),
        "/v1/runs" => {
            let sel = match selector("") {
                Ok(s) => s,
                Err(e) => return (400, error_body(&e)),
            };
            let runs: Vec<Json> = db
                .runs()
                .iter()
                .filter(|r| sel.matches(r))
                .map(|r| {
                    obj(vec![
                        ("id", Json::UInt(r.id)),
                        ("design", Json::Str(r.key.design.clone())),
                        ("workload", Json::Str(r.key.workload.clone())),
                        ("backend", Json::Str(r.key.backend.clone())),
                        ("label", Json::Str(r.key.label.clone())),
                        ("points", Json::UInt(r.points)),
                    ])
                })
                .collect();
            (200, obj(vec![("runs", Json::Array(runs))]).to_string())
        }
        "/v1/query" => {
            let sel = match selector("") {
                Ok(s) => s,
                Err(e) => return (400, error_body(&e)),
            };
            let ids = db.select(&sel);
            match db.merged_ids(&ids) {
                Ok(map) => {
                    let counts = Json::Object(
                        map.iter()
                            .map(|(n, c)| (n.to_string(), Json::UInt(c)))
                            .collect::<BTreeMap<_, _>>(),
                    );
                    (
                        200,
                        obj(vec![
                            (
                                "selected",
                                Json::Array(ids.iter().map(|&i| Json::UInt(i)).collect()),
                            ),
                            ("points", Json::UInt(map.len() as u64)),
                            ("covered", Json::UInt(map.covered() as u64)),
                            ("counts", counts),
                        ])
                        .to_string(),
                    )
                }
                Err(e) => db_error(&e),
            }
        }
        "/v1/holes" => {
            let sel = match selector("") {
                Ok(s) => s,
                Err(e) => return (400, error_body(&e)),
            };
            match db.holes(&sel) {
                Ok(holes) => (
                    200,
                    obj(vec![(
                        "holes",
                        Json::Array(holes.into_iter().map(Json::Str).collect()),
                    )])
                    .to_string(),
                ),
                Err(e) => db_error(&e),
            }
        }
        "/v1/point" => {
            let name = match params.iter().find(|(k, _)| k == "name") {
                Some((_, v)) => v.clone(),
                None => return (400, error_body("missing `name` parameter")),
            };
            let rest: Vec<(String, String)> = params
                .iter()
                .filter(|(k, _)| k != "name")
                .cloned()
                .collect();
            let sel = match selector_from(&rest, "") {
                Ok(s) => s,
                Err(e) => return (400, error_body(&e)),
            };
            match db.point(&sel, &name) {
                Ok(count) => (
                    200,
                    obj(vec![
                        ("name", Json::Str(name)),
                        ("count", count.map_or(Json::Null, Json::UInt)),
                    ])
                    .to_string(),
                ),
                Err(e) => db_error(&e),
            }
        }
        "/v1/diff" => {
            let (a, b) = match (selector("a."), selector("b.")) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => return (400, error_body(&e)),
            };
            match db.diff(&a, &b) {
                Ok(diff) => {
                    let rows: Vec<Json> = diff
                        .into_iter()
                        .map(|d| {
                            obj(vec![
                                ("name", Json::Str(d.name)),
                                ("a", d.a.map_or(Json::Null, Json::UInt)),
                                ("b", d.b.map_or(Json::Null, Json::UInt)),
                            ])
                        })
                        .collect();
                    (200, obj(vec![("diff", Json::Array(rows))]).to_string())
                }
                Err(e) => db_error(&e),
            }
        }
        "/v1/rollup" => {
            let sel = match selector("") {
                Ok(s) => s,
                Err(e) => return (400, error_body(&e)),
            };
            match db.rollup(&sel) {
                Ok(rows) => {
                    let rollup = Json::Object(
                        rows.into_iter()
                            .map(|(instance, row)| {
                                (
                                    instance,
                                    obj(vec![
                                        ("points", Json::UInt(row.points)),
                                        ("covered", Json::UInt(row.covered)),
                                        ("hits", Json::UInt(row.hits)),
                                    ]),
                                )
                            })
                            .collect::<BTreeMap<_, _>>(),
                    );
                    (200, obj(vec![("rollup", rollup)]).to_string())
                }
                Err(e) => db_error(&e),
            }
        }
        _ => (404, error_body(&format!("no such endpoint `{path}`"))),
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    }
}

/// Read the request head (through the blank line) and answer it.
fn handle(stream: &mut TcpStream, db: &mut CoverageDb) -> io::Result<()> {
    stream.set_read_timeout(Some(CONNECTION_TIMEOUT))?;
    stream.set_write_timeout(Some(CONNECTION_TIMEOUT))?;
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            break;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8_lossy(&head);
    let mut request_line = text.lines().next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("");
    let target = request_line.next().unwrap_or("/");
    let (path, query) = target.split_once('?').unwrap_or((target, ""));

    // pick up anything a concurrent campaign committed since last request
    let (status, body) = match db.refresh() {
        Ok(_) => respond(db, method, path, query),
        Err(e) => db_error(&e),
    };
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len()
    )?;
    stream.flush()
}

/// A bound-but-not-yet-serving HTTP server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:8722`, or port `0` for an
    /// OS-assigned port).
    ///
    /// # Errors
    ///
    /// Socket binding failures.
    pub fn bind(addr: &str) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Socket introspection failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve requests sequentially. `max_requests` bounds the number of
    /// connections handled (for tests and CI smoke runs); `None` serves
    /// until the process dies. Per-connection I/O errors are swallowed so
    /// one bad client cannot stop the server.
    ///
    /// # Errors
    ///
    /// Accept-loop failures only.
    pub fn serve(&self, db: &mut CoverageDb, max_requests: Option<usize>) -> io::Result<()> {
        for (served, stream) in self.listener.incoming().enumerate() {
            let mut stream = stream?;
            let _ = handle(&mut stream, db);
            if max_requests.is_some_and(|max| served + 1 >= max) {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::RunKey;
    use rtlcov_core::CoverageMap;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtlcov-http-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seeded(tag: &str) -> (CoverageDb, PathBuf) {
        let dir = tmp(tag);
        let mut db = CoverageDb::open(&dir).unwrap();
        let mut m = CoverageMap::new();
        m.record("m.a", 2);
        m.declare("m.b");
        db.ingest(
            &RunKey {
                design: "gcd".into(),
                workload: "s0".into(),
                backend: "interp".into(),
                label: "t".into(),
            },
            &m,
        )
        .unwrap();
        (db, dir)
    }

    #[test]
    fn decoding_and_query_parsing() {
        assert_eq!(percent_decode("a%20b+c%2fd"), "a b c/d");
        assert_eq!(percent_decode("no%2"), "no%2"); // truncated escape passes through
        assert_eq!(percent_decode("%zz"), "%zz"); // bad hex passes through
        let params = parse_query("design=gcd&name=m%2Ea&flag");
        assert_eq!(params[0], ("design".into(), "gcd".into()));
        assert_eq!(params[1], ("name".into(), "m.a".into()));
        assert_eq!(params[2], ("flag".into(), "".into()));
    }

    #[test]
    fn selector_prefixes() {
        let params = parse_query("a.design=gcd&b.design=queue&a.since=1");
        let a = selector_from(&params, "a.").unwrap();
        let b = selector_from(&params, "b.").unwrap();
        assert_eq!(a.design.as_deref(), Some("gcd"));
        assert_eq!(a.since, Some(1));
        assert_eq!(b.design.as_deref(), Some("queue"));
        assert!(selector_from(&parse_query("bogus=1"), "").is_err());
        assert!(selector_from(&parse_query("since=x"), "").is_err());
    }

    #[test]
    fn endpoints_answer_json() {
        let (db, dir) = seeded("endpoints");
        let (status, body) = respond(&db, "GET", "/health", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"runs\":1"), "{body}");

        let (status, body) = respond(&db, "GET", "/v1/query", "design=gcd");
        assert_eq!(status, 200);
        assert!(body.contains("\"m.a\":2"), "{body}");
        assert!(body.contains("\"covered\":1"), "{body}");

        let (status, body) = respond(&db, "GET", "/v1/holes", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"m.b\""), "{body}");

        let (status, body) = respond(&db, "GET", "/v1/point", "name=m.a");
        assert_eq!(status, 200);
        assert!(body.contains("\"count\":2"), "{body}");
        let (_, body) = respond(&db, "GET", "/v1/point", "name=missing");
        assert!(body.contains("\"count\":null"), "{body}");

        let (status, body) = respond(&db, "GET", "/v1/rollup", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"m\":{"), "{body}");

        let (status, body) = respond(&db, "GET", "/v1/diff", "a.workload=s0&b.workload=s9");
        assert_eq!(status, 200);
        assert!(body.contains("\"b\":null"), "{body}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_map_to_http_statuses() {
        let (db, dir) = seeded("errors");
        assert_eq!(respond(&db, "POST", "/health", "").0, 405);
        assert_eq!(respond(&db, "GET", "/nope", "").0, 404);
        assert_eq!(respond(&db, "GET", "/v1/query", "bogus=1").0, 400);
        assert_eq!(respond(&db, "GET", "/v1/point", "").0, 400);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serves_over_a_real_socket() {
        let (db, dir) = seeded("socket");
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let thread = std::thread::spawn(move || {
            let mut db = db;
            server.serve(&mut db, Some(2)).unwrap();
        });
        for (request, expect) in [
            (
                "GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
                "\"status\":\"ok\"",
            ),
            (
                "GET /v1/query?design=gcd HTTP/1.1\r\nHost: x\r\n\r\n",
                "\"m.a\":2",
            ),
        ] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
            assert!(response.contains(expect), "{response}");
        }
        thread.join().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idle_connection_does_not_block_health() {
        let (db, dir) = seeded("idle");
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let thread = std::thread::spawn(move || {
            let mut db = db;
            server.serve(&mut db, Some(2)).unwrap();
        });
        // accepted first, never sends a byte
        let idle = TcpStream::connect(addr).unwrap();
        let start = std::time::Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        // a server without the timeout fails here instead of hanging
        stream
            .set_read_timeout(Some(CONNECTION_TIMEOUT * 3))
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let took = start.elapsed();
        assert!(response.contains("\"status\":\"ok\""), "{response}");
        assert!(
            took < CONNECTION_TIMEOUT + Duration::from_secs(1),
            "/health took {took:?} behind an idle connection"
        );
        drop(idle);
        thread.join().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
