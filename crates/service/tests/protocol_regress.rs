//! Wire-protocol regression tests pinning the error behaviors documented
//! in docs/PROTOCOL.md: malformed `SHARDS` values and oversized batches
//! answer with the documented `ERR` lines *without desynchronizing the
//! connection*, while the two connection-fatal framing limits actually
//! drop the connection.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use fairhms_data::Dataset;
use fairhms_service::{Catalog, Query, QueryEngine, Server, ServerConfig};

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    }

    /// The connection is alive and in sync: a PING answers pong.
    fn assert_in_sync(&mut self) {
        self.send("PING");
        assert_eq!(self.recv(), "OK pong", "connection desynchronized");
    }
}

fn spawn_server() -> Server {
    let catalog = Arc::new(Catalog::new());
    let data = Dataset::new(
        "toy",
        2,
        vec![1.0, 0.1, 0.2, 0.9, 0.7, 0.7, 0.9, 0.3],
        vec![0, 1, 0, 1],
        vec![],
    )
    .unwrap();
    catalog.insert_dataset(data).unwrap();
    let engine = Arc::new(QueryEngine::new(catalog, 64));
    Server::spawn(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
        },
    )
    .unwrap()
}

#[test]
fn malformed_shards_values_err_without_desync() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr());

    // PROTOCOL.md: SHARDS n accepts 1..=64; everything else is a
    // protocol error answered on a connection that stays usable.
    for bad in [
        "SHARDS 0",
        "SHARDS 65",
        "SHARDS -3",
        "SHARDS x",
        "SHARDS 2 4",
    ] {
        c.send(bad);
        let resp = c.recv();
        assert!(
            resp.starts_with("ERR protocol error:"),
            "{bad:?} answered {resp:?}"
        );
        c.assert_in_sync();
    }

    // The rejected values must not have changed the knob.
    c.send("SHARDS");
    let default_shards = c.recv();
    assert!(
        default_shards.starts_with("OK shards="),
        "got {default_shards:?}"
    );

    // A valid set round-trips and shows up in INFO.
    c.send("SHARDS 4");
    assert_eq!(c.recv(), "OK shards=4");
    c.send("INFO");
    let info = c.recv();
    assert!(
        info.starts_with("OK shards=4 strategy=") && info.contains(" workers=2 datasets=1 "),
        "got {info:?}"
    );
    c.assert_in_sync();
    server.shutdown();
}

#[test]
fn oversized_batch_count_errs_without_desync() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr());

    // PROTOCOL.md: BATCH n with n > 100 000 is refused with an ERR line;
    // nothing is consumed, the connection stays open.
    c.send("BATCH 100001");
    let resp = c.recv();
    assert!(
        resp.starts_with("ERR protocol error: batch size"),
        "got {resp:?}"
    );
    c.assert_in_sync();

    // A malformed line inside a smaller batch fails the whole batch with
    // one ERR after consuming all n lines — the valid tail line is NOT
    // executed as a top-level request.
    c.send("BATCH 2");
    c.send("NOT-A-QUERY");
    c.send("QUERY dataset=toy k=2");
    let resp = c.recv();
    assert!(resp.starts_with("ERR protocol error:"), "got {resp:?}");
    c.assert_in_sync();
    server.shutdown();
}

/// A valid batch answers its header and one frame per line, in order;
/// a batch holding a non-`QUERY` line answers one `ERR` naming the line
/// instead.
#[test]
fn batch_lines_must_all_be_queries() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr());

    c.send("BATCH 2\nQUERY dataset=toy k=2\nQUERY dataset=toy k=3");
    assert_eq!(c.recv(), "OK batch=2");
    for k in [2, 3] {
        let ans = fairhms_service::protocol::parse_response(&c.recv()).unwrap();
        assert_eq!(ans.indices.len(), k);
    }

    c.send("BATCH 1\nPING");
    let resp = c.recv();
    assert!(
        resp.starts_with("ERR protocol error: batch line 1 must be a QUERY"),
        "got {resp:?}"
    );
    c.assert_in_sync();
    server.shutdown();
}

/// A batch whose first line is not a `QUERY` must still consume all `n`
/// lines before erroring: the valid line after the bad one is NOT run as
/// a top-level request, and the request pipelined after the batch is
/// the next one answered.
#[test]
fn bad_batch_line_consumes_the_whole_batch() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr());

    c.send("BATCH 2\nPING\nQUERY dataset=toy k=2\nSTATS");
    let resp = c.recv();
    assert!(resp.starts_with("ERR protocol error:"), "got {resp:?}");
    let stats = c.recv();
    assert!(stats.starts_with("OK hits="), "got {stats:?}");
    c.assert_in_sync();
    server.shutdown();
}

/// Satellite regression (ISSUE 4): the client-side serializers must
/// *error* on wire-unsafe field values — a value containing spaces or
/// newlines would tokenize into extra fields or extra request lines and
/// silently desynchronize every later response on the connection.
#[test]
fn wire_unsafe_query_values_error_instead_of_desyncing() {
    use fairhms_service::protocol::{format_response, query_to_wire};
    use fairhms_service::{Answer, QueryResponse, ServiceError};

    // Crafted alg: would inject a `cached=true` field into the line.
    let mut q = Query::new("toy", 2);
    q.alg = "bigreedy cached=true".into();
    assert!(matches!(
        query_to_wire(&q),
        Err(ServiceError::Protocol(m)) if m.contains("wire-safe")
    ));

    // Crafted dataset: a newline would smuggle a whole second request.
    let mut q = Query::new("toy\nSHUTDOWN", 2);
    q.alg = "bigreedy".into();
    assert!(matches!(
        query_to_wire(&q),
        Err(ServiceError::Protocol(m)) if m.contains("wire-safe")
    ));

    // Same seam on the response side: a crafted display name must not
    // produce a line that parses as several fields.
    let resp = QueryResponse {
        answer: Arc::new(Answer {
            indices: vec![0],
            mhr: None,
            violations: 0,
            alg: "Bi Greedy\nERR injected".into(),
            solve_micros: 1,
        }),
        cached: false,
        micros: 1,
        stages: None,
    };
    assert!(matches!(
        format_response(&resp),
        Err(ServiceError::Protocol(m)) if m.contains("wire-safe")
    ));

    // Ordinary values still serialize byte-identically to v1.
    let mut ok = Query::new("toy", 2);
    ok.alg = "bigreedy+".into();
    assert_eq!(
        query_to_wire(&ok).unwrap(),
        "QUERY dataset=toy k=2 alg=bigreedy+ alpha=0.1 balanced=false seed=42 skyline=true"
    );
}

#[test]
fn oversized_request_line_drops_the_connection() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr());

    // PROTOCOL.md: a request line longer than 1 MiB is connection-fatal.
    let huge = "QUERY dataset=toy k=2 ".to_string() + &"x".repeat(2 << 20);
    c.send(&huge);
    // A dropped connection surfaces as clean EOF or as a reset error
    // (the server closes with our unread bytes still in its buffer).
    let mut line = String::new();
    match c.reader.read_line(&mut line) {
        Ok(n) => assert_eq!(
            n, 0,
            "server answered an oversized line instead of dropping"
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected error {e:?}"
        ),
    }

    // The server itself is unaffected: a fresh connection works.
    let mut fresh = Client::connect(server.addr());
    fresh.assert_in_sync();
    fresh.send(
        &fairhms_service::protocol::query_to_wire(&Query::new("toy", 2)).expect("wire-safe query"),
    );
    let resp = fresh.recv();
    assert!(resp.starts_with("OK alg="), "got {resp:?}");
    server.shutdown();
}
