//! Typed wire protocol: requests, the [`Response`] model, and the v1 text
//! rendering.
//!
//! Since protocol **v2** the service speaks a *typed* request/response
//! model: every server reply is a [`Response`] value, and a
//! [`crate::codec::Codec`] renders it on the wire. Two codecs exist —
//! [`crate::codec::TextCodec`] (the v1 lines below, bit-for-bit) and
//! [`crate::codec::BinaryCodec`] (length-prefixed frames) — negotiated by
//! the `HELLO` handshake. A connection that never sends `HELLO` is a v1
//! text session and observes exactly the v1 protocol.
//!
//! Requests are *always* newline-delimited UTF-8 text, space-separated
//! `key=value` pairs, no quoting — values never contain spaces. The
//! negotiated codec governs the **response** channel only (responses
//! carry the bulk: index lists). Numeric floats use Rust's shortest
//! round-trip `Display` formatting, so a parsed `mhr` is bit-identical to
//! the serialized one.
//!
//! ```text
//! >> PING                                   << OK pong
//! >> HELLO version=2 codec=binary           << OK version=2 codec=binary
//! >> LIST                                   << OK datasets=name:n:d:c:sky,...
//! >> ALGS                                   << OK algorithms=intcov,bigreedy,...
//! >> STATS                                  << OK hits=… misses=… entries=… evictions=… hit_rate=… warm_hits=… warm_misses=… warm_entries=…
//! >> INFO                                   << OK shards=… strategy=… workers=… datasets=… cache_entries=… warmstart=…
//! >> SHARDS                                 << OK shards=1
//! >> SHARDS 4                               << OK shards=4   (future registrations prep with 4 shards)
//! >> QUERY dataset=adult k=8 alg=bigreedy   << OK alg=BiGreedy cached=false micros=812 err=0 mhr=0.97 indices=3,17,40
//! >> BATCH 2                                << OK batch=2
//! >> QUERY …                                << (response line for query 1)
//! >> QUERY …                                << (response line for query 2)
//! >> BATCH 2 stream=true                    << OK batch=2 stream=true
//! >> QUERY …                                << OK seq=1 alg=…   (completion order,
//! >> QUERY …                                << OK seq=0 alg=…    seq = request index)
//! >> LOAD name=extra path=extra.csv         << OK loaded name=extra n=2000 d=3 groups=3 skyline=940
//! >> APPEND name=extra row=0.5,0.9,0.1 group=2
//!                                           << OK mutated name=extra op=append n=2001 skyline=940 sky_changed=false cache_dropped=1 warm_dropped=0
//! >> DELETE name=extra row=17               << OK mutated name=extra op=delete n=2000 skyline=939 sky_changed=true cache_dropped=4 warm_dropped=2
//! >> SHUTDOWN                               << OK bye
//! ```
//!
//! Malformed input yields a single `ERR <message>` reply; the connection
//! stays open.
//!
//! ## Response schema
//!
//! Each [`Response`] variant's fields are listed once for both codecs:
//! `put_response` writes them into a `Sink` and `take_response` reads them
//! back from a `Source`, in the same order. The text codec (`TextSink`,
//! `TextSource`, here) names each field `key=value`; the binary codec
//! (`crate::codec`) writes them positionally. Text-only syntax — `OK`/`ERR`,
//! marker words such as `pong`, `seq=` omitted when absent, `mhr=none` —
//! lives in the text impls, not in the schema.
//!
//! Adding a field to a response that has shipped takes two lines: one
//! write at the end of its `put_response` arm (`s.u64("key", v)`), and one
//! read inside a new `s.appended(default, |s| s.u64("key"))` group at the
//! end of its `take_response` arm. Both codecs then decode an older
//! peer's frame, which lacks the whole group, to `default`, and reject a
//! frame that has only part of it.

use crate::engine::QueryResponse;
use crate::query::Query;
use crate::ServiceError;

/// Protocol version spoken after a successful `HELLO`; v1 is the
/// implicit version of connections that never send one.
pub const PROTOCOL_VERSION: u32 = 2;

/// A parsed client request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// `HELLO version=2 codec=<text|binary>`: negotiate the response
    /// codec for the rest of the connection (v2 handshake).
    Hello {
        /// Requested protocol version (only [`PROTOCOL_VERSION`] is
        /// accepted; v1 clients simply never send `HELLO`).
        version: u32,
        /// Requested response codec.
        codec: crate::codec::CodecKind,
    },
    /// List cataloged datasets.
    List,
    /// List registered algorithm names.
    Algorithms,
    /// Report cache counters.
    Stats,
    /// Report server configuration (shards, strategy, workers, catalog
    /// and cache sizes).
    Info,
    /// `SHARDS` reports the catalog's preparation shard count; `SHARDS n`
    /// sets it for future dataset registrations (already-prepared
    /// datasets are untouched — answers are shard-count-independent).
    Shards(Option<usize>),
    /// `BATCH n [stream=true]`: the next `n` lines are queries executed
    /// as one batch. With `stream=true` each answer is delivered as it
    /// completes, tagged with its request index (`seq=`), instead of
    /// buffering all `n` in request order.
    Batch {
        /// Number of `QUERY` lines that follow the header.
        n: usize,
        /// Stream per-completion (`seq`-tagged) instead of buffering.
        stream: bool,
    },
    /// A single query.
    Query(Box<Query>),
    /// `LOAD name=<name> path=<path>`: register a CSV from the server's
    /// `--load-root` allowlist directory into the catalog.
    Load {
        /// Catalog key to register under.
        name: String,
        /// Path relative to the server's `--load-root`.
        path: String,
    },
    /// `APPEND name=<name> row=<c1,...,cd> group=<idx>`: append one row
    /// to a cataloged dataset in place, with incremental group-skyline
    /// maintenance and delta cache invalidation (no re-prep, no full
    /// cache flush).
    Append {
        /// Catalog key of the dataset to mutate.
        name: String,
        /// The new row's coordinates (must match the dataset's
        /// dimensionality; finite, non-negative).
        row: Vec<f64>,
        /// 0-based group index of the new row (must be an existing
        /// group).
        group: usize,
    },
    /// `DELETE name=<name> row=<id>`: delete one row by its current
    /// 0-based id. Ids above the deleted row shift down by one, exactly
    /// as re-loading the edited CSV would renumber them.
    Delete {
        /// Catalog key of the dataset to mutate.
        name: String,
        /// Current 0-based row id to remove.
        row: usize,
    },
    /// Report the telemetry snapshot (stage histograms, counters,
    /// gauges). Added after v2 shipped; old clients simply never send it.
    Metrics,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// One typed server reply — the seam every codec encodes from and every
/// client decodes into.
///
/// One variant per verb (plus [`Response::Error`]); the legacy v1 lines
/// are exactly [`crate::codec::TextCodec`]'s rendering of these values,
/// so the typed model is observably identical to the historical ad-hoc
/// `format!` strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `PING` reply.
    Pong,
    /// `HELLO` acknowledgment: the version and codec now in force.
    Hello {
        /// Accepted protocol version.
        version: u32,
        /// Response codec for every frame after this acknowledgment.
        codec: crate::codec::CodecKind,
    },
    /// `LIST` reply: one `name:n:d:groups:skyline` summary per dataset.
    Datasets(Vec<String>),
    /// `ALGS` reply: registered algorithm names.
    Algorithms(Vec<String>),
    /// `STATS` reply: solution-cache counters plus warm-start tier
    /// counters (the `warm_*` fields; all zero when the tier is
    /// disabled). The fields after `hit_rate` are appended tiers that
    /// decode to 0 when an older peer omits them.
    Stats {
        /// Lookups answered from the cache.
        hits: u64,
        /// Lookups that fell through to a cold solve.
        misses: u64,
        /// Entries currently resident.
        entries: usize,
        /// Entries evicted to make room.
        evictions: u64,
        /// `hits / (hits + misses)` (0 when nothing was looked up).
        hit_rate: f64,
        /// Warm-start components (δ-nets, bounds scans) reused.
        warm_hits: u64,
        /// Warm-start components computed fresh.
        warm_misses: u64,
        /// Resident warm-start entries.
        warm_entries: usize,
        /// Seconds since the server started (0 for engine-only
        /// contexts).
        uptime_secs: u64,
        /// Queries executed by the engine since start.
        total_queries: u64,
        /// Solves waiting in the bounded admission queue right now.
        queue_depth: u64,
        /// Requests refused by admission control since start.
        shed_total: u64,
        /// Connections currently open.
        conns_open: u64,
        /// Catalog mutations (`APPEND`/`DELETE`) applied since start.
        mutations_total: u64,
    },
    /// `INFO` reply: server configuration. `warmstart` and then
    /// `uptime_secs`/`total_queries` are appended tiers; an older peer's
    /// reply decodes with the tier on and zero counters.
    Info {
        /// Catalog preparation shard count.
        shards: usize,
        /// Partition strategy name.
        strategy: String,
        /// Batch worker threads.
        workers: usize,
        /// Registered datasets.
        datasets: usize,
        /// Resident cache entries.
        cache_entries: usize,
        /// Whether the warm-start tier is enabled.
        warmstart: bool,
        /// Seconds since the server started.
        uptime_secs: u64,
        /// Queries executed by the engine since start.
        total_queries: u64,
    },
    /// `SHARDS` reply: the (possibly just set) preparation shard count.
    Shards(usize),
    /// A query answer — one per `QUERY`, `n` per `BATCH n`.
    Answer {
        /// Request index within a streamed batch (`BATCH n stream=true`);
        /// `None` for single queries and buffered batches, whose wire
        /// form is then byte-identical to protocol v1.
        seq: Option<u64>,
        /// The payload.
        answer: WireAnswer,
    },
    /// `BATCH` acknowledgment, written before the `n` answers.
    BatchHeader {
        /// Batch size.
        n: usize,
        /// Whether answers follow in completion order with `seq` tags.
        stream: bool,
    },
    /// `LOAD` reply: the freshly registered dataset's shape.
    Loaded {
        /// Catalog key.
        name: String,
        /// Row count.
        rows: usize,
        /// Dimensionality.
        dim: usize,
        /// Group count.
        groups: usize,
        /// Group-skyline size.
        skyline: usize,
    },
    /// `APPEND`/`DELETE` reply: the post-mutation dataset shape plus the
    /// delta-invalidation fan-out.
    Mutated {
        /// Catalog key.
        name: String,
        /// Which mutation ran: `append` or `delete`.
        op: String,
        /// Row count after the mutation.
        rows: usize,
        /// Group-skyline size after the mutation.
        skyline: usize,
        /// Whether the group skyline changed (membership or row ids).
        sky_changed: bool,
        /// Answer-cache entries dropped by the delta sweep (entries for
        /// untouched forms and other datasets survive).
        cache_dropped: u64,
        /// Warm-start entries dropped by the delta sweep.
        warm_dropped: u64,
    },
    /// `METRICS` reply: the telemetry snapshot. `histograms` holds only
    /// non-empty stage histograms (durations in nanoseconds), so the
    /// line stays proportional to actual activity; `enabled=false` with
    /// empty histograms is the whole reply when telemetry is off.
    Metrics {
        /// Whether span recording is enabled server-side.
        enabled: bool,
        /// Counter and gauge levels, `(name, value)` in export order.
        counters: Vec<(String, u64)>,
        /// Summaries of the non-empty stage histograms.
        histograms: Vec<WireHistogram>,
    },
    /// `SHUTDOWN` acknowledgment.
    Bye,
    /// Admission control refused the request (`ERR busy …` on the text
    /// wire). A distinguished error shape so the server's back-off
    /// advice travels typed; v1 text clients that don't know it still
    /// see a regular `ERR` line.
    Busy {
        /// Request index within a streamed batch, if any.
        seq: Option<u64>,
        /// Suggested client back-off in milliseconds (≥ 1).
        retry_after_ms: u64,
        /// Which bound shed the request (newline-free).
        message: String,
    },
    /// Any failure; `seq` is set only for per-query failures inside a
    /// streamed batch.
    Error {
        /// Request index within a streamed batch, if any.
        seq: Option<u64>,
        /// Human-readable message (newline-free).
        message: String,
    },
}

impl Response {
    /// An [`Response::Error`] (no `seq`) carrying `e`'s display form,
    /// sanitized for the wire (newlines would split text frames, so they
    /// are replaced by spaces — no current error message contains any).
    pub fn error(e: &ServiceError) -> Response {
        Response::error_at(None, e)
    }

    /// Like [`Response::error`], tagged with a streamed-batch sequence
    /// number. [`ServiceError::Busy`] maps to the distinguished
    /// [`Response::Busy`] shape so the retry advice travels typed.
    pub fn error_at(seq: Option<u64>, e: &ServiceError) -> Response {
        match e {
            ServiceError::Busy {
                reason,
                retry_after_ms,
            } => Response::Busy {
                seq,
                retry_after_ms: *retry_after_ms,
                message: reason.replace(['\n', '\r'], " "),
            },
            _ => Response::Error {
                seq,
                message: e.to_string().replace(['\n', '\r'], " "),
            },
        }
    }

    /// Converts a per-query engine result into its response, tagging
    /// `seq` for streamed delivery.
    pub fn from_result(seq: Option<u64>, r: &Result<QueryResponse, ServiceError>) -> Response {
        match r {
            Ok(resp) => Response::Answer {
                seq,
                answer: WireAnswer::from_response(resp),
            },
            Err(e) => Response::error_at(seq, e),
        }
    }
}

fn parse_bool(key: &str, v: &str) -> Result<bool, ServiceError> {
    match v {
        "true" | "1" => Ok(true),
        "false" | "0" => Ok(false),
        _ => Err(ServiceError::Protocol(format!("{key}: bad bool {v:?}"))),
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, ServiceError> {
    v.parse()
        .map_err(|_| ServiceError::Protocol(format!("{key}: cannot parse {v:?}")))
}

/// Rejects a value that would desynchronize the space/newline-delimited
/// text framing if embedded in a request or response line.
///
/// The seam the wire-safety guarantee hangs on: [`query_to_wire`] and
/// [`encode_response_line`] route every free-form string (dataset and
/// algorithm names, list entries) through here, so a crafted value (e.g.
/// `alg="x ERR injected"`) yields a typed error instead of silently
/// producing two frames.
fn check_wire_safe(field: &str, v: &str) -> Result<(), ServiceError> {
    if v.chars().any(char::is_whitespace) {
        return Err(ServiceError::Protocol(format!(
            "{field}: value {v:?} is not wire-safe (contains whitespace)"
        )));
    }
    Ok(())
}

/// Parses a `QUERY`-line body (`key=value` tokens after the verb).
pub fn parse_query(tokens: &[&str]) -> Result<Query, ServiceError> {
    let mut s = TextSource::new(tokens.iter().copied())?;
    let mut q = Query::new(s.str("dataset")?, s.usize("k")?);
    if let Some(v) = s.value("alg") {
        q.alg = v.to_string();
    }
    if let Some(v) = s.value("alpha") {
        q.alpha = parse_num("alpha", v)?;
    }
    if let Some(v) = s.value("balanced") {
        q.balanced = parse_bool("balanced", v)?;
    }
    if let Some(v) = s.value("seed") {
        q.seed = parse_num("seed", v)?;
    }
    if let Some(v) = s.value("skyline") {
        q.skyline = parse_bool("skyline", v)?;
    }
    s.finish()?;
    Ok(q)
}

fn parse_hello(tokens: &[&str]) -> Result<Request, ServiceError> {
    let mut s = TextSource::new(tokens.iter().copied())?;
    let codec = match s.value("codec") {
        None => crate::codec::CodecKind::Text,
        Some(v) => crate::codec::CodecKind::parse(v).ok_or_else(|| {
            ServiceError::Protocol(format!("codec: expected text|binary, got {v:?}"))
        })?,
    };
    let version = s.u64("version")?;
    s.finish()?;
    if version != u64::from(PROTOCOL_VERSION) {
        return Err(ServiceError::Protocol(format!(
            "unsupported protocol version {version} (this server speaks {PROTOCOL_VERSION}; \
             v1 clients simply omit HELLO)"
        )));
    }
    Ok(Request::Hello {
        version: PROTOCOL_VERSION,
        codec,
    })
}

fn parse_batch(rest: &[&str]) -> Result<Request, ServiceError> {
    let Some((n, tail)) = rest.split_first() else {
        return Err(ServiceError::Protocol(
            "usage: BATCH <n> [stream=true]".into(),
        ));
    };
    let n: usize = parse_num("batch size", n)?;
    let mut s = TextSource::new(tail.iter().copied())?;
    let stream = s.flag("stream")?;
    s.finish()?;
    Ok(Request::Batch { n, stream })
}

fn parse_load(tokens: &[&str]) -> Result<Request, ServiceError> {
    let mut s = TextSource::new(tokens.iter().copied())?;
    let load = Request::Load {
        name: s.str("name")?,
        path: s.str("path")?,
    };
    s.finish()?;
    Ok(load)
}

fn parse_append(tokens: &[&str]) -> Result<Request, ServiceError> {
    let mut s = TextSource::new(tokens.iter().copied())?;
    let name = s.str("name")?;
    let row = s.list("row", |s| s.f64("row"))?;
    if row.is_empty() {
        return Err(ServiceError::Protocol("row: empty coordinate list".into()));
    }
    let group = s.usize("group")?;
    s.finish()?;
    Ok(Request::Append { name, row, group })
}

fn parse_delete(tokens: &[&str]) -> Result<Request, ServiceError> {
    let mut s = TextSource::new(tokens.iter().copied())?;
    let delete = Request::Delete {
        name: s.str("name")?,
        row: s.usize("row")?,
    };
    s.finish()?;
    Ok(delete)
}

/// Parses one request line (verbs are case-insensitive).
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((verb, rest)) = tokens.split_first() else {
        return Err(ServiceError::Protocol("empty request".into()));
    };
    match verb.to_ascii_uppercase().as_str() {
        "PING" => Ok(Request::Ping),
        "HELLO" => parse_hello(rest),
        "LIST" => Ok(Request::List),
        "ALGS" => Ok(Request::Algorithms),
        "STATS" => Ok(Request::Stats),
        "INFO" => Ok(Request::Info),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "SHARDS" => match rest {
            [] => Ok(Request::Shards(None)),
            [n] => {
                let v: usize = parse_num("shards", n)?;
                if (1..=crate::catalog::MAX_SHARDS).contains(&v) {
                    Ok(Request::Shards(Some(v)))
                } else {
                    Err(ServiceError::Protocol(format!(
                        "shards must be in 1..={}, got {v}",
                        crate::catalog::MAX_SHARDS
                    )))
                }
            }
            _ => Err(ServiceError::Protocol("usage: SHARDS [n]".into())),
        },
        "BATCH" => parse_batch(rest),
        "QUERY" => Ok(Request::Query(Box::new(parse_query(rest)?))),
        "LOAD" => parse_load(rest),
        "APPEND" => parse_append(rest),
        "DELETE" => parse_delete(rest),
        "METRICS" => Ok(Request::Metrics),
        other => Err(ServiceError::Protocol(format!("unknown verb {other:?}"))),
    }
}

/// Serializes a query as a full `QUERY …` request line (the inverse of
/// [`parse_request`]).
///
/// Errors on wire-unsafe field values (whitespace, including newlines, in
/// `dataset` or `alg`): such a value would tokenize into extra fields or
/// extra request lines on the server — a silent desync — so the client
/// seam refuses to produce it.
pub fn query_to_wire(q: &Query) -> Result<String, ServiceError> {
    check_wire_safe("dataset", &q.dataset)?;
    check_wire_safe("alg", &q.alg)?;
    Ok(format!(
        "QUERY dataset={} k={} alg={} alpha={} balanced={} seed={} skyline={}",
        q.dataset, q.k, q.alg, q.alpha, q.balanced, q.seed, q.skyline
    ))
}

/// One stage histogram's summary as carried by the `METRICS` reply.
///
/// All durations are nanoseconds; quantiles carry the bucket-midpoint
/// error bound documented in `fairhms_obs` (≤ 1/64 relative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHistogram {
    /// Export name (e.g. `engine.solve.bigreedy`); never contains
    /// whitespace, `,`, or `:`.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observations, ns.
    pub sum: u64,
    /// Median estimate, ns.
    pub p50: u64,
    /// 90th-percentile estimate, ns.
    pub p90: u64,
    /// 99th-percentile estimate, ns.
    pub p99: u64,
    /// Exact maximum, ns.
    pub max: u64,
}

impl WireHistogram {
    /// The wire form of a named histogram snapshot.
    pub fn from_snapshot(name: &str, s: &fairhms_obs::HistogramSnapshot) -> WireHistogram {
        WireHistogram {
            name: name.to_string(),
            count: s.count(),
            sum: s.sum(),
            p50: s.p50(),
            p90: s.p90(),
            p99: s.p99(),
            max: s.max(),
        }
    }
}

impl Response {
    /// The `METRICS` reply for a telemetry snapshot.
    pub fn from_metrics(snap: &crate::metrics::MetricsSnapshot) -> Response {
        Response::Metrics {
            enabled: snap.enabled,
            counters: snap.counters.clone(),
            histograms: snap
                .histograms
                .iter()
                .map(|(name, s)| WireHistogram::from_snapshot(name, s))
                .collect(),
        }
    }
}

/// An `OK …` query response as decoded by a client.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnswer {
    /// Display name of the algorithm that solved the query.
    pub alg: String,
    /// Whether the server answered from its solution cache.
    pub cached: bool,
    /// Server-side execution time, microseconds.
    pub micros: u64,
    /// Fairness violation count.
    pub violations: usize,
    /// Minimum happiness ratio (bit-exact across the wire), if evaluated.
    pub mhr: Option<f64>,
    /// Selected rows of the full dataset, sorted.
    pub indices: Vec<usize>,
}

impl WireAnswer {
    /// The wire form of an engine response.
    pub fn from_response(resp: &QueryResponse) -> WireAnswer {
        let a = &resp.answer;
        WireAnswer {
            alg: a.alg.clone(),
            cached: resp.cached,
            micros: resp.micros,
            violations: a.violations,
            mhr: a.mhr,
            indices: a.indices.clone(),
        }
    }
}

/// Formats a successful query response line (protocol v1: no `seq`).
///
/// Errors on a wire-unsafe `alg` value instead of silently emitting a
/// line that would parse as several fields (see [`query_to_wire`]).
pub fn format_response(resp: &QueryResponse) -> Result<String, ServiceError> {
    encode_response_line(&Response::Answer {
        seq: None,
        answer: WireAnswer::from_response(resp),
    })
}

/// Frame tags, one per [`Response`] variant: the first byte of a binary
/// payload, and the variant [`take_response`] decodes for both codecs.
pub(crate) mod tag {
    pub const PONG: u8 = 1;
    pub const HELLO: u8 = 2;
    pub const DATASETS: u8 = 3;
    pub const ALGORITHMS: u8 = 4;
    pub const STATS: u8 = 5;
    pub const INFO: u8 = 6;
    pub const SHARDS: u8 = 7;
    pub const ANSWER: u8 = 8;
    pub const BATCH_HEADER: u8 = 9;
    pub const LOADED: u8 = 10;
    pub const BYE: u8 = 11;
    pub const ERROR: u8 = 12;
    pub const METRICS: u8 = 13;
    pub const BUSY: u8 = 14;
    pub const MUTATED: u8 = 15;
}

/// What [`put_response`] writes a response's fields into; one impl per
/// codec. `key` names the field on the text wire; the binary codec writes
/// fields in call order and ignores it. The provided methods compose the
/// primitive ones the way the binary codec lays them out.
pub(crate) trait Sink: Sized {
    /// Starts the frame of the variant `tag`.
    fn begin(&mut self, tag: u8);
    fn u64(&mut self, key: &'static str, v: u64);
    fn f64(&mut self, key: &'static str, v: f64);
    fn bool(&mut self, key: &'static str, v: bool);
    fn str(&mut self, key: &'static str, v: &str) -> Result<(), ServiceError>;
    /// A list of records, each written field by field by `put`.
    fn list<T>(
        &mut self,
        key: &'static str,
        items: &[T],
        put: impl Fn(&mut Self, &T) -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError>;

    fn usize(&mut self, key: &'static str, v: usize) {
        self.u64(key, v as u64);
    }

    /// A bool that text writes only when set.
    fn flag(&mut self, key: &'static str, v: bool) {
        self.bool(key, v);
    }

    /// An optional integer; only ever a frame's first field.
    fn opt_u64(&mut self, key: &'static str, v: Option<u64>) {
        self.bool(key, v.is_some());
        v.into_iter().for_each(|v| self.u64(key, v));
    }

    fn opt_f64(&mut self, key: &'static str, v: Option<f64>) {
        self.bool(key, v.is_some());
        v.into_iter().for_each(|v| self.f64(key, v));
    }

    /// A list of names.
    fn strs(&mut self, key: &'static str, v: &[String]) -> Result<(), ServiceError> {
        self.list(key, v, |s, name| s.str(key, name))
    }

    /// Free text ending the frame (an error message); read back by
    /// [`Source::str`].
    fn tail(&mut self, key: &'static str, v: &str) -> Result<(), ServiceError> {
        self.str(key, v)
    }
}

/// What [`take_response`] reads a response's fields from; the mirror of
/// [`Sink`], one impl per codec.
pub(crate) trait Source: Sized {
    fn u64(&mut self, key: &'static str) -> Result<u64, ServiceError>;
    fn f64(&mut self, key: &'static str) -> Result<f64, ServiceError>;
    fn bool(&mut self, key: &'static str) -> Result<bool, ServiceError>;
    fn opt_u64(&mut self, key: &'static str) -> Result<Option<u64>, ServiceError>;
    fn opt_f64(&mut self, key: &'static str) -> Result<Option<f64>, ServiceError>;
    fn str(&mut self, key: &'static str) -> Result<String, ServiceError>;
    fn list<T>(
        &mut self,
        key: &'static str,
        take: impl Fn(&mut Self) -> Result<T, ServiceError>,
    ) -> Result<Vec<T>, ServiceError>;
    /// Fields appended to a frame after it first shipped, read by `take`.
    /// A tier that is wholly absent (an older peer's frame) decodes to
    /// `default`; a partly present tier is corruption.
    fn appended<T>(
        &mut self,
        default: T,
        take: impl Fn(&mut Self) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError>;

    fn usize(&mut self, key: &'static str) -> Result<usize, ServiceError> {
        usize::try_from(self.u64(key)?)
            .map_err(|_| ServiceError::Protocol(format!("{key}: value exceeds usize")))
    }

    fn flag(&mut self, key: &'static str) -> Result<bool, ServiceError> {
        self.bool(key)
    }

    fn strs(&mut self, key: &'static str) -> Result<Vec<String>, ServiceError> {
        self.list(key, |s| s.str(key))
    }
}

/// The response schema, encode side: every variant's fields, in wire
/// order. [`take_response`] must read them back in the same order.
pub(crate) fn put_response<S: Sink>(resp: &Response, s: &mut S) -> Result<(), ServiceError> {
    match resp {
        Response::Pong => s.begin(tag::PONG),
        Response::Hello { version, codec } => {
            s.begin(tag::HELLO);
            s.u64("version", u64::from(*version));
            s.str("codec", &codec.to_string())?;
        }
        Response::Datasets(summaries) => {
            s.begin(tag::DATASETS);
            s.strs("datasets", summaries)?;
        }
        Response::Algorithms(names) => {
            s.begin(tag::ALGORITHMS);
            s.strs("algorithms", names)?;
        }
        Response::Stats {
            hits,
            misses,
            entries,
            evictions,
            hit_rate,
            warm_hits,
            warm_misses,
            warm_entries,
            uptime_secs,
            total_queries,
            queue_depth,
            shed_total,
            conns_open,
            mutations_total,
        } => {
            s.begin(tag::STATS);
            s.u64("hits", *hits);
            s.u64("misses", *misses);
            s.usize("entries", *entries);
            s.u64("evictions", *evictions);
            s.f64("hit_rate", *hit_rate);
            s.u64("warm_hits", *warm_hits);
            s.u64("warm_misses", *warm_misses);
            s.usize("warm_entries", *warm_entries);
            s.u64("uptime_secs", *uptime_secs);
            s.u64("total_queries", *total_queries);
            s.u64("queue_depth", *queue_depth);
            s.u64("shed_total", *shed_total);
            s.u64("conns_open", *conns_open);
            s.u64("mutations_total", *mutations_total);
        }
        Response::Info {
            shards,
            strategy,
            workers,
            datasets,
            cache_entries,
            warmstart,
            uptime_secs,
            total_queries,
        } => {
            s.begin(tag::INFO);
            s.usize("shards", *shards);
            s.str("strategy", strategy)?;
            s.usize("workers", *workers);
            s.usize("datasets", *datasets);
            s.usize("cache_entries", *cache_entries);
            s.bool("warmstart", *warmstart);
            s.u64("uptime_secs", *uptime_secs);
            s.u64("total_queries", *total_queries);
        }
        Response::Metrics {
            enabled,
            counters,
            histograms,
        } => {
            s.begin(tag::METRICS);
            s.bool("enabled", *enabled);
            s.list("counters", counters, |s, (name, v)| {
                s.str("name", name)?;
                s.u64("value", *v);
                Ok(())
            })?;
            s.list("histos", histograms, |s, h| {
                s.str("name", &h.name)?;
                s.u64("count", h.count);
                s.u64("sum", h.sum);
                s.u64("p50", h.p50);
                s.u64("p90", h.p90);
                s.u64("p99", h.p99);
                s.u64("max", h.max);
                Ok(())
            })?;
        }
        Response::Shards(n) => {
            s.begin(tag::SHARDS);
            s.usize("shards", *n);
        }
        Response::Answer { seq, answer } => {
            s.begin(tag::ANSWER);
            s.opt_u64("seq", *seq);
            s.str("alg", &answer.alg)?;
            s.bool("cached", answer.cached);
            s.u64("micros", answer.micros);
            s.usize("err", answer.violations);
            s.opt_f64("mhr", answer.mhr);
            s.list("indices", &answer.indices, |s, &i| {
                s.usize("index", i);
                Ok(())
            })?;
        }
        Response::BatchHeader { n, stream } => {
            s.begin(tag::BATCH_HEADER);
            s.usize("batch", *n);
            s.flag("stream", *stream);
        }
        Response::Loaded {
            name,
            rows,
            dim,
            groups,
            skyline,
        } => {
            s.begin(tag::LOADED);
            s.str("name", name)?;
            s.usize("n", *rows);
            s.usize("d", *dim);
            s.usize("groups", *groups);
            s.usize("skyline", *skyline);
        }
        Response::Mutated {
            name,
            op,
            rows,
            skyline,
            sky_changed,
            cache_dropped,
            warm_dropped,
        } => {
            s.begin(tag::MUTATED);
            s.str("name", name)?;
            s.str("op", op)?;
            s.usize("n", *rows);
            s.usize("skyline", *skyline);
            s.bool("sky_changed", *sky_changed);
            s.u64("cache_dropped", *cache_dropped);
            s.u64("warm_dropped", *warm_dropped);
        }
        Response::Bye => s.begin(tag::BYE),
        Response::Busy {
            seq,
            retry_after_ms,
            message,
        } => {
            s.begin(tag::BUSY);
            s.opt_u64("seq", *seq);
            s.u64("retry_after_ms", *retry_after_ms);
            s.tail("message", message)?;
        }
        Response::Error { seq, message } => {
            s.begin(tag::ERROR);
            s.opt_u64("seq", *seq);
            s.tail("message", message)?;
        }
    }
    Ok(())
}

/// The response schema, decode side: the variant `tag`'s fields, read in
/// [`put_response`]'s order. Fields added to a variant after it shipped
/// are read inside [`Source::appended`] groups, one group per tier.
pub(crate) fn take_response<S: Source>(tag: u8, s: &mut S) -> Result<Response, ServiceError> {
    Ok(match tag {
        tag::PONG => Response::Pong,
        tag::HELLO => Response::Hello {
            version: u32::try_from(s.u64("version")?)
                .map_err(|_| ServiceError::Protocol("version exceeds u32".into()))?,
            codec: {
                let v = s.str("codec")?;
                crate::codec::CodecKind::parse(&v)
                    .ok_or_else(|| ServiceError::Protocol(format!("codec: unknown kind {v:?}")))?
            },
        },
        tag::DATASETS => Response::Datasets(s.strs("datasets")?),
        tag::ALGORITHMS => Response::Algorithms(s.strs("algorithms")?),
        tag::STATS => {
            let hits = s.u64("hits")?;
            let misses = s.u64("misses")?;
            let entries = s.usize("entries")?;
            let evictions = s.u64("evictions")?;
            let hit_rate = s.f64("hit_rate")?;
            let (warm_hits, warm_misses, warm_entries) = s.appended((0, 0, 0), |s| {
                Ok((
                    s.u64("warm_hits")?,
                    s.u64("warm_misses")?,
                    s.usize("warm_entries")?,
                ))
            })?;
            let (uptime_secs, total_queries) = s.appended((0, 0), |s| {
                Ok((s.u64("uptime_secs")?, s.u64("total_queries")?))
            })?;
            let (queue_depth, shed_total, conns_open) = s.appended((0, 0, 0), |s| {
                Ok((
                    s.u64("queue_depth")?,
                    s.u64("shed_total")?,
                    s.u64("conns_open")?,
                ))
            })?;
            let mutations_total = s.appended(0, |s| s.u64("mutations_total"))?;
            Response::Stats {
                hits,
                misses,
                entries,
                evictions,
                hit_rate,
                warm_hits,
                warm_misses,
                warm_entries,
                uptime_secs,
                total_queries,
                queue_depth,
                shed_total,
                conns_open,
                mutations_total,
            }
        }
        tag::INFO => {
            let shards = s.usize("shards")?;
            let strategy = s.str("strategy")?;
            let workers = s.usize("workers")?;
            let datasets = s.usize("datasets")?;
            let cache_entries = s.usize("cache_entries")?;
            // Absent means a pre-warm-start peer, whose tier was always on.
            let warmstart = s.appended(true, |s| s.bool("warmstart"))?;
            let (uptime_secs, total_queries) = s.appended((0, 0), |s| {
                Ok((s.u64("uptime_secs")?, s.u64("total_queries")?))
            })?;
            Response::Info {
                shards,
                strategy,
                workers,
                datasets,
                cache_entries,
                warmstart,
                uptime_secs,
                total_queries,
            }
        }
        tag::METRICS => Response::Metrics {
            enabled: s.bool("enabled")?,
            counters: s.list("counters", |s| Ok((s.str("name")?, s.u64("value")?)))?,
            histograms: s.list("histos", |s| {
                Ok(WireHistogram {
                    name: s.str("name")?,
                    count: s.u64("count")?,
                    sum: s.u64("sum")?,
                    p50: s.u64("p50")?,
                    p90: s.u64("p90")?,
                    p99: s.u64("p99")?,
                    max: s.u64("max")?,
                })
            })?,
        },
        tag::SHARDS => Response::Shards(s.usize("shards")?),
        tag::ANSWER => Response::Answer {
            seq: s.opt_u64("seq")?,
            answer: WireAnswer {
                alg: s.str("alg")?,
                cached: s.bool("cached")?,
                micros: s.u64("micros")?,
                violations: s.usize("err")?,
                mhr: s.opt_f64("mhr")?,
                indices: s.list("indices", |s| s.usize("index"))?,
            },
        },
        tag::BATCH_HEADER => Response::BatchHeader {
            n: s.usize("batch")?,
            stream: s.flag("stream")?,
        },
        tag::LOADED => Response::Loaded {
            name: s.str("name")?,
            rows: s.usize("n")?,
            dim: s.usize("d")?,
            groups: s.usize("groups")?,
            skyline: s.usize("skyline")?,
        },
        tag::MUTATED => {
            let name = s.str("name")?;
            let op = s.str("op")?;
            let rows = s.usize("n")?;
            let skyline = s.usize("skyline")?;
            let (sky_changed, cache_dropped, warm_dropped) = s.appended((false, 0, 0), |s| {
                Ok((
                    s.bool("sky_changed")?,
                    s.u64("cache_dropped")?,
                    s.u64("warm_dropped")?,
                ))
            })?;
            Response::Mutated {
                name,
                op,
                rows,
                skyline,
                sky_changed,
                cache_dropped,
                warm_dropped,
            }
        }
        tag::BYE => Response::Bye,
        tag::BUSY => Response::Busy {
            seq: s.opt_u64("seq")?,
            retry_after_ms: s.u64("retry_after_ms")?,
            message: s.str("message")?,
        },
        tag::ERROR => Response::Error {
            seq: s.opt_u64("seq")?,
            message: s.str("message")?,
        },
        t => {
            return Err(ServiceError::Protocol(format!(
                "malformed frame: unknown tag {t}"
            )))
        }
    })
}

/// Marker words: text-only syntax for variants whose first field does
/// not name them. A marker follows the optional leading `seq=`.
const MARKERS: [(u8, &str); 6] = [
    (tag::PONG, "pong"),
    (tag::BYE, "bye"),
    (tag::LOADED, "loaded"),
    (tag::MUTATED, "mutated"),
    (tag::METRICS, "metrics"),
    (tag::BUSY, "busy"),
];

/// The text codec's [`Sink`]: appends ` key=value` tokens to a line,
/// refusing any value that would split or corrupt it.
struct TextSink<'o> {
    out: &'o mut Vec<u8>,
    /// The variant's marker word, written before the first field after
    /// `seq=`.
    marker: Option<&'static str>,
    /// Inside a list record: `Some(true)` before its first field. Record
    /// fields are bare values joined by `:`, records by `,`.
    item: Option<bool>,
}

impl TextSink<'_> {
    fn flush_marker(&mut self) {
        if let Some(m) = self.marker.take() {
            self.out.push(b' ');
            self.out.extend_from_slice(m.as_bytes());
        }
    }

    /// Writes what precedes a field's value.
    fn key(&mut self, key: &str) {
        match &mut self.item {
            Some(first) => {
                if !std::mem::replace(first, false) {
                    self.out.push(b':');
                }
            }
            None => {
                self.flush_marker();
                self.out.push(b' ');
                self.out.extend_from_slice(key.as_bytes());
                self.out.push(b'=');
            }
        }
    }

    fn display(&mut self, key: &str, v: impl std::fmt::Display) {
        use std::io::Write;
        self.key(key);
        write!(self.out, "{v}").expect("writing to a Vec cannot fail");
    }
}

impl Sink for TextSink<'_> {
    fn begin(&mut self, tag: u8) {
        let prefix: &[u8] = match tag {
            tag::ERROR | tag::BUSY => b"ERR",
            _ => b"OK",
        };
        self.out.extend_from_slice(prefix);
        self.marker = MARKERS.iter().find(|(t, _)| *t == tag).map(|(_, m)| *m);
    }

    fn u64(&mut self, key: &'static str, v: u64) {
        self.display(key, v);
    }

    fn f64(&mut self, key: &'static str, v: f64) {
        self.display(key, v);
    }

    fn bool(&mut self, key: &'static str, v: bool) {
        self.display(key, v);
    }

    fn flag(&mut self, key: &'static str, v: bool) {
        if v {
            self.display(key, v);
        }
    }

    fn opt_u64(&mut self, key: &'static str, v: Option<u64>) {
        // Omitted when absent, and written ahead of the marker word.
        if let Some(v) = v {
            use std::io::Write;
            write!(self.out, " {key}={v}").expect("writing to a Vec cannot fail");
        }
    }

    fn opt_f64(&mut self, key: &'static str, v: Option<f64>) {
        match v {
            Some(v) => self.display(key, v),
            None => self.display(key, "none"),
        }
    }

    fn str(&mut self, key: &'static str, v: &str) -> Result<(), ServiceError> {
        check_wire_safe(key, v)?;
        if self.item.is_some() && (v.is_empty() || v.contains([',', ':'])) {
            return Err(ServiceError::Protocol(format!(
                "{key}: {v:?} would corrupt the list encoding"
            )));
        }
        self.display(key, v);
        Ok(())
    }

    /// Names may contain `:`, unlike record fields: a name is its whole
    /// list entry.
    fn strs(&mut self, key: &'static str, v: &[String]) -> Result<(), ServiceError> {
        self.list(key, v, |s, name| {
            check_wire_safe(key, name)?;
            if name.is_empty() || name.contains(',') {
                return Err(ServiceError::Protocol(format!(
                    "{key}: {name:?} would corrupt the comma-joined list"
                )));
            }
            s.out.extend_from_slice(name.as_bytes());
            Ok(())
        })
    }

    fn list<T>(
        &mut self,
        key: &'static str,
        items: &[T],
        put: impl Fn(&mut Self, &T) -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError> {
        self.key(key);
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            self.item = Some(true);
            put(self, item)?;
        }
        self.item = None;
        Ok(())
    }

    fn tail(&mut self, key: &'static str, v: &str) -> Result<(), ServiceError> {
        if v.contains(['\n', '\r']) {
            return Err(ServiceError::Protocol(format!(
                "{key} contains a newline (not wire-safe)"
            )));
        }
        self.flush_marker();
        self.out.push(b' ');
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }
}

/// Appends `resp`'s text line, without its newline, to `out`; on error
/// `out` is left as it was.
pub(crate) fn encode_text(resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError> {
    let start = out.len();
    let mut sink = TextSink {
        out,
        marker: None,
        item: None,
    };
    let written = put_response(resp, &mut sink);
    sink.flush_marker();
    if written.is_err() {
        out.truncate(start);
    }
    written
}

/// Encodes a typed [`Response`] as one v1-compatible text line (no
/// trailing newline).
///
/// This *is* the v1 wire format: for every response shape that existed in
/// protocol v1 the output is byte-identical to the historical lines
/// (pinned by `tests/wire_golden.rs`). Free-form strings are
/// wire-safety-checked; a value that would split into extra tokens or
/// lines yields an `Err` instead of a desynchronized connection.
pub fn encode_response_line(resp: &Response) -> Result<String, ServiceError> {
    let mut out = Vec::new();
    encode_text(resp, &mut out)?;
    Ok(String::from_utf8(out).expect("text frames are written from UTF-8 pieces"))
}

/// A text line's `key=value` fields, looked up by key (case-insensitively;
/// the last of duplicate keys wins): the text codec's [`Source`], and the
/// reader of every request line.
struct TextSource<'a> {
    /// `(key, value, read)` per field, in line order.
    fields: Vec<(&'a str, &'a str, bool)>,
    /// The unread fields of the list record being read.
    item: Option<std::str::Split<'a, char>>,
    /// How many lookups found their key.
    found: usize,
}

impl<'a> TextSource<'a> {
    /// Splits a line into its variant tag and its fields: the text-only
    /// `OK`/`ERR` prefixes, marker words, and the
    /// `ERR [seq=N] [busy retry_after_ms=N] <message>` shape.
    /// Reads a line's `key=value` tokens.
    fn new(tokens: impl IntoIterator<Item = &'a str>) -> Result<Self, ServiceError> {
        let fields = tokens
            .into_iter()
            .map(|t| match t.split_once('=') {
                Some((k, v)) => Ok((k, v, false)),
                None => Err(ServiceError::Protocol(format!(
                    "expected key=value, got {t:?}"
                ))),
            })
            .collect::<Result<_, _>>()?;
        Ok(TextSource {
            fields,
            item: None,
            found: 0,
        })
    }

    /// Splits a response line into its variant tag and its fields: the
    /// text-only `OK`/`ERR` prefixes, marker words, and the
    /// `ERR [seq=N] [busy retry_after_ms=N] <message>` shape.
    fn parse(line: &'a str) -> Result<(u8, TextSource<'a>), ServiceError> {
        if let Some(body) = line.strip_prefix("ERR ") {
            // A leading seq=N or busy marker that does not parse stays
            // part of the message.
            let mut source = TextSource::new(None)?;
            let mut rest = body;
            match rest.strip_prefix("seq=").and_then(|t| t.split_once(' ')) {
                Some((n, msg)) if n.parse::<u64>().is_ok() => {
                    source.fields.push(("seq", n, false));
                    rest = msg;
                }
                _ => {}
            }
            let busy = rest.strip_prefix("busy retry_after_ms=");
            let tag = match busy.and_then(|t| t.split_once(' ')) {
                Some((ms, msg)) if ms.parse::<u64>().is_ok() => {
                    source.fields.push(("retry_after_ms", ms, false));
                    rest = msg;
                    tag::BUSY
                }
                _ => tag::ERROR,
            };
            source.fields.push(("message", rest, false));
            return Ok((tag, source));
        }
        let Some(body) = line.strip_prefix("OK ") else {
            return Err(ServiceError::Protocol(format!(
                "expected OK/ERR line, got {line:?}"
            )));
        };
        let mut tokens = body.split_whitespace().peekable();
        let Some(&first) = tokens.peek() else {
            return Err(ServiceError::Protocol("empty OK response".into()));
        };
        let tag = match MARKERS.iter().find(|(_, m)| *m == first) {
            Some(&(tag, _)) => {
                tokens.next();
                tag
            }
            None => match first.split_once('=').map(|(k, _)| k) {
                Some("version") => tag::HELLO,
                Some("datasets") => tag::DATASETS,
                Some("algorithms") => tag::ALGORITHMS,
                Some("hits") => tag::STATS,
                Some("shards") if body.split_whitespace().nth(1).is_none() => tag::SHARDS,
                Some("shards") => tag::INFO,
                Some("batch") => tag::BATCH_HEADER,
                Some("seq" | "alg") => tag::ANSWER,
                _ => {
                    return Err(ServiceError::Protocol(format!(
                        "unrecognized response line {line:?}"
                    )))
                }
            },
        };
        Ok((tag, TextSource::new(tokens)?))
    }

    /// The raw value of `key`: the next field of the current list record,
    /// or else the line's field of that name.
    fn value(&mut self, key: &str) -> Option<&'a str> {
        if let Some(item) = &mut self.item {
            return item.next();
        }
        let mut found = None;
        for (k, v, read) in &mut self.fields {
            if k.eq_ignore_ascii_case(key) {
                *read = true;
                found = Some(*v);
            }
        }
        self.found += usize::from(found.is_some());
        found
    }

    fn parsed<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&'a str) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        match self.value(key) {
            Some(v) => parse(v),
            None => Err(ServiceError::Protocol(format!("missing field {key}="))),
        }
    }

    /// Rejects fields the schema did not read.
    fn finish(&self) -> Result<(), ServiceError> {
        match self.fields.iter().find(|f| !f.2) {
            Some((k, _, _)) => Err(ServiceError::Protocol(format!("unknown field {k:?}"))),
            None => Ok(()),
        }
    }
}

impl Source for TextSource<'_> {
    fn u64(&mut self, key: &'static str) -> Result<u64, ServiceError> {
        self.parsed(key, |v| parse_num(key, v))
    }

    fn f64(&mut self, key: &'static str) -> Result<f64, ServiceError> {
        self.parsed(key, |v| parse_num(key, v))
    }

    fn bool(&mut self, key: &'static str) -> Result<bool, ServiceError> {
        self.parsed(key, |v| parse_bool(key, v))
    }

    fn flag(&mut self, key: &'static str) -> Result<bool, ServiceError> {
        self.value(key).map_or(Ok(false), |v| parse_bool(key, v))
    }

    fn opt_u64(&mut self, key: &'static str) -> Result<Option<u64>, ServiceError> {
        match self.fields.first_mut() {
            Some(f) if f.0.eq_ignore_ascii_case(key) => {
                f.2 = true;
                parse_num(key, f.1).map(Some)
            }
            _ => Ok(None),
        }
    }

    fn opt_f64(&mut self, key: &'static str) -> Result<Option<f64>, ServiceError> {
        self.parsed(key, |v| match v {
            "none" => Ok(None),
            v => parse_num(key, v).map(Some),
        })
    }

    fn str(&mut self, key: &'static str) -> Result<String, ServiceError> {
        self.parsed(key, |v| Ok(v.to_string()))
    }

    fn strs(&mut self, key: &'static str) -> Result<Vec<String>, ServiceError> {
        self.parsed(key, |v| {
            Ok(v.split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect())
        })
    }

    fn list<T>(
        &mut self,
        key: &'static str,
        take: impl Fn(&mut Self) -> Result<T, ServiceError>,
    ) -> Result<Vec<T>, ServiceError> {
        let records = self.parsed(key, Ok)?;
        records
            .split(',')
            .filter(|r| !r.is_empty())
            .map(|record| {
                self.item = Some(record.split(':'));
                let taken = take(self)?;
                match self.item.take().and_then(|mut rest| rest.next()) {
                    None => Ok(taken),
                    Some(_) => Err(ServiceError::Protocol(format!(
                        "{key}: record {record:?} has extra fields"
                    ))),
                }
            })
            .collect()
    }

    fn appended<T>(
        &mut self,
        default: T,
        take: impl Fn(&mut Self) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        // A tier whose first field is missing is absent. Any later field
        // of it that is present stays unread, and `finish` rejects it.
        let found = self.found;
        match take(self) {
            Err(_) if self.found == found => Ok(default),
            taken => taken,
        }
    }
}

/// Decodes one response line into the typed [`Response`] model — the
/// exact inverse of [`encode_response_line`] (round-trip pinned by the
/// codec-equivalence suite, `mhr` to the bit).
pub fn decode_response_line(line: &str) -> Result<Response, ServiceError> {
    let (tag, mut source) = TextSource::parse(line)?;
    let resp = take_response(tag, &mut source)?;
    source.finish()?;
    Ok(resp)
}

/// Decodes a query response line produced by [`format_response`] (an
/// `ERR …` line decodes to [`ServiceError::Protocol`] carrying the
/// message). The v1 client entry point — streamed (`seq`-tagged) frames
/// decode too, via [`decode_response_line`].
pub fn parse_response(line: &str) -> Result<WireAnswer, ServiceError> {
    match decode_response_line(line)? {
        Response::Answer { answer, .. } => Ok(answer),
        Response::Busy {
            retry_after_ms,
            message,
            ..
        } => Err(ServiceError::Busy {
            reason: message,
            retry_after_ms,
        }),
        Response::Error { message, .. } => Err(ServiceError::Protocol(message)),
        other => Err(ServiceError::Protocol(format!(
            "expected a query answer, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Answer;
    use std::sync::Arc;

    #[test]
    fn request_round_trip() {
        let mut q = Query::new("adult", 8);
        q.alg = "bigreedy+".into();
        q.alpha = 0.25;
        q.balanced = true;
        q.seed = 7;
        q.skyline = false;
        let wire = query_to_wire(&q).unwrap();
        match parse_request(&wire).unwrap() {
            Request::Query(parsed) => assert_eq!(*parsed, q),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_defaults_and_verbs() {
        match parse_request("query dataset=d k=3").unwrap() {
            Request::Query(q) => {
                assert_eq!(*q, Query::new("d", 3));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("batch 12").unwrap(),
            Request::Batch {
                n: 12,
                stream: false
            }
        );
        assert_eq!(
            parse_request("BATCH 3 stream=true").unwrap(),
            Request::Batch { n: 3, stream: true }
        );
        assert_eq!(
            parse_request("BATCH 3 stream=0").unwrap(),
            Request::Batch {
                n: 3,
                stream: false
            }
        );
        assert_eq!(parse_request("ShUtDoWn").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("INFO").unwrap(), Request::Info);
        assert_eq!(parse_request("metrics").unwrap(), Request::Metrics);
        assert_eq!(parse_request("shards").unwrap(), Request::Shards(None));
        assert_eq!(parse_request("SHARDS 4").unwrap(), Request::Shards(Some(4)));
        assert_eq!(
            parse_request("SHARDS 64").unwrap(),
            Request::Shards(Some(64))
        );
        for bad in [
            "",
            "FROB",
            "QUERY k=3",
            "QUERY dataset=d",
            "QUERY dataset=d k=x",
            "QUERY dataset=d k=3 zz=1",
            "BATCH",
            "BATCH x y",
            "BATCH 3 stream=maybe",
            "BATCH 3 zz=1",
            "SHARDS 0",
            "SHARDS -2",
            "SHARDS x",
            "SHARDS 65",
            "SHARDS 4 8",
            "HELLO",
            "HELLO version=3",
            "HELLO version=2 codec=carrier-pigeon",
            "LOAD",
            "LOAD name=x",
            "LOAD path=y",
            "LOAD name=x path=a b",
            "APPEND",
            "APPEND name=x",
            "APPEND name=x row=0.5,0.9",
            "APPEND name=x group=0",
            "APPEND name=x row= group=0",
            "APPEND name=x row=0.5,nope group=0",
            "APPEND name=x row=0.5 group=z",
            "APPEND name=x row=0.5 group=0 zz=1",
            "DELETE",
            "DELETE name=x",
            "DELETE row=3",
            "DELETE name=x row=-1",
            "DELETE name=x row=3 zz=1",
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Protocol(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn hello_and_load_parse() {
        assert_eq!(
            parse_request("HELLO version=2 codec=binary").unwrap(),
            Request::Hello {
                version: 2,
                codec: crate::codec::CodecKind::Binary
            }
        );
        assert_eq!(
            parse_request("hello version=2").unwrap(),
            Request::Hello {
                version: 2,
                codec: crate::codec::CodecKind::Text
            }
        );
        assert_eq!(
            parse_request("LOAD name=extra path=sub/extra.csv").unwrap(),
            Request::Load {
                name: "extra".into(),
                path: "sub/extra.csv".into()
            }
        );
    }

    #[test]
    fn response_round_trip_preserves_mhr_bits() {
        let resp = QueryResponse {
            answer: Arc::new(Answer {
                indices: vec![3, 17, 40],
                mhr: Some(0.1 + 0.2), // a value with messy trailing digits
                violations: 0,
                alg: "BiGreedy".into(),
                solve_micros: 812,
            }),
            cached: false,
            micros: 812,
            stages: None,
        };
        let line = format_response(&resp).unwrap();
        let parsed = parse_response(&line).unwrap();
        assert_eq!(parsed.indices, vec![3, 17, 40]);
        assert_eq!(parsed.mhr.map(f64::to_bits), Some((0.1f64 + 0.2).to_bits()));
        assert_eq!(parsed.alg, "BiGreedy");
        assert!(!parsed.cached);

        // empty selection and missing mhr also survive
        let resp2 = QueryResponse {
            answer: Arc::new(Answer {
                indices: vec![],
                mhr: None,
                violations: 2,
                alg: "Greedy".into(),
                solve_micros: 1,
            }),
            cached: true,
            micros: 3,
            stages: None,
        };
        let parsed2 = parse_response(&format_response(&resp2).unwrap()).unwrap();
        assert!(parsed2.indices.is_empty());
        assert_eq!(parsed2.mhr, None);
        assert_eq!(parsed2.violations, 2);
        assert!(parsed2.cached);
    }

    #[test]
    fn err_lines_decode_to_protocol_errors() {
        let e = ServiceError::UnknownDataset { name: "x".into() };
        let line = encode_response_line(&Response::error(&e)).unwrap();
        assert!(line.starts_with("ERR "));
        assert!(matches!(
            parse_response(&line),
            Err(ServiceError::Protocol(m)) if m.contains("unknown dataset")
        ));
        // A newline in the message must not split the frame.
        let e = ServiceError::Protocol("bad\nline\r".into());
        let line = encode_response_line(&Response::error(&e)).unwrap();
        assert!(!line.contains(['\n', '\r']), "{line:?}");
        assert!(matches!(
            parse_response(&line),
            Err(ServiceError::Protocol(m)) if m.ends_with("bad line ")
        ));
    }

    #[test]
    fn busy_markers_decode_compatibly() {
        // A message that merely *starts* like the busy marker but has a
        // malformed retry value stays a plain error (pre-admission
        // transcripts decode unchanged).
        match decode_response_line("ERR busy retry_after_ms=soon overloaded").unwrap() {
            Response::Error { seq: None, message } => {
                assert_eq!(message, "busy retry_after_ms=soon overloaded");
            }
            other => panic!("{other:?}"),
        }
        // The historical v1 busy rendering (no marker) is a plain error.
        match decode_response_line("ERR busy: 8 streamed batches in flight (limit 8)").unwrap() {
            Response::Error { seq: None, message } => {
                assert!(message.starts_with("busy: "));
            }
            other => panic!("{other:?}"),
        }
        // parse_response surfaces a typed ServiceError::Busy to v1-style
        // clients of the line decoder.
        assert!(matches!(
            parse_response("ERR busy retry_after_ms=24 solve queue full"),
            Err(ServiceError::Busy {
                retry_after_ms: 24,
                ..
            })
        ));
    }

    #[test]
    fn append_and_delete_requests_parse() {
        assert_eq!(
            parse_request("APPEND name=extra row=0.5,0.9,0.1 group=2").unwrap(),
            Request::Append {
                name: "extra".into(),
                row: vec![0.5, 0.9, 0.1],
                group: 2
            }
        );
        assert_eq!(
            parse_request("delete name=extra row=17").unwrap(),
            Request::Delete {
                name: "extra".into(),
                row: 17
            }
        );
    }

    /// Decodes `resp` with its last `cut` fields removed, through each
    /// codec. Every appended-tier field used below is one text token and
    /// one binary byte (values under 128), so a cut counts fields.
    fn decode_cut(resp: &Response, cut: usize) -> [Result<Response, ServiceError>; 2] {
        use crate::codec::Codec;
        let line = encode_response_line(resp).unwrap();
        let tokens: Vec<&str> = line.split(' ').collect();
        let mut frame = Vec::new();
        crate::codec::BinaryCodec
            .encode_frame(resp, &mut frame)
            .unwrap();
        let payload = &frame[4..frame.len() - cut];
        [
            decode_response_line(&tokens[..tokens.len() - cut].join(" ")),
            crate::codec::decode_binary_payload(payload),
        ]
    }

    #[test]
    fn appended_tiers_decode_alike_on_both_codecs() {
        let stats =
            |warm: (u64, u64, usize), up: (u64, u64), adm: (u64, u64, u64), muts| Response::Stats {
                hits: 2,
                misses: 1,
                entries: 1,
                evictions: 0,
                hit_rate: 0.5,
                warm_hits: warm.0,
                warm_misses: warm.1,
                warm_entries: warm.2,
                uptime_secs: up.0,
                total_queries: up.1,
                queue_depth: adm.0,
                shed_total: adm.1,
                conns_open: adm.2,
                mutations_total: muts,
            };
        let info = |warmstart, uptime_secs, total_queries| Response::Info {
            shards: 4,
            strategy: "stratified".into(),
            workers: 2,
            datasets: 1,
            cache_entries: 0,
            warmstart,
            uptime_secs,
            total_queries,
        };
        let mutated = |sky_changed, cache_dropped, warm_dropped| Response::Mutated {
            name: "t".into(),
            op: "delete".into(),
            rows: 9,
            skyline: 4,
            sky_changed,
            cache_dropped,
            warm_dropped,
        };
        // (full response, [(fields cut at a tier boundary, decoded)],
        //  fields cut inside a tier)
        let cases = [
            (
                stats((5, 3, 2), (60, 9), (4, 2, 1), 7),
                vec![
                    (1, stats((5, 3, 2), (60, 9), (4, 2, 1), 0)),
                    (4, stats((5, 3, 2), (60, 9), (0, 0, 0), 0)),
                    (6, stats((5, 3, 2), (0, 0), (0, 0, 0), 0)),
                    (9, stats((0, 0, 0), (0, 0), (0, 0, 0), 0)),
                ],
                vec![2, 3, 5, 7, 8],
            ),
            (
                info(false, 12, 3),
                vec![(2, info(false, 0, 0)), (3, info(true, 0, 0))],
                vec![1],
            ),
            (
                mutated(true, 3, 1),
                vec![(3, mutated(false, 0, 0))],
                vec![1, 2],
            ),
        ];
        for (full, boundaries, inside) in cases {
            let [text, binary] = decode_cut(&full, 0);
            assert_eq!(text.unwrap(), full);
            assert_eq!(binary.unwrap(), full);
            // A malformed value in an appended field is an error, not a
            // default.
            let line = encode_response_line(&full).unwrap();
            let tokens: Vec<&str> = line.split(' ').collect();
            let appended = boundaries.iter().map(|&(cut, _)| cut).max().unwrap();
            for i in tokens.len() - appended..tokens.len() {
                let (key, _) = tokens[i].split_once('=').unwrap();
                let bad = format!("{key}=x");
                let mut bad_line = tokens.clone();
                bad_line[i] = &bad;
                let bad_line = bad_line.join(" ");
                assert!(decode_response_line(&bad_line).is_err(), "{bad_line:?}");
            }
            for (cut, want) in boundaries {
                let [text, binary] = decode_cut(&full, cut);
                assert_eq!(text.unwrap(), want, "text cut {cut} of {full:?}");
                assert_eq!(binary.unwrap(), want, "binary cut {cut} of {full:?}");
            }
            for cut in inside {
                let [text, binary] = decode_cut(&full, cut);
                assert!(text.is_err(), "text cut {cut} inside a tier of {full:?}");
                assert!(
                    binary.is_err(),
                    "binary cut {cut} inside a tier of {full:?}"
                );
            }
        }
        // A text line naming a key its variant does not define is rejected.
        for line in [
            "OK alg=x cached=false micros=1 err=0 mhr=none indices= zz=1",
            "OK batch=3 zz=1",
            "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.5 zz=1",
        ] {
            assert!(decode_response_line(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn wire_unsafe_query_fields_error_instead_of_desync() {
        let mut q = Query::new("toy", 2);
        q.alg = "bigreedy cached=true".into(); // crafted: would inject a field
        assert!(matches!(
            query_to_wire(&q),
            Err(ServiceError::Protocol(m)) if m.contains("wire-safe")
        ));
        let mut q = Query::new("toy\nPING", 2); // crafted: would inject a request
        q.alg = "bigreedy".into();
        assert!(query_to_wire(&q).is_err());

        let resp = QueryResponse {
            answer: Arc::new(Answer {
                indices: vec![1],
                mhr: None,
                violations: 0,
                alg: "Bi Greedy".into(), // crafted display name
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
    }

    #[test]
    fn metric_names_that_collide_with_delimiters_are_rejected() {
        for bad in ["has space", "has:colon", "has,comma", ""] {
            let resp = Response::Metrics {
                enabled: true,
                counters: vec![(bad.to_string(), 1)],
                histograms: vec![],
            };
            assert!(
                encode_response_line(&resp).is_err(),
                "counter name {bad:?} should be rejected"
            );
            let resp = Response::Metrics {
                enabled: true,
                counters: vec![],
                histograms: vec![WireHistogram {
                    name: bad.to_string(),
                    count: 1,
                    sum: 1,
                    p50: 1,
                    p90: 1,
                    p99: 1,
                    max: 1,
                }],
            };
            assert!(
                encode_response_line(&resp).is_err(),
                "histogram name {bad:?} should be rejected"
            );
        }
        // Malformed METRICS bodies are typed errors, not panics.
        assert!(decode_response_line("OK metrics enabled=true counters=noval histos=").is_err());
        assert!(decode_response_line("OK metrics enabled=true counters= histos=a:1:2").is_err());
    }

    #[test]
    fn streamed_answer_lines_carry_seq() {
        let ans = WireAnswer {
            alg: "IntCov".into(),
            cached: false,
            micros: 12,
            violations: 0,
            mhr: Some(0.75),
            indices: vec![4, 9],
        };
        let line = encode_response_line(&Response::Answer {
            seq: Some(3),
            answer: ans.clone(),
        })
        .unwrap();
        assert_eq!(
            line,
            "OK seq=3 alg=IntCov cached=false micros=12 err=0 mhr=0.75 indices=4,9"
        );
        match decode_response_line(&line).unwrap() {
            Response::Answer { seq, answer } => {
                assert_eq!(seq, Some(3));
                assert_eq!(answer, ans);
            }
            other => panic!("{other:?}"),
        }
        // and the v1 client decoder still accepts the payload
        assert_eq!(parse_response(&line).unwrap(), ans);
    }

    #[test]
    fn typed_decode_covers_every_v1_line_shape() {
        for (line, expect) in [
            ("OK pong", Response::Pong),
            ("OK bye", Response::Bye),
            (
                "OK datasets=a:1:2:3:4,b:5:6:7:8",
                Response::Datasets(vec!["a:1:2:3:4".into(), "b:5:6:7:8".into()]),
            ),
            ("OK datasets=", Response::Datasets(vec![])),
            (
                "OK algorithms=intcov,bigreedy",
                Response::Algorithms(vec!["intcov".into(), "bigreedy".into()]),
            ),
            (
                "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.6666666666666666 \
                 warm_hits=3 warm_misses=2 warm_entries=1 uptime_secs=12 total_queries=3 \
                 queue_depth=2 shed_total=5 conns_open=7 mutations_total=4",
                Response::Stats {
                    hits: 2,
                    misses: 1,
                    entries: 1,
                    evictions: 0,
                    hit_rate: 2.0 / 3.0,
                    warm_hits: 3,
                    warm_misses: 2,
                    warm_entries: 1,
                    uptime_secs: 12,
                    total_queries: 3,
                    queue_depth: 2,
                    shed_total: 5,
                    conns_open: 7,
                    mutations_total: 4,
                },
            ),
            (
                "OK mutated name=extra op=append n=2001 skyline=940 sky_changed=false \
                 cache_dropped=1 warm_dropped=0",
                Response::Mutated {
                    name: "extra".into(),
                    op: "append".into(),
                    rows: 2001,
                    skyline: 940,
                    sky_changed: false,
                    cache_dropped: 1,
                    warm_dropped: 0,
                },
            ),
            (
                "OK shards=4 strategy=stratified workers=2 datasets=1 cache_entries=0 \
                 warmstart=false uptime_secs=0 total_queries=0",
                Response::Info {
                    shards: 4,
                    strategy: "stratified".into(),
                    workers: 2,
                    datasets: 1,
                    cache_entries: 0,
                    warmstart: false,
                    uptime_secs: 0,
                    total_queries: 0,
                },
            ),
            (
                "OK metrics enabled=true counters=conn.active:1,queries.total:9 \
                 histos=engine.cache_lookup:9:8100:800:950:990:1024,server.read:9:90000:9000:9900:9990:12000",
                Response::Metrics {
                    enabled: true,
                    counters: vec![("conn.active".into(), 1), ("queries.total".into(), 9)],
                    histograms: vec![
                        WireHistogram {
                            name: "engine.cache_lookup".into(),
                            count: 9,
                            sum: 8100,
                            p50: 800,
                            p90: 950,
                            p99: 990,
                            max: 1024,
                        },
                        WireHistogram {
                            name: "server.read".into(),
                            count: 9,
                            sum: 90000,
                            p50: 9000,
                            p90: 9900,
                            p99: 9990,
                            max: 12000,
                        },
                    ],
                },
            ),
            (
                "OK metrics enabled=false counters= histos=",
                Response::Metrics {
                    enabled: false,
                    counters: vec![],
                    histograms: vec![],
                },
            ),
            ("OK shards=4", Response::Shards(4)),
            (
                "OK batch=7",
                Response::BatchHeader {
                    n: 7,
                    stream: false,
                },
            ),
            (
                "OK batch=7 stream=true",
                Response::BatchHeader { n: 7, stream: true },
            ),
            (
                "OK loaded name=extra n=2000 d=3 groups=3 skyline=940",
                Response::Loaded {
                    name: "extra".into(),
                    rows: 2000,
                    dim: 3,
                    groups: 3,
                    skyline: 940,
                },
            ),
            (
                "OK version=2 codec=binary",
                Response::Hello {
                    version: 2,
                    codec: crate::codec::CodecKind::Binary,
                },
            ),
            (
                "ERR unknown dataset \"x\" (not in catalog)",
                Response::Error {
                    seq: None,
                    message: "unknown dataset \"x\" (not in catalog)".into(),
                },
            ),
            (
                "ERR seq=2 solver error: k must be positive",
                Response::Error {
                    seq: Some(2),
                    message: "solver error: k must be positive".into(),
                },
            ),
            (
                "ERR busy retry_after_ms=24 solve queue full (depth 256)",
                Response::Busy {
                    seq: None,
                    retry_after_ms: 24,
                    message: "solve queue full (depth 256)".into(),
                },
            ),
            (
                "ERR seq=3 busy retry_after_ms=1 queue deadline exceeded",
                Response::Busy {
                    seq: Some(3),
                    retry_after_ms: 1,
                    message: "queue deadline exceeded".into(),
                },
            ),
        ] {
            let decoded = decode_response_line(line).unwrap();
            assert_eq!(decoded, expect, "decode of {line:?}");
            // and every decoded value re-encodes to the identical line
            assert_eq!(encode_response_line(&decoded).unwrap(), line);
        }
    }
}
