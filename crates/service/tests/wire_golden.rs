//! Golden wire bytes: the exact text and binary frames of every
//! `Response` variant, frozen.
//!
//! Round-trip suites cannot catch an encoder and its decoder drifting
//! together; these literals can. Clients outside this crate (perfbench's
//! frame scanners, older peers) depend on the byte layout, so a change
//! here is a protocol change, not a refactor.

use fairhms_service::codec::{BinaryCodec, Codec, CodecKind, TextCodec};
use fairhms_service::protocol::{Response, WireAnswer, WireHistogram};

/// One index per `Response` variant. The match has no wildcard arm, so a
/// new variant fails to compile here; give it the next index, raise
/// [`VARIANTS`], and `every_variant_has_golden_frames` then fails until
/// the variant has golden frames below.
fn variant_index(r: &Response) -> usize {
    match r {
        Response::Pong => 0,
        Response::Hello { .. } => 1,
        Response::Datasets(_) => 2,
        Response::Algorithms(_) => 3,
        Response::Stats { .. } => 4,
        Response::Info { .. } => 5,
        Response::Shards(_) => 6,
        Response::Answer { .. } => 7,
        Response::BatchHeader { .. } => 8,
        Response::Loaded { .. } => 9,
        Response::Mutated { .. } => 10,
        Response::Metrics { .. } => 11,
        Response::Bye => 12,
        Response::Busy { .. } => 13,
        Response::Error { .. } => 14,
    }
}

const VARIANTS: usize = 15;

fn histogram(
    name: &str,
    count: u64,
    sum: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
) -> WireHistogram {
    WireHistogram {
        name: name.into(),
        count,
        sum,
        p50,
        p90,
        p99,
        max,
    }
}

/// Every sample with its text frame and its binary frame (hex, length
/// prefix included): both `seq` forms, `mhr` present and absent, empty
/// lists and both `stream` values.
fn golden() -> Vec<(Response, &'static str, &'static str)> {
    vec![
        (
            Response::Pong,
            "OK pong\n",
            "0100000001",
        ),
        (
            Response::Hello {
                version: 2,
                codec: CodecKind::Binary,
            },
            "OK version=2 codec=binary\n",
            "0900000002020662696e617279",
        ),
        (
            Response::Hello {
                version: 2,
                codec: CodecKind::Text,
            },
            "OK version=2 codec=text\n",
            "0700000002020474657874",
        ),
        (
            Response::Datasets(vec!["a:1:2:3:4".into(), "b:5:6:7:8".into()]),
            "OK datasets=a:1:2:3:4,b:5:6:7:8\n",
            "16000000030209613a313a323a333a3409623a353a363a373a38",
        ),
        (
            Response::Datasets(vec![]),
            "OK datasets=\n",
            "020000000300",
        ),
        (
            Response::Algorithms(vec!["intcov".into(), "bigreedy".into()]),
            "OK algorithms=intcov,bigreedy\n",
            "12000000040206696e74636f76086269677265656479",
        ),
        (
            Response::Algorithms(vec![]),
            "OK algorithms=\n",
            "020000000400",
        ),
        (
            Response::Stats {
                hits: 2,
                misses: 1,
                entries: 1,
                evictions: 0,
                hit_rate: 2.0 / 3.0,
                warm_hits: 5,
                warm_misses: 3,
                warm_entries: 2,
                uptime_secs: 3600,
                total_queries: 42,
                queue_depth: 6,
                shed_total: 11,
                conns_open: 3,
                mutations_total: 4,
            },
            "OK hits=2 misses=1 entries=1 evictions=0 hit_rate=0.6666666666666666 warm_hits=5 warm_misses=3 warm_entries=2 uptime_secs=3600 total_queries=42 queue_depth=6 shed_total=11 conns_open=3 mutations_total=4\n",
            "170000000502010100555555555555e53f050302901c2a060b0304",
        ),
        (
            Response::Info {
                shards: 4,
                strategy: "stratified".into(),
                workers: 8,
                datasets: 2,
                cache_entries: 17,
                warmstart: false,
                uptime_secs: 12,
                total_queries: 9,
            },
            "OK shards=4 strategy=stratified workers=8 datasets=2 cache_entries=17 warmstart=false uptime_secs=12 total_queries=9\n",
            "1300000006040a73747261746966696564080211000c09",
        ),
        (
            Response::Info {
                shards: 1,
                strategy: "roundrobin".into(),
                workers: 2,
                datasets: 0,
                cache_entries: 0,
                warmstart: true,
                uptime_secs: 0,
                total_queries: 0,
            },
            "OK shards=1 strategy=roundrobin workers=2 datasets=0 cache_entries=0 warmstart=true uptime_secs=0 total_queries=0\n",
            "1300000006010a726f756e64726f62696e020000010000",
        ),
        (
            Response::Shards(64),
            "OK shards=64\n",
            "020000000740",
        ),
        (
            Response::Answer {
                seq: Some(3),
                answer: WireAnswer {
                    alg: "BiGreedy".into(),
                    cached: true,
                    micros: 812,
                    violations: 0,
                    mhr: Some(0.1 + 0.2),
                    indices: vec![0, 3, 17, 40, 100_000],
                },
            },
            "OK seq=3 alg=BiGreedy cached=true micros=812 err=0 mhr=0.30000000000000004 indices=0,3,17,40,100000\n",
            "2100000008010308426947726565647901ac060001343333333333d33f0500031128a08d06",
        ),
        (
            Response::Answer {
                seq: None,
                answer: WireAnswer {
                    alg: "Greedy".into(),
                    cached: false,
                    micros: 0,
                    violations: 2,
                    mhr: None,
                    indices: vec![],
                },
            },
            "OK alg=Greedy cached=false micros=0 err=2 mhr=none indices=\n",
            "0e0000000800064772656564790000020000",
        ),
        (
            Response::BatchHeader { n: 7, stream: true },
            "OK batch=7 stream=true\n",
            "03000000090701",
        ),
        (
            Response::BatchHeader {
                n: 100_000,
                stream: false,
            },
            "OK batch=100000\n",
            "0500000009a08d0600",
        ),
        (
            Response::Loaded {
                name: "extra".into(),
                rows: 2000,
                dim: 3,
                groups: 3,
                skyline: 940,
            },
            "OK loaded name=extra n=2000 d=3 groups=3 skyline=940\n",
            "0d0000000a056578747261d00f0303ac07",
        ),
        (
            Response::Mutated {
                name: "extra".into(),
                op: "append".into(),
                rows: 2001,
                skyline: 941,
                sky_changed: true,
                cache_dropped: 3,
                warm_dropped: 1,
            },
            "OK mutated name=extra op=append n=2001 skyline=941 sky_changed=true cache_dropped=3 warm_dropped=1\n",
            "150000000f05657874726106617070656e64d10fad07010301",
        ),
        (
            Response::Mutated {
                name: "toy".into(),
                op: "delete".into(),
                rows: 7,
                skyline: 4,
                sky_changed: false,
                cache_dropped: 0,
                warm_dropped: 0,
            },
            "OK mutated name=toy op=delete n=7 skyline=4 sky_changed=false cache_dropped=0 warm_dropped=0\n",
            "110000000f03746f790664656c6574650704000000",
        ),
        (
            Response::Metrics {
                enabled: true,
                counters: vec![("conn.active".into(), 3), ("queries.total".into(), 128)],
                histograms: vec![
                    histogram("engine.cache_lookup", 128, 51_200, 300, 700, 1_500, 2_000),
                    histogram("server.read", 1, 9, 9, 9, 9, 9),
                ],
            },
            "OK metrics enabled=true counters=conn.active:3,queries.total:128 histos=engine.cache_lookup:128:51200:300:700:1500:2000,server.read:1:9:9:9:9:9\n",
            "540000000d01020b636f6e6e2e616374697665030d717565726965732e746f74616c80010213656e67696e652e63616368655f6c6f6f6b75708001809003ac02bc05dc0bd00f0b7365727665722e72656164010909090909",
        ),
        (
            Response::Metrics {
                enabled: false,
                counters: vec![],
                histograms: vec![],
            },
            "OK metrics enabled=false counters= histos=\n",
            "040000000d000000",
        ),
        (
            Response::Bye,
            "OK bye\n",
            "010000000b",
        ),
        (
            Response::Busy {
                seq: None,
                retry_after_ms: 24,
                message: "solve queue full (depth 256)".into(),
            },
            "ERR busy retry_after_ms=24 solve queue full (depth 256)\n",
            "200000000e00181c736f6c76652071756575652066756c6c202864657074682032353629",
        ),
        (
            Response::Busy {
                seq: Some(5),
                retry_after_ms: 1,
                message: "queue deadline exceeded".into(),
            },
            "ERR seq=5 busy retry_after_ms=1 queue deadline exceeded\n",
            "1c0000000e01050117717565756520646561646c696e65206578636565646564",
        ),
        (
            Response::Error {
                seq: Some(2),
                message: "solver error: k must be positive".into(),
            },
            "ERR seq=2 solver error: k must be positive\n",
            "240000000c010220736f6c766572206572726f723a206b206d75737420626520706f736974697665",
        ),
        (
            Response::Error {
                seq: None,
                message: "unknown verb \"FROB\"".into(),
            },
            "ERR unknown verb \"FROB\"\n",
            "160000000c0013756e6b6e6f776e2076657262202246524f4222",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn every_variant_has_golden_frames() {
    let mut covered = [false; VARIANTS];
    for (resp, _, _) in golden() {
        covered[variant_index(&resp)] = true;
    }
    let missing: Vec<usize> = (0..VARIANTS).filter(|&i| !covered[i]).collect();
    assert!(
        missing.is_empty(),
        "variants without golden frames: {missing:?}"
    );
}

#[test]
fn text_frames_match_golden_bytes() {
    for (resp, text, _) in golden() {
        let mut frame = Vec::new();
        TextCodec.encode_frame(&resp, &mut frame).unwrap();
        assert_eq!(
            String::from_utf8(frame).unwrap(),
            text,
            "encode of {resp:?}"
        );
        let mut reader = std::io::Cursor::new(text.as_bytes());
        let decoded = TextCodec.read_frame(&mut reader).unwrap();
        assert_eq!(decoded, Some(resp), "decode of {text:?}");
        assert_eq!(TextCodec.read_frame(&mut reader).unwrap(), None);
    }
}

#[test]
fn binary_frames_match_golden_bytes() {
    for (resp, _, golden_hex) in golden() {
        let mut frame = Vec::new();
        BinaryCodec.encode_frame(&resp, &mut frame).unwrap();
        assert_eq!(hex(&frame), golden_hex, "encode of {resp:?}");
        let mut reader = std::io::Cursor::new(unhex(golden_hex));
        let decoded = BinaryCodec.read_frame(&mut reader).unwrap();
        assert_eq!(decoded, Some(resp), "decode of {golden_hex}");
        assert_eq!(BinaryCodec.read_frame(&mut reader).unwrap(), None);
    }
}
