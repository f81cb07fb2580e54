//! The two metrics exposures against a live daemon: the wire `Stats`
//! snapshot and the Prometheus text exposition must agree with each other
//! (the per-stream sample lines are byte-identical by construction) and with
//! ground truth — rows ingested, requests served, error frames provoked —
//! and the per-kind latency histograms must conserve their bucket sums even
//! after hostile wire-fuzz traffic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use uss_core::metrics::{MetricKind, CORE_FAMILIES};
use uss_core::persist::TemporalMeta;
use uss_core::{Query, TimeRange};
use uss_server::wire::ServerStats;
use uss_server::{ClientError, ErrorCode, ServerConfig, SketchClient, SketchServer};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Request-kind indices (kind − 1), mirroring the wire registry.
const IDX_CREATE_STREAM: usize = 1;
const IDX_INGEST: usize = 3;
const IDX_QUERY: usize = 4;
const IDX_STATS: usize = 7;

fn spec(shards: u64, seed: u64) -> TemporalMeta {
    TemporalMeta {
        shards,
        capacity: 128,
        seed,
        bucket_width: 50,
        fine_buckets: 16,
        tier_factor: 4,
        tiers: 2,
    }
}

fn start_metrics_server() -> SketchServer {
    let config = ServerConfig {
        metrics_addr: Some(String::from("127.0.0.1:0")),
        ..ServerConfig::default()
    };
    SketchServer::start("127.0.0.1:0", config).expect("bind ephemeral ports")
}

fn connect(server: &SketchServer) -> SketchClient {
    let mut client = SketchClient::connect(server.addr()).expect("connect");
    client.set_timeout(Some(CLIENT_TIMEOUT)).expect("timeout");
    client
}

/// One HTTP exchange against the exposition listener; returns (status line,
/// body).
fn scrape(server: &SketchServer, request_head: &str) -> (String, String) {
    let addr = server.metrics_addr().expect("metrics listener bound");
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request_head.as_bytes()).expect("send scrape");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Every latency histogram must conserve its bucket sum, and — thanks to the
/// bump-after-write discipline — equal the request counter for its kind at
/// any quiescent snapshot.
fn assert_latency_conservation(stats: &ServerStats) {
    assert_eq!(stats.latency.len(), stats.requests.len());
    for (k, hist) in stats.latency.iter().enumerate() {
        let bucket_total: u64 = hist.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(bucket_total, hist.count, "kind {k}: bucket sum vs count");
        assert_eq!(
            hist.count, stats.requests[k],
            "kind {k}: latency count vs request counter"
        );
    }
}

#[test]
fn stats_and_exposition_agree_with_each_other_and_ground_truth() {
    let server = start_metrics_server();
    let mut client = connect(&server);
    assert!(client.create_stream("clicks", spec(2, 42)).unwrap());
    let rows: Vec<(u64, u64)> = (0..10_000).map(|i| ((i * i + 7) % 97, i / 10)).collect();
    assert_eq!(client.ingest("clicks", &rows).unwrap(), 10_000);
    // Any query quiesces the workers: worker-side counters are exact after it.
    let (rows_seen, _) = client
        .query("clicks", &TimeRange::All, &Query::TopK { k: 5 })
        .unwrap();
    assert_eq!(rows_seen, 10_000);

    // The ladder idle-builder may still be materialising nodes; wait for the
    // per-stream samples to reach their fixed point (finite work, monotone).
    let mut stats = client.stats().expect("stats");
    for _ in 0..200 {
        let next = client.stats().expect("stats");
        if next.streams == stats.streams {
            stats = next;
            break;
        }
        stats = next;
        std::thread::sleep(Duration::from_millis(10));
    }

    // Ground truth, server side: exactly one create, one ingest, one query
    // served before the first stats call; the snapshot's own stats request is
    // never half-counted (bump-after-write), so IDX_STATS counts only the
    // *earlier* stats calls.
    assert_eq!(stats.requests[IDX_CREATE_STREAM], 1);
    assert_eq!(stats.requests[IDX_INGEST], 1);
    assert_eq!(stats.requests[IDX_QUERY], 1);
    assert!(stats.requests[IDX_STATS] >= 1, "earlier stats calls counted");
    assert!(stats.connections_accepted >= 1);
    assert_eq!(stats.error_frames.iter().sum::<u64>(), 0);
    assert_latency_conservation(&stats);

    // Ground truth, stream side: the enqueue hint and the worker-side row
    // counters both reconcile with the 10 000 rows actually sent.
    assert_eq!(stats.streams.len(), 1);
    let stream = &stats.streams[0];
    assert_eq!(stream.name, "clicks");
    assert_eq!(stream.rows_ingested, 10_000);
    let worker_rows: u64 = stream
        .samples
        .iter()
        .filter(|(name, _)| name.starts_with("uss_ingest_rows_total{"))
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(worker_rows, 10_000, "per-shard row counters sum to rows sent");
    // The query quiesced every shard, and each quiesce samples the resident
    // size of the shard's live bucket sketches.
    let memory: Vec<u64> = stream
        .samples
        .iter()
        .filter(|(name, _)| name.starts_with("uss_sketch_memory_bytes{"))
        .map(|&(_, v)| v)
        .collect();
    assert_eq!(memory.len(), 2, "one sketch-memory gauge per shard");
    assert!(
        memory.iter().all(|&bytes| bytes > 0),
        "sketch-memory gauge recorded for every shard: {memory:?}"
    );
    assert_eq!(stream.requests[IDX_INGEST], 1);
    assert_eq!(stream.requests[IDX_QUERY], 1);

    // The text exposition renders from the same snapshot builder: every
    // per-stream sample must appear byte-for-byte as `name{labels} value`.
    let (status, body) = scrape(&server, "GET /metrics HTTP/1.0\r\n\r\n");
    assert!(status.contains("200"), "scrape status: {status}");
    for (sample, value) in &stream.samples {
        let line = format!("{sample} {value}");
        assert!(
            body.lines().any(|l| l == line),
            "exposition missing sample line {line:?}"
        );
    }
    // Every core family carries its HELP/TYPE header with the right type.
    for desc in CORE_FAMILIES {
        assert!(
            body.contains(&format!("# HELP {} ", desc.name)),
            "missing HELP for {}",
            desc.name
        );
        let type_name = match desc.kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        assert!(
            body.contains(&format!("# TYPE {} {type_name}\n", desc.name)),
            "missing TYPE for {}",
            desc.name
        );
    }
    // Server families: the request counter lines carry kind labels, and the
    // latency histogram exposes the cumulative +Inf bucket per kind.
    assert!(body.contains("# TYPE uss_server_requests_total counter"));
    assert!(body.contains("uss_server_requests_total{kind=\"ingest\"} 1\n"));
    assert!(body.contains("# TYPE uss_server_request_latency_nanos histogram"));
    assert!(body.contains("uss_server_request_latency_nanos_bucket{kind=\"query\",le=\"+Inf\"} 1\n"));
    assert!(body.contains("uss_server_request_latency_nanos_count{kind=\"query\"} 1\n"));

    // Anything that is not a GET fails loudly.
    let (bad_status, _) = scrape(&server, "POST /metrics HTTP/1.0\r\n\r\n");
    assert!(bad_status.contains("400"), "non-GET status: {bad_status}");

    server.shutdown();
}

#[test]
fn error_frames_and_latency_conserve_under_hostile_traffic() {
    let server = start_metrics_server();
    let mut client = connect(&server);
    assert!(client.create_stream("s", spec(1, 7)).unwrap());

    // A typed payload error: querying a stream that does not exist.
    match client.query("nope", &TimeRange::All, &Query::TopK { k: 1 }) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownStream),
        other => panic!("expected UnknownStream, got {other:?}"),
    }

    // A framing error: garbage bytes on a fresh connection.
    {
        let mut hostile = TcpStream::connect(server.addr()).expect("connect");
        hostile
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        hostile
            .write_all(b"USSX total garbage, not a frame at all.....")
            .expect("send garbage");
        // Drain whatever the server answers until it closes the connection,
        // so the error frame is fully written (and counted) before stats.
        let mut sink = Vec::new();
        let _ = hostile.read_to_end(&mut sink);
    }

    let stats = client.stats().expect("stats");
    // ErrorCode indices are code − 1: BadFrame = 1, UnknownStream = 3.
    assert_eq!(stats.error_frames[ErrorCode::BadFrame as usize - 1], 1);
    assert_eq!(stats.error_frames[ErrorCode::UnknownStream as usize - 1], 1);
    assert_eq!(stats.error_frames.iter().sum::<u64>(), 2);
    // The failed query still counted as a served request of its kind (an
    // error response is written like any other), and every histogram
    // conserves its buckets.
    assert_latency_conservation(&stats);

    // The exposition agrees on the error-frame counters.
    let (_, body) = scrape(&server, "GET / HTTP/1.0\r\n\r\n");
    assert!(body.contains("uss_server_error_frames_total{code=\"bad_frame\"} 1\n"));
    assert!(body.contains("uss_server_error_frames_total{code=\"unknown_stream\"} 1\n"));

    server.shutdown();
}
