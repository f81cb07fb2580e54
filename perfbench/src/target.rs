//! What the workload loops drive: the daemon over TCP ([`Conn`]) or, in the
//! traced run, the same layer calls made in-process ([`InProc`]), with spans
//! recorded around each call by a [`Recorder`].

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use uss_core::{answer_query, TemporalIngestEngine, TemporalIngestHandle, TimeRange};
use uss_core::{Query, QueryAnswer};
use uss_server::wire::{decode_request_frame, decode_response_frame};
use uss_server::{MarginalEntry, Request, Response, ServerStats, SketchClient};

use crate::inputs::{spec, STREAM};
use crate::mix::{Op, CONFIDENCE, KIND_NAMES, MARGINAL_MASK, MARGINAL_SHIFT};

/// Errors are reported, not recovered from: any failure fails the run.
pub type Res<T> = Result<T, String>;

/// One recorded span. Ids are unique within a [`Recorder`]; `parent` 0 marks
/// a request span, whose `req` id its child spans share.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (from 1).
    pub id: u32,
    /// Parent span id, 0 for none.
    pub parent: u32,
    /// Request id shared by a request span and its children.
    pub req: u32,
    /// `layer.what`, e.g. `wire.ingest_encode`.
    pub name: &'static str,
    /// Start, ns after the recorder's epoch.
    pub start_ns: u64,
    /// End, ns after the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder. A recorder that is off records nothing and
/// reads no clock, so untraced runs pay one branch per call.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// Every finished span, children before their request span.
    pub spans: Vec<Span>,
    next_id: u32,
    next_req: u32,
    open: Option<(u32, u32, &'static str, Instant)>,
}

impl Recorder {
    /// A recorder; `on` selects whether it records.
    pub fn new(on: bool, epoch: Instant, first_req: u32) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            next_id: 1,
            next_req: first_req,
            open: None,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, parent: u32, req: u32, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            id: self.next_id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.next_id += 1;
        self.spans.push(span);
    }

    /// Opens a request span.
    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            let id = self.next_id;
            self.next_id += 1;
            self.open = Some((id, self.next_req, name, Instant::now()));
            self.next_req += 1;
        }
    }

    /// Closes the open request span.
    pub fn end(&mut self) {
        if let Some((id, req, name, start)) = self.open.take() {
            let end = Instant::now();
            self.spans.push(Span {
                id,
                parent: 0,
                req,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Starts timing a child of the open request.
    pub fn start(&self) -> Option<Instant> {
        self.open.map(|_| Instant::now())
    }

    /// Records a child span that started at `start`.
    pub fn finish(&mut self, start: Option<Instant>, name: &'static str) {
        if let (Some(start), Some((parent, req, _, _))) = (start, self.open) {
            self.push(parent, req, name, start, Instant::now());
        }
    }

    /// Runs `f` inside a child span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.start();
        let out = f();
        self.finish(start, name);
        out
    }
}

/// Requests sent on one connection, by kind, and how many failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sent {
    /// `Ingest` requests.
    pub ingest: u64,
    /// Rows in those requests.
    pub rows: u64,
    /// `Query` requests.
    pub query: u64,
    /// `Marginals` requests.
    pub marginals: u64,
    /// `Stats` requests.
    pub stats: u64,
    /// Other requests (stream creation).
    pub other: u64,
    /// Requests that failed.
    pub failed: u64,
}

impl Sent {
    /// All requests attempted.
    pub fn attempted(&self) -> u64 {
        self.ingest + self.query + self.marginals + self.stats + self.other
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Self) -> Self {
        Self {
            ingest: self.ingest + o.ingest,
            rows: self.rows + o.rows,
            query: self.query + o.query,
            marginals: self.marginals + o.marginals,
            stats: self.stats + o.stats,
            other: self.other + o.other,
            failed: self.failed + o.failed,
        }
    }

    /// Field-wise difference (`self` is the later count).
    pub fn minus(&self, o: &Self) -> Self {
        Self {
            ingest: self.ingest - o.ingest,
            rows: self.rows - o.rows,
            query: self.query - o.query,
            marginals: self.marginals - o.marginals,
            stats: self.stats - o.stats,
            other: self.other - o.other,
            failed: self.failed - o.failed,
        }
    }
}

/// What a workload loop drives.
pub trait Target {
    /// Sends one batch and waits for its acknowledgement.
    fn ingest(&mut self, rows: &[(u64, u64)], rec: &mut Recorder) -> Res<()>;
    /// Runs one read of the mix; returns the answer's row count.
    fn read(&mut self, op: &Op, rec: &mut Recorder) -> Res<u64>;
}

/// How long a client waits for any one reply before the run fails.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// One TCP connection to the daemon, counting what it sends.
pub struct Conn {
    client: SketchClient,
    /// Requests sent so far.
    pub sent: Sent,
}

fn failed<T>(sent: &mut Sent, r: Result<T, uss_server::ClientError>, what: &str) -> Res<T> {
    r.map_err(|e| {
        sent.failed += 1;
        format!("{what} failed: {e}")
    })
}

impl Conn {
    /// Connects with a per-reply deadline.
    pub fn connect(addr: SocketAddr) -> Res<Self> {
        let client = SketchClient::connect_timeout(addr, CLIENT_TIMEOUT)
            .map_err(|e| format!("connect failed: {e}"))?;
        Ok(Self {
            client,
            sent: Sent::default(),
        })
    }

    /// Creates the benchmark stream.
    pub fn create(&mut self, seed: u64) -> Res<()> {
        self.sent.other += 1;
        let created = failed(
            &mut self.sent,
            self.client.create_stream(STREAM, spec(seed)),
            "create",
        )?;
        if created {
            Ok(())
        } else {
            Err("stream already existed on a fresh daemon".into())
        }
    }

    /// A typed query.
    pub fn query(&mut self, range: &TimeRange, query: &Query) -> Res<(u64, QueryAnswer)> {
        self.sent.query += 1;
        failed(
            &mut self.sent,
            self.client.query(STREAM, range, query),
            "query",
        )
    }

    /// Keyed marginals.
    pub fn marginals(
        &mut self,
        range: &TimeRange,
        shift: u8,
        mask: u64,
    ) -> Res<(u64, Vec<MarginalEntry>)> {
        self.sent.marginals += 1;
        failed(
            &mut self.sent,
            self.client
                .marginals(STREAM, range, shift, mask, CONFIDENCE),
            "marginals",
        )
    }

    /// A metrics snapshot.
    pub fn stats(&mut self) -> Res<ServerStats> {
        self.sent.stats += 1;
        failed(&mut self.sent, self.client.stats(), "stats")
    }
}

impl Target for Conn {
    fn ingest(&mut self, rows: &[(u64, u64)], rec: &mut Recorder) -> Res<()> {
        self.sent.ingest += 1;
        self.sent.rows += rows.len() as u64;
        rec.begin("request.ingest");
        let acked = self.client.ingest(STREAM, rows);
        rec.end();
        let acked = failed(&mut self.sent, acked, "ingest")?;
        if acked == rows.len() as u64 {
            Ok(())
        } else {
            Err(format!(
                "ingest acknowledged {acked} of {} rows",
                rows.len()
            ))
        }
    }

    fn read(&mut self, op: &Op, rec: &mut Recorder) -> Res<u64> {
        match op.query() {
            Some(q) => {
                self.sent.query += 1;
                rec.begin("request.query");
                let r = self.client.query(STREAM, &op.range, &q);
                rec.end();
                failed(&mut self.sent, r, "query").map(|(rows, _)| rows)
            }
            None => {
                self.sent.marginals += 1;
                rec.begin("request.marginals");
                let r = self.client.marginals(
                    STREAM,
                    &op.range,
                    MARGINAL_SHIFT,
                    MARGINAL_MASK,
                    CONFIDENCE,
                );
                rec.end();
                failed(&mut self.sent, r, "marginals").map(|(rows, _)| rows)
            }
        }
    }
}

/// Span names of `query.answer` per kind, in [`KIND_NAMES`] order.
pub const ANSWER_SPANS: [&str; 6] = [
    "query.answer.subset_sum",
    "query.answer.proportion",
    "query.answer.top_k",
    "query.answer.frequent_items",
    "query.answer.rank_quantile",
    "query.marginals",
];

/// The daemon's per-request layer calls, made in-process on an engine with
/// the stream's spec: request encode and decode, the temporal engine, the
/// query layer, response encode and decode. The socket hop and the daemon's
/// dispatch are the only serving steps left out.
pub struct InProc<'a> {
    engine: &'a TemporalIngestEngine,
    handle: Option<TemporalIngestHandle>,
    /// Bytes of every `Ingest` request frame built.
    pub ingest_frame_bytes: u64,
    /// `Ingest` frames built.
    pub ingest_frames: u64,
}

/// An engine with the benchmark stream's spec.
pub fn engine(seed: u64) -> Res<TemporalIngestEngine> {
    let config = spec(seed).to_config().map_err(|e| e.to_string())?;
    TemporalIngestEngine::try_new(config).map_err(|e| e.to_string())
}

impl<'a> InProc<'a> {
    /// A target on `engine`; `writer` gives it an ingest handle.
    pub fn new(engine: &'a TemporalIngestEngine, writer: bool) -> Res<Self> {
        let handle = if writer {
            Some(engine.try_handle().map_err(|e| e.to_string())?)
        } else {
            None
        };
        Ok(Self {
            engine,
            handle,
            ingest_frame_bytes: 0,
            ingest_frames: 0,
        })
    }
}

impl Target for InProc<'_> {
    fn ingest(&mut self, rows: &[(u64, u64)], rec: &mut Recorder) -> Res<()> {
        let handle = self.handle.as_mut().ok_or("ingest on a read-only target")?;
        rec.begin("request.ingest");
        let request = Request::Ingest {
            name: STREAM.to_string(),
            rows: rows.to_vec(),
        };
        let frame = rec.time("wire.ingest_encode", || request.encode());
        self.ingest_frame_bytes += frame.len() as u64;
        self.ingest_frames += 1;
        let decoded = rec.time("wire.ingest_decode", || decode_request_frame(&frame));
        let Ok(Request::Ingest { rows: decoded, .. }) = decoded else {
            return Err("ingest frame did not round-trip".into());
        };
        rec.time("temporal.offer_flush", || {
            handle
                .try_offer_batch_at(&decoded)
                .and_then(|()| handle.try_flush())
        })
        .map_err(|e| e.to_string())?;
        let ack = rec.time("wire.ack_encode", || {
            Response::Ingested {
                rows: decoded.len() as u64,
            }
            .encode()
        });
        let ack = rec.time("wire.ack_decode", || decode_response_frame(&ack));
        rec.end();
        match ack {
            Ok(Response::Ingested { rows: n }) if n == rows.len() as u64 => Ok(()),
            other => Err(format!("unexpected ingest ack {other:?}")),
        }
    }

    fn read(&mut self, op: &Op, rec: &mut Recorder) -> Res<u64> {
        let query = op.query();
        rec.begin(if query.is_some() {
            "request.query"
        } else {
            "request.marginals"
        });
        let request = match &query {
            Some(q) => Request::Query {
                name: STREAM.to_string(),
                range: op.range,
                confidence: CONFIDENCE,
                query: q.clone(),
            },
            None => Request::Marginals {
                name: STREAM.to_string(),
                range: op.range,
                confidence: CONFIDENCE,
                shift: MARGINAL_SHIFT,
                mask: MARGINAL_MASK,
            },
        };
        let frame = rec.time("wire.read_encode", || request.encode());
        let decoded = rec
            .time("wire.read_decode", || decode_request_frame(&frame))
            .map_err(|e| e.to_string())?;
        let range = match decoded {
            Request::Query { range, .. } | Request::Marginals { range, .. } => range,
            other => return Err(format!("read frame decoded as {other:?}")),
        };
        let hits = &self.engine.temporal_metrics().range_cache_hits;
        let hits_before = hits.get();
        let start = rec.start();
        let snap = self
            .engine
            .try_range_capture(&range)
            .map_err(|e| e.to_string())?;
        // One reader per engine in every workload, so the counter moves only
        // for this capture.
        let hit = hits.get() > hits_before;
        rec.finish(
            start,
            if hit {
                "temporal.capture_hit"
            } else {
                "temporal.capture_miss"
            },
        );
        let rows = snap.rows_processed();
        let response = rec.time(ANSWER_SPANS[op.kind], || match &query {
            Some(q) => Response::Answer {
                rows,
                answer: answer_query(&snap, q, CONFIDENCE),
            },
            None => Response::MarginalsAnswer {
                rows,
                entries: snap
                    .marginals(|item| Some((item >> MARGINAL_SHIFT) & MARGINAL_MASK))
                    .into_iter()
                    .map(|(key, estimate)| MarginalEntry {
                        key,
                        ci: estimate.confidence_interval(CONFIDENCE),
                        estimate,
                    })
                    .collect(),
            },
        });
        let frame = rec.time("wire.answer_encode", || response.encode());
        let decoded = rec.time("wire.answer_decode", || decode_response_frame(&frame));
        rec.end();
        match decoded {
            Ok(Response::Answer { rows, .. } | Response::MarginalsAnswer { rows, .. }) => Ok(rows),
            other => Err(format!("unexpected answer {other:?}")),
        }
    }
}

/// Checks at compile time that the kind tables line up.
const _: () = assert!(KIND_NAMES.len() == ANSWER_SPANS.len());
