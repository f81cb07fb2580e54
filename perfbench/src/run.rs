//! Set-up, the workload loops, the side probes and the output checks.
//!
//! The loops are generic over [`Target`], so the traced run drives the very
//! same loops over TCP and in-process.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use uss_core::{Query, QueryAnswer, TimeRange};
use uss_server::{ServerConfig, SketchServer};

use crate::inputs::{Inputs, BATCH_ROWS, HEAVY};
use crate::mix::{self, Op};
use crate::stats::{ms, PacedLog, Schedule, Series, StatsDelta, StatsView};
use crate::target::{Conn, Recorder, Res, Sent, Target};
use crate::Workload;

/// Batches preloaded into the stream before any measurement (2M rows).
pub const PRELOAD_BATCHES: u64 = 488;
/// Reads of the mix that warm the stream up after the preload: every
/// range/kind pair once.
pub const WARMUP_READS: u64 = 18;
/// Offered ingest rate of `mixed_paced`: one 4096-row batch per 4.096 ms.
pub const MIXED_ROWS_PER_S: u64 = 1_000_000;
/// Offered read rate of `mixed_paced`.
pub const MIXED_QPS: u64 = 200;
/// Length of the read-back after `ingest`'s main loop.
pub const READBACK: Duration = Duration::from_secs(8);
/// Write-then-read rounds of the freshness probe.
pub const FRESHNESS_ROUNDS: u64 = 1_000;

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this long.
    Time(Duration),
    /// After this many requests.
    Count(u64),
}

impl Stop {
    fn done(self, started: Instant, n: u64) -> bool {
        match self {
            Self::Time(d) => started.elapsed() >= d,
            Self::Count(c) => n >= c,
        }
    }
}

/// Closed-loop ingest: the next batch is sent when the previous one is
/// acknowledged.
pub fn ingest_loop<T: Target>(
    t: &mut T,
    inputs: &Inputs,
    next_batch: &mut u64,
    stop: Stop,
    rec: &mut Recorder,
) -> Res<Series> {
    let mut log = Series::default();
    let mut buf = Vec::with_capacity(BATCH_ROWS);
    let started = Instant::now();
    while !stop.done(started, log.len() as u64) {
        inputs.fill(*next_batch, &mut buf);
        let sent = Instant::now();
        t.ingest(&buf, rec)?;
        log.push(started.elapsed().as_secs_f64(), ms(sent.elapsed()));
        *next_batch += 1;
    }
    Ok(log)
}

/// Closed-loop reads of the mix over a stream of `anchor_rows` rows.
pub fn read_loop<T: Target>(
    t: &mut T,
    next_query: &mut u64,
    anchor_rows: u64,
    stop: Stop,
    rec: &mut Recorder,
) -> Res<Series> {
    let mut log = Series::default();
    let started = Instant::now();
    while !stop.done(started, log.len() as u64) {
        let op = mix::op(*next_query, anchor_rows);
        let sent = Instant::now();
        let rows = t.read(&op, rec)?;
        log.push(started.elapsed().as_secs_f64(), ms(sent.elapsed()));
        if op.range == TimeRange::All && rows != anchor_rows {
            return Err(format!(
                "All answered {rows} rows on a stream of {anchor_rows}"
            ));
        }
        *next_query += 1;
    }
    Ok(log)
}

/// Write-then-read probe: each round sends one batch, then reads `All`; the
/// freshness of that answer is the time from the batch's send to the
/// answer's arrival. Returns one freshness sample (ms) per round.
pub fn freshness_probe<T: Target>(
    t: &mut T,
    inputs: &Inputs,
    next_batch: &mut u64,
    rounds: u64,
    rec: &mut Recorder,
) -> Res<Series> {
    let mut out = Series::default();
    let started = Instant::now();
    let mut buf = Vec::with_capacity(BATCH_ROWS);
    let all = Op {
        range: TimeRange::All,
        kind: 2,
    };
    for _ in 0..rounds {
        inputs.fill(*next_batch, &mut buf);
        let stamp = Instant::now();
        t.ingest(&buf, rec)?;
        *next_batch += 1;
        let rows = t.read(&all, rec)?;
        if rows != *next_batch * BATCH_ROWS as u64 {
            return Err(format!(
                "All answered {rows} rows right after its batch was acknowledged"
            ));
        }
        out.push(started.elapsed().as_secs_f64(), ms(stamp.elapsed()));
    }
    Ok(out)
}

/// What the open-loop `mixed_paced` workload measured.
#[derive(Debug, Clone, Default)]
pub struct MixedLog {
    /// The writer's batches.
    pub writer: PacedLog,
    /// The reader's requests.
    pub reader: PacedLog,
    /// Arrival (s after the schedule's start) and freshness (ms) of every
    /// `All` answer.
    pub fresh: Series,
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Open-loop `mixed_paced`: a writer at [`MIXED_ROWS_PER_S`] on one target
/// and the read mix at [`MIXED_QPS`] on another, both timed from when each
/// request was due. Writer timestamps continue from `next_batch`, the end of
/// the preload, so no row is late.
#[allow(clippy::too_many_arguments)]
pub fn mixed<W: Target + Send, R: Target + Send>(
    writer: &mut W,
    reader: &mut R,
    inputs: &Inputs,
    next_batch: &mut u64,
    next_query: &mut u64,
    secs: Duration,
    rec_w: &mut Recorder,
    rec_r: &mut Recorder,
) -> Res<MixedLog> {
    let t0 = Instant::now() + Duration::from_millis(20);
    let batch_period = Duration::from_nanos(BATCH_ROWS as u64 * 1_000_000_000 / MIXED_ROWS_PER_S);
    let writes = (secs.as_nanos() / batch_period.as_nanos()) as u64;
    let reads = secs.as_secs_f64() as u64 * MIXED_QPS;
    let ws = Schedule {
        t0,
        period: batch_period,
    };
    let rs = Schedule {
        t0,
        period: Duration::from_nanos(1_000_000_000 / MIXED_QPS),
    };
    let first_batch = *next_batch;
    let base_rows = first_batch * BATCH_ROWS as u64;
    // Send time of writer batch i, ns after t0, plus one (0 = not sent yet).
    let stamps: Vec<AtomicU64> = (0..writes).map(|_| AtomicU64::new(0)).collect();
    let stamps = &stamps;
    let (wlog, rlog) = std::thread::scope(|s| {
        let w = s.spawn(move || -> Res<PacedLog> {
            let mut log = PacedLog::default();
            let mut buf = Vec::with_capacity(BATCH_ROWS);
            for i in 0..writes {
                inputs.fill(first_batch + i, &mut buf);
                sleep_until(ws.due(i));
                let sent = Instant::now();
                let ns = u64::try_from(sent.saturating_duration_since(t0).as_nanos())
                    .unwrap_or(u64::MAX - 1);
                stamps[i as usize].store(ns + 1, Ordering::Release);
                writer.ingest(&buf, rec_w)?;
                log.record(&ws, i, sent, Instant::now());
            }
            Ok(log)
        });
        let r = s.spawn(move || -> Res<(PacedLog, Series)> {
            let mut log = PacedLog::default();
            let mut fresh = Series::default();
            let mut anchor = base_rows;
            for i in 0..reads {
                let op = mix::op(*next_query, anchor);
                sleep_until(rs.due(i));
                let sent = Instant::now();
                let rows = reader.read(&op, rec_r)?;
                let done = Instant::now();
                log.record(&rs, i, sent, done);
                *next_query += 1;
                if op.range == TimeRange::All {
                    anchor = anchor.max(rows);
                    // The newest writer batch wholly inside the answer.
                    let contained = rows.saturating_sub(base_rows) / BATCH_ROWS as u64;
                    if contained > 0 && contained <= writes {
                        let stamp = stamps[(contained - 1) as usize].load(Ordering::Acquire);
                        if stamp > 0 {
                            let sent_at = t0 + Duration::from_nanos(stamp - 1);
                            fresh.push(
                                done.saturating_duration_since(t0).as_secs_f64(),
                                ms(done.saturating_duration_since(sent_at)),
                            );
                        }
                    }
                }
            }
            Ok((log, fresh))
        });
        (
            w.join()
                .unwrap_or_else(|_| Err("writer thread panicked".into())),
            r.join()
                .unwrap_or_else(|_| Err("reader thread panicked".into())),
        )
    });
    let writer_log = wlog?;
    let (reader_log, fresh) = rlog?;
    *next_batch = first_batch + writes;
    Ok(MixedLog {
        writer: writer_log,
        reader: reader_log,
        fresh,
    })
}

/// What one pass of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Ingest batches: `ingest`'s main loop or `mixed_paced`'s writer.
    pub ingest: Option<Series>,
    /// Reads: `query`'s main loop, `ingest`'s read-back or `mixed_paced`'s
    /// reader.
    pub read: Series,
    /// Freshness: the write-then-read probe, or `mixed_paced`'s `All`
    /// answers.
    pub fresh: Series,
    /// How late `mixed_paced`'s generator sent each request, ms.
    pub late_ms: Vec<f64>,
}

impl Pass {
    /// Latencies of the main loop.
    pub fn main_lat(&self, w: Workload) -> &[f64] {
        match (w, &self.ingest) {
            (Workload::Ingest, Some(ingest)) => &ingest.lat_ms,
            _ => &self.read.lat_ms,
        }
    }
}

/// One pass of workload `w`: its main loop for `secs` and, when `side` is
/// set, the side phases that give the figures the main loop does not
/// exercise (`ingest`: a read-back and the freshness probe; `query`: the
/// freshness probe). `mixed_paced` reads on `reader`; the others drive
/// `writer` alone.
#[allow(clippy::too_many_arguments)]
pub fn workload<W: Target + Send, R: Target + Send>(
    w: Workload,
    writer: &mut W,
    reader: Option<&mut R>,
    inputs: &Inputs,
    next_batch: &mut u64,
    next_query: &mut u64,
    secs: Duration,
    side: bool,
    rec_w: &mut Recorder,
    rec_r: &mut Recorder,
) -> Res<Pass> {
    let mut pass = Pass::default();
    match w {
        Workload::Ingest => {
            pass.ingest = Some(ingest_loop(
                writer,
                inputs,
                next_batch,
                Stop::Time(secs),
                rec_w,
            )?);
            if side {
                let anchor = *next_batch * BATCH_ROWS as u64;
                pass.read = read_loop(writer, next_query, anchor, Stop::Time(READBACK), rec_w)?;
            }
        }
        Workload::Query => {
            let anchor = *next_batch * BATCH_ROWS as u64;
            pass.read = read_loop(writer, next_query, anchor, Stop::Time(secs), rec_w)?;
        }
        Workload::MixedPaced => {
            let reader = reader.ok_or("mixed_paced needs a reader")?;
            let log = mixed(
                writer, reader, inputs, next_batch, next_query, secs, rec_w, rec_r,
            )?;
            pass.ingest = Some(log.writer.series);
            pass.read = log.reader.series;
            pass.fresh = log.fresh;
            pass.late_ms = log.writer.late_ms;
            pass.late_ms.extend(log.reader.late_ms);
            return Ok(pass);
        }
    }
    if side {
        pass.fresh = freshness_probe(writer, inputs, next_batch, FRESHNESS_ROUNDS, rec_w)?;
    }
    Ok(pass)
}

/// One booted daemon with the stream created, preloaded and warmed up.
pub struct Boot {
    /// The daemon.
    pub server: SketchServer,
    /// The control connection (also the writer connection).
    pub conn: Conn,
    /// Stats right after stream creation, before the preload.
    pub baseline: StatsView,
    /// `conn.sent` when `baseline` was taken.
    pub baseline_sent: Sent,
    /// Next global batch index.
    pub next_batch: u64,
    /// Next request index of the read mix.
    pub next_query: u64,
    /// The preload, a closed-loop ingest.
    pub preload: Series,
    /// Boot + create + preload + warm-up, s.
    pub setup_s: f64,
}

/// Boots a daemon on an ephemeral loopback port and sets the stream up.
pub fn boot(inputs: &Inputs, seed: u64, rec: &mut Recorder) -> Res<Boot> {
    let started = Instant::now();
    let server = SketchServer::start("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("daemon failed to start: {e}"))?;
    let mut conn = Conn::connect(server.addr())?;
    conn.create(seed)?;
    let baseline = StatsView::of(&conn.stats()?, crate::inputs::STREAM);
    let baseline_sent = conn.sent;
    let mut next_batch = 0;
    let preload = ingest_loop(
        &mut conn,
        inputs,
        &mut next_batch,
        Stop::Count(PRELOAD_BATCHES),
        rec,
    )?;
    let mut next_query = 0;
    read_loop(
        &mut conn,
        &mut next_query,
        next_batch * BATCH_ROWS as u64,
        Stop::Count(WARMUP_READS),
        rec,
    )?;
    Ok(Boot {
        server,
        conn,
        baseline,
        baseline_sent,
        next_batch,
        next_query,
        preload,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

impl Boot {
    /// Closes the connection and stops the daemon, joining its threads.
    pub fn shutdown(self) {
        drop(self.conn);
        self.server.shutdown();
    }

    /// Rows acknowledged by this daemon.
    pub fn acked_rows(&self) -> u64 {
        self.next_batch * BATCH_ROWS as u64
    }
}

/// The output checks that fail a run, plus the Stats growth they read.
pub struct Checked {
    /// Every failed check, described.
    pub failures: Vec<String>,
    /// Stats growth from the boot's baseline to the end.
    pub delta: StatsDelta,
    /// Every request sent on the boot's connections since the baseline.
    pub sent: Sent,
}

/// Runs the checks on `boot` once every other connection is idle;
/// `others` are the requests those connections sent.
///
/// * mass conservation: the `All` marginal with mask 0 sums to the rows
///   acknowledged, within float rounding;
/// * heavy-hitter recall: `FrequentItems { phi: 0.002 }` over `All` returns
///   exactly the items whose true frequency exceeds `phi`, which must be the
///   generator's heavy set;
/// * counter conservation: the Stats request and row deltas equal what was
///   sent, no error frame was sent and no row was late.
pub fn checks(boot: &mut Boot, others: Sent, inputs: &Inputs) -> Res<Checked> {
    let mut failures = Vec::new();
    let rows = boot.acked_rows();

    let (snap_rows, entries) = boot.conn.marginals(&TimeRange::All, 0, 0)?;
    let mass: f64 = entries.iter().map(|e| e.estimate.sum).sum();
    let tolerance = 1e-9 * rows as f64;
    if snap_rows != rows || entries.len() != 1 || (mass - rows as f64).abs() > tolerance {
        failures.push(format!(
            "mass conservation: All marginal sums to {mass} over {} keys ({snap_rows} rows) \
             against {rows} rows acknowledged",
            entries.len()
        ));
    }

    let phi = 0.002;
    let (_, answer) = boot
        .conn
        .query(&TimeRange::All, &Query::FrequentItems { phi })?;
    let counts = inputs.counts(boot.next_batch);
    let truth: BTreeSet<u64> = (0u64..)
        .zip(&counts)
        .filter(|&(_, &c)| c as f64 > phi * rows as f64)
        .map(|(item, _)| item)
        .collect();
    let heavy: BTreeSet<u64> = HEAVY.iter().copied().collect();
    let returned: BTreeSet<u64> = match answer {
        QueryAnswer::Items(items) => items.iter().map(|&(item, _)| item).collect(),
        other => {
            failures.push(format!("heavy hitters: unexpected answer {other:?}"));
            BTreeSet::new()
        }
    };
    if truth != heavy {
        failures.push(format!(
            "generator: items above phi are {truth:?}, not the heavy set"
        ));
    }
    if returned != truth {
        failures.push(format!(
            "heavy-hitter recall: returned {returned:?}, truth {truth:?}"
        ));
    }

    let after = StatsView::of(&boot.conn.stats()?, crate::inputs::STREAM);
    let delta = StatsDelta::between(&boot.baseline, &after)?;
    let sent = boot.conn.sent.minus(&boot.baseline_sent).plus(&others);
    let expect = [
        ("ingest requests", delta.requests[3], sent.ingest),
        ("query requests", delta.requests[4], sent.query),
        ("marginals requests", delta.requests[5], sent.marginals),
        ("stats requests", delta.requests[7], sent.stats),
        ("stream rows", delta.rows_ingested, sent.rows),
        (
            "worker rows",
            delta.family("uss_ingest_rows_total"),
            sent.rows,
        ),
        ("rows acknowledged", rows, sent.rows),
        ("error frames", delta.error_frames.iter().sum(), 0),
        ("late rows", delta.family("uss_temporal_late_rows_total"), 0),
    ];
    for (what, got, want) in expect {
        if got != want {
            failures.push(format!(
                "counter conservation: {what} moved by {got}, expected {want}"
            ));
        }
    }
    Ok(Checked {
        failures,
        delta,
        sent,
    })
}
