//! The traced run (`--trace 1`): per-layer metrics from outside the program.
//!
//! 1. One boot (daemon, stream, preload, warm-up).
//! 2. Phase A: the workload's main loop untraced for a quarter of the run.
//! 3. Phase B: the main loop again with a request span around every
//!    `SketchClient` call, then the workload's side phases, between two wire
//!    `Stats` snapshots. Tracing overhead is phase B's main-loop p50 against
//!    phase A's.
//! 4. The output checks, whose Stats growth over the boot gives the engine,
//!    ring and temporal counters and the family-liveness line.
//! 5. Phase C: the same loops over the same inputs driven in-process through
//!    the daemon's layer calls ([`InProc`]), each call a child span of its
//!    request, for another quarter of the run.
//! 6. Phase D: persist checkpoint and restore of the phase-C engine, and the
//!    single-thread baselines (`UnbiasedSpaceSaving::offer_batch`, a
//!    single-thread `WindowedSketchStore`'s dyadic range reports and their
//!    multiway fold) over the rows phase C ingested.
//!
//! Spans stay in memory and are written to `perfbench/out/spans-<workload>.tsv`
//! at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use uss_core::merge::fold_unbiased_multiway;
use uss_core::{StreamSketch, TemporalIngestEngine, UnbiasedSpaceSaving, WindowedSketchStore};

use crate::inputs::{spec, Inputs, BATCH_ROWS};
use crate::mix::{self, KIND_NAMES};
use crate::report::{metric, Metric, Obj};
use crate::run::{self, Stop};
use crate::stats::{histogram_quantile, ms, ratio, Sample, StatsDelta, StatsView};
use crate::target::{self, Conn, InProc, Recorder, Res, Sent, Span, ANSWER_SPANS};
use crate::{Args, Outcome, Workload};

/// Families every workload moves: it ingests at least the 2M-row preload,
/// rotates buckets, compacts tiers and reads through the cache and ladder.
const EXPECTED_LIVE: [&str; 12] = [
    "uss_ingest_rows_total",
    "uss_ingest_blocks_total",
    "uss_ring_consumer_wakes_total",
    "uss_ring_occupancy_high_water",
    "uss_sketch_memory_bytes",
    "uss_temporal_rotations_total",
    "uss_temporal_tier_compactions_total",
    "uss_ladder_nodes_built_total",
    "uss_ladder_nodes_invalidated_total",
    "uss_ladder_repaired_at_query_total",
    "uss_range_cache_hits_total",
    "uss_range_cache_misses_total",
];

/// The families in [`EXPECTED_LIVE`] that stayed 0 over `delta`.
fn dead_families(delta: &StatsDelta) -> Vec<String> {
    EXPECTED_LIVE
        .iter()
        .filter(|f| delta.family(f) == 0)
        .map(|f| (*f).to_string())
        .collect()
}

/// Durations (µs) of every span, grouped by name, and each layer's self time
/// (ns) — a span's duration minus the part of it its children cover.
struct SpanTotals {
    by_name: BTreeMap<&'static str, Vec<f64>>,
    self_ns: BTreeMap<&'static str, u64>,
    request_ns: u64,
    requests: u64,
}

/// The layer of a span: the part of its name before the first dot.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn covered_ns(children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(s, e) in children.iter() {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

fn totals(recorders: &[&Recorder]) -> SpanTotals {
    let mut t = SpanTotals {
        by_name: BTreeMap::new(),
        self_ns: BTreeMap::new(),
        request_ns: 0,
        requests: 0,
    };
    for rec in recorders {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &rec.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        for s in &rec.spans {
            t.by_name.entry(s.name).or_default().push(s.us());
            let kids = children.get_mut(&s.id).map_or(0, |c| covered_ns(c));
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            *t.self_ns.entry(layer(s.name)).or_default() += own;
            if s.parent == 0 {
                t.request_ns += s.end_ns - s.start_ns;
                t.requests += 1;
            }
        }
    }
    t
}

impl SpanTotals {
    fn median_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| Sample::new(v.clone()).at(0.5))
    }

    fn median_us_of(&self, names: &[&str]) -> f64 {
        let all: Vec<f64> = names
            .iter()
            .filter_map(|n| self.by_name.get(n))
            .flatten()
            .copied()
            .collect();
        Sample::new(all).at(0.5)
    }
}

fn write_spans(w: Workload, recorders: &[&Recorder]) -> Res<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.tsv", w.name()));
    let mut out = String::from("recorder\tid\tparent\treq\tname\tstart_ns\tend_ns\n");
    for (r, rec) in recorders.iter().enumerate() {
        for s in &rec.spans {
            let Span {
                id,
                parent,
                req,
                name,
                start_ns,
                end_ns,
            } = *s;
            let _ = writeln!(
                out,
                "{r}\t{id}\t{parent}\t{req}\t{name}\t{start_ns}\t{end_ns}"
            );
        }
    }
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Total size of the files directly in `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e6)
}

/// Reads of the mix the single-thread store answers in phase D.
const BASELINE_READS: u64 = 300;

/// Phase D: persist and the single-thread baselines over the rows the
/// phase-C engine ingested. The store answers the first reads of the mix
/// placed at its own head, as the daemon's readers place them.
fn baselines(
    engine: &TemporalIngestEngine,
    inputs: &Inputs,
    batches: u64,
    seed: u64,
) -> Res<Vec<Metric>> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (saved, checkpoint_us) = time_us(|| engine.checkpoint(&dir));
    saved.map_err(|e| format!("checkpoint failed: {e}"))?;
    let checkpoint_bytes = dir_bytes(&dir);
    let config = spec(seed).to_config().map_err(|e| e.to_string())?;
    let (restored, restore_us) = time_us(|| TemporalIngestEngine::restore(&dir, config));
    let restored = restored.map_err(|e| format!("restore failed: {e}"))?;
    if restored.rows_enqueued() != engine.rows_enqueued() {
        return Err("restored engine lost rows".into());
    }
    let _ = restored.finish_stores();
    let _ = std::fs::remove_dir_all(&dir);

    let mut sketch = UnbiasedSpaceSaving::with_seed(1_024, seed);
    let started = Instant::now();
    for k in 0..batches {
        sketch.offer_batch(std::hint::black_box(inputs.items(k)));
    }
    let offer_rows_per_s = (batches * BATCH_ROWS as u64) as f64 / started.elapsed().as_secs_f64();
    std::hint::black_box(&sketch);

    let mut store = WindowedSketchStore::new(config.window);
    let mut buf = Vec::with_capacity(BATCH_ROWS);
    for k in 0..batches {
        inputs.fill(k, &mut buf);
        for &(item, ts) in &buf {
            store.offer_at(item, ts);
        }
    }
    let mut reports_us = Vec::new();
    let mut fold_us = Vec::new();
    for j in 0..BASELINE_READS {
        // The engine holds the same rows, so it resolves ranges for the store.
        let (start, end) = engine.resolve_range(&mix::op(j, store.rows_processed()).range);
        let ((reports, _), us) = time_us(|| store.range_reports_dyadic(start, end));
        reports_us.push(us);
        let parts: Vec<_> = reports.into_iter().map(|r| (r.entries, r.rows)).collect();
        let (folded, us) = time_us(|| fold_unbiased_multiway(1_024, seed ^ j, seed, parts));
        std::hint::black_box(folded);
        fold_us.push(us);
    }
    Ok(vec![
        metric(
            "temporal.store_reports_us",
            "us",
            Sample::new(reports_us).at(0.5),
        ),
        metric("merge.fold_multiway_us", "us", Sample::new(fold_us).at(0.5)),
        metric("space_saving.offer_rows_per_s", "rows/s", offer_rows_per_s),
        metric("persist.checkpoint_ms", "ms", checkpoint_us / 1e3),
        metric("persist.checkpoint_bytes", "B", checkpoint_bytes as f64),
        metric("persist.restore_ms", "ms", restore_us / 1e3),
    ])
}

/// The traced run of `args.workload`.
pub fn run(args: &Args) -> Res<Outcome> {
    let w = args.workload;
    let inputs = Inputs::new(args.seed);
    let quarter = Duration::from_secs_f64(args.seconds as f64 / 4.0);
    let epoch = Instant::now();
    let mut off_w = Recorder::new(false, epoch, 0);
    let mut off_r = Recorder::new(false, epoch, 0);
    let mut b = run::boot(&inputs, args.seed, &mut off_w)?;
    // Only mixed_paced reads on a second connection.
    let mut reader = match w {
        Workload::MixedPaced => Some(Conn::connect(b.server.addr())?),
        _ => None,
    };

    let untraced = run::workload(
        w,
        &mut b.conn,
        reader.as_mut(),
        &inputs,
        &mut b.next_batch,
        &mut b.next_query,
        quarter,
        false,
        &mut off_w,
        &mut off_r,
    )?;
    let stream = crate::inputs::STREAM;
    let before = StatsView::of(&b.conn.stats()?, stream);
    let mut wire_w = Recorder::new(true, epoch, 0);
    let mut wire_r = Recorder::new(true, epoch, 1 << 30);
    let traced = run::workload(
        w,
        &mut b.conn,
        reader.as_mut(),
        &inputs,
        &mut b.next_batch,
        &mut b.next_query,
        quarter,
        true,
        &mut wire_w,
        &mut wire_r,
    )?;
    let after = StatsView::of(&b.conn.stats()?, stream);
    let others: Sent = reader.map(|r| r.sent).unwrap_or_default();
    let checked = run::checks(&mut b, others, &inputs)?;
    b.shutdown();

    // Phase C: the same loops in-process.
    let engine = target::engine(args.seed)?;
    let mut layer_w = Recorder::new(true, epoch, 0);
    let mut layer_r = Recorder::new(true, epoch, 1 << 30);
    let (batches, frame_bytes) = {
        let mut writer = InProc::new(&engine, true)?;
        let mut in_reader = InProc::new(&engine, false)?;
        let mut next_batch = 0;
        let mut next_query = 0;
        run::ingest_loop(
            &mut writer,
            &inputs,
            &mut next_batch,
            Stop::Count(run::PRELOAD_BATCHES),
            &mut layer_w,
        )?;
        let anchor = next_batch * BATCH_ROWS as u64;
        run::read_loop(
            &mut writer,
            &mut next_query,
            anchor,
            Stop::Count(run::WARMUP_READS),
            &mut layer_w,
        )?;
        run::workload(
            w,
            &mut writer,
            Some(&mut in_reader),
            &inputs,
            &mut next_batch,
            &mut next_query,
            quarter,
            true,
            &mut layer_w,
            &mut layer_r,
        )?;
        let frame_bytes = ratio(
            writer.ingest_frame_bytes as f64,
            writer.ingest_frames as f64,
        );
        (next_batch, frame_bytes)
    };
    let mut metrics = baselines(&engine, &inputs, batches, args.seed)?;
    let _ = engine.finish_stores();

    // Wire-side figures.
    let server = StatsDelta::between(&before, &after)?;
    let handler_us = |kind: usize| histogram_quantile(&server.latency[kind], 0.5) / 1e3;
    let wire_spans = totals(&[&wire_w, &wire_r]);
    let client_read_p50 = wire_spans.median_us_of(&["request.query", "request.marginals"]);
    let read_handler = {
        let mut merged = server.latency[4].clone();
        let marg = &server.latency[5];
        let mut buckets: BTreeMap<u8, u64> = merged.buckets.iter().copied().collect();
        for &(i, n) in &marg.buckets {
            *buckets.entry(i).or_default() += n;
        }
        merged.buckets = buckets.into_iter().collect();
        merged.count += marg.count;
        merged.sum += marg.sum;
        histogram_quantile(&merged, 0.5) / 1e3
    };
    let d = &checked.delta;
    let f = |name: &str| d.family(name) as f64;
    let blocks = f("uss_ingest_blocks_total");
    let rows = f("uss_ingest_rows_total");
    let shard_rows: Vec<f64> = d
        .shards
        .get("uss_ingest_rows_total")
        .map(|m| m.values().map(|&v| v as f64).collect())
        .unwrap_or_default();
    let mean_shard = shard_rows.iter().sum::<f64>() / shard_rows.len().max(1) as f64;
    let max_shard = shard_rows.iter().copied().fold(0.0, f64::max);
    let hits = f("uss_range_cache_hits_total");
    let misses = f("uss_range_cache_misses_total");
    let occupancy = d
        .shards
        .get("uss_ring_occupancy_high_water")
        .map_or(0, |m| m.values().copied().max().unwrap_or(0));
    let p50 = |v: &[f64]| Sample::new(v.to_vec()).at(0.5);
    let (untraced, traced) = (untraced.main_lat(w), traced.main_lat(w));
    let overhead_pct = ratio(p50(traced) - p50(untraced), p50(untraced)) * 100.0;
    let dead = dead_families(d);

    // In-process layer figures.
    let layers = totals(&[&layer_w, &layer_r]);
    let per_req = |l: &str| {
        ratio(
            layers.self_ns.get(l).copied().unwrap_or(0) as f64,
            layers.requests as f64,
        ) / 1e3
    };
    let share = |l: &str| {
        ratio(
            layers.self_ns.get(l).copied().unwrap_or(0) as f64,
            layers.request_ns as f64,
        ) * 100.0
    };

    metrics.extend([
        metric("server.ingest_handler_p50_us", "us", handler_us(3)),
        metric("server.query_handler_p50_us", "us", read_handler),
        metric("server.dispatch_us", "us", client_read_p50 - read_handler),
        metric(
            "server.error_frames",
            "count",
            server.error_frames.iter().sum::<u64>() as f64,
        ),
        metric(
            "wire.ingest_encode_us",
            "us",
            layers.median_us("wire.ingest_encode"),
        ),
        metric(
            "wire.ingest_decode_us",
            "us",
            layers.median_us("wire.ingest_decode"),
        ),
        metric("wire.ingest_frame_bytes", "B", frame_bytes),
        metric(
            "wire.answer_encode_us",
            "us",
            layers.median_us("wire.answer_encode"),
        ),
        metric(
            "wire.answer_decode_us",
            "us",
            layers.median_us("wire.answer_decode"),
        ),
        metric(
            "temporal.offer_flush_us",
            "us",
            layers.median_us("temporal.offer_flush"),
        ),
        metric(
            "temporal.capture_hit_us",
            "us",
            layers.median_us("temporal.capture_hit"),
        ),
        metric(
            "temporal.capture_miss_us",
            "us",
            layers.median_us("temporal.capture_miss"),
        ),
        metric(
            "temporal.cache_hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
        ),
        metric("temporal.cache_lookups", "count", hits + misses),
        metric(
            "temporal.ladder_repairs_per_miss",
            "ratio",
            ratio(f("uss_ladder_repaired_at_query_total"), misses),
        ),
        metric("temporal.cache_misses", "count", misses),
        metric(
            "temporal.rotations_per_mrow",
            "1/Mrow",
            ratio(f("uss_temporal_rotations_total"), rows / 1e6),
        ),
        metric(
            "temporal.compactions_per_mrow",
            "1/Mrow",
            ratio(f("uss_temporal_tier_compactions_total"), rows / 1e6),
        ),
        metric(
            "temporal.late_rows",
            "count",
            f("uss_temporal_late_rows_total"),
        ),
        metric("engine.rows_per_block", "rows", ratio(rows, blocks)),
        metric("engine.shard_skew", "ratio", ratio(max_shard, mean_shard)),
        metric(
            "spsc.ring_full_per_block",
            "ratio",
            ratio(f("uss_ring_full_total"), blocks),
        ),
        metric(
            "spsc.parks_per_block",
            "ratio",
            ratio(f("uss_ring_producer_parks_total"), blocks),
        ),
        metric(
            "spsc.wakes_per_block",
            "ratio",
            ratio(f("uss_ring_consumer_wakes_total"), blocks),
        ),
        metric("spsc.occupancy_high_water", "blocks", occupancy as f64),
    ]);
    for (kind, span) in KIND_NAMES.iter().zip(ANSWER_SPANS) {
        let name = if *kind == "marginals" {
            "query.marginals_us".to_string()
        } else {
            format!("query.answer_us.{kind}")
        };
        metrics.push(metric(&name, "us", layers.median_us(span)));
    }
    metrics.push(metric("trace.overhead_pct", "%", overhead_pct));
    for l in ["request", "wire", "temporal", "query"] {
        metrics.push(metric(&format!("trace.{l}.self_us"), "us", per_req(l)));
        metrics.push(metric(&format!("trace.{l}.share_pct"), "%", share(l)));
    }
    metrics.push(metric("stats.dead_families", "count", dead.len() as f64));

    let spans_path = write_spans(w, &[&layer_w, &layer_r, &wire_w, &wire_r])?;
    eprintln!("family-liveness: stayed 0 over a workload that should move them: {dead:?}");
    let sent = checked.sent;
    let context = Obj::new()
        .strs("dead_families", &dead)
        .str("spans_file", &spans_path)
        .int("wire_requests_traced", wire_spans.requests)
        .int("inproc_requests_traced", layers.requests)
        .num("untraced_p50_ms", p50(untraced))
        .num("traced_p50_ms", p50(traced))
        .num("phase_seconds", ms(quarter) / 1e3);
    Ok(Outcome {
        correct: checked.failures.is_empty(),
        attempted: sent.attempted(),
        failed: sent.failed,
        metrics,
        reported: vec![metric(
            "failed_ratio",
            "ratio",
            sent.failed as f64 / sent.attempted().max(1) as f64,
        )],
        context,
        failures: checked.failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        assert_eq!(covered_ns(&mut [(40, 50), (10, 20), (15, 30)]), 30);
        assert_eq!(covered_ns(&mut [(10, 40), (15, 20)]), 30);
        let mut rec = Recorder::new(true, Instant::now(), 7);
        rec.begin("request.query");
        rec.time("wire.read_encode", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        rec.time("temporal.capture_miss", || ());
        rec.end();
        let req = rec
            .spans
            .iter()
            .find(|s| s.parent == 0)
            .copied()
            .expect("request span");
        assert!(rec.spans.iter().all(|s| s.req == 7));
        assert!(rec
            .spans
            .iter()
            .filter(|s| s.parent != 0)
            .all(|s| s.parent == req.id));
        let t = totals(&[&rec]);
        assert_eq!(t.requests, 1);
        let own: u64 = t.self_ns.values().sum();
        assert_eq!(own, req.end_ns - req.start_ns);
        assert!(t.self_ns["wire"] >= 1_000_000);
        // An off recorder records nothing.
        let mut off = Recorder::new(false, Instant::now(), 0);
        off.begin("request.ingest");
        off.time("wire.ingest_encode", || ());
        off.end();
        assert!(off.spans.is_empty());
    }
}
