//! Golden checkpoint lock: two small checkpoint directories committed under
//! `tests/golden/` pin the on-disk engine formats and the restore path.
//!
//! * `golden/engine/` — a 2-shard [`ShardedIngestEngine`] checkpoint
//!   (`manifest.uss` plus one kind-3 `shard-000N.uss` per shard);
//! * `golden/temporal/` — a 2-shard [`TemporalIngestEngine`] checkpoint with
//!   compacted tiers and a complete dyadic ladder
//!   (`temporal-manifest.uss` plus `window-000N.uss`).
//!
//! Both were written from a fixed seed and a single-producer feed with the
//! combiner off. Each test restores its directory, checks that a fresh
//! checkpoint of the restored engine is byte-identical to the committed files,
//! and compares the restored engine's `finish()` against the entries recorded
//! when the files were written. Any change to the checkpoint codec, the
//! restore path or the final fold shows up here.
//!
//! To rewrite the directories (only when a format change is intended):
//! `USS_WRITE_GOLDEN=1 cargo test -p uss-core --test golden_checkpoint -- --ignored --nocapture`,
//! then paste the printed entries into the constants below.

use std::path::{Path, PathBuf};

use uss_core::prelude::*;

const ENGINE_SEED: u64 = 0x601D_0001;
const TEMPORAL_SEED: u64 = 0x601D_0002;

fn engine_config() -> EngineConfig {
    EngineConfig::new(2, 16, ENGINE_SEED)
        .with_combiner_items(0)
        .with_batch_rows(256)
}

fn temporal_config() -> TemporalConfig {
    TemporalConfig::new(2, 8, TEMPORAL_SEED, 10, 8)
        .with_retention(1, 2)
        .with_batch_rows(256)
}

/// A deterministic skewed stream: a few heavy items over a long tail.
fn item(i: u64) -> u64 {
    let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    if x.is_multiple_of(3) {
        x % 5
    } else {
        100 + x % 400
    }
}

fn golden_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("uss-golden-{tag}-{}", std::process::id()))
}

/// Every file of a checkpoint directory, sorted by name.
fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn assert_same_files(golden: &Path, written: &Path) {
    let expected = dir_files(golden);
    let actual = dir_files(written);
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&actual), names(&expected), "checkpoint file set");
    for ((name, want), (_, got)) in expected.iter().zip(&actual) {
        assert!(
            got == want,
            "{name}: re-checkpoint is not byte-identical to the golden file"
        );
    }
}

fn entry_bits(entries: &[(u64, f64)]) -> Vec<(u64, u64)> {
    entries
        .iter()
        .map(|&(item, c)| (item, c.to_bits()))
        .collect()
}

/// `finish()` of the restored plain engine, recorded when the files were written.
const ENGINE_ROWS: u64 = 3_000;
const ENGINE_FINISH: &[(u64, u64)] = &[
    (0, 0x4069400000000000),
    (323, 0x40669A2E8BA2E8BA),
    (168, 0x40669A2E8BA2E8BA),
    (220, 0x40669A2E8BA2E8BA),
    (470, 0x40669A2E8BA2E8BA),
    (4, 0x4069600000000000),
    (1, 0x4068600000000000),
    (282, 0x40669A2E8BA2E8BA),
    (258, 0x40669A2E8BA2E8BA),
    (2, 0x406A000000000000),
    (298, 0x40669A2E8BA2E8BA),
    (161, 0x40669A2E8BA2E8BA),
    (216, 0x40669A2E8BA2E8BA),
    (149, 0x40669A2E8BA2E8BA),
    (271, 0x40669A2E8BA2E8BA),
    (3, 0x4069600000000000),
];

/// `finish()` of the restored temporal engine, recorded when the files were written.
const TEMPORAL_ROWS: u64 = 4_000;
const TEMPORAL_FINISH: &[(u64, u64)] = &[
    (0, 0x407FD60000000000),
    (336, 0x407F166186186185),
    (388, 0x407F166186186185),
    (1, 0x407FA3B6DB6DB6DB),
    (139, 0x407F166186186185),
    (191, 0x407F166186186185),
    (297, 0x407F166186186185),
    (3, 0x407F166186186185),
];

#[test]
fn engine_golden_checkpoint_restores_and_recheckpoints_byte_identically() {
    let golden = golden_dir("engine");
    let restored = ShardedIngestEngine::restore(&golden, engine_config()).unwrap();
    assert_eq!(restored.rows_enqueued(), ENGINE_ROWS);
    let out = scratch_dir("engine");
    restored.checkpoint(&out).unwrap();
    assert_same_files(&golden, &out);
    std::fs::remove_dir_all(&out).unwrap();

    let merged = restored.finish();
    assert_eq!(merged.rows_processed(), ENGINE_ROWS);
    assert_eq!(entry_bits(&merged.entries()), ENGINE_FINISH);
}

#[test]
fn temporal_golden_checkpoint_restores_and_recheckpoints_byte_identically() {
    let golden = golden_dir("temporal");
    let restored = TemporalIngestEngine::restore(&golden, temporal_config()).unwrap();
    assert_eq!(restored.rows_enqueued(), TEMPORAL_ROWS);
    // The golden ladder is complete, so the idle builder has nothing to add:
    // give it time to prove that before the re-checkpoint.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let out = scratch_dir("temporal");
    restored.checkpoint(&out).unwrap();
    assert_same_files(&golden, &out);
    std::fs::remove_dir_all(&out).unwrap();

    let merged = restored.finish();
    assert_eq!(merged.rows_processed(), TEMPORAL_ROWS);
    assert_eq!(entry_bits(&merged.entries()), TEMPORAL_FINISH);
}

/// Rewrites both golden directories and prints the `finish()` constants.
/// Ignored, and a no-op unless `USS_WRITE_GOLDEN` is set.
#[test]
#[ignore = "rewrites the committed golden checkpoints"]
fn write_golden_checkpoints() {
    if std::env::var_os("USS_WRITE_GOLDEN").is_none() {
        return;
    }
    let dir = golden_dir("engine");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = ShardedIngestEngine::new(engine_config());
    let mut handle = engine.handle();
    for i in 0..ENGINE_ROWS {
        handle.offer(item(i));
    }
    handle.flush();
    let _ = engine.snapshot(); // advance the snapshot-salt counter
    engine.checkpoint(&dir).unwrap();
    drop(handle);
    let merged = ShardedIngestEngine::restore(&dir, engine_config())
        .unwrap()
        .finish();
    println!("ENGINE_FINISH = {:?}", entry_bits(&merged.entries()));
    drop(engine.finish());

    let dir = golden_dir("temporal");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = TemporalIngestEngine::new(temporal_config());
    let mut handle = engine.handle();
    // 200 ticks over 20 ten-tick buckets: the 8-bucket fine window keeps the
    // newest, the rest compacts into the tier and the terminal bucket.
    for i in 0..TEMPORAL_ROWS {
        handle.offer_at(item(i), i / 20);
    }
    handle.flush();
    // A whole-history query repairs every ladder node the decomposition
    // needs; the pause lets the idle builder finish the rest, so the
    // checkpoint holds the complete ladder.
    let _ = engine.range_snapshot(&TimeRange::All);
    std::thread::sleep(std::time::Duration::from_millis(300));
    engine.checkpoint(&dir).unwrap();
    drop(handle);
    let merged = TemporalIngestEngine::restore(&dir, temporal_config())
        .unwrap()
        .finish();
    println!("TEMPORAL_FINISH = {:?}", entry_bits(&merged.entries()));
    drop(engine.finish());
}
