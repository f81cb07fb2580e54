//! The shard runtime both ingest engines run on.
//!
//! [`crate::engine::ShardedIngestEngine`] and
//! [`crate::temporal::TemporalIngestEngine`] differ only in what one shard
//! holds and in how they fold shard answers. Everything that moves rows and
//! requests between threads lives here once, generic over a per-shard
//! [`ShardState`] and monomorphised per engine, so there is no `dyn` on the
//! per-block path.
//!
//! * **Transport.** A [`ProducerHandle`] owns one [`crate::spsc`] block ring
//!   per shard and routes each row by item hash, so every occurrence of an
//!   item lands on the same shard. A ring has one producer, so one handle's
//!   rows reach their shard in offer order. Spent blocks come back over the
//!   reverse ring: steady-state ingest allocates nothing and takes no lock.
//! * **The worker loop** ([`run_worker`]) drains its control channel
//!   ([`ShardMsg`]) first, then scans every ring for at most
//!   [`DRAIN_BUDGET`] blocks, applying each block at a metrics cost of two
//!   Relaxed adds. With nothing to do it parks on its [`Waker`]; rings and
//!   control are re-checked under the raised flag, so no wake-up is lost.
//! * **Cut-drain quiesce.** A request that observes a shard first drains a
//!   *cut* of every ring (exactly the blocks queued when the request is
//!   seen), then calls [`ShardState::quiesce`] and samples the
//!   `uss_sketch_memory_bytes` gauge. Everything enqueued before the request
//!   is applied, and a fast producer cannot postpone the reply. Snapshots,
//!   range reports, checkpoints and shutdown all take this one path.
//! * **Park-gated idle maintenance.** [`ShardState::idle_step`] runs one
//!   bounded unit of deferred work at a time, and only once the worker has
//!   parked since it last applied a block. A park means the producers were
//!   quiet, not just refilling a block, so ingest never pays for maintenance
//!   that would steal the producer's cycles on a few-core host.
//! * **Checkpoint and restore.** [`ShardRuntime::checkpoint`] asks every
//!   shard for its image before awaiting any, writes one file per shard, and
//!   writes the manifest only when every shard succeeded; a dead or failing
//!   shard does not stop the others' files. [`ShardRuntime::restore`]
//!   validates the manifest, each file's index and identity, and the row
//!   total.
//!
//! # The state contract
//!
//! A [`ShardState`] lives on its worker thread. `apply` must be a pure
//! function of the state and the rows, which is what makes a single-producer
//! feed reproducible. After `quiesce` the state is canonical: whatever
//! `apply` or `idle_step` deferred is settled, so nothing observed next
//! depends on scheduling. `idle_step` reports whether it did work and must
//! run dry when no rows arrive. `finish` runs once, on the worker, before the
//! state is handed back. The image and manifest hooks define the on-disk
//! format; the runtime only names, orders and validates the files.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::engine::{EngineError, ShardFailure, ShardFault};
use crate::hash::splitmix64;
use crate::metrics::{EngineMetrics, ShardMetrics};
use crate::persist::{self, PersistError};
use crate::spsc::{
    block_channel_with_counters, BlockReceiver, BlockSender, RowBlock, Waker, BLOCK_CAP,
};

/// The RNG seed of shard `shard` in an engine seeded `base`. Wrapping, so any
/// base seed is valid and decode paths (which must never panic) derive the
/// seed a live engine used.
pub(crate) fn shard_seed(base: u64, shard: u64) -> u64 {
    base.wrapping_add(shard)
}

/// A row the runtime transports: routed by its item, optionally timestamped.
pub(crate) trait Row: Copy + Default + Send + 'static {
    /// The item the row is routed by.
    fn item(&self) -> u64;
    /// The newest timestamp in `rows`, if rows carry one. Called per block.
    fn newest(rows: &[Self]) -> Option<u64>;
}

impl Row for u64 {
    #[inline]
    fn item(&self) -> u64 {
        *self
    }

    #[inline]
    fn newest(_: &[Self]) -> Option<u64> {
        None
    }
}

impl Row for (u64, u64) {
    #[inline]
    fn item(&self) -> u64 {
        self.0
    }

    #[inline]
    fn newest(rows: &[Self]) -> Option<u64> {
        rows.iter().map(|&(_, ts)| ts).max()
    }
}

/// What one shard holds and how it persists; see the [module docs](self).
pub(crate) trait ShardState: Sized + Send + 'static {
    /// The row type producers send to this shard.
    type Row: Row;
    /// What a checkpoint captures of one shard.
    type Image: Send + 'static;
    /// The engine identity every checkpoint file echoes.
    type Meta: Copy + PartialEq + std::fmt::Debug;
    /// The manifest file name inside a checkpoint directory.
    const MANIFEST_FILE: &'static str;
    /// Shard files are named `{SHARD_FILE_STEM}-{shard:04}.uss`.
    const SHARD_FILE_STEM: &'static str;

    /// Applies one block of rows.
    fn apply(&mut self, rows: &[Self::Row]);
    /// Settles deferred work so the state is canonical.
    fn quiesce(&mut self);
    /// Resident heap bytes, sampled at quiesce points.
    fn memory_bytes(&self) -> u64;
    /// One bounded unit of idle maintenance; `true` if there was work.
    fn idle_step(&mut self) -> bool {
        false
    }
    /// Final settling before the state leaves its worker.
    fn finish(&mut self);

    /// Captures the shard for a checkpoint (on the worker, quiesced).
    fn image(&self) -> Self::Image;
    /// Rows absorbed by an image.
    fn image_rows(image: &Self::Image) -> u64;
    /// Encodes one shard file.
    fn encode_shard(shard: usize, meta: Self::Meta, image: &Self::Image) -> Vec<u8>;
    /// Decodes one shard file into its index, engine identity and image.
    fn decode_shard(bytes: &[u8]) -> Result<(u64, Self::Meta, Self::Image), PersistError>;
    /// Encodes the manifest.
    fn encode_manifest(meta: Self::Meta, snapshots: u64, rows: u64) -> Vec<u8>;
    /// Decodes the manifest into identity, snapshot counter and row total.
    fn decode_manifest(bytes: &[u8]) -> Result<(Self::Meta, u64, u64), PersistError>;
}

/// A request run on a shard's worker right after a cut-drain quiesce.
type Request<S> = Box<dyn FnOnce(&mut S) + Send>;

/// Control-plane messages to a shard worker. Data rides the block rings; this
/// unbounded, rarely used channel carries everything else, in FIFO order.
enum ShardMsg<S: ShardState> {
    /// A new producer ring to poll. The worker retires it once its handle
    /// drops it and the remaining blocks are drained.
    Register(BlockReceiver<S::Row>),
    /// Rows for this shard, bypassing the rings (explicit-shard feeds).
    Rows(Vec<S::Row>),
    /// Drain a cut, quiesce, then run the request against the state.
    Quiesced(Request<S>),
    /// Drain a cut, quiesce, then stop, even if producer rings are alive.
    Shutdown,
    /// Panic the worker: the fault injector behind `debug_kill_shard`.
    Poison,
}

/// A per-shard endpoint: the control sender plus the worker's parking slot,
/// woken after every control send so a parked worker sees it.
struct ShardLink<S: ShardState> {
    control: Sender<ShardMsg<S>>,
    waker: Arc<Waker>,
    /// The shard's telemetry; its ring counters are shared by every block
    /// channel wired to the shard.
    metrics: Arc<ShardMetrics>,
}

impl<S: ShardState> ShardLink<S> {
    /// Sends a control message and wakes the worker; `Err` if it is gone.
    fn try_send(&self, msg: ShardMsg<S>) -> Result<(), ()> {
        self.control.send(msg).map_err(|_| ())?;
        self.waker.wake();
        Ok(())
    }

    /// Sends `request` as a quiesce-then-run message; the receiver yields its
    /// result. `None` when the worker is gone.
    fn ask<R, F>(&self, request: F) -> Option<Receiver<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut S) -> R + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        let run: Request<S> = Box::new(move |state| {
            let _ = tx.send(request(state));
        });
        self.try_send(ShardMsg::Quiesced(run)).ok().map(|()| rx)
    }
}

/// What the runtime shares with every producer handle.
struct Shared<S: ShardState> {
    links: Vec<ShardLink<S>>,
    /// Per-(handle, shard) ring bound, in blocks: the equivalent of
    /// `queue_depth` batches of `batch_rows` rows of backpressure.
    ring_blocks: usize,
    /// Rows handed to the shards so far, bumped once per dispatched block
    /// before its send: a monotone progress hint that leads the rows applied
    /// by whatever is still queued.
    rows_enqueued: AtomicU64,
    /// Largest timestamp handed to the shards so far (timestamped rows only).
    max_time: AtomicU64,
}

impl<S: ShardState> Shared<S> {
    /// Advances the enqueue counters for rows about to be sent.
    fn account(&self, rows: &[S::Row]) {
        self.rows_enqueued
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        if let Some(ts) = S::Row::newest(rows) {
            self.max_time.fetch_max(ts, Ordering::Relaxed);
        }
    }
}

/// The counters an engine resumes from (snapshot salt, rows, newest
/// timestamp): zero for a fresh engine, the checkpointed values otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Resume {
    pub(crate) snapshots: u64,
    pub(crate) rows: u64,
    pub(crate) max_time: u64,
}

/// The running shards of one engine.
pub(crate) struct ShardRuntime<S: ShardState> {
    shared: Arc<Shared<S>>,
    workers: Vec<JoinHandle<S>>,
    snapshots: AtomicU64,
    metrics: Arc<EngineMetrics>,
}

impl<S: ShardState> std::fmt::Debug for ShardRuntime<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("shards", &self.shards())
            .finish_non_exhaustive()
    }
}

impl<S: ShardState> ShardRuntime<S> {
    /// Spawns one worker thread per state.
    pub(crate) fn spawn(
        states: Vec<S>,
        queue_depth: usize,
        batch_rows: usize,
        resume: Resume,
    ) -> Self {
        let metrics = Arc::new(EngineMetrics::with_shards(states.len()));
        let mut links = Vec::with_capacity(states.len());
        let mut workers = Vec::with_capacity(states.len());
        for (state, shard_metrics) in states.into_iter().zip(&metrics.shards) {
            let (tx, rx) = std::sync::mpsc::channel();
            let waker = Arc::new(Waker::new());
            let worker_waker = Arc::clone(&waker);
            let worker_metrics = Arc::clone(shard_metrics);
            workers.push(std::thread::spawn(move || {
                run_worker(&rx, &worker_waker, state, worker_metrics)
            }));
            links.push(ShardLink {
                control: tx,
                waker,
                metrics: Arc::clone(shard_metrics),
            });
        }
        let shared = Shared {
            links,
            ring_blocks: (queue_depth * batch_rows).div_ceil(BLOCK_CAP).max(2),
            rows_enqueued: AtomicU64::new(resume.rows),
            max_time: AtomicU64::new(resume.max_time),
        };
        Self {
            shared: Arc::new(shared),
            workers,
            snapshots: AtomicU64::new(resume.snapshots),
            metrics,
        }
    }

    pub(crate) fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    pub(crate) fn shards(&self) -> usize {
        self.shared.links.len()
    }

    pub(crate) fn rows_enqueued(&self) -> u64 {
        self.shared.rows_enqueued.load(Ordering::Relaxed)
    }

    pub(crate) fn max_time(&self) -> u64 {
        self.shared.max_time.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// Advances the snapshot-salt counter and returns this draw's salt, so
    /// repeated snapshots are independent draws of the merge's sampling step.
    pub(crate) fn next_salt(&self) -> u64 {
        self.snapshots
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Creates a producer handle wired to every shard.
    pub(crate) fn handle(&self) -> Result<ProducerHandle<S>, EngineError> {
        ProducerHandle::connect(&self.shared)
    }

    /// Sends rows straight to `shard` over its control channel.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or its worker is gone.
    pub(crate) fn send_rows(&self, shard: usize, rows: Vec<S::Row>) {
        if rows.is_empty() {
            return;
        }
        self.shared.account(&rows);
        self.shared.links[shard]
            .try_send(ShardMsg::Rows(rows))
            .expect("shard worker disconnected");
    }

    /// Runs `request` on every shard after a cut-drain quiesce and returns the
    /// answers in shard order. Every shard is asked before any is awaited, so
    /// the drains run concurrently.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardDown`] naming the first dead shard found.
    pub(crate) fn request<R, F>(&self, request: F) -> Result<Vec<R>, EngineError>
    where
        R: Send + 'static,
        F: FnOnce(&mut S) -> R + Clone + Send + 'static,
    {
        let links = self.shared.links.iter().enumerate();
        let receivers = links
            .map(|(shard, link)| {
                link.ask(request.clone())
                    .ok_or(EngineError::ShardDown { shard })
            })
            .collect::<Result<Vec<_>, _>>()?;
        receivers
            .into_iter()
            .enumerate()
            // The send raced a dying worker if this recv fails.
            .map(|(shard, rx)| rx.recv().map_err(|_| EngineError::ShardDown { shard }))
            .collect()
    }

    /// The shard file name for `shard` inside a checkpoint directory.
    pub(crate) fn shard_file_name(shard: usize) -> String {
        format!("{}-{shard:04}.uss", S::SHARD_FILE_STEM)
    }

    /// Writes a checkpoint of every shard into `dir`, resilient per shard
    /// (see the [module docs](self)). Files are written atomically, so a
    /// crash can leave stray `.tmp` files but never a torn one.
    ///
    /// # Errors
    ///
    /// [`EngineError::Persist`] when the directory or the manifest cannot be
    /// written; [`EngineError::CheckpointIncomplete`] listing the per-shard
    /// failures otherwise.
    pub(crate) fn checkpoint(&self, dir: &Path, meta: S::Meta) -> Result<(), EngineError> {
        std::fs::create_dir_all(dir).map_err(PersistError::Io)?;
        let links = self.shared.links.iter();
        let receivers: Vec<_> = links.map(|link| link.ask(|s: &mut S| s.image())).collect();
        let mut failures = Vec::new();
        let mut rows = 0u64;
        for (shard, receiver) in receivers.into_iter().enumerate() {
            let Some(image) = receiver.and_then(|rx| rx.recv().ok()) else {
                failures.push(ShardFailure {
                    shard,
                    fault: ShardFault::Down,
                });
                continue;
            };
            rows += S::image_rows(&image);
            let path = dir.join(Self::shard_file_name(shard));
            match persist::write_file(&path, &S::encode_shard(shard, meta, &image)) {
                Ok(bytes) => self.count_checkpoint_frame(bytes),
                Err(err) => {
                    self.metrics.checkpoint_failures.inc();
                    failures.push(ShardFailure {
                        shard,
                        fault: ShardFault::Persist(err),
                    });
                }
            }
        }
        if !failures.is_empty() {
            return Err(EngineError::CheckpointIncomplete { failures });
        }
        let manifest = S::encode_manifest(meta, self.snapshots(), rows);
        let bytes = persist::write_file(&dir.join(S::MANIFEST_FILE), &manifest)?;
        self.count_checkpoint_frame(bytes);
        Ok(())
    }

    fn count_checkpoint_frame(&self, bytes: u64) {
        self.metrics.checkpoint_bytes.add(bytes);
        self.metrics.checkpoint_frames.inc();
    }

    /// Reads a checkpoint of `shards` shards whose identity must be
    /// `expected`, returning the images in shard order and the counters to
    /// resume from (`max_time` is left for the engine to derive).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures, [`PersistError::Corrupt`]
    /// (or a more specific decode error) on damaged files, misplaced shard
    /// files, or an identity that disagrees with `expected`.
    pub(crate) fn restore(
        dir: &Path,
        shards: usize,
        expected: S::Meta,
    ) -> Result<(Vec<S::Image>, Resume), PersistError> {
        let (meta, snapshots, manifest_rows) =
            S::decode_manifest(&std::fs::read(dir.join(S::MANIFEST_FILE))?)?;
        if meta != expected {
            return Err(PersistError::Corrupt(format!(
                "config {expected:?} does not match the checkpoint {meta:?}"
            )));
        }
        let mut images = Vec::with_capacity(shards);
        let mut rows = 0u64;
        for shard in 0..shards {
            let name = Self::shard_file_name(shard);
            let (index, file_meta, image) = S::decode_shard(&std::fs::read(dir.join(&name))?)?;
            if index != shard as u64 {
                return Err(PersistError::Corrupt(format!(
                    "file {name} holds shard {index}"
                )));
            }
            if file_meta != meta {
                return Err(PersistError::Corrupt(format!(
                    "shard {shard} was written by a different engine than the manifest"
                )));
            }
            rows += S::image_rows(&image);
            images.push(image);
        }
        if rows != manifest_rows {
            return Err(PersistError::Corrupt(format!(
                "shard files hold {rows} rows but the manifest records {manifest_rows}"
            )));
        }
        let resume = Resume {
            snapshots,
            rows,
            max_time: 0,
        };
        Ok((images, resume))
    }

    /// Kills the worker of `shard` by making it panic (fault injection for
    /// tests). Control is FIFO, so any request sent after this observes the
    /// dead worker deterministically.
    pub(crate) fn debug_kill_shard(&self, shard: usize) {
        let link = &self.shared.links[shard];
        let _ = link.try_send(ShardMsg::Poison);
        // Wait for the unwind to drop the worker's control receiver, so the
        // *next* control request fails at send time rather than racing.
        while link.try_send(ShardMsg::Poison).is_ok() {
            std::thread::yield_now();
        }
    }

    /// Stops every worker after a final quiesce, joins them, and returns the
    /// final states in shard order.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked.
    pub(crate) fn finish(self) -> Vec<S> {
        for link in &self.shared.links {
            // A worker is only gone if it panicked; join below surfaces that.
            let _ = link.try_send(ShardMsg::Shutdown);
        }
        self.workers
            .into_iter()
            .map(|worker| worker.join().expect("ingest worker panicked"))
            .collect()
    }
}

/// A producer-side handle: routes rows to shards by item hash and ships them
/// in recycled [`RowBlock`]s over per-shard SPSC rings. Rows still in partial
/// blocks are sent by [`flush`](Self::flush) or, best-effort, on drop.
pub(crate) struct ProducerHandle<S: ShardState> {
    /// The engine's endpoints and counters, kept for ring registration on
    /// [`Clone`].
    shared: Arc<Shared<S>>,
    /// One block sender per shard; this handle is the ring's single producer.
    senders: Vec<BlockSender<S::Row>>,
    /// The partially filled block per shard, swapped out when full.
    // Boxed: the ring transports blocks as `Box<RowBlock>` so a send moves one
    // pointer, never the multi-KiB payload.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<RowBlock<S::Row>>>,
}

impl<S: ShardState> std::fmt::Debug for ProducerHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProducerHandle")
            .field("shards", &self.senders.len())
            .finish_non_exhaustive()
    }
}

impl<S: ShardState> ProducerHandle<S> {
    /// Builds a handle wired to every shard: one block channel each,
    /// registered with its worker before any row can be sent over it.
    fn connect(shared: &Arc<Shared<S>>) -> Result<Self, EngineError> {
        let mut senders = Vec::with_capacity(shared.links.len());
        let mut blocks = Vec::with_capacity(shared.links.len());
        for (shard, link) in shared.links.iter().enumerate() {
            let ring = Arc::clone(&link.metrics.ring);
            let (tx, rx) =
                block_channel_with_counters(shared.ring_blocks, Arc::clone(&link.waker), ring);
            link.try_send(ShardMsg::Register(rx))
                .map_err(|()| EngineError::ShardDown { shard })?;
            blocks.push(RowBlock::boxed());
            senders.push(tx);
        }
        Ok(Self {
            shared: Arc::clone(shared),
            senders,
            blocks,
        })
    }

    /// Offers one row; lock-free, parking only while the destination ring is
    /// full (the engine's backpressure).
    ///
    /// # Panics
    ///
    /// Panics if the destination worker is gone.
    #[inline]
    pub(crate) fn offer(&mut self, row: S::Row) {
        if self.try_offer(row).is_err() {
            panic!("shard worker disconnected");
        }
    }

    /// Fallible [`offer`](Self::offer).
    #[inline]
    pub(crate) fn try_offer(&mut self, row: S::Row) -> Result<(), EngineError> {
        let shard = self.route(row.item());
        if self.blocks[shard].push(row) {
            self.try_dispatch(shard)?;
        }
        Ok(())
    }

    /// Ships every partially filled block to its shard.
    ///
    /// # Panics
    ///
    /// Panics if a destination worker is gone.
    pub(crate) fn flush(&mut self) {
        if let Err(err) = self.try_flush() {
            panic!("{err}");
        }
    }

    /// Fallible [`flush`](Self::flush). Keeps going past dead shards so every
    /// healthy shard still receives its rows, then reports the first failure.
    pub(crate) fn try_flush(&mut self) -> Result<(), EngineError> {
        let mut first_err = Ok(());
        for shard in 0..self.blocks.len() {
            if !self.blocks[shard].is_empty() {
                let result = self.try_dispatch(shard);
                if first_err.is_ok() {
                    first_err = result;
                }
            }
        }
        first_err
    }

    #[inline]
    fn route(&self, item: u64) -> usize {
        if self.senders.len() == 1 {
            return 0;
        }
        // Multiply-shift of the avalanched hash: an unbiased map onto 0..shards.
        ((u128::from(splitmix64(item)) * self.senders.len() as u128) >> 64) as usize
    }

    /// Sends the current block (recycling a spent one in its place), parking
    /// while the ring is full. A closed ring (dead worker) drops the block's
    /// rows and reports [`EngineError::ShardDown`].
    fn try_dispatch(&mut self, shard: usize) -> Result<(), EngineError> {
        let block = std::mem::replace(&mut self.blocks[shard], self.senders[shard].acquire());
        // Accounting happens before the send (the order the temporal range
        // cache's `applied >= rows` soundness guard is written against); a
        // failed send leaves a small overcount on a shard already reported dead.
        self.shared.account(block.as_slice());
        self.senders[shard]
            .send(block)
            .map_err(|_| EngineError::ShardDown { shard })
    }
}

impl<S: ShardState> Clone for ProducerHandle<S> {
    /// A handle with fresh rings of its own and empty blocks.
    ///
    /// # Panics
    ///
    /// Panics if a worker is gone (the engines' `try_handle` returns the
    /// typed error instead).
    fn clone(&self) -> Self {
        match Self::connect(&self.shared) {
            Ok(handle) => handle,
            Err(err) => panic!("{err}"),
        }
    }
}

impl<S: ShardState> Drop for ProducerHandle<S> {
    /// Best-effort flush so producer threads cannot silently drop buffered
    /// rows. Dropping the senders afterwards closes the rings, which is what
    /// lets each worker retire them once drained.
    fn drop(&mut self) {
        for shard in 0..self.blocks.len() {
            if !self.blocks[shard].is_empty() {
                let block = std::mem::replace(&mut self.blocks[shard], RowBlock::boxed());
                self.shared.account(block.as_slice());
                // After `finish` the workers are gone; losing the send then is fine.
                let _ = self.senders[shard].send(block);
            }
        }
    }
}

/// Per-ring budget of blocks drained per scan pass, bounding how long a pass
/// can run before the worker re-checks the control channel.
const DRAIN_BUDGET: usize = 64;

/// A shard worker: the shard's state and the producer rings it polls.
struct Worker<S: ShardState> {
    state: S,
    rings: Vec<BlockReceiver<S::Row>>,
    metrics: Arc<ShardMetrics>,
}

impl<S: ShardState> Worker<S> {
    /// Applies one block: two Relaxed metric adds per block, never per row.
    fn apply(&mut self, rows: &[S::Row]) {
        self.metrics.rows.add(rows.len() as u64);
        self.metrics.blocks.inc();
        self.state.apply(rows);
    }

    /// One bounded scan over all rings; `true` if any block was applied.
    /// Rings whose producer is gone and which are fully drained are retired.
    fn scan_rings(&mut self) -> bool {
        let mut progressed = false;
        for i in 0..self.rings.len() {
            for _ in 0..DRAIN_BUDGET {
                let Some(block) = self.rings[i].recv() else {
                    break;
                };
                progressed = true;
                self.apply(block.as_slice());
                self.rings[i].recycle(block);
            }
        }
        self.rings.retain(|ring| !ring.is_finished());
        progressed
    }

    /// Drains a cut of every ring, settles the state and samples its
    /// resident size (off the per-block path). Blocks pushed during the
    /// drain are left for the normal scan.
    fn quiesce(&mut self) {
        for i in 0..self.rings.len() {
            for _ in 0..self.rings[i].queued() {
                // Every counted block is already published; recv cannot fail here.
                let block = self.rings[i].recv().expect("queued block vanished");
                self.apply(block.as_slice());
                self.rings[i].recycle(block);
            }
        }
        self.rings.retain(|ring| !ring.is_finished());
        self.state.quiesce();
        self.metrics
            .sketch_memory
            .record_max(self.state.memory_bytes());
    }

    /// Handles one control message; requests that observe state quiesce first.
    fn handle_control(&mut self, msg: ShardMsg<S>) -> Flow {
        match msg {
            ShardMsg::Register(ring) => self.rings.push(ring),
            ShardMsg::Rows(rows) => self.apply(&rows),
            ShardMsg::Quiesced(request) => {
                self.quiesce();
                request(&mut self.state);
            }
            ShardMsg::Shutdown => {
                self.quiesce();
                return Flow::Stop;
            }
            ShardMsg::Poison => panic!("shard worker poisoned by debug_kill_shard"),
        }
        Flow::Continue
    }

    /// Finishes the state and hands it back.
    fn into_state(mut self) -> S {
        self.state.finish();
        self.state
    }
}

/// Whether the worker keeps running after a control message.
#[derive(PartialEq, Eq)]
enum Flow {
    Continue,
    Stop,
}

/// The shard worker loop; see the [module docs](self). Returns the final
/// state through the thread's join handle.
fn run_worker<S: ShardState>(
    control: &Receiver<ShardMsg<S>>,
    waker: &Waker,
    state: S,
    metrics: Arc<ShardMetrics>,
) -> S {
    let mut w = Worker {
        state,
        rings: Vec::new(),
        metrics,
    };
    let mut engine_alive = true;
    // Whether the worker has parked since it last applied a block: the
    // "producers are genuinely quiet" signal that admits idle maintenance.
    let mut quiet = true;
    loop {
        let mut progressed = false;
        // Control first: registrations, explicit-shard rows, requests.
        loop {
            match control.try_recv() {
                Ok(msg) => {
                    progressed = true;
                    if w.handle_control(msg) == Flow::Stop {
                        return w.into_state();
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    // Engine and every handle are gone: no new rings, no requests.
                    engine_alive = false;
                    break;
                }
            }
        }
        if w.scan_rings() {
            progressed = true;
            quiet = false;
        }
        if !engine_alive && w.rings.is_empty() {
            // Nothing can ever arrive again (the engine was dropped without
            // `finish`); exit so the thread does not leak.
            return w.into_state();
        }
        if !progressed {
            if quiet && w.state.idle_step() {
                // One bounded unit of idle maintenance, then re-check inputs.
                continue;
            }
            waker.prepare();
            // Re-check under the raised flag: a producer push or control send
            // between the empty scan and `prepare` would otherwise be missed.
            let pending = w
                .rings
                .iter()
                .any(|ring| !ring.is_empty() || ring.is_finished());
            match control.try_recv() {
                Ok(msg) => {
                    waker.cancel();
                    if w.handle_control(msg) == Flow::Stop {
                        return w.into_state();
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    waker.cancel();
                    engine_alive = false;
                }
                Err(TryRecvError::Empty) => {
                    if pending {
                        waker.cancel();
                    } else {
                        waker.park();
                        quiet = true;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::marker::PhantomData;
    use std::sync::atomic::AtomicUsize;

    use super::*;

    /// A minimal shard: counts its rows, sums their items, owes `debt` units
    /// of idle work, and bumps a shared counter when finished.
    struct CountShard<R> {
        rows: u64,
        sum: u64,
        debt: u32,
        finished: Arc<AtomicUsize>,
        _row: PhantomData<R>,
    }

    impl<R> CountShard<R> {
        fn new(debt: u32, finished: &Arc<AtomicUsize>) -> Self {
            Self {
                rows: 0,
                sum: 0,
                debt,
                finished: Arc::clone(finished),
                _row: PhantomData,
            }
        }
    }

    fn words(bytes: &[u8]) -> Vec<u64> {
        bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect()
    }

    fn to_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    impl<R: Row> ShardState for CountShard<R> {
        type Row = R;
        type Image = (u64, u64);
        type Meta = u64;
        const MANIFEST_FILE: &'static str = "count-manifest.uss";
        const SHARD_FILE_STEM: &'static str = "count";

        fn apply(&mut self, rows: &[R]) {
            self.rows += rows.len() as u64;
            self.sum += rows.iter().map(Row::item).sum::<u64>();
        }

        fn quiesce(&mut self) {}

        fn memory_bytes(&self) -> u64 {
            64
        }

        fn idle_step(&mut self) -> bool {
            let busy = self.debt > 0;
            self.debt = self.debt.saturating_sub(1);
            busy
        }

        fn finish(&mut self) {
            self.finished.fetch_add(1, Ordering::SeqCst);
        }

        fn image(&self) -> (u64, u64) {
            (self.rows, self.sum)
        }

        fn image_rows(image: &(u64, u64)) -> u64 {
            image.0
        }

        fn encode_shard(shard: usize, meta: u64, image: &(u64, u64)) -> Vec<u8> {
            to_bytes(&[shard as u64, meta, image.0, image.1])
        }

        fn decode_shard(bytes: &[u8]) -> Result<(u64, u64, (u64, u64)), PersistError> {
            match words(bytes)[..] {
                [shard, meta, rows, sum] => Ok((shard, meta, (rows, sum))),
                _ => Err(PersistError::Corrupt("bad count shard".into())),
            }
        }

        fn encode_manifest(meta: u64, snapshots: u64, rows: u64) -> Vec<u8> {
            to_bytes(&[meta, snapshots, rows])
        }

        fn decode_manifest(bytes: &[u8]) -> Result<(u64, u64, u64), PersistError> {
            match words(bytes)[..] {
                [meta, snapshots, rows] => Ok((meta, snapshots, rows)),
                _ => Err(PersistError::Corrupt("bad count manifest".into())),
            }
        }
    }

    fn spawn<R: Row>(shards: usize, debt: u32) -> (ShardRuntime<CountShard<R>>, Arc<AtomicUsize>) {
        let finished = Arc::new(AtomicUsize::new(0));
        let states = (0..shards)
            .map(|_| CountShard::new(debt, &finished))
            .collect();
        (
            ShardRuntime::spawn(states, 2, 64, Resume::default()),
            finished,
        )
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("uss-runtime-{tag}-{}", std::process::id()))
    }

    #[test]
    fn quiesced_requests_see_every_row_enqueued_before_them() {
        let (runtime, _) = spawn::<u64>(3, 0);
        let mut handle = runtime.handle().unwrap();
        for item in 0..10_000u64 {
            handle.offer(item);
        }
        handle.flush();
        runtime.send_rows(1, vec![5; 100]);
        assert_eq!(runtime.rows_enqueued(), 10_100);
        let answers = runtime
            .request(|s: &mut CountShard<u64>| (s.rows, s.sum))
            .unwrap();
        assert_eq!(answers.iter().map(|a| a.0).sum::<u64>(), 10_100);
        assert_eq!(
            answers.iter().map(|a| a.1).sum::<u64>(),
            9_999 * 10_000 / 2 + 500
        );
        // Hash routing spreads distinct items over every shard.
        assert!(answers.iter().all(|&(rows, _)| rows > 0));
        let states = runtime.finish();
        assert_eq!(states.iter().map(|s| s.rows).sum::<u64>(), 10_100);
    }

    #[test]
    fn idle_steps_drain_once_the_worker_is_quiet() {
        let (runtime, _) = spawn::<u64>(2, 50);
        let mut debts = Vec::new();
        for _ in 0..10_000 {
            debts = runtime.request(|s: &mut CountShard<u64>| s.debt).unwrap();
            if debts.iter().all(|&d| d == 0) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(debts, vec![0, 0], "idle maintenance never ran dry");
        drop(runtime.finish());
    }

    #[test]
    fn shutdown_quiesces_samples_memory_and_finishes_every_state() {
        let (runtime, finished) = spawn::<u64>(2, 0);
        let metrics = Arc::clone(runtime.metrics());
        let mut handle = runtime.handle().unwrap();
        for item in 0..1_000u64 {
            handle.offer(item);
        }
        handle.flush();
        // No request before shutdown: the final quiesce alone must apply
        // every queued block and sample the gauge.
        let states = runtime.finish();
        assert_eq!(states.iter().map(|s| s.rows).sum::<u64>(), 1_000);
        assert_eq!(finished.load(Ordering::SeqCst), 2);
        for shard in &metrics.shards {
            assert_eq!(shard.sketch_memory.get(), 64);
        }
        assert_eq!(metrics.rows_total(), 1_000);
    }

    #[test]
    fn timestamped_rows_advance_max_time_once_per_block() {
        let (runtime, _) = spawn::<(u64, u64)>(2, 0);
        let mut handle = runtime.handle().unwrap();
        for ts in 0..500u64 {
            handle.offer((ts % 7, ts));
        }
        assert!(
            runtime.max_time() < 499,
            "partial blocks are not yet accounted"
        );
        handle.flush();
        assert_eq!(runtime.max_time(), 499);
        assert_eq!(runtime.rows_enqueued(), 500);
        drop(handle);
        drop(runtime.finish());
    }

    #[test]
    fn checkpoint_restores_and_degrades_per_shard() {
        let dir = scratch_dir("ckpt");
        let (runtime, _) = spawn::<u64>(2, 0);
        let mut handle = runtime.handle().unwrap();
        for item in 0..2_000u64 {
            handle.offer(item);
        }
        handle.flush();
        let _ = runtime.next_salt();
        runtime.checkpoint(&dir, 7).unwrap();
        type Runtime = ShardRuntime<CountShard<u64>>;
        let (images, resume) = Runtime::restore(&dir, 2, 7).unwrap();
        assert_eq!(images.iter().map(|i| i.0).sum::<u64>(), 2_000);
        assert_eq!((resume.rows, resume.snapshots), (2_000, 1));
        assert!(Runtime::restore(&dir, 2, 8).is_err(), "identity mismatch");
        assert!(Runtime::restore(&dir, 3, 7).is_err(), "missing shard file");

        runtime.debug_kill_shard(1);
        assert!(matches!(
            runtime.request(|s: &mut CountShard<u64>| s.rows),
            Err(EngineError::ShardDown { shard: 1 })
        ));
        assert!(matches!(
            runtime.handle(),
            Err(EngineError::ShardDown { shard: 1 })
        ));
        let partial = scratch_dir("partial");
        match runtime.checkpoint(&partial, 7) {
            Err(EngineError::CheckpointIncomplete { failures }) => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].shard, 1);
                assert!(matches!(failures[0].fault, ShardFault::Down));
            }
            other => panic!("expected CheckpointIncomplete, got {other:?}"),
        }
        assert!(partial.join(Runtime::shard_file_name(0)).exists());
        assert!(!partial.join(CountShard::<u64>::MANIFEST_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&partial).unwrap();
    }

    #[test]
    fn dropping_the_runtime_without_finish_lets_workers_exit() {
        let (runtime, finished) = spawn::<u64>(2, 3);
        let mut handle = runtime.handle().unwrap();
        for item in 0..500u64 {
            handle.offer(item);
        }
        drop(handle);
        drop(runtime);
        for _ in 0..10_000 {
            if finished.load(Ordering::SeqCst) == 2 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("workers kept running after the engine and its handles were dropped");
    }

    #[test]
    fn shard_seeds_wrap_instead_of_overflowing() {
        assert_eq!(shard_seed(u64::MAX, 1), 0);
        assert_eq!(shard_seed(7, 3), 10);
    }
}
