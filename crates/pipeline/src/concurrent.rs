//! The concurrent ingester: workers that split **one** shared
//! atomic-backed sketch by rows.
//!
//! Where [`ShardedIngest`](crate::ShardedIngest) buys parallelism with
//! memory — `k` same-seed shard copies, `k×` the counter space, merged
//! at the end — [`ConcurrentIngest`] keeps the small-space promise that
//! motivates sketching in the first place: one counter plane, `1×`
//! memory, written under the
//! [`SharedSketch`](bas_sketch::SharedSketch) rule. No merge step, no
//! shard copies, and the sketch is queryable the moment the last flush
//! returns.

use crate::buffer::IngestBuffer;
use crate::epoch::EpochGuard;
use bas_sketch::SharedSketch;
use bas_stream::StreamUpdate;

/// Buffers an update stream and applies each flush to **one** shared
/// sketch, with the sketch's rows split across `workers` threads.
///
/// The sketch must be built on the [`bas_sketch::storage::Atomic`]
/// counter backend, e.g. [`bas_sketch::AtomicCountSketch`]. Each time
/// the buffer reaches the flush threshold, every worker applies the
/// **whole** flush to its own contiguous range of rows through
/// [`SharedSketch::update_rows_shared`], so each row has exactly one
/// writer. At `workers == 1` the flush runs inline on the calling
/// thread; workers beyond the sketch's depth idle.
///
/// **Memory.** A width-`s`, depth-`d` sketch costs `s·d` counter words
/// here versus `k·s·d` under `ShardedIngest` with `k` shards — the
/// difference between one compact shared summary and per-thread copies.
///
/// **Exactness.** Each cell receives its increments from one writer, in
/// stream order, so the result is **bit-for-bit** equal to
/// single-threaded ingest for any `f64` deltas and any worker count —
/// asserted by `tests/concurrent_ingest.rs`.
///
/// **Consistency.** Between `push`/`flush` calls no worker threads are
/// live, so [`sketch`](ConcurrentIngest::sketch) queries observe a
/// fully settled state; there is no cross-thread ingest happening
/// outside `flush`.
///
/// ```
/// use bas_pipeline::ConcurrentIngest;
/// use bas_sketch::{AtomicCountSketch, CountSketch, PointQuerySketch, SketchParams};
///
/// let params = SketchParams::new(10_000, 128, 5).with_seed(3);
/// let mut ingest = ConcurrentIngest::new(4, AtomicCountSketch::with_backend(&params));
/// for i in 0..20_000u64 {
///     ingest.push(i % 10_000, 0.25 * (i % 7) as f64);
/// }
/// let sketch = ingest.finish();
///
/// // One shared sketch, its rows split over 4 threads == the
/// // single-threaded sketch, bit for bit.
/// let mut reference = CountSketch::new(&params);
/// for i in 0..20_000u64 {
///     reference.update(i % 10_000, 0.25 * (i % 7) as f64);
/// }
/// assert_eq!(sketch.estimate(42).to_bits(), reference.estimate(42).to_bits());
/// ```
#[derive(Debug)]
pub struct ConcurrentIngest<S> {
    sketch: S,
    workers: usize,
    buf: IngestBuffer,
}

impl<S: SharedSketch + Send> ConcurrentIngest<S> {
    /// Default number of buffered updates that triggers a flush — same sizing rationale as
    /// [`ShardedIngest::DEFAULT_FLUSH_THRESHOLD`](crate::ShardedIngest::DEFAULT_FLUSH_THRESHOLD).
    pub const DEFAULT_FLUSH_THRESHOLD: usize = IngestBuffer::DEFAULT_FLUSH_THRESHOLD;

    /// Creates an ingester whose flushes split `sketch`'s rows across
    /// `workers` threads.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize, sketch: S) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self {
            sketch,
            workers,
            buf: IngestBuffer::new(),
        }
    }

    /// Overrides the flush threshold (mostly for tests and benches).
    ///
    /// # Panics
    /// Panics if `updates` is zero.
    pub fn with_flush_threshold(mut self, updates: usize) -> Self {
        self.buf.set_flush_threshold(updates);
        self
    }

    /// Number of worker threads a flush splits the rows across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Updates applied to the shared sketch so far (excludes buffered).
    pub fn total_updates(&self) -> u64 {
        self.buf.total_updates()
    }

    /// Flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.buf.flushes()
    }

    /// Updates currently buffered, waiting for the next flush.
    pub fn pending(&self) -> usize {
        self.buf.pending()
    }

    /// The shared sketch, queryable between flushes. Counters reflect
    /// every update already flushed; buffered updates are not yet
    /// visible (call [`flush`](ConcurrentIngest::flush) first for a
    /// point-in-time exact view).
    pub fn sketch(&self) -> &S {
        &self.sketch
    }

    /// Buffers one update `x_item ← x_item + delta`, flushing when the
    /// buffer is full.
    pub fn push(&mut self, item: u64, delta: f64) {
        if self.buf.push(item, delta) {
            self.flush();
        }
    }

    /// Buffers a slice of updates, flushing as the buffer fills.
    pub fn extend_from_slice(&mut self, mut updates: &[(u64, f64)]) {
        while !updates.is_empty() {
            updates = self.buf.fill(updates);
            if self.buf.is_full() {
                self.flush();
            }
        }
    }

    /// Buffers a stream of [`StreamUpdate`]s (the `bas-stream` update
    /// model), flushing as the buffer fills.
    pub fn extend_updates<I: IntoIterator<Item = StreamUpdate>>(&mut self, updates: I) {
        for u in updates {
            self.push(u.item, u.delta);
        }
    }

    /// Applies all buffered updates now. With one worker the flush
    /// runs inline through [`apply_shared`];
    /// otherwise the sketch's rows are split into `min(workers, depth)`
    /// contiguous ranges and each scoped thread applies the whole
    /// buffer to its own range — every row has one writer. Returns with
    /// all workers joined, so the sketch is settled.
    ///
    /// If the sketch publishes a write epoch
    /// ([`SharedSketch::write_epoch`], e.g. through an
    /// [`EpochSketch`](crate::EpochSketch) wrapper), the whole flush
    /// runs inside one write section, and the stream position is
    /// advanced via [`SharedSketch::note_applied`] before the section
    /// closes. Seqlock snapshot readers therefore only ever capture
    /// flush *boundaries*: prefixes of the pushed stream, never a mix
    /// of an in-flight flush. Plain sketches publish no epoch and skip
    /// the bracket entirely.
    pub fn flush(&mut self) {
        let sketch = &self.sketch;
        let workers = self.workers;
        self.buf.drain(|pending| {
            if workers == 1 {
                apply_shared(sketch, pending);
                return;
            }
            in_write_section(sketch, pending, || {
                let depth = sketch.shared_rows();
                let parts = workers.min(depth).max(1);
                let rows = |k: usize| k * depth / parts..(k + 1) * depth / parts;
                crossbeam::scope(|scope| {
                    for k in 1..parts {
                        scope.spawn(move |_| sketch.update_rows_shared(rows(k), pending));
                    }
                    sketch.update_rows_shared(rows(0), pending);
                })
                .expect("concurrent ingest worker panicked");
            });
        });
    }

    /// Flushes the remainder and returns the shared sketch. Unlike
    /// [`ShardedIngest::finish`](crate::ShardedIngest::finish) there is
    /// nothing to merge — the counters were shared all along.
    pub fn finish(mut self) -> S {
        self.flush();
        self.sketch
    }
}

/// Applies `updates` to `sketch` as its only writer, in **one** write
/// section: every row through [`SharedSketch::update_batch_shared`],
/// then the stream position through [`SharedSketch::note_applied`]
/// before the section closes. Seqlock readers therefore see either
/// none of the batch or all of it.
///
/// This is the one-worker flush of [`ConcurrentIngest`], exposed so a
/// caller that keeps its own queue of batches (the serving daemon's
/// write-behind writer) applies them exactly as a flush would, from any
/// thread holding a handle to the sketch. The caller must serialize
/// write sections on the sketch: a second writer inside an open section
/// is a hard error in [`EpochCounter::begin_write`](bas_sketch::storage::EpochCounter::begin_write).
pub fn apply_shared<S: SharedSketch>(sketch: &S, updates: &[(u64, f64)]) {
    in_write_section(sketch, updates, || sketch.update_batch_shared(updates));
}

/// Runs `write` (which must apply exactly `updates`) inside the
/// sketch's write section, if it publishes one, and advances the stream
/// position before the section closes.
fn in_write_section<S: SharedSketch>(sketch: &S, updates: &[(u64, f64)], write: impl FnOnce()) {
    let guard = sketch.write_epoch().map(EpochGuard::enter);
    write();
    if guard.is_some() {
        // Only epoch-published sketches track stream position; plain
        // sketches' note_applied is a no-op, so skip the O(batch) mass
        // sum on their hot path.
        sketch.note_applied(updates.len() as u64, updates.iter().map(|&(_, d)| d).sum());
    }
    drop(guard); // close the write section: the batch is visible
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_sketch::{
        AtomicCountMedian, AtomicCountSketch, CountMedian, PointQuerySketch, SketchParams,
    };

    fn params() -> SketchParams {
        SketchParams::new(500, 64, 5).with_seed(9)
    }

    /// Fractional deltas: each row has one writer applying them in
    /// stream order, so the shared sketch must reproduce the
    /// single-threaded sketch bit-for-bit.
    fn stream(len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| (i * 7 % 500, 0.1 + (i % 5) as f64 / 3.0))
            .collect()
    }

    #[test]
    fn concurrent_equals_single_threaded_exactly() {
        for workers in [1usize, 2, 3, 5, 8] {
            let updates = stream(10_000);
            let mut ingest =
                ConcurrentIngest::new(workers, AtomicCountMedian::with_backend(&params()))
                    .with_flush_threshold(1_000);
            ingest.extend_from_slice(&updates);
            let shared = ingest.finish();
            let mut reference = CountMedian::new(&params());
            reference.update_batch(&updates);
            for j in 0..500u64 {
                assert_eq!(
                    shared.estimate(j).to_bits(),
                    reference.estimate(j).to_bits(),
                    "{workers} workers, item {j}"
                );
            }
        }
    }

    #[test]
    fn push_and_slice_and_stream_apis_agree() {
        let updates = stream(3_000);
        let mut by_push = ConcurrentIngest::new(3, AtomicCountSketch::with_backend(&params()));
        for &(i, d) in &updates {
            by_push.push(i, d);
        }
        let mut by_slice = ConcurrentIngest::new(3, AtomicCountSketch::with_backend(&params()));
        by_slice.extend_from_slice(&updates);
        let mut by_stream = ConcurrentIngest::new(3, AtomicCountSketch::with_backend(&params()));
        by_stream.extend_updates(updates.iter().map(|&(i, d)| StreamUpdate::new(i, d)));
        let (a, b, c) = (by_push.finish(), by_slice.finish(), by_stream.finish());
        for j in (0..500u64).step_by(17) {
            assert_eq!(a.estimate(j), b.estimate(j), "item {j}");
            assert_eq!(a.estimate(j), c.estimate(j), "item {j}");
        }
    }

    #[test]
    fn counters_track_flushes_and_mid_stream_queries_work() {
        let mut ingest = ConcurrentIngest::new(2, AtomicCountMedian::with_backend(&params()))
            .with_flush_threshold(100);
        assert_eq!(ingest.workers(), 2);
        for (i, d) in stream(250) {
            ingest.push(i, d);
        }
        assert_eq!(ingest.flushes(), 2);
        assert_eq!(ingest.total_updates(), 200);
        assert_eq!(ingest.pending(), 50);
        // Mid-stream query: flushed state is settled and visible.
        let _ = ingest.sketch().estimate(3);
        ingest.flush();
        assert_eq!(ingest.pending(), 0);
        let _ = ingest.finish();
    }

    #[test]
    fn workers_beyond_the_depth_idle() {
        // Depth 5, 8 workers: three have no rows to own.
        let mut ingest = ConcurrentIngest::new(8, AtomicCountMedian::with_backend(&params()));
        ingest.push(3, 2.0);
        let sk = ingest.finish();
        assert_eq!(sk.estimate(3), 2.0);
    }

    #[test]
    fn empty_stream_yields_empty_sketch() {
        let ingest = ConcurrentIngest::new(4, AtomicCountMedian::with_backend(&params()));
        let sk = ingest.finish();
        for j in (0..500u64).step_by(31) {
            assert_eq!(sk.estimate(j), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ConcurrentIngest::new(0, AtomicCountMedian::with_backend(&params()));
    }

    #[test]
    #[should_panic(expected = "flush threshold must be positive")]
    fn zero_threshold_rejected() {
        let _ = ConcurrentIngest::new(1, AtomicCountMedian::with_backend(&params()))
            .with_flush_threshold(0);
    }
}
