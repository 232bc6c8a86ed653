//! The concurrency test suite for shared-sketch ingest, under its one
//! rule: at most one writer per row at a time.
//!
//! Pinned claims:
//!
//! 1. N-thread `ConcurrentIngest` splits one shared sketch's rows
//!    across its workers, so every cell has one writer applying its
//!    increments in stream order: the result equals single-threaded
//!    ingest **bit for bit**, for integer and fractional deltas alike;
//! 2. the shared path composes with `ShardedIngest` and the chunked
//!    driver without changing results.
//!
//! The worker counts default to {2, 8}; CI re-runs the suite under
//! `--release` with `BAS_TEST_THREADS=2` and `=8` explicitly so both
//! contention regimes are exercised even if the defaults change.

use bias_aware_sketches::prelude::*;

/// Worker counts to exercise: `BAS_TEST_THREADS` (CI) or {2, 8}.
fn worker_counts() -> Vec<usize> {
    match std::env::var("BAS_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("BAS_TEST_THREADS must be a number")],
        Err(_) => vec![2, 8],
    }
}

const N: u64 = 2_000;

fn params() -> SketchParams {
    SketchParams::new(N, 128, 7).with_seed(33)
}

/// Deterministic integer-delta stream (the paper's arrival model).
fn integer_stream(len: u64) -> Vec<(u64, f64)> {
    let mut state = 0xBA5E_1111u64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % N, (1 + state % 9) as f64)
        })
        .collect()
}

/// Deterministic fractional turnstile stream.
fn fractional_stream(len: u64) -> Vec<(u64, f64)> {
    let mut state = 0xBA5E_2222u64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let delta = ((state % 2_000) as f64 - 600.0) / 128.0;
            (state % N, delta)
        })
        .collect()
}

#[test]
fn concurrent_count_sketch_integer_deltas_bit_for_bit() {
    let updates = integer_stream(60_000);
    let mut reference = CountSketch::new(&params());
    reference.update_batch(&updates);
    for workers in worker_counts() {
        let mut ingest = ConcurrentIngest::new(workers, AtomicCountSketch::with_backend(&params()))
            .with_flush_threshold(4_096);
        ingest.extend_from_slice(&updates);
        let shared = ingest.finish();
        for j in 0..N {
            assert_eq!(
                shared.estimate(j),
                reference.estimate(j),
                "{workers} workers, item {j}"
            );
        }
    }
}

#[test]
fn concurrent_count_median_integer_deltas_bit_for_bit() {
    let updates = integer_stream(60_000);
    let mut reference = CountMedian::new(&params());
    reference.update_batch(&updates);
    for workers in worker_counts() {
        let mut ingest = ConcurrentIngest::new(workers, AtomicCountMedian::with_backend(&params()))
            .with_flush_threshold(4_096);
        ingest.extend_from_slice(&updates);
        let shared = ingest.finish();
        for j in 0..N {
            assert_eq!(
                shared.estimate(j),
                reference.estimate(j),
                "{workers} workers, item {j}"
            );
        }
    }
}

#[test]
fn concurrent_count_min_plain_integer_deltas_bit_for_bit() {
    let updates = integer_stream(60_000);
    let mut reference = CountMin::new(&params(), UpdatePolicy::Plain);
    reference.update_batch(&updates);
    for workers in worker_counts() {
        let mut ingest = ConcurrentIngest::new(
            workers,
            AtomicCountMin::with_backend(&params(), UpdatePolicy::Plain),
        )
        .with_flush_threshold(4_096);
        ingest.extend_from_slice(&updates);
        let shared = ingest.finish();
        for j in 0..N {
            assert_eq!(
                shared.estimate(j),
                reference.estimate(j),
                "{workers} workers, item {j}"
            );
        }
    }
}

#[test]
fn concurrent_fractional_deltas_bit_for_bit() {
    // Fractional deltas round, so only the order of additions into a
    // cell decides the result. Each row has one writer applying the
    // stream in order, hence bit-for-bit at every worker count.
    let updates = fractional_stream(60_000);
    let mut reference = CountSketch::new(&params());
    reference.update_batch(&updates);
    for workers in worker_counts() {
        let mut ingest = ConcurrentIngest::new(workers, AtomicCountSketch::with_backend(&params()))
            .with_flush_threshold(4_096);
        ingest.extend_from_slice(&updates);
        let shared = ingest.finish();
        for j in 0..N {
            assert_eq!(
                shared.estimate(j).to_bits(),
                reference.estimate(j).to_bits(),
                "{workers} workers, item {j}"
            );
        }
    }
}

#[test]
fn shared_range_sum_matches_exclusive() {
    let updates = integer_stream(20_000);
    let mut reference = RangeSumSketch::new(&params());
    for &(i, d) in &updates {
        reference.update(i, d);
    }
    // Four threads own disjoint row ranges of every dyadic level.
    let shared = RangeSumSketch::<Atomic>::with_backend(&params());
    let rows = shared.shared_rows();
    std::thread::scope(|scope| {
        for k in 0..4 {
            let (shared, updates) = (&shared, &updates);
            scope.spawn(move || {
                shared.update_rows_shared(k * rows / 4..(k + 1) * rows / 4, updates)
            });
        }
    });
    for (a, b) in [(0u64, N - 1), (17, 1_200), (500, 501), (N - 64, N - 1)] {
        assert_eq!(shared.query(a, b), reference.query(a, b), "range [{a},{b}]");
    }
}

#[test]
fn concurrent_matches_sharded_on_integer_deltas() {
    // The two multi-core strategies must agree with each other, not
    // just with the single-threaded reference: linearity (sharded) and
    // row ownership (shared) describe the same sketch.
    let updates = integer_stream(40_000);
    for workers in worker_counts() {
        let mut shared_ingest =
            ConcurrentIngest::new(workers, AtomicCountSketch::with_backend(&params()))
                .with_flush_threshold(2_048);
        shared_ingest.extend_from_slice(&updates);
        let shared = shared_ingest.finish();

        let mut sharded_ingest =
            ShardedIngest::new(workers, || CountSketch::new(&params())).with_flush_threshold(2_048);
        sharded_ingest.extend_from_slice(&updates);
        let sharded = sharded_ingest.finish();

        for j in (0..N).step_by(7) {
            assert_eq!(
                shared.estimate(j),
                sharded.estimate(j),
                "{workers} workers, item {j}"
            );
        }
    }
}

#[test]
fn chunked_driver_feeds_shared_sketch() {
    // The driver's sink works against the shared path too: a receive
    // loop, as the sketch's one writer, hands it chunks.
    let updates = integer_stream(10_000);
    let shared = AtomicCountSketch::with_backend(&params());
    let stream = updates.iter().map(|&(i, d)| StreamUpdate::new(i, d));
    let delivered = drive_chunked(stream, 512, |chunk| shared.update_batch_shared(chunk));
    assert_eq!(delivered, 10_000);
    let mut reference = CountSketch::new(&params());
    reference.update_batch(&updates);
    for j in (0..N).step_by(13) {
        assert_eq!(shared.estimate(j), reference.estimate(j), "item {j}");
    }
}

#[test]
fn memory_accounting_shared_vs_sharded() {
    // The motivating arithmetic: ConcurrentIngest holds one sketch's
    // counters regardless of worker count; ShardedIngest holds one per
    // shard. size_in_words counts counter words.
    let one = CountSketch::new(&params()).size_in_words();
    for workers in worker_counts() {
        let ingest = ConcurrentIngest::new(workers, AtomicCountSketch::with_backend(&params()));
        // One counter plane regardless of worker count — versus the
        // `workers * one` words ShardedIngest holds until finish().
        assert_eq!(ingest.sketch().size_in_words(), one, "{workers} workers");
    }
}
