//! The replay part of the traced run: the workload's generated write
//! frames and queries, replayed in-process through each layer's public
//! entry point on identical inputs, so each layer is priced alone. A
//! layer's self time is its figure minus the next-lower layer's figure
//! on the same input (for example `fabric.flush_ns_per_item −
//! serve.flush_ns_per_item`).

use crate::daemon::tenant_spec;
use crate::gen::{below, rng};
use crate::hist::Histogram;
use crate::reference::template;
use crate::spec::{Mode, WorkloadSpec};
use bas_hash::{HashFamily, HashKind, RowDeriver, SeedSchedule, SplitMix64};
use bas_pipeline::{ConcurrentIngest, EpochSketch, FillBudget};
use bas_serve::{QueryEngine, RotatingEngine, Sliding, Unbounded};
use bas_server::wire::{HeavyHittersQuery, IngestFrame, PointQuery, ValueReply};
use bas_server::{
    persist, read_frame, write_frame, Fabric, FabricConfig, Journal, JournalRecord, Request,
    Response, SharedFabric, TenantRef, MAX_FRAME_BYTES,
};
use bas_sketch::{
    AtomicCountMedian, CountMedian, PointQuerySketch, SharedSketch, SketchParams, Snapshottable,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One per-layer figure.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn fig(name: &'static str, value: f64, unit: &'static str) -> Figure {
    Figure { name, value, unit }
}

/// Median of `reps` timings of `f`, in ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

const REPS: usize = 5;

/// The replay's inputs: the workload's write frames, in generated
/// order, at most `max_items` updates in all.
pub fn frames_of(
    pool: &[Vec<Vec<(u64, f64)>>],
    trickles: &[Vec<(u64, f64)>],
    max_items: usize,
) -> Vec<Vec<(u64, f64)>> {
    let mut out = Vec::new();
    let mut items = 0;
    let depth = pool.iter().map(Vec::len).max().unwrap_or(0);
    'outer: for i in 0..depth {
        for tenant_pool in pool {
            if let Some(f) = tenant_pool.get(i) {
                if items + f.len() > max_items && !out.is_empty() {
                    break 'outer;
                }
                items += f.len();
                out.push(f.clone());
            }
        }
    }
    for f in trickles {
        if items + f.len() > max_items && !out.is_empty() {
            break;
        }
        items += f.len();
        out.push(f.clone());
    }
    out
}

/// What each per-layer figure should move: the end-to-end metric and
/// workload it maps to.
pub const MAPS_TO: &[(&str, &str)] = &[
    (
        "wire.ingest_encode_ns_per_item",
        "ingest_items_per_s on ingest_firehose, window_churn; flat on point_lookup",
    ),
    (
        "wire.ingest_decode_ns_per_item",
        "ingest_items_per_s on ingest_firehose, window_churn; flat on point_lookup",
    ),
    (
        "wire.ingest_bytes_per_item",
        "ingest_items_per_s on ingest_firehose, window_churn; flat on point_lookup",
    ),
    (
        "wire.query_frame_ns",
        "point_p50_us, point_sustained_qps on point_lookup",
    ),
    (
        "listener.ping_rtt_p50_us",
        "point_p50_us, point_sustained_qps on point_lookup (transport floor)",
    ),
    (
        "listener.ping_rtt_p99_us",
        "point_p99_us, point_sustained_qps on point_lookup (transport floor)",
    ),
    ("connection.retries", "failed_frac on all workloads"),
    ("connection.reconnects", "failed_frac on all workloads"),
    (
        "fabric.admit_ns_per_item",
        "ingest_items_per_s on ingest_firehose",
    ),
    (
        "fabric.flush_ns_per_item",
        "ingest_items_per_s on ingest_firehose",
    ),
    (
        "fabric.flush_hold_p99_us",
        "ingest_items_per_s and point_p99_us on ingest_firehose",
    ),
    ("fabric.point_ns", "point_p50_us on point_lookup"),
    (
        "fabric.window_point_us",
        "window_point_p50_us on window_churn",
    ),
    ("fabric.hh_ms", "hh_p50_ms, hh_p90_ms on window_churn"),
    ("fabric.advance_us", "advance_p99_ms on window_churn"),
    ("fabric.busy_frac", "failed_frac on all workloads"),
    ("fabric.shed_frac", "failed_frac on all workloads"),
    (
        "serve.flush_ns_per_item",
        "ingest_items_per_s on ingest_firehose (fabric self = fabric − serve)",
    ),
    ("serve.estimate_live_ns", "point_p50_us on point_lookup"),
    (
        "serve.point_in_window_us",
        "window_point_p50_us on window_churn",
    ),
    (
        "serve.rotating_window_estimate_us",
        "window_point_p50_us on window_churn",
    ),
    (
        "serve.heavy_hitters_in_window_ms",
        "hh_p50_ms, hh_p90_ms on window_churn",
    ),
    (
        "serve.advance_interval_us",
        "advance_p99_ms on window_churn",
    ),
    (
        "pipeline.pin_into_us",
        "window_point_p50_us, advance_p99_ms on window_churn",
    ),
    (
        "pipeline.pin_retries",
        "window_point_p50_us, advance_p99_ms on window_churn",
    ),
    (
        "pipeline.flushes",
        "window_point_p50_us, advance_p99_ms on window_churn",
    ),
    (
        "sketch.dense_kernel_ns_per_item",
        "ingest_items_per_s on ingest_firehose; flat on point_lookup",
    ),
    (
        "sketch.shared_kernel_ns_per_item",
        "ingest_items_per_s on ingest_firehose; flat on point_lookup",
    ),
    (
        "sketch.subtract_snapshot_us",
        "window_point_p50_us on window_churn",
    ),
    (
        "hash.row_derive_ns_per_item",
        "ingest_items_per_s on ingest_firehose",
    ),
    (
        "persist.append_us",
        "advance_p99_ms and the tails on window_churn",
    ),
    (
        "persist.compact_ms",
        "advance_p99_ms and the tails on window_churn",
    ),
    ("persist.recover_ms", "setup_s when boot replays a journal"),
    ("persist.journal_bytes", "advance_p99_ms on window_churn"),
    (
        "loadgen.late_p99_us",
        "sender lateness: a rung whose sender fell behind is not sustained",
    ),
    (
        "loadgen.backlog_max",
        "sender lateness: a rung whose sender fell behind is not sustained",
    ),
];

/// Prices every layer on `frames` (the workload's write frames) and
/// the workload's query shapes. `work` holds the replay journal.
pub fn replay(
    spec: &WorkloadSpec,
    seed: u64,
    frames: &[Vec<(u64, f64)>],
    work: &Path,
) -> Result<Vec<Figure>, String> {
    let items: usize = frames.iter().map(Vec::len).sum();
    let per_item = |ns: f64| ns / items as f64;
    let template = template(spec);
    let params = template.with_seed(spec.tenant_seed(0));
    let mut r = rng(seed, 0x7000);
    let queries: Vec<u64> = (0..4096).map(|_| below(&mut r, spec.universe)).collect();
    let mut out = Vec::new();

    // ---- wire ----
    let reqs: Vec<Request> = frames
        .iter()
        .map(|f| {
            Request::Ingest(IngestFrame {
                tenant: 0,
                updates: f.clone(),
            })
        })
        .collect();
    let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); reqs.len()];
    let enc = median_ns(REPS, || {
        for (req, buf) in reqs.iter().zip(encoded.iter_mut()) {
            buf.clear();
            write_frame(buf, req).expect("ingest frames encode");
        }
    });
    let dec = median_ns(REPS, || {
        for buf in &encoded {
            let req: Option<Request> = read_frame(&mut &buf[..], MAX_FRAME_BYTES).expect("decodes");
            black_box(req);
        }
    });
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    out.push(fig("wire.ingest_encode_ns_per_item", per_item(enc), "ns"));
    out.push(fig("wire.ingest_decode_ns_per_item", per_item(dec), "ns"));
    out.push(fig(
        "wire.ingest_bytes_per_item",
        bytes as f64 / items as f64,
        "B",
    ));
    let mut buf = Vec::new();
    let qf = median_ns(REPS, || {
        for &item in &queries {
            buf.clear();
            write_frame(&mut buf, &Request::Point(PointQuery { tenant: 3, item }))
                .expect("encodes");
            let q: Option<Request> = read_frame(&mut &buf[..], MAX_FRAME_BYTES).expect("decodes");
            black_box(q);
            buf.clear();
            let reply = Response::Value(ValueReply {
                tenant: 3,
                value: item as f64 + 0.5,
            });
            write_frame(&mut buf, &reply).expect("encodes");
            let a: Option<Response> = read_frame(&mut &buf[..], MAX_FRAME_BYTES).expect("decodes");
            black_box(a);
        }
    });
    out.push(fig("wire.query_frame_ns", qf / queries.len() as f64, "ns"));

    // ---- fabric (dispatch under the lock, placement, admission, engine) ----
    // The workload's tenants plus a Sliding and a Rotating mirror tenant
    // (ids past the workload's), so window paths are priced on every
    // workload's shape.
    let mut fabric = Fabric::new(FabricConfig::new(template));
    for s in 0..spec.shards {
        fabric.add_shard(s, 1.0).map_err(|e| e.detail)?;
    }
    for t in 0..spec.tenants() {
        fabric
            .register_tenant(tenant_spec(spec, t))
            .map_err(|e| e.detail)?;
    }
    let (slide_t, rot_t) = (spec.tenants(), spec.tenants() + 1);
    let k_slide = if spec.window > 0 { spec.window } else { 8 };
    let k_rot = if spec.rotating_window > 0 {
        spec.rotating_window
    } else {
        4
    };
    let mut mirror = spec.clone();
    mirror.unbounded_tenants = 0;
    mirror.sliding_tenants = slide_t + 1;
    mirror.rotating_tenants = 1;
    mirror.window = k_slide;
    mirror.rotating_window = k_rot;
    debug_assert_eq!(mirror.mode(slide_t), Mode::Sliding(k_slide));
    for t in [slide_t, rot_t] {
        let mut ts = tenant_spec(&mirror, t);
        ts.seed = spec.tenant_seed(0);
        fabric.register_tenant(ts).map_err(|e| e.detail)?;
    }
    let fabric = SharedFabric::new(fabric);
    let flush_every = (spec.frames_per_commit() as usize).min(frames.len());
    let mut admit_ns = 0f64;
    let mut flush_ns = 0f64;
    let mut holds = Histogram::new();
    for _ in 0..2 {
        admit_ns = 0.0;
        flush_ns = 0.0;
        for (i, f) in frames.iter().enumerate() {
            let req = Request::Ingest(IngestFrame {
                tenant: 0,
                updates: f.clone(),
            });
            let t = Instant::now();
            let resp = fabric.handle(req);
            admit_ns += t.elapsed().as_nanos() as f64;
            if !matches!(resp, Response::Admitted(_)) {
                return Err(format!("replay ingest answered {resp:?}"));
            }
            if (i + 1) % flush_every == 0 || i + 1 == frames.len() {
                let t = Instant::now();
                fabric.handle(Request::Flush(TenantRef { tenant: 0 }));
                let d = t.elapsed().as_nanos() as u64;
                flush_ns += d as f64;
                holds.record(d);
            }
        }
    }
    out.push(fig("fabric.admit_ns_per_item", per_item(admit_ns), "ns"));
    out.push(fig("fabric.flush_ns_per_item", per_item(flush_ns), "ns"));
    out.push(fig(
        "fabric.flush_hold_p99_us",
        holds.quantile(0.99) / 1e3,
        "us",
    ));
    let point = median_ns(REPS, || {
        for &item in &queries {
            black_box(fabric.handle(Request::Point(PointQuery { tenant: 0, item })));
        }
    });
    out.push(fig("fabric.point_ns", point / queries.len() as f64, "ns"));
    // Fill both windows past their length so window reads subtract a
    // sealed plane.
    let mut advance = Histogram::new();
    for step in 0..(k_slide as usize + 8) {
        let f = &frames[step % frames.len()];
        for t in [slide_t, rot_t] {
            fabric.handle(Request::Ingest(IngestFrame {
                tenant: t,
                updates: f.clone(),
            }));
            let t0 = Instant::now();
            let resp = fabric.handle(Request::AdvanceInterval(TenantRef { tenant: t }));
            if t == slide_t {
                advance.record(t0.elapsed().as_nanos() as u64);
            }
            if !matches!(resp, Response::Sealed(_)) {
                return Err(format!("replay advance answered {resp:?}"));
            }
        }
    }
    let f = &frames[0];
    fabric.handle(Request::Ingest(IngestFrame {
        tenant: slide_t,
        updates: f.clone(),
    }));
    fabric.handle(Request::Flush(TenantRef { tenant: slide_t }));
    let wq = &queries[..64];
    let wp = median_ns(REPS, || {
        for &item in wq {
            black_box(fabric.handle(Request::WindowPoint(PointQuery {
                tenant: slide_t,
                item,
            })));
        }
    });
    out.push(fig(
        "fabric.window_point_us",
        wp / wq.len() as f64 / 1e3,
        "us",
    ));
    let phi = if spec.hh_phi > 0.0 { spec.hh_phi } else { 1e-3 };
    let hh = median_ns(3, || {
        black_box(
            fabric.handle(Request::WindowHeavyHitters(HeavyHittersQuery {
                tenant: slide_t,
                phi,
            })),
        );
    });
    out.push(fig("fabric.hh_ms", hh / 1e6, "ms"));
    out.push(fig("fabric.advance_us", advance.quantile(0.5) / 1e3, "us"));

    // ---- serve (mirror engines with tenant 0's params and seed) ----
    let mut engine =
        QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), Unbounded)
            .with_flush_threshold(1 << 24);
    let mut serve_flush = 0f64;
    for _ in 0..2 {
        serve_flush = 0.0;
        for (i, f) in frames.iter().enumerate() {
            engine.extend_from_slice(f);
            if (i + 1) % flush_every == 0 || i + 1 == frames.len() {
                let t = Instant::now();
                engine.flush();
                serve_flush += t.elapsed().as_nanos() as f64;
            }
        }
    }
    out.push(fig("serve.flush_ns_per_item", per_item(serve_flush), "ns"));
    let live = median_ns(REPS, || {
        for &item in &queries {
            black_box(engine.estimate_live(item));
        }
    });
    out.push(fig(
        "serve.estimate_live_ns",
        live / queries.len() as f64,
        "ns",
    ));
    let sliding = Sliding::new(k_slide as usize).map_err(|e| e.to_string())?;
    let mut window = QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), sliding)
        .with_flush_threshold(1 << 24);
    let mut rotating = RotatingEngine::new(
        1,
        AtomicCountMedian::with_backend(&params),
        SeedSchedule::new(params.seed),
        k_rot as usize,
    )
    .map_err(|e| e.to_string())?
    .with_flush_threshold(1 << 24);
    let mut serve_advance = Histogram::new();
    for step in 0..(k_slide as usize + 8) {
        let f = &frames[step % frames.len()];
        window.extend_from_slice(f);
        let t0 = Instant::now();
        window.advance_interval();
        serve_advance.record(t0.elapsed().as_nanos() as u64);
        rotating.extend_from_slice(f);
        rotating.advance_interval();
    }
    window.extend_from_slice(&frames[0]);
    window.flush();
    rotating.extend_from_slice(&frames[0]);
    rotating.flush();
    let piw = median_ns(REPS, || {
        for &item in wq {
            black_box(window.point_in_window(item));
        }
    });
    out.push(fig(
        "serve.point_in_window_us",
        piw / wq.len() as f64 / 1e3,
        "us",
    ));
    let rwe = median_ns(REPS, || {
        for &item in &queries {
            black_box(rotating.window_estimate(item));
        }
    });
    out.push(fig(
        "serve.rotating_window_estimate_us",
        rwe / queries.len() as f64 / 1e3,
        "us",
    ));
    let shh = median_ns(3, || {
        black_box(window.heavy_hitters_in_window(phi).expect("phi is valid"));
    });
    out.push(fig("serve.heavy_hitters_in_window_ms", shh / 1e6, "ms"));
    out.push(fig(
        "serve.advance_interval_us",
        serve_advance.quantile(0.5) / 1e3,
        "us",
    ));

    // ---- pipeline ----
    let epoch = EpochSketch::new(AtomicCountMedian::with_backend(&params));
    for f in frames {
        epoch.sketch().update_batch_shared(f);
    }
    let mut snap = epoch.sketch().make_snapshot();
    let pin = median_ns(REPS, || {
        for _ in 0..16 {
            black_box(epoch.pin_into(&mut snap));
        }
    });
    out.push(fig("pipeline.pin_into_us", pin / 16.0 / 1e3, "us"));
    let retries = pin_retries(&params, &encoded, flush_every);
    out.push(fig("pipeline.pin_retries", retries as f64, "count"));
    let mut ingest = ConcurrentIngest::new(1, AtomicCountMedian::with_backend(&params))
        .with_flush_threshold(1 << 20);
    for (i, f) in frames.iter().enumerate() {
        ingest.extend_from_slice(f);
        if (i + 1) % flush_every == 0 {
            ingest.flush();
        }
    }
    ingest.flush();
    out.push(fig("pipeline.flushes", ingest.flushes() as f64, "count"));

    // ---- sketch kernels ----
    let mut dense = CountMedian::new(&params);
    let dk = median_ns(REPS, || {
        for f in frames {
            dense.update_batch(f);
        }
    });
    out.push(fig("sketch.dense_kernel_ns_per_item", per_item(dk), "ns"));
    let shared = AtomicCountMedian::with_backend(&params);
    let sk = median_ns(REPS, || {
        for f in frames {
            shared.update_batch_shared(f);
        }
    });
    out.push(fig("sketch.shared_kernel_ns_per_item", per_item(sk), "ns"));
    let mut a = dense.snapshot();
    let b = shared.snapshot();
    let sub = median_ns(REPS, || {
        for _ in 0..16 {
            dense
                .subtract_snapshot(&mut a, &b)
                .expect("linear sketches subtract");
        }
    });
    out.push(fig("sketch.subtract_snapshot_us", sub / 16.0 / 1e3, "us"));

    // ---- hash ----
    let deriver = row_deriver(&params)?;
    let item_blocks: Vec<Vec<u64>> = frames
        .iter()
        .map(|f| f.iter().map(|u| u.0).collect())
        .collect();
    let mut digests = Vec::new();
    let mut buckets = Vec::new();
    let rd = median_ns(REPS, || {
        for block in &item_blocks {
            digests.resize(block.len(), 0);
            buckets.resize(block.len(), 0);
            deriver.digests_into(block, &mut digests);
            for row in 0..deriver.depth() {
                deriver.buckets_of_digests(row, &digests, &mut buckets);
                black_box(&buckets);
            }
        }
    });
    out.push(fig("hash.row_derive_ns_per_item", per_item(rd), "ns"));

    // ---- persist ----
    let path = work.join("replay.journal");
    for stale in [path.clone(), path.with_extension("journal.tmp")] {
        let _ = std::fs::remove_file(stale);
    }
    let mut journal = Journal::open(&path).map_err(|e| format!("journal: {e}"))?;
    let record = JournalRecord::IntervalAdvanced(TenantRef { tenant: slide_t });
    let appends = 256;
    let app = median_ns(3, || {
        for _ in 0..appends {
            journal.append(&record).expect("journal appends");
        }
    });
    out.push(fig("persist.append_us", app / appends as f64 / 1e3, "us"));
    let compact = median_ns(3, || {
        fabric
            .with(|f| journal.compact(f))
            .expect("journal compacts");
    });
    out.push(fig("persist.compact_ms", compact / 1e6, "ms"));
    let config = FabricConfig::new(template);
    let mut recover_err = None;
    let recover = median_ns(3, || {
        if let Err(e) = persist::recover(&path, config.clone()) {
            recover_err = Some(e.to_string());
        }
    });
    if let Some(e) = recover_err {
        return Err(format!("recover: {e}"));
    }
    out.push(fig("persist.recover_ms", recover / 1e6, "ms"));
    let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    out.push(fig("persist.journal_bytes", len as f64, "B"));
    Ok(out)
}

/// The daemon's row deriver for `params` (one-hash rows re-keyed from
/// one digest), built the way the sketch builds its hashers.
fn row_deriver(params: &SketchParams) -> Result<RowDeriver, String> {
    let mut seeder = SplitMix64::new(params.seed ^ 0xC0DE_0001);
    let hashers =
        HashFamily::new(HashKind::OneHash, &mut seeder, params.width).sample_many(params.depth);
    RowDeriver::from_hashers(&hashers).ok_or_else(|| "one-hash rows share a digest key".into())
}

/// Pins (of [`PINS`]) that found a flush in progress and would have had
/// to retry. A writer thread replays the daemon's duty cycle on a
/// mirror engine — decode each frame, buffer it, flush at the
/// workload's cadence — while this thread pins with a zero-retry
/// budget, so the count tracks the share of time spent inside flushes.
fn pin_retries(params: &SketchParams, encoded: &[Vec<u8>], flush_every: usize) -> u64 {
    let mut engine =
        QueryEngine::with_policy(1, AtomicCountMedian::with_backend(params), Unbounded)
            .with_flush_threshold(1 << 24);
    let owner = engine.pin().owner().clone();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let done = &done;
        let reader = scope.spawn(move || {
            let mut snap = owner.sketch().make_snapshot();
            let budget = FillBudget::new().with_spins(0);
            let mut retried = 0u64;
            for _ in 0..PINS {
                retried += u64::from(owner.try_pin_into(&mut snap, budget).is_err());
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            done.store(true, Ordering::Release);
            retried
        });
        for (i, bytes) in encoded.iter().enumerate().cycle() {
            if done.load(Ordering::Acquire) {
                break;
            }
            let req: Option<Request> =
                read_frame(&mut &bytes[..], MAX_FRAME_BYTES).expect("decodes");
            if let Some(Request::Ingest(frame)) = req {
                engine.extend_from_slice(&frame.updates);
            }
            if (i + 1) % flush_every == 0 {
                engine.flush();
            }
        }
        reader.join().expect("the pin thread does not panic")
    })
}

const PINS: u64 = 1_000;
