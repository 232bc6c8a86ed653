//! `perfbench` — the repository's benchmark of `bas-serverd`.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Spawns the release daemon over loopback TCP, drives one of the
//! recorded workloads (`perfbench/workloads/NAME.json`) from this
//! process, checks every answer it can against reference sketches, and
//! prints the metrics: human-readable lines first, then one JSON object
//! as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced socket part and the
//! in-process layer replay and reports the per-layer metrics. The
//! process exits non-zero when an answer is wrong or a request failed.

mod daemon;
mod gen;
mod hist;
mod layers;
mod load;
mod reference;
mod sched;
mod spec;
mod trace;

use hist::{best_over, Histogram, Series};
use load::{Ctx, Event, Outcome};
use reference::{same, Reference};
use spec::WorkloadSpec;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    server: PathBuf,
    workloads: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut server = None;
    let mut workloads = PathBuf::from("perfbench/workloads");
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} wants a value"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workloads" => workloads = PathBuf::from(value()?),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workloads,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Time windows per timed phase: each end-to-end figure is the best of
/// its per-window values (see `hist::best_over`).
const WINDOWS: usize = 10;

/// The `q`-quantile of each window, in `scale` units, reduced over the
/// windows by `best_over`; the note lists every window's value.
fn windowed(
    name: &'static str,
    windows: &[Series],
    q: f64,
    scale: f64,
    unit: &'static str,
) -> Metric {
    let value = best_over(windows, false, |w| w.hist().quantile(q)) / scale;
    let per_window: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.1}", w.hist().quantile(q) / scale))
        .collect();
    let (n, beyond) = windows.iter().fold((0, u64::MAX), |(n, b), w| {
        let h = w.hist();
        (n + h.count(), b.min(h.count_above(h.quantile(q))))
    });
    metric(
        name,
        value,
        unit,
        format!(
            "best of windows [{}], n={n}, ≥{beyond} beyond per window",
            per_window.join(" ")
        ),
    )
}

/// `p` of a latency histogram (ns) in `scale` units, noting the sample
/// count and how many samples lie beyond the percentile.
fn pct(h: &Histogram, p: f64, scale: f64) -> (f64, String) {
    let v = h.quantile(p);
    let note = format!(
        "n={} beyond={} max={}",
        h.count(),
        h.count_above(v),
        h.max() as f64 / scale
    );
    (v / scale, note)
}

/// Replays the acknowledged writes into the reference, checking each
/// pipelined answer at its place in the stream.
fn replay_reference(
    ctx: &Ctx,
    pool: &[Vec<Vec<(u64, f64)>>],
    out: &Outcome,
    reference: &mut Reference,
) -> Result<u64, String> {
    let mut answers = out.answers.iter().peekable();
    let mut checked = 0u64;
    let mut check = |a: &load::Answer, reference: &Reference| {
        checked += 1;
        let want = reference.tenants[a.tenant as usize].point(a.item);
        same(
            &format!("tenant {} Point({}) in flight", a.tenant, a.item),
            a.value,
            want,
        )
    };
    for (i, ev) in out.events.iter().enumerate() {
        while let Some(a) = answers.next_if(|a| a.after_events == i) {
            check(a, reference)?;
        }
        match *ev {
            Event::Admit(t, idx) => reference.tenants[t as usize].admit(&pool[t as usize][idx]),
            Event::Trickle(j) => {
                let (t, updates) = ctx.trickle(j);
                reference.tenants[t as usize].admit(&updates);
            }
            Event::Flush(t) => reference.tenants[t as usize].flush(),
            Event::Advance(t) => reference.tenants[t as usize].advance(),
        }
    }
    for a in answers {
        check(a, reference)?;
    }
    Ok(checked)
}

/// The timed socket phases of the workload for `seconds`.
fn socket_phases(
    ctx: &Ctx,
    daemon: &daemon::Daemon,
    feed: &mut load::Feed,
    seconds: f64,
    ladder: bool,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = ctx.spec;
    if spec.reference_rate > 0.0 {
        let ref_s = if ladder {
            seconds * spec.reference_share
        } else {
            seconds
        };
        let mut phases = vec![(spec.reference_rate, ref_s)];
        if ladder && !spec.ladder.is_empty() {
            let rung_s = seconds * (1.0 - spec.reference_share) / spec.ladder.len() as f64;
            phases.extend(spec.ladder.iter().map(|&r| (r, rung_s)));
        }
        let t0 = Instant::now();
        let items_before = out.events.len();
        let rungs =
            load::pipelined_phases(ctx, daemon, &phases, &mut feed.trickle_next, traced, out)?;
        out.timed_s += t0.elapsed().as_secs_f64();
        out.admitted_items += out.events[items_before..]
            .iter()
            .filter(|e| matches!(e, Event::Trickle(_)))
            .count() as u64
            * spec.trickle_updates as u64;
        let mut rungs = rungs.into_iter();
        if let Some(reference_phase) = rungs.next() {
            out.point.append(&reference_phase.latency);
            out.point_span = (reference_phase.start_ns, reference_phase.span_ns);
        }
        out.ladder.extend(rungs);
        Ok(())
    } else {
        load::closed_loop_phase(ctx, daemon, feed, seconds, traced, out)
    }
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

fn run(args: &Args) -> Result<RunResult, String> {
    let spec = WorkloadSpec::load(&args.workloads, &args.workload)?;
    let work = daemon::work_dir()?;
    let journal = work.join(format!("{}-{}.journal", spec.name, std::process::id()));
    let mut spec_run = spec.clone();
    if args.trace {
        spec_run.setup_repeats = 1;
    }
    let ctx = Ctx {
        spec: &spec_run,
        seed: args.seed,
        server: &args.server,
        journal: &journal,
    };
    let mut feed = load::Feed::new(&ctx);
    let mut reference = Reference::new(ctx.spec);
    let mut out = Outcome::default();
    let (daemon, setup_times) = load::setup(&ctx, &mut reference)?;
    out.setup_s = setup_times;
    let mut lines = Vec::new();
    let mut metrics = Vec::new();

    let mut layer_figures = Vec::new();
    let mut overhead = String::new();
    if !args.trace {
        socket_phases(
            &ctx,
            &daemon,
            &mut feed,
            args.seconds,
            true,
            false,
            &mut out,
        )?;
    } else {
        // Socket part: the transport floor, then the workload untraced
        // and traced for equal spans, then the in-process replay.
        load::ping_phase(&daemon, 2_000, &mut out)?;
        let part = args.seconds / 4.0;
        let mut plain = Outcome::default();
        socket_phases(&ctx, &daemon, &mut feed, part, false, false, &mut plain)?;
        let mut traced = Outcome::default();
        socket_phases(&ctx, &daemon, &mut feed, part, false, true, &mut traced)?;
        let p50 = |o: &Outcome| o.point.hist().quantile(0.5) / 1e3;
        let rate = |o: &Outcome| o.admitted_items as f64 / o.timed_s.max(1e-9);
        overhead = format!(
            "tracing overhead (traced − untraced): point_p50 {:+.2} us, ingest {:+.0} items/s",
            p50(&traced) - p50(&plain),
            rate(&traced) - rate(&plain)
        );
        let spans = std::mem::take(&mut traced.spans);
        let span_path = work.join(format!("trace-{}-{}.jsonl", spec.name, args.seed));
        trace::write_spans(&span_path, &spans)
            .map_err(|e| format!("{}: {e}", span_path.display()))?;
        lines.push(format!(
            "spans: {} written to {}",
            spans.len(),
            span_path.display()
        ));
        for (name, st) in trace::self_times(&spans) {
            lines.push(format!(
                "span {name:<22} n={:<7} mean {:>10.2} us  self {:>10.2} us",
                st.count,
                st.total_ns as f64 / st.count as f64 / 1e3,
                st.self_ns as f64 / st.count as f64 / 1e3
            ));
        }
        for o in [plain, traced] {
            out.attempted += o.attempted;
            out.failed += o.failed;
            let shift = out.events.len();
            out.events.extend(o.events);
            out.answers
                .extend(o.answers.into_iter().map(|a| load::Answer {
                    after_events: a.after_events + shift,
                    ..a
                }));
            out.late.merge(&o.late);
            out.backlog_max = out.backlog_max.max(o.backlog_max);
            out.busy += o.busy;
            out.shed += o.shed;
            out.ingest_frames += o.ingest_frames;
            out.retries += o.retries;
            out.reconnects += o.reconnects;
            out.point.append(&o.point);
        }
    }

    // ---- correctness gate ----
    let in_flight = replay_reference(&ctx, &feed.pool, &out, &mut reference)?;
    let s = daemon.connect().map_err(|e| format!("connect: {e}"))?;
    let gate = reference::check_quiesced(ctx.spec, &mut reference, args.seed, spec.hh_phi, |req| {
        daemon::exchange(&s, req)
    });
    drop(s);
    let rss = daemon.peak_rss_mib()?;
    let (correct, gate_line) = match &gate {
        Ok(g) => (
            out.failed == 0,
            format!(
                "gate: PASS — {in_flight} in-flight answers, {} quiesced answers and {} heavy-hitter scans match the references bit for bit",
                g.answers, g.scans
            ),
        ),
        Err(e) => (false, format!("gate: FAIL — {e}")),
    };
    lines.push(gate_line);
    if args.trace {
        let frames = if feed.pool.iter().any(|p| !p.is_empty()) {
            layers::frames_of(&feed.pool, &[], 1 << 18)
        } else {
            let trickles: Vec<Vec<(u64, f64)>> = (0..256).map(|j| ctx.trickle(j).1).collect();
            layers::frames_of(&[], &trickles, 1 << 18)
        };
        let t0 = Instant::now();
        layer_figures = layers::replay(ctx.spec, args.seed, &frames, &work)?;
        lines.push(format!("replay part: {:.2} s", t0.elapsed().as_secs_f64()));
        lines.push(overhead);
    }
    daemon.stop(Duration::from_secs(30))?;
    let _ = std::fs::remove_file(&journal);

    if !args.trace {
        let (start, span) = out.point_span;
        let point = out.point.windows(start, span, WINDOWS);
        metrics.push(metric(
            "setup_s",
            median(&out.setup_s),
            "s",
            format!("median of {}", out.setup_s.len()),
        ));
        metrics.push(metric("server_rss_mib", rss, "MiB", "VmHWM".into()));
        let timed_ns = (out.timed_s * 1e9) as u64;
        let ingest = if out.ingested.len() > 0 {
            let w = out.ingested.windows(0, timed_ns, WINDOWS);
            best_over(&w, true, |w| w.sum() as f64 * WINDOWS as f64 / out.timed_s)
        } else {
            out.admitted_items as f64 / out.timed_s
        };
        metrics.push(metric(
            "ingest_items_per_s",
            ingest,
            "items/s",
            format!("{} items in {:.3} s", out.admitted_items, out.timed_s),
        ));
        // The Point latencies are printed and compared by `run.py
        // compare`, but they are not in the result line: on a two-vCPU
        // VM, host CPU steal arrives in episodes that slow whole runs,
        // so even the median of a µs-scale request spread by more than
        // any usable bound across ten runs of `window_churn` (p90 and
        // p99 by many times more).
        for (name, q) in [
            ("point_p50_us", 0.5),
            ("point_p90_us", 0.9),
            ("point_p99_us", 0.99),
        ] {
            let m = windowed(name, &point, q, 1e3, "us");
            lines.push(format!(
                "metric {} {} {} ({})",
                m.name, m.value, m.unit, m.note
            ));
        }
        // Workload-specific metrics: printed, recorded by the suite,
        // compared by `run.py compare`.
        if !out.ladder.is_empty() {
            for r in &out.ladder {
                let h = r.latency.hist();
                lines.push(format!(
                    "rung {:>8.0} qps: p99 {:>9.1} us  n={:<7} sent {:<7} failed {}  late {:.1} → {:.1} us  {}",
                    r.rate,
                    h.quantile(0.99) / 1e3,
                    h.count(),
                    r.sent,
                    r.failed,
                    r.late_first / 1e3,
                    r.late_last / 1e3,
                    if r.sustained { "sustained" } else { "not sustained" }
                ));
            }
            lines.push(format!(
                "metric point_sustained_qps {} queries/s (limit p99 ≤ {} us)",
                out.sustained_qps(),
                spec.latency_limit_us
            ));
        }
        // Scans and advances are too rare to split: their percentiles
        // are taken over the whole run.
        for (name, series, q, scale, unit, windows) in [
            (
                "window_point_p50_us",
                &out.window_point,
                0.5,
                1e3,
                "us",
                WINDOWS,
            ),
            (
                "window_point_p99_us",
                &out.window_point,
                0.99,
                1e3,
                "us",
                WINDOWS,
            ),
            ("hh_p50_ms", &out.hh, 0.5, 1e6, "ms", 1),
            ("hh_p90_ms", &out.hh, 0.9, 1e6, "ms", 1),
            ("advance_p99_ms", &out.advance, 0.99, 1e6, "ms", 1),
        ] {
            if series.len() > 0 {
                let m = windowed(name, &series.windows(0, timed_ns, windows), q, scale, unit);
                lines.push(format!(
                    "metric {} {} {} ({})",
                    m.name, m.value, m.unit, m.note
                ));
            }
        }
        lines.push(format!(
            "metric failed_frac {} ratio ({} of {})",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ));
    } else {
        let frac = |n: u64| n as f64 / out.ingest_frames.max(1) as f64;
        let (v, n) = pct(&out.ping, 0.5, 1e3);
        metrics.push(metric("listener.ping_rtt_p50_us", v, "us", n));
        let (v, n) = pct(&out.ping, 0.99, 1e3);
        metrics.push(metric("listener.ping_rtt_p99_us", v, "us", n));
        metrics.push(metric(
            "connection.retries",
            out.retries as f64,
            "count",
            String::new(),
        ));
        metrics.push(metric(
            "connection.reconnects",
            out.reconnects as f64,
            "count",
            String::new(),
        ));
        metrics.push(metric(
            "fabric.busy_frac",
            frac(out.busy),
            "ratio",
            format!("of {} frames", out.ingest_frames),
        ));
        metrics.push(metric(
            "fabric.shed_frac",
            frac(out.shed),
            "ratio",
            format!("of {} frames", out.ingest_frames),
        ));
        let (v, n) = pct(&out.late, 0.99, 1e3);
        metrics.push(metric("loadgen.late_p99_us", v, "us", n));
        metrics.push(metric(
            "loadgen.backlog_max",
            out.backlog_max as f64,
            "count",
            String::new(),
        ));
        for f in layer_figures {
            metrics.push(metric(f.name, f.value, f.unit, String::new()));
        }
        for m in &mut metrics {
            if let Some((_, to)) = layers::MAPS_TO.iter().find(|(n, _)| *n == m.name) {
                m.note = format!("{} → {to}", m.note).trim_start().to_string();
            }
        }
    }
    Ok(RunResult {
        correct: correct && gate.is_ok(),
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
        lines,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} simd {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bas_hash::simd_active()
    );
    for l in &result.lines {
        println!("{l}");
    }
    let mut json = String::new();
    for (i, m) in result.metrics.iter().enumerate() {
        println!("metric {} {} {} {}", m.name, m.value, m.unit, m.note);
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct, result.attempted, result.failed, json
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
