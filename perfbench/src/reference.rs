//! The correctness gate: reference sketches rebuilt from the generated
//! stream, and the checks that compare the daemon's answers with them
//! bit for bit.
//!
//! Each tenant's reference is a Dense [`CountMedian`] under the fabric
//! template reseeded with the tenant's seed. Windowed tenants keep one
//! reference per interval for the last `K` intervals (the window);
//! rotating tenants build each interval's reference under that
//! generation's seed from the [`SeedSchedule`]. Deltas are integers,
//! so every counter sum is exact and equality is bitwise.

use crate::gen::{below, rng, Zipf};
use crate::spec::{Mode, WorkloadSpec};
use bas_hash::{HashKind, SeedSchedule};
use bas_server::wire::{HeavyHittersQuery, PointQuery};
use bas_server::{Request, Response, TenantRef};
use bas_sketch::{CountMedian, MergeableSketch, PointQuerySketch, SketchParams};
use std::collections::VecDeque;

/// The daemon's sketch template for a workload (`bas-serverd` flags
/// `--universe/--width/--depth`, default `--hash onehash`).
pub fn template(spec: &WorkloadSpec) -> SketchParams {
    SketchParams::new(spec.universe, spec.width, spec.depth).with_hash_kind(HashKind::OneHash)
}

#[derive(Debug, Clone)]
struct Interval {
    sketch: CountMedian,
    applied: u64,
    mass: f64,
}

/// One tenant's reference state, advanced by the same requests the
/// daemon receives.
#[derive(Debug, Clone)]
pub struct TenantReference {
    mode: Mode,
    template: SketchParams,
    schedule: SeedSchedule,
    since_boot: CountMedian,
    /// The last `K` intervals, the live one last (windowed modes only).
    window: VecDeque<Interval>,
    interval: u64,
    pending: Vec<(u64, f64)>,
    applied: u64,
}

impl TenantReference {
    fn new(spec: &WorkloadSpec, t: u64) -> Self {
        let template = template(spec);
        let seed = spec.tenant_seed(t);
        let mut r = Self {
            mode: spec.mode(t),
            template,
            schedule: SeedSchedule::new(seed),
            since_boot: CountMedian::new(&template.with_seed(seed)),
            window: VecDeque::new(),
            interval: 0,
            pending: Vec::new(),
            applied: 0,
        };
        if r.window_len() > 0 {
            r.window.push_back(r.fresh_interval());
        }
        r
    }

    fn window_len(&self) -> usize {
        match self.mode {
            Mode::Unbounded => 0,
            Mode::Sliding(k) | Mode::Rotating(k) => k as usize,
        }
    }

    fn fresh_interval(&self) -> Interval {
        let seed = match self.mode {
            Mode::Rotating(_) => self.schedule.seed_for(self.interval),
            _ => self.schedule.seed_for(0),
        };
        Interval {
            sketch: CountMedian::new(&self.template.with_seed(seed)),
            applied: 0,
            mass: 0.0,
        }
    }

    /// An `Ingest` frame the daemon answered `Admitted`.
    pub fn admit(&mut self, updates: &[(u64, f64)]) {
        self.pending.extend_from_slice(updates);
    }

    /// A `Flush`: buffered updates reach the counters.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.since_boot.update_batch(&self.pending);
        if let Some(live) = self.window.back_mut() {
            live.sketch.update_batch(&self.pending);
            live.applied += self.pending.len() as u64;
            live.mass += self.pending.iter().map(|u| u.1).sum::<f64>();
        }
        self.applied += self.pending.len() as u64;
        self.pending.clear();
    }

    /// An `AdvanceInterval`: flush, seal, open the next interval.
    pub fn advance(&mut self) {
        self.flush();
        self.interval += 1;
        if self.window_len() > 0 {
            let next = self.fresh_interval();
            self.window.push_back(next);
            while self.window.len() > self.window_len() {
                self.window.pop_front();
            }
        }
    }

    /// What `Stats.applied` must read: updates applied since boot, or
    /// inside the window for rotating tenants.
    pub fn expected_applied(&self) -> u64 {
        match self.mode {
            Mode::Rotating(_) => self.window.iter().map(|i| i.applied).sum(),
            _ => self.applied,
        }
    }

    /// The `Point` answer: since boot, or the window estimate for
    /// rotating tenants.
    pub fn point(&self, item: u64) -> f64 {
        match self.mode {
            Mode::Rotating(_) => self.rotating_estimate(item),
            _ => self.since_boot.estimate(item),
        }
    }

    /// The daemon's fold: the live generation's estimate plus each
    /// retired generation's, oldest first.
    fn rotating_estimate(&self, item: u64) -> f64 {
        let retired = self.window.len() - 1;
        let live = self.window[retired].sketch.estimate(item);
        self.window
            .iter()
            .take(retired)
            .map(|i| i.sketch.estimate(item))
            .fold(live, |acc, e| acc + e)
    }

    /// The sliding window's counters as one sketch (warm-up windows
    /// cover everything since boot, as the daemon's do).
    fn sliding_window(&self) -> CountMedian {
        let mut it = self.window.iter();
        let mut acc = it
            .next()
            .expect("windowed tenants keep a live interval")
            .sketch
            .clone();
        for i in it {
            acc.merge_from(&i.sketch).expect("intervals share one seed");
        }
        acc
    }

    fn window_mass(&self) -> f64 {
        self.window.iter().map(|i| i.mass).sum()
    }

    /// `WindowPoint` answers for `items` (`None` for unbounded tenants,
    /// which serve no window queries).
    pub fn window_points(&self, items: &[u64]) -> Option<Vec<f64>> {
        match self.mode {
            Mode::Unbounded => None,
            Mode::Rotating(_) => Some(items.iter().map(|&i| self.rotating_estimate(i)).collect()),
            Mode::Sliding(_) => {
                let w = self.sliding_window();
                Some(items.iter().map(|&i| w.estimate(i)).collect())
            }
        }
    }

    /// The `WindowHeavyHitters` answer: every item whose window
    /// estimate reaches `phi` times the window mass, by decreasing
    /// estimate then item.
    pub fn window_heavy_hitters(&self, phi: f64) -> Option<Vec<(u64, f64)>> {
        let mass = self.window_mass();
        let estimate: Box<dyn Fn(u64) -> f64> = match self.mode {
            Mode::Unbounded => return None,
            Mode::Rotating(_) => Box::new(|i| self.rotating_estimate(i)),
            Mode::Sliding(_) => {
                let w = self.sliding_window();
                Box::new(move |i| w.estimate(i))
            }
        };
        if mass <= 0.0 {
            return Some(Vec::new());
        }
        let threshold = phi * mass;
        let mut out: Vec<(u64, f64)> = (0..self.template.n)
            .filter_map(|i| {
                let e = estimate(i);
                (e >= threshold).then_some((i, e))
            })
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Some(out)
    }
}

/// References for every tenant of a workload.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Per-tenant state, indexed by tenant id.
    pub tenants: Vec<TenantReference>,
}

impl Reference {
    /// Empty references for the workload's tenants.
    pub fn new(spec: &WorkloadSpec) -> Self {
        Self {
            tenants: (0..spec.tenants())
                .map(|t| TenantReference::new(spec, t))
                .collect(),
        }
    }
}

/// Compares one answer bit for bit.
pub fn same(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: answered {got:?}, reference {want:?}"))
    }
}

/// What the quiesced check looked at.
#[derive(Debug, Default, Clone, Copy)]
pub struct GateReport {
    /// Answers compared bit for bit.
    pub answers: u64,
    /// Heavy-hitter lists compared.
    pub scans: u64,
}

/// Items a quiesced check samples for a tenant: the hottest ranks of
/// the workload's Zipf plus uniform draws.
pub fn sample_items(spec: &WorkloadSpec, zipf: &Zipf, seed: u64, t: u64) -> Vec<u64> {
    let mut r = rng(seed, 0xC4EC_0000 + t);
    (1..=32)
        .map(|rank| zipf.item_of_rank(rank))
        .chain((0..64).map(|_| below(&mut r, spec.universe)))
        .collect()
}

/// The quiesced gate: flushes every tenant through `call`, then
/// checks `Stats.applied` against the admitted count and every sampled
/// `Point`, `WindowPoint` and (when `phi > 0`) `WindowHeavyHitters`
/// answer against the reference. The caller has stopped all other
/// traffic.
pub fn check_quiesced(
    spec: &WorkloadSpec,
    reference: &mut Reference,
    seed: u64,
    phi: f64,
    mut call: impl FnMut(&Request) -> Result<Response, String>,
) -> Result<GateReport, String> {
    let zipf = Zipf::new(spec.universe, spec.zipf_s, seed);
    let mut report = GateReport::default();
    for t in 0..spec.tenants() {
        let tr = &mut reference.tenants[t as usize];
        match call(&Request::Flush(TenantRef { tenant: t }))? {
            Response::Flushed(_) => tr.flush(),
            other => return Err(format!("tenant {t}: Flush answered {other:?}")),
        }
        match call(&Request::Stats(TenantRef { tenant: t }))? {
            Response::Stats(s) if s.applied == tr.expected_applied() && s.pending == 0 => {}
            Response::Stats(s) => {
                return Err(format!(
                "tenant {t}: Stats.applied {} (pending {}), but {} admitted updates were flushed",
                s.applied,
                s.pending,
                tr.expected_applied()
            ))
            }
            other => return Err(format!("tenant {t}: Stats answered {other:?}")),
        }
        let items = sample_items(spec, &zipf, seed, t);
        let window = tr.window_points(&items);
        for (n, &item) in items.iter().enumerate() {
            let q = PointQuery { tenant: t, item };
            match call(&Request::Point(q))? {
                Response::Value(v) => same(
                    &format!("tenant {t} Point({item})"),
                    v.value,
                    tr.point(item),
                )?,
                other => return Err(format!("tenant {t} Point({item}): {other:?}")),
            }
            report.answers += 1;
            if let Some(window) = &window {
                match call(&Request::WindowPoint(q))? {
                    Response::Value(v) => same(
                        &format!("tenant {t} WindowPoint({item})"),
                        v.value,
                        window[n],
                    )?,
                    other => return Err(format!("tenant {t} WindowPoint({item}): {other:?}")),
                }
                report.answers += 1;
            }
        }
        if phi > 0.0 {
            if let Some(want) = tr.window_heavy_hitters(phi) {
                let q = HeavyHittersQuery { tenant: t, phi };
                match call(&Request::WindowHeavyHitters(q))? {
                    Response::HeavyHitters(h) => {
                        if h.items.len() != want.len() {
                            return Err(format!(
                                "tenant {t} WindowHeavyHitters: {} items, reference {}",
                                h.items.len(),
                                want.len()
                            ));
                        }
                        for (&(gi, ge), &(wi, we)) in h.items.iter().zip(&want) {
                            if gi != wi {
                                return Err(format!(
                                    "tenant {t} WindowHeavyHitters: item {gi}, reference {wi}"
                                ));
                            }
                            same(&format!("tenant {t} WindowHeavyHitters({gi})"), ge, we)?;
                        }
                        report.scans += 1;
                    }
                    other => return Err(format!("tenant {t} WindowHeavyHitters: {other:?}")),
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::tenant_spec;
    use crate::gen::frame;
    use bas_server::wire::IngestFrame;
    use bas_server::{Fabric, FabricConfig};

    fn small_spec() -> WorkloadSpec {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
        let mut spec = WorkloadSpec::load(&dir, "window_churn").unwrap();
        spec.universe = 1 << 12;
        spec.width = 64;
        spec.unbounded_tenants = 1;
        spec.sliding_tenants = 1;
        spec.rotating_tenants = 1;
        spec.window = 3;
        spec.rotating_window = 2;
        spec
    }

    /// An in-process fabric shaped like the daemon, fed the same
    /// requests as the reference.
    fn fed_fabric(spec: &WorkloadSpec, reference: &mut Reference) -> Fabric {
        let mut fabric = Fabric::new(FabricConfig::new(template(spec)));
        fabric.add_shard(0, 1.0).unwrap();
        fabric.add_shard(1, 1.0).unwrap();
        for t in 0..spec.tenants() {
            fabric.register_tenant(tenant_spec(spec, t)).unwrap();
        }
        let zipf = Zipf::new(spec.universe, spec.zipf_s, 5);
        let mut r = rng(5, 1);
        for step in 0..40u64 {
            for t in 0..spec.tenants() {
                let updates = frame(&zipf, &mut r, 300, spec.max_delta);
                let req = Request::Ingest(IngestFrame {
                    tenant: t,
                    updates: updates.clone(),
                });
                assert!(matches!(fabric.handle(req), Response::Admitted(_)));
                reference.tenants[t as usize].admit(&updates);
                if step % 3 == 2 {
                    fabric.handle(Request::Flush(TenantRef { tenant: t }));
                    reference.tenants[t as usize].flush();
                }
                if step % 7 == 6 {
                    fabric.handle(Request::AdvanceInterval(TenantRef { tenant: t }));
                    reference.tenants[t as usize].advance();
                }
            }
        }
        fabric
    }

    #[test]
    fn the_gate_passes_on_a_faithful_fabric() {
        let spec = small_spec();
        let mut reference = Reference::new(&spec);
        let mut fabric = fed_fabric(&spec, &mut reference);
        let report = check_quiesced(&spec, &mut reference, 5, 0.01, |req| {
            Ok(fabric.handle(req.clone()))
        })
        .unwrap();
        // 96 sampled items per tenant; two windowed tenants answer
        // WindowPoint as well, and each scans once.
        assert_eq!(report.answers, 96 * 5);
        assert_eq!(report.scans, 2);
    }

    #[test]
    fn the_gate_catches_a_perturbed_answer() {
        let spec = small_spec();
        for target in ["Point", "WindowPoint", "WindowHeavyHitters"] {
            let mut reference = Reference::new(&spec);
            let mut fabric = fed_fabric(&spec, &mut reference);
            let mut perturbed = false;
            let result = check_quiesced(&spec, &mut reference, 5, 0.01, |req| {
                let mut resp = fabric.handle(req.clone());
                let hit = matches!(
                    (target, req),
                    ("Point", Request::Point(q)) | ("WindowPoint", Request::WindowPoint(q))
                        if q.tenant == 1
                ) || matches!(
                    (target, req),
                    ("WindowHeavyHitters", Request::WindowHeavyHitters(_))
                );
                if hit && !perturbed {
                    perturbed = true;
                    match &mut resp {
                        Response::Value(v) => v.value = f64::from_bits(v.value.to_bits() + 1),
                        Response::HeavyHitters(h) => h.items[0].1 += 1.0,
                        _ => {}
                    }
                }
                Ok(resp)
            });
            assert!(perturbed, "{target} was never asked");
            let err = result.expect_err(target);
            assert!(err.contains(target), "{target}: {err}");
        }
    }

    #[test]
    fn the_gate_catches_a_lost_update() {
        let spec = small_spec();
        let mut reference = Reference::new(&spec);
        let mut fabric = fed_fabric(&spec, &mut reference);
        reference.tenants[0].admit(&[(1, 1.0)]);
        let err = check_quiesced(&spec, &mut reference, 5, 0.0, |req| {
            Ok(fabric.handle(req.clone()))
        })
        .unwrap_err();
        assert!(err.contains("Stats.applied"), "{err}");
    }
}
