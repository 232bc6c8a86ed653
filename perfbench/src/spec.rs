//! Workload specifications: one serde snapshot per workload under
//! `perfbench/workloads/`, named after the workload. The file holds
//! every parameter that shapes the daemon and the traffic, plus the
//! one-sentence reason the workload exists; the seed comes from the
//! command line.

use std::path::Path;

/// A workload's recorded parameters. Fields that a workload does not
/// use are zero.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadSpec {
    /// Workload name, as passed to `--workload`.
    pub name: String,
    /// Why the workload exists, in one sentence.
    pub why: String,

    // ---- daemon shape ----
    /// Sketch universe size (`--universe`).
    pub universe: u64,
    /// Sketch width (`--width`).
    pub width: usize,
    /// Sketch depth (`--depth`).
    pub depth: usize,
    /// Shards of equal weight (`--shard i:1.0`).
    pub shards: u64,
    /// Unbounded frequency tenants.
    pub unbounded_tenants: u64,
    /// `Sliding(window)` frequency tenants.
    pub sliding_tenants: u64,
    /// `Rotating(rotating_window)` frequency tenants.
    pub rotating_tenants: u64,
    /// Sliding window length in intervals.
    pub window: u64,
    /// Rotating window length in intervals.
    pub rotating_window: u64,
    /// Whether the daemon runs with `--journal`.
    pub journal: bool,
    /// `--compact-records` threshold (0 = not passed).
    pub compact_records: u64,

    // ---- set-up ----
    /// Daemon set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Updates per tenant ingested and flushed during set-up.
    pub preload_updates_per_tenant: usize,

    // ---- generated stream ----
    /// Zipf exponent of ingested items.
    pub zipf_s: f64,
    /// Deltas are integers drawn uniformly from `[1, max_delta]`.
    pub max_delta: u64,
    /// Distinct generated frames per tenant; the ingest loop cycles
    /// through them.
    pub pool_frames_per_tenant: usize,

    // ---- closed ingest loop (connection 1) ----
    /// Updates per `Ingest` frame (0 = no closed ingest loop).
    pub frame_updates: usize,
    /// Updates per second the ingest loop may offer (0 = unpaced: the
    /// next frame leaves as soon as the previous one is answered).
    pub ingest_rate: f64,
    /// A `Flush` after every this many frames of a tenant (0 = none).
    pub frames_per_flush: u64,
    /// An `AdvanceInterval` after every this many frames of a tenant
    /// (0 = none).
    pub frames_per_advance: u64,

    // ---- open-loop queries (connection 2) ----
    /// `Point` requests per second.
    pub point_rate: f64,
    /// `WindowPoint` requests per second.
    pub window_point_rate: f64,
    /// `WindowHeavyHitters` requests per second.
    pub hh_rate: f64,
    /// Heavy-hitter threshold.
    pub hh_phi: f64,

    // ---- pipelined point lookups (point_lookup) ----
    /// Offered `Point` rate of the reference phase (0 = no pipelined
    /// phase).
    pub reference_rate: f64,
    /// Share of the run spent in the reference phase; the rest runs
    /// the ladder.
    pub reference_share: f64,
    /// Offered rates of the ladder, ascending.
    pub ladder: Vec<f64>,
    /// p99 latency limit a ladder rung must meet, in microseconds.
    pub latency_limit_us: f64,
    /// One small `Ingest` frame every this many scheduled requests.
    pub trickle_every: u64,
    /// Updates per trickle frame.
    pub trickle_updates: usize,
    /// A `Flush` of the trickled tenant every this many trickle frames.
    pub trickle_flush_every: u64,
}

impl WorkloadSpec {
    /// Loads `<dir>/<name>.json`.
    pub fn load(dir: &Path, name: &str) -> Result<Self, String> {
        let path = dir.join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("workload {name:?}: {}: {e}", path.display()))?;
        let spec: Self =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if spec.name != name {
            return Err(format!("{} names workload {:?}", path.display(), spec.name));
        }
        Ok(spec)
    }

    /// Frames of a tenant between the requests that apply them (a
    /// `Flush`, an `AdvanceInterval`, or a trickle `Flush`).
    pub fn frames_per_commit(&self) -> u64 {
        [
            self.frames_per_flush,
            self.frames_per_advance,
            self.trickle_flush_every,
        ]
        .into_iter()
        .find(|&n| n > 0)
        .unwrap_or(1)
    }

    /// Total tenants.
    pub fn tenants(&self) -> u64 {
        self.unbounded_tenants + self.sliding_tenants + self.rotating_tenants
    }

    /// The serving mode of tenant `t` (`0 ≤ t < tenants()`): unbounded
    /// first, then sliding, then rotating.
    pub fn mode(&self, t: u64) -> Mode {
        if t < self.unbounded_tenants {
            Mode::Unbounded
        } else if t < self.unbounded_tenants + self.sliding_tenants {
            Mode::Sliding(self.window)
        } else {
            Mode::Rotating(self.rotating_window)
        }
    }

    /// The sketch seed of tenant `t` (fixed per tenant id, so two runs
    /// of one workload host identically-hashed tenants).
    pub fn tenant_seed(&self, t: u64) -> u64 {
        bas_hash::mix64(0xB5EE_D000 + t)
    }
}

/// A tenant's serving mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Since-boot accumulator.
    Unbounded,
    /// Sliding window of the given length.
    Sliding(u64),
    /// Seed-rotating window of the given length.
    Rotating(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_workloads_load_and_round_trip() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
        for name in ["ingest_firehose", "point_lookup", "window_churn"] {
            let spec = WorkloadSpec::load(&dir, name).unwrap();
            assert!(spec.tenants() > 0, "{name}");
            assert!(spec.setup_repeats >= 1, "{name}");
            let text = serde_json::to_string(&spec).unwrap();
            let back: WorkloadSpec = serde_json::from_str(&text).unwrap();
            assert_eq!(back, spec);
        }
    }
}
