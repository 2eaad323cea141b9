//! The four workloads: fleet sizes, replicas, query shapes, write phase
//! and the fixed open-loop rate ladders with their latency limits.
//!
//! Rates and limits were fixed from closed-loop capacity probes
//! (`--probe-capacity`, `nproc` connections) of the seed commit on a 2-core
//! host, three seeds × three calibrations per workload. Capacity moves with
//! each calibration and the host's speed drifts by a quarter within an
//! hour, so `light` is about 20 % of the median capacity, `busy` about
//! 40 %, and `peak` lies above the highest capacity seen: the knee falls
//! between `busy` and `peak` however a calibration routes and however fast
//! the host runs. The p95 limit is about ten times the `busy` p95 measured
//! at the seed. They stay fixed so that later changes are measured against
//! the same offered load. `hotspot_mix` and `ingest_repair`, which are not
//! in `BENCHMARK.json` because their routing flips with every calibration,
//! keep the ladders of the first probes (`busy` about half the median).

use blot_core::prelude::*;
use blot_tracegen::FleetConfig;

use crate::stats::Rng;

/// Share of `--seconds` each rung is offered for, after a fixed warm-up.
pub const RUNG_SHARE: [(&str, f64); 3] = [("light", 0.45), ("busy", 0.4), ("peak", 0.15)];

/// Warm-up before the first rung of each sub-run; its requests are
/// checked for correctness but never timed. The first sub-run warms up
/// for longer, at the `busy` rate: with the short warm-up its `light`
/// p50 read up to half again the later sub-runs', while the process's
/// first served queries grew its allocations and decode buffers.
pub const WARMUP_SECS: f64 = 0.5;
pub const FIRST_WARMUP_SECS: f64 = 3.0;

/// Tail percentile reported per rung (the highest with at least ten
/// samples beyond it at the contracted run length) and used for the
/// latency limit.
pub const LIGHT_TAIL: (f64, &str) = (0.90, "p90");
pub const BUSY_TAIL: (f64, &str) = (0.95, "p95");
pub const LIMIT_TAIL: f64 = 0.95;

/// Stage reconciliation: the replay's route + involved + fetch + prune +
/// decode/filter + merge must land within this share of the serial
/// in-process `BlotStore::query` time, summed over the replayed queries.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

/// Sub-runs per run. Each sets the store up afresh — so each routes on
/// its own calibration — and serves an equal share of every rung; rung samples
/// are pooled and `setup_s` is the median set-up. On `sharded_mix` a
/// sub-run's `busy` p50 moves by up to a half with the share of legs its
/// calibrations send to COL-GZIP, so a run pools eight calibrations.
pub const SUBRUNS: usize = 8;

/// Query shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Range queries centred on the fleet's hotspots with seeded jitter,
    /// in three ⟨W,H,T⟩ size groups.
    Hotspot,
    /// All of space, `time ≥ T`, with T in the last ~10 % of the data's
    /// time span.
    SinceT,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub taxis: u32,
    pub fixes_per_taxi: u32,
    pub replicas: [ReplicaConfig; 2],
    pub shape: Shape,
    /// Distinct queries; requests draw from them.
    pub distinct_queries: usize,
    /// Share of the fleet (earliest first by time) built in set-up; the
    /// rest is ingested in the write phase.
    pub base_share: f64,
    /// Records per ingest batch.
    pub ingest_batch: usize,
    /// Storage units deleted or corrupted before scrub + repair.
    pub damaged_units: usize,
    /// Shard servers behind a coordinator (1 = single node, no router).
    pub shards: u32,
    /// Offered rates of the `light`, `busy` and `peak` rungs, req/s.
    pub ladder: [f64; 3],
    /// Latency limit on the `LIMIT_TAIL` percentile, ms.
    pub limit_ms: f64,
}

fn replica(spatial: usize, temporal: usize, layout: Layout, comp: Compression) -> ReplicaConfig {
    ReplicaConfig::new(
        SchemeSpec::new(spatial, temporal),
        EncodingScheme::new(layout, comp),
    )
}

pub fn all() -> Vec<Workload> {
    let hotspot_replicas = [
        replica(16, 4, Layout::Row, Compression::Lzf),
        replica(4, 2, Layout::Column, Compression::Deflate),
    ];
    vec![
        Workload {
            name: "hotspot_mix",
            taxis: 400,
            fixes_per_taxi: 250,
            replicas: hotspot_replicas,
            shape: Shape::Hotspot,
            distinct_queries: 288,
            base_share: 0.95,
            ingest_batch: 2_500,
            damaged_units: 2,
            shards: 1,
            ladder: [27.0, 70.0, 222.0],
            limit_ms: 1000.0,
        },
        Workload {
            name: "since_t",
            taxis: 400,
            fixes_per_taxi: 1_000,
            replicas: [
                replica(16, 2, Layout::Row, Compression::Plain),
                replica(4, 2, Layout::Column, Compression::Deflate),
            ],
            shape: Shape::SinceT,
            distinct_queries: 96,
            base_share: 0.98,
            ingest_batch: 4_000,
            damaged_units: 2,
            shards: 1,
            ladder: [58.0, 120.0, 380.0],
            limit_ms: 100.0,
        },
        Workload {
            name: "ingest_repair",
            taxis: 400,
            fixes_per_taxi: 300,
            replicas: hotspot_replicas,
            shape: Shape::Hotspot,
            distinct_queries: 288,
            base_share: 0.5,
            ingest_batch: 5_000,
            damaged_units: 3,
            shards: 1,
            ladder: [22.0, 56.0, 365.0],
            limit_ms: 1000.0,
        },
        Workload {
            name: "sharded_mix",
            taxis: 400,
            fixes_per_taxi: 250,
            replicas: hotspot_replicas,
            shape: Shape::Hotspot,
            distinct_queries: 288,
            base_share: 0.95,
            ingest_batch: 2_500,
            damaged_units: 2,
            shards: 4,
            ladder: [17.0, 35.0, 150.0],
            limit_ms: 400.0,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The fleet this workload stores: fixed, so that runs with
    /// different `--seed`s differ only in their queries.
    pub fn fleet(&self) -> FleetConfig {
        let mut config = FleetConfig::small();
        config.num_taxis = self.taxis;
        config.records_per_taxi = self.fixes_per_taxi;
        config
    }

    /// The distinct queries over `data` (the full fleet), from `seed`.
    /// Every size group × hotspot cell, and every stretch of the time
    /// range, gets the same number of queries; the seed jitters them
    /// within their stratum, so seeds differ in the queries but not in
    /// the mix.
    pub fn queries(&self, fleet: &FleetConfig, data: &RecordBatch, seed: u64) -> Vec<Cuboid> {
        let mut rng = Rng::new(seed ^ 0x0051_E11E);
        let universe = fleet.universe();
        let (t_min, t_max) = time_span(data);
        let span = t_max - t_min;
        let mut queries: Vec<Cuboid> = match self.shape {
            Shape::Hotspot => {
                let hotspots = fleet.hotspots();
                // ⟨W, H⟩ as a share of the universe's extent, T as a
                // share of the data's time span: small, medium, large.
                let groups = [(0.02, 0.05), (0.06, 0.15), (0.15, 0.40)];
                let cells = groups.len() * hotspots.len();
                let strata = self.distinct_queries.div_ceil(cells) as f64;
                // A cell's jitters follow the R2 low-discrepancy sequence,
                // rotated by the seed: they cover the jitter square evenly
                // whatever the seed, so the cost of the mix barely moves
                // between seeds.
                let rotations: Vec<(f64, f64)> =
                    (0..cells).map(|_| (rng.unit(), rng.unit())).collect();
                let jitter = 0.05 * universe.extent(0);
                (0..self.distinct_queries)
                    .map(|i| {
                        let (ws, ts) = groups[i % groups.len()];
                        let (hx, hy) = hotspots[(i / groups.len()) % hotspots.len()];
                        let (u0, v0) = rotations[i % cells];
                        let stratum = (i / cells) as f64;
                        let u = (u0 + stratum * R2.0).fract();
                        let v = (v0 + stratum * R2.1).fract();
                        let centre = Point::new(
                            hx + jitter * (2.0 * u - 1.0),
                            hy + jitter * (2.0 * v - 1.0),
                            t_min + span * (stratum + rng.unit()) / strata,
                        );
                        Cuboid::from_centroid(
                            centre,
                            QuerySize::new(
                                universe.extent(0) * ws,
                                universe.extent(1) * ws,
                                span * ts,
                            ),
                        )
                    })
                    .collect()
            }
            Shape::SinceT => (0..self.distinct_queries)
                .map(|i| {
                    let stratum = (i as f64 + rng.unit()) / self.distinct_queries as f64;
                    let t = t_max - 0.1 * span * stratum;
                    Cuboid::new(
                        Point::new(universe.min().x, universe.min().y, t),
                        universe.max(),
                    )
                })
                .collect(),
        };
        // Generated stratum by stratum; shuffled so that any prefix is a
        // sample of the whole mix.
        rng.shuffle(&mut queries);
        queries
    }
}

/// Steps of the R2 sequence: `1/φ` and `1/φ²` for the plastic number φ.
const R2: (f64, f64) = (0.754_877_666_246_692_7, 0.569_840_290_998_053_3);

/// `(min, max)` record time of `data` as floats.
pub fn time_span(data: &RecordBatch) -> (f64, f64) {
    let lo = data.times.iter().copied().min().unwrap_or(0) as f64;
    let hi = data.times.iter().copied().max().unwrap_or(0) as f64;
    (lo, hi)
}

/// Splits `data` by time into the base share (built in set-up) and the
/// tail (ingested later, in time order).
pub fn split_by_time(data: &RecordBatch, base_share: f64) -> (RecordBatch, RecordBatch) {
    let mut sorted = data.clone();
    sorted.sort_by_time();
    let cut = ((sorted.len() as f64) * base_share).round() as usize;
    let mut base = RecordBatch::with_capacity(cut);
    let mut tail = RecordBatch::with_capacity(sorted.len() - cut);
    for i in 0..sorted.len() {
        if i < cut {
            base.push(sorted.get(i));
        } else {
            tail.push(sorted.get(i));
        }
    }
    (base, tail)
}
