//! Per-layer probes for the traced run. Each times calls into one
//! layer's public functions from outside the program, on the same
//! stores the served run used.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use blot_codec::{DecodeScratch, ZoneMap, ZONE_MAP_FOOTER_LEN};
use blot_core::prelude::*;
use blot_router::{RouterService, ShardMap};
use blot_server::client::Client;
use blot_storage::{ScanExecutor, UnitKey};

use crate::deploy::{env, fanout, BenchBackend};

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Distinct queries each probe replays.
pub const REPLAY_QUERIES: usize = 24;

/// Per-scheme decode work.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecodeWork {
    pub records: u64,
    pub secs: f64,
}

/// The store-path replay of one set of queries.
#[derive(Debug, Default)]
pub struct Replay {
    pub legs: usize,
    pub route_us: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub serial_ms: Vec<f64>,
    pub involved_us: Vec<f64>,
    pub units: Vec<f64>,
    pub partitions_scanned: usize,
    pub units_skipped: usize,
    pub bytes_skipped: u64,
    /// Σ over legs of the replayed stages, ms.
    pub stage_route_ms: f64,
    pub stage_involved_ms: f64,
    pub stage_prune_ms: f64,
    pub stage_fetch_ms: f64,
    pub stage_decode_ms: f64,
    pub stage_merge_ms: f64,
    /// Per leg decode/filter ms.
    pub decode_ms: Vec<f64>,
    pub decoded_records: u64,
    pub matched_records: u64,
    pub decode_by_scheme: BTreeMap<String, DecodeWork>,
    pub routed_wall_ms: f64,
    pub best_wall_ms: f64,
    pub routed_sim_ms: f64,
    pub best_sim_ms: f64,
    pub pred_over_actual: Vec<f64>,
}

impl Replay {
    pub fn stage_sum_ms(&self) -> f64 {
        self.stage_route_ms
            + self.stage_involved_ms
            + self.stage_prune_ms
            + self.stage_fetch_ms
            + self.stage_decode_ms
            + self.stage_merge_ms
    }

    pub fn serial_sum_ms(&self) -> f64 {
        self.serial_ms.iter().sum()
    }
}

/// The same replicas reopened over the same files with a one-thread scan
/// pool, so the serial replay compares like with like.
fn serial_twin<B: BenchBackend>(store: &BlotStore<B>, dir: &std::path::Path) -> BlotStore<B> {
    let mut twin = BlotStore::with_pool(
        B::open(dir),
        env(),
        store.universe(),
        store.model().clone(),
        Arc::new(ScanExecutor::new(1)),
    );
    for r in store.replicas() {
        twin.restore_replica(r.config, r.scheme.clone(), r.records, r.bytes)
            .expect("restore replica");
    }
    twin
}

/// Replays the first [`REPLAY_QUERIES`] distinct queries (a seeded
/// sample: the set is shuffled) leg by leg:
/// route, pooled and serial `BlotStore::query`, then the serial store
/// path by hand (involved partitions → footer read and prune → fetch →
/// `decode_filter_batched` → merge), then every replica via `query_on`.
pub fn replay<B: BenchBackend>(
    stores: &[Arc<BlotStore<B>>],
    dirs: &[std::path::PathBuf],
    placement: Option<&ShardMap>,
    queries: &[Cuboid],
) -> Replay {
    let twins: Vec<BlotStore<B>> = stores
        .iter()
        .zip(dirs)
        .map(|(s, d)| serial_twin(s, d))
        .collect();
    let mut out = Replay::default();
    let mut scratch = DecodeScratch::new();
    for q in queries.iter().take(REPLAY_QUERIES) {
        for s in fanout(placement, q) {
            let (store, twin) = (&stores[s], &twins[s]);
            out.legs += 1;

            let started = Instant::now();
            let routed = store.route(q)[0];
            out.route_us.push(ms_since(started) * 1e3);

            let started = Instant::now();
            let result = store.query(q).expect("in-process query");
            out.query_ms.push(ms_since(started));
            out.partitions_scanned += result.partitions_scanned;
            out.units_skipped += result.units_skipped;
            out.bytes_skipped += result.bytes_skipped;

            let started = Instant::now();
            let serial = twin.query(q).expect("serial in-process query");
            out.serial_ms.push(ms_since(started));

            // The serial path by hand, on the twin's backend.
            let started = Instant::now();
            let routed_again = twin.route(q)[0];
            out.stage_route_ms += ms_since(started);
            assert_eq!(routed, routed_again, "twin must route like the store");
            let replica = &twin.replicas()[routed as usize];
            let encoding = replica.config.encoding;
            let started = Instant::now();
            let involved = replica.scheme.involved(q);
            let involved_ms = ms_since(started);
            out.stage_involved_ms += involved_ms;
            out.involved_us.push(involved_ms * 1e3);
            out.units.push(involved.len() as f64);
            let backend = twin.backend();
            let mut parts = Vec::new();
            let mut decode_ms = 0.0;
            for pid in involved {
                let key = UnitKey {
                    replica: routed,
                    partition: pid as u32,
                };
                let started = Instant::now();
                let (tail, _) = backend
                    .get_tail(key, ZONE_MAP_FOOTER_LEN)
                    .expect("footer read");
                let (_, zone_map) = ZoneMap::split_footer(&tail).expect("footer parses");
                let pruned = zone_map.is_some_and(|zm| !zm.overlaps(q));
                out.stage_prune_ms += ms_since(started);
                if pruned {
                    continue;
                }
                let started = Instant::now();
                let bytes = backend.get(key).expect("unit read");
                out.stage_fetch_ms += ms_since(started);
                let started = Instant::now();
                let filtered = encoding
                    .decode_filter_batched(&bytes, q, &mut scratch)
                    .expect("unit decodes");
                let took = ms_since(started);
                decode_ms += took;
                out.decoded_records += filtered.scanned as u64;
                out.matched_records += filtered.matched.len() as u64;
                let work = out
                    .decode_by_scheme
                    .entry(encoding.to_string())
                    .or_default();
                work.records += filtered.scanned as u64;
                work.secs += took / 1e3;
                parts.push(filtered.matched);
            }
            out.stage_decode_ms += decode_ms;
            out.decode_ms.push(decode_ms);
            let started = Instant::now();
            let mut merged = RecordBatch::new();
            for p in &parts {
                merged.extend_from(p);
            }
            out.stage_merge_ms += ms_since(started);
            assert_eq!(
                merged.len(),
                serial.records.len(),
                "replay must return what the store returns"
            );

            // Routing regret against every replica, each timed alone.
            let mut walls = Vec::new();
            let mut sims = Vec::new();
            for r in store.replicas() {
                let started = Instant::now();
                let res = store.query_on(r.id, q).expect("query_on");
                walls.push(ms_since(started));
                sims.push(res.sim_ms);
            }
            out.routed_wall_ms += walls[routed as usize];
            out.best_wall_ms += walls.iter().copied().fold(f64::INFINITY, f64::min);
            out.routed_sim_ms += sims[routed as usize];
            out.best_sim_ms += sims.iter().copied().fold(f64::INFINITY, f64::min);
            let r = &store.replicas()[routed as usize];
            let predicted = store
                .model()
                .concrete_query_cost(q, &r.scheme, r.config.encoding, r.records as f64)
                .get();
            if result.sim_ms > 0.0 {
                out.pred_over_actual.push(predicted / result.sim_ms);
            }
        }
    }
    out
}

/// `EncodingScheme::encode` throughput and size on the partitions each
/// replica was built from: scheme label → (M records/s, bytes/record).
pub fn encode_rates(
    data: &RecordBatch,
    universe: Cuboid,
    replicas: &[ReplicaConfig],
) -> BTreeMap<String, (f64, f64)> {
    replicas
        .iter()
        .map(|config| {
            let scheme = PartitioningScheme::build(data, universe, config.spec);
            let parts = scheme.assign_batch(data);
            let started = Instant::now();
            let bytes: usize = parts.iter().map(|p| config.encoding.encode(p).len()).sum();
            let secs = started.elapsed().as_secs_f64();
            let n = data.len() as f64;
            (
                config.encoding.to_string(),
                (n / secs / 1e6, bytes as f64 / n),
            )
        })
        .collect()
}

/// The coordinator against its own shards: fan-out, leg retries, and
/// its overhead over the slowest direct shard query.
#[derive(Debug, Default)]
pub struct RouterProbe {
    pub fanout: Vec<f64>,
    pub leg_retries: u64,
    pub overhead_ms: Vec<f64>,
}

pub fn probe_router(
    router: &RouterService,
    shard_addrs: &[String],
    queries: &[Cuboid],
) -> RouterProbe {
    let mut clients: Vec<Client> = shard_addrs
        .iter()
        .map(|a| Client::connect(a).expect("connect to shard"))
        .collect();
    let coordinator = router.coordinator();
    let mut out = RouterProbe::default();
    for q in queries.iter().take(REPLAY_QUERIES) {
        let started = Instant::now();
        let merged = coordinator.query(q).expect("coordinator query");
        let coordinator_ms = ms_since(started);
        out.fanout.push(f64::from(merged.fanout));
        out.leg_retries += merged
            .shards
            .iter()
            .map(|l| u64::from(l.retries))
            .sum::<u64>();
        let slowest = coordinator
            .map()
            .fanout(q)
            .into_iter()
            .map(|s| {
                let started = Instant::now();
                clients[s as usize].query(q).expect("direct shard query");
                ms_since(started)
            })
            .fold(0.0, f64::max);
        out.overhead_ms.push(coordinator_ms - slowest);
    }
    out
}
