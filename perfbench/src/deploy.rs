//! Set-up, write phase and serving of one workload's store(s), through
//! the same public path `blot serve` uses: `FleetConfig::generate` →
//! `CostModel::calibrate` → `BlotStore::build_replica` on a file backend
//! → `Server::start` with `ServerConfig::default()`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blot_core::prelude::*;
use blot_router::{RouterConfig, RouterService, ShardMap, ShardSpec};
use blot_server::server::{Server, ServerConfig};
use blot_storage::{Backend, FileBackend, ScanExecutor, UnitKey};
use blot_tracegen::FleetConfig;

use crate::oracle;
use crate::stats::Rng;
use crate::timed::{StorageTotals, TimedBackend};
use crate::workloads::{split_by_time, Workload};

/// The backends a run can store on: the plain file backend for the
/// end-to-end run, the timing wrapper around it for the traced run.
pub trait BenchBackend: Backend + Sized + 'static {
    const KIND: &'static str;
    fn open(dir: &Path) -> Self;
    fn totals(&self) -> StorageTotals {
        StorageTotals::default()
    }
    fn set_timing(&self, _on: bool) {}
}

impl BenchBackend for FileBackend {
    const KIND: &'static str = "FileBackend";
    fn open(dir: &Path) -> Self {
        FileBackend::new(dir).unwrap_or_else(|e| panic!("cannot open {}: {e}", dir.display()))
    }
}

impl BenchBackend for TimedBackend<FileBackend> {
    const KIND: &'static str = "TimedBackend<FileBackend>";
    fn open(dir: &Path) -> Self {
        TimedBackend::new(FileBackend::open(dir))
    }
    fn totals(&self) -> StorageTotals {
        TimedBackend::totals(self)
    }
    fn set_timing(&self, on: bool) {
        self.set_enabled(on);
    }
}

/// The generated inputs of one workload.
#[derive(Debug)]
pub struct Inputs {
    pub fleet: FleetConfig,
    /// Every record the store holds once the write phase is done.
    pub data: RecordBatch,
    /// The earlier share by time, built in set-up.
    pub base: RecordBatch,
    /// The later share, ingested in time order by the write phase.
    pub tail: RecordBatch,
    /// Shard placement (x-axis cuts at the base data's quartiles).
    pub shard_spec: Option<ShardSpec>,
}

pub fn generate(w: &Workload) -> Inputs {
    let fleet = w.fleet();
    let data = fleet.generate();
    let (base, tail) = split_by_time(&data, w.base_share);
    let shard_spec = (w.shards > 1).then(|| {
        let mut xs = base.xs.clone();
        xs.sort_by(f64::total_cmp);
        let cuts = (1..w.shards)
            .map(|k| xs[xs.len() * k as usize / w.shards as usize])
            .collect();
        ShardSpec::AxisCuts { axis: 0, cuts }
    });
    Inputs {
        fleet,
        data,
        base,
        tail,
        shard_spec,
    }
}

impl Inputs {
    /// A shard map for placement and fan-out only (placeholder addresses).
    pub fn placement(&self) -> Option<ShardMap> {
        self.shard_spec.as_ref().map(|spec| {
            let n = spec.shard_count();
            ShardMap::new(
                0,
                spec.clone(),
                (0..n).map(|i| format!("shard-{i}")).collect(),
            )
            .expect("valid shard spec")
        })
    }
}

/// Splits `batch` into one slice per shard (one slice when unsharded).
pub fn slices(batch: &RecordBatch, placement: Option<&ShardMap>) -> Vec<RecordBatch> {
    let Some(map) = placement else {
        return vec![batch.clone()];
    };
    let mut out: Vec<RecordBatch> = (0..map.len()).map(|_| RecordBatch::new()).collect();
    for r in batch.iter() {
        out[map.shard_of(&r) as usize].push(r);
    }
    out
}

/// The shards a range touches (`[0]` when unsharded).
pub fn fanout(placement: Option<&ShardMap>, range: &Cuboid) -> Vec<usize> {
    placement.map_or_else(
        || vec![0],
        |m| m.fanout(range).into_iter().map(|s| s as usize).collect(),
    )
}

/// One store on its own directory.
#[derive(Debug)]
pub struct Node<B> {
    pub store: BlotStore<B>,
    pub dir: PathBuf,
}

/// Wall seconds of the set-up stages of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub calibrate_s: f64,
    pub build_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.calibrate_s + self.build_s
    }
}

pub fn env() -> EnvProfile {
    EnvProfile::local_cluster()
}

/// Calibrates and builds every node's replicas over its base slice. The
/// nodes share one scan pool sized to the host, as `BlotStore::with_pool`
/// advises for stores on one host: loopback shards with a pool each
/// would run more scan threads than there are cores.
pub fn build<B: BenchBackend>(
    w: &Workload,
    inputs: &Inputs,
    root: &Path,
    times: &mut SetupTimes,
) -> Vec<Node<B>> {
    let placement = inputs.placement();
    let universe = inputs.fleet.universe();
    let pool = Arc::new(ScanExecutor::with_default_parallelism());
    slices(&inputs.base, placement.as_ref())
        .into_iter()
        .enumerate()
        .map(|(i, slice)| {
            let started = Instant::now();
            // The seed `blot serve` calibrates with.
            let model = CostModel::calibrate(&env(), &slice, 0xB107);
            times.calibrate_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let dir = root.join(format!("node{i}"));
            let mut store =
                BlotStore::with_pool(B::open(&dir), env(), universe, model, Arc::clone(&pool));
            for config in w.replicas {
                store
                    .build_replica(&slice, config)
                    .unwrap_or_else(|e| panic!("build {config} failed: {e}"));
            }
            times.build_s += started.elapsed().as_secs_f64();
            Node { store, dir }
        })
        .collect()
}

/// Runs `range` in process on every shard it touches and merges.
pub fn query_nodes<B: BenchBackend>(
    stores: &[&BlotStore<B>],
    placement: Option<&ShardMap>,
    range: &Cuboid,
) -> Result<RecordBatch, CoreError> {
    let mut out = RecordBatch::new();
    for s in fanout(placement, range) {
        out.extend_from(&stores[s].query(range)?.records);
    }
    Ok(out)
}

/// What the write phase did.
#[derive(Debug, Default)]
pub struct WriteReport {
    pub records: usize,
    pub ingest_s: f64,
    pub batch_ms: Vec<f64>,
    pub units_rewritten: usize,
    pub scrub_ms: f64,
    pub repair_s: f64,
    pub damaged: usize,
    pub repaired: usize,
    pub unrecoverable: usize,
    pub checks: usize,
    pub failed_checks: usize,
    pub storage: StorageTotals,
}

/// Verification queries run in process after every ingest batch and
/// after repair.
const VERIFY_QUERIES: usize = 4;

/// Runs a few seeded queries in process and checks their answers
/// against a naive filter over `current`, the records stored so far.
fn check<B: BenchBackend>(
    w: &Workload,
    nodes: &[Node<B>],
    placement: Option<&ShardMap>,
    queries: &[Cuboid],
    rng: &mut Rng,
    current: &RecordBatch,
    report: &mut WriteReport,
) {
    let stores: Vec<&BlotStore<B>> = nodes.iter().map(|n| &n.store).collect();
    for _ in 0..VERIFY_QUERIES {
        let q = queries[rng.below(queries.len())];
        let ok = query_nodes(&stores, placement, &q)
            .is_ok_and(|answer| oracle::matches(answer, &oracle::naive(current, &q)));
        report.checks += 1;
        if !ok {
            report.failed_checks += 1;
            eprintln!("perfbench: {}: wrong answer during the write phase", w.name);
        }
    }
}

/// Which units one write phase damages. A run's sub-runs take turns
/// damaging each replica; the `visits` turns of one replica take evenly
/// spaced slots over its partitions (and turn about over the nodes) from
/// a seeded `offset` in `[0, 1)`, so every run repairs a like mix of
/// large and small units whatever the seed.
#[derive(Debug, Clone, Copy)]
pub struct Damage {
    pub replica: u32,
    pub visit: usize,
    pub visits: usize,
    pub offset: f64,
}

/// Ingests the tail in time-ordered batches (checking answers after
/// each), then deletes or truncates the units `damage` names and runs
/// scrub + `repair_all`, checking answers again.
pub fn write_phase<B: BenchBackend>(
    w: &Workload,
    inputs: &Inputs,
    nodes: &mut [Node<B>],
    queries: &[Cuboid],
    rng: &mut Rng,
    damage: Damage,
    time_scrub: bool,
) -> WriteReport {
    let placement = inputs.placement();
    let mut report = WriteReport::default();
    let before: Vec<StorageTotals> = nodes.iter().map(|n| n.store.backend().totals()).collect();
    let mut current = inputs.base.clone();
    let mut start = 0;
    while start < inputs.tail.len() {
        let end = (start + w.ingest_batch).min(inputs.tail.len());
        let mut batch = RecordBatch::with_capacity(end - start);
        for i in start..end {
            batch.push(inputs.tail.get(i));
        }
        let started = Instant::now();
        for (node, slice) in nodes.iter_mut().zip(slices(&batch, placement.as_ref())) {
            if slice.is_empty() {
                continue;
            }
            let r = node
                .store
                .ingest(&slice)
                .unwrap_or_else(|e| panic!("ingest failed: {e}"));
            report.units_rewritten += r.units_rewritten;
        }
        let took = started.elapsed().as_secs_f64();
        report.ingest_s += took;
        report.batch_ms.push(took * 1e3);
        report.records += batch.len();
        current.extend_from(&batch);
        check(
            w,
            nodes,
            placement.as_ref(),
            queries,
            rng,
            &current,
            &mut report,
        );
        start = end;
    }

    // Damage: all units from one replica of one node, so every one of
    // them stays recoverable from the other replica.
    let first_node = (damage.offset * nodes.len() as f64) as usize;
    let node = &nodes[(first_node + damage.visit) % nodes.len()];
    let replica = &node.store.replicas()[damage.replica as usize];
    let parts = replica.scheme.len();
    let slots = (damage.visits * w.damaged_units) as f64;
    let mut partitions: Vec<u32> = (0..w.damaged_units)
        .map(|i| {
            let slot = (damage.visit * w.damaged_units + i) as f64;
            ((damage.offset + slot / slots) * parts as f64) as u32 % parts as u32
        })
        .collect();
    partitions.dedup();
    let backend = node.store.backend();
    backend.set_timing(false);
    for (i, &partition) in partitions.iter().enumerate() {
        let key = UnitKey {
            replica: replica.id,
            partition,
        };
        if i == 0 {
            backend.delete(key).expect("delete unit");
        } else {
            let bytes = backend.get(key).expect("read unit");
            backend
                .put(key, bytes[..bytes.len() / 3].to_vec())
                .expect("truncate unit");
        }
        report.damaged += 1;
    }
    backend.set_timing(true);
    if time_scrub {
        let started = Instant::now();
        let found = node.store.scrub().expect("scrub");
        report.scrub_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            found.len(),
            report.damaged,
            "scrub must find every damaged unit"
        );
    }
    let started = Instant::now();
    let repair = node.store.repair_all().expect("repair_all");
    report.repair_s = started.elapsed().as_secs_f64();
    report.repaired = repair.repaired.len();
    report.unrecoverable = repair.unrecoverable.len();
    if report.repaired != report.damaged || report.unrecoverable > 0 {
        report.failed_checks += 1;
        eprintln!(
            "perfbench: {}: repaired {} of {} damaged units, {} unrecoverable",
            w.name, report.repaired, report.damaged, report.unrecoverable
        );
    }
    check(
        w,
        nodes,
        placement.as_ref(),
        queries,
        rng,
        &current,
        &mut report,
    );
    report.storage = nodes
        .iter()
        .zip(before)
        .fold(StorageTotals::default(), |acc, (n, b)| {
            acc.plus(n.store.backend().totals().minus(b))
        });
    report
}

/// Running servers over a workload's stores.
#[derive(Debug)]
pub struct Serving<B> {
    pub stores: Vec<Arc<BlotStore<B>>>,
    pub dirs: Vec<PathBuf>,
    pub shard_servers: Vec<Server>,
    /// The server the load generator drives: the single node, or the
    /// coordinator in front of the shards.
    pub front: Server,
    pub router: Option<Arc<RouterService>>,
    pub addr: String,
    pub shard_addrs: Vec<String>,
    pub start_s: f64,
}

fn start_server<S: blot_core::store::QueryService + ?Sized + 'static>(service: Arc<S>) -> Server {
    Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server must start")
}

pub fn serve<B: BenchBackend>(inputs: &Inputs, nodes: Vec<Node<B>>) -> Serving<B> {
    let started = Instant::now();
    let (stores, dirs): (Vec<_>, Vec<_>) = nodes
        .into_iter()
        .map(|n| (Arc::new(n.store), n.dir))
        .unzip();
    let serving = match &inputs.shard_spec {
        None => {
            let front = start_server(Arc::clone(&stores[0]));
            Serving {
                addr: front.local_addr().to_string(),
                front,
                stores,
                dirs,
                shard_servers: Vec::new(),
                router: None,
                shard_addrs: Vec::new(),
                start_s: 0.0,
            }
        }
        Some(spec) => {
            let shard_servers: Vec<Server> =
                stores.iter().map(|s| start_server(Arc::clone(s))).collect();
            let shard_addrs: Vec<String> = shard_servers
                .iter()
                .map(|s| s.local_addr().to_string())
                .collect();
            let map = ShardMap::new(1, spec.clone(), shard_addrs.clone()).expect("shard map");
            let router = Arc::new(
                RouterService::new(map, RouterConfig::default()).expect("coordinator must start"),
            );
            let front = start_server(Arc::clone(&router));
            Serving {
                addr: front.local_addr().to_string(),
                front,
                stores,
                dirs,
                shard_servers,
                router: Some(router),
                shard_addrs,
                start_s: 0.0,
            }
        }
    };
    Serving {
        start_s: started.elapsed().as_secs_f64(),
        ..serving
    }
}

impl<B> Serving<B> {
    /// Drains and joins every server; false if a thread did not join.
    pub fn shutdown(self) -> bool {
        let timeout = Duration::from_secs(10);
        let mut joined = self.front.shutdown(timeout).threads_joined;
        for s in self.shard_servers {
            joined &= s.shutdown(timeout).threads_joined;
        }
        drop(self.router);
        drop(self.stores);
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        joined
    }
}
