//! BLOT's benchmark: one workload per invocation.
//!
//! ```sh
//! perfbench --workload since_t --seed 1 --seconds 28 --trace 0
//! ```
//!
//! Every run sets up the store(s) through the public `blot serve` path,
//! ingests a time-ordered tail, damages and repairs a few storage units,
//! then serves the store on loopback and drives it with an open-loop
//! rate ladder. Every answer is checked against a naive filter over the
//! raw records. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reruns the same workload with a timing storage wrapper and probes that
//! time each layer's public calls from outside. The last line of standard
//! output is the JSON result; the exit code is non-zero on any wrong
//! answer or failed request.

mod deploy;
mod layers;
mod loadgen;
mod oracle;
mod stats;
mod timed;
mod workloads;

use std::path::{Path, PathBuf};

use blot_core::prelude::*;
use blot_server::server::ServerConfig;
use blot_storage::FileBackend;

use deploy::{BenchBackend, Inputs, SetupTimes};
use loadgen::RungResult;
use stats::{mean, median, percentile, Clock, Metrics, Rng};
use timed::TimedBackend;
use workloads::{
    Workload, BUSY_TAIL, FIRST_WARMUP_SECS, LIGHT_TAIL, LIMIT_TAIL, RUNG_SHARE, SUBRUNS,
    WARMUP_SECS,
};

/// Schemes any workload stores; per-scheme codec metrics cover all of
/// them (0 where a workload's routing never decoded that scheme).
const SCHEMES: &[&str] = &["ROW-PLAIN", "ROW-SNAPPY", "COL-GZIP"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe_capacity: bool,
    commit: String,
    data_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .ok_or("--workload <name> is required")?
        .to_owned();
    let seed = value("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("28")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        probe_capacity: argv.iter().any(|a| a == "--probe-capacity"),
        commit: value("--commit").unwrap_or("unknown").to_owned(),
        data_dir: PathBuf::from(value("--data-dir").unwrap_or(".bench_data")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload) else {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    let root = args.data_dir.join(format!(
        "{}-{}-{}",
        workload.name,
        args.seed,
        std::process::id()
    ));
    let outcome = if args.trace {
        run::<TimedBackend<FileBackend>>(&workload, &args, &root)
    } else {
        run::<FileBackend>(&workload, &args, &root)
    };
    let _ = std::fs::remove_dir_all(&root);
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.json_object()
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    end_to_end: Metrics,
    per_layer: Metrics,
}

/// FNV-1a over the routed replica of every (query, shard) leg.
fn digest(routes: &[u32]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &r in routes {
        for b in r.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// The cheapest-estimated replica of every (query, shard) leg.
fn routes<B: BenchBackend>(
    stores: &[&BlotStore<B>],
    inputs: &Inputs,
    queries: &[Cuboid],
) -> Vec<u32> {
    let placement = inputs.placement();
    queries
        .iter()
        .flat_map(|q| {
            deploy::fanout(placement.as_ref(), q)
                .into_iter()
                .map(|s| stores[s].route(q)[0])
                .collect::<Vec<_>>()
        })
        .collect()
}

fn print_rung(r: &RungResult) {
    println!(
        "  rung {:<6} {:>7.1} req/s for {:>5.2} s: offered {:>5}, attempted {:>5}, succeeded {:>5}, \
         failed {}, unsent {}, achieved {:>7.1} req/s, p50 {:>8.3} ms, p90 {:>8.3} ms, p99 {:>8.3} ms, \
         gen.lag p99 {:>7.3} ms [wall]",
        r.name,
        r.rate,
        r.secs,
        r.offered,
        r.attempted,
        r.succeeded,
        r.failed,
        r.unsent,
        r.achieved_rps(),
        r.latency(0.5),
        r.latency(0.9),
        r.latency(0.99),
        percentile(&r.lag_ms, 0.99),
    );
}

/// One set-up (with its own calibration) served through the whole ladder.
struct SubRun {
    setup: SetupTimes,
    start_s: f64,
    /// Routed replica per (query, shard) leg right after calibration.
    calibrated_routes: Vec<u32>,
    /// Routed replica per leg as served, after the write phase.
    served_routes: Vec<u32>,
    write: deploy::WriteReport,
    warmup: RungResult,
    reference: Option<RungResult>,
    rungs: Vec<RungResult>,
    read_storage: timed::StorageTotals,
    joined: bool,
}

#[allow(clippy::too_many_arguments)]
fn sub_run<B: BenchBackend>(
    w: &Workload,
    args: &Args,
    index: usize,
    dir: &Path,
    queries: &[Cuboid],
    expected: &[RecordBatch],
    plans: &[&[usize]],
    damage_offsets: &[f64],
    rng: &mut Rng,
    conns: usize,
    probes: Option<&mut Metrics>,
) -> SubRun {
    let mut setup = SetupTimes::default();
    let started = std::time::Instant::now();
    let inputs = deploy::generate(w);
    setup.generate_s = started.elapsed().as_secs_f64();
    let mut nodes = deploy::build::<B>(w, &inputs, dir, &mut setup);
    let stores: Vec<&BlotStore<B>> = nodes.iter().map(|n| &n.store).collect();
    let calibrated_routes = routes(&stores, &inputs, queries);

    // Sub-runs take turns damaging each replica, so every run repairs
    // both encodings.
    let replicas = w.replicas.len();
    let damage = deploy::Damage {
        replica: (index % replicas) as u32,
        visit: index / replicas,
        visits: SUBRUNS / replicas,
        offset: damage_offsets[index % replicas],
    };
    let write = deploy::write_phase(w, &inputs, &mut nodes, queries, rng, damage, args.trace);
    println!(
        "write phase: ingested {} records in {} batches in {:.3} s [wall] ({} units rewritten); \
         damaged {} units, scrub + repair {:.3} s [wall], repaired {}, unrecoverable {}; \
         {} checks, {} failed",
        write.records,
        write.batch_ms.len(),
        write.ingest_s,
        write.units_rewritten,
        write.damaged,
        write.repair_s,
        write.repaired,
        write.unrecoverable,
        write.checks,
        write.failed_checks
    );

    let serving = deploy::serve(&inputs, nodes);
    let stores: Vec<&BlotStore<B>> = serving.stores.iter().map(|s| s.as_ref()).collect();
    let served_routes = routes(&stores, &inputs, queries);
    let target = loadgen::Target {
        addr: &serving.addr,
        conns,
        queries,
        expected,
    };
    let rung = |name: &str, rate: f64, secs: f64, rng: &mut Rng| {
        let plan = loadgen::plan(rng, queries.len(), loadgen::offered(rate, secs));
        loadgen::run_rung(target, name, &plan, rate)
    };
    let warmup = if index == 0 {
        rung("warmup", w.ladder[1], FIRST_WARMUP_SECS, rng)
    } else {
        rung("warmup", w.ladder[0], WARMUP_SECS, rng)
    };
    if args.probe_capacity {
        let rps = loadgen::probe_capacity(&serving.addr, conns, queries, args.seed, 4.0);
        println!("capacity probe: {rps:.1} req/s closed loop over {conns} connections [wall]");
    }
    // The traced run's last sub-run first offers `light` with timing
    // off, as the reference for the tracing overhead.
    let reference = probes.is_some().then(|| {
        set_timing(&serving.stores, false);
        let secs = args.seconds * RUNG_SHARE[0].1 / SUBRUNS as f64;
        let r = rung("light-untimed", w.ladder[0], secs, rng);
        set_timing(&serving.stores, true);
        r
    });
    let before = storage_totals(&serving.stores);
    let rungs: Vec<RungResult> = RUNG_SHARE
        .iter()
        .zip(w.ladder)
        .zip(plans)
        .map(|((&(name, _), rate), plan)| loadgen::run_rung(target, name, plan, rate))
        .collect();
    let read_storage = storage_totals(&serving.stores).minus(before);
    for r in std::iter::once(&warmup).chain(&reference).chain(&rungs) {
        print_rung(r);
    }
    if let Some(m) = probes {
        probe_layers(m, w, &inputs, &serving, queries);
    }
    let start_s = serving.start_s;
    let joined = serving.shutdown();
    SubRun {
        setup,
        start_s,
        calibrated_routes,
        served_routes,
        write,
        warmup,
        reference,
        rungs,
        read_storage,
        joined,
    }
}

fn run<B: BenchBackend>(w: &Workload, args: &Args, root: &Path) -> Outcome {
    let mut rng = Rng::new(args.seed);
    let conns = std::thread::available_parallelism().map_or(2, |n| n.get());
    let inputs = deploy::generate(w);
    let queries = w.queries(&inputs.fleet, &inputs.data, args.seed);
    println!(
        "context: {{\"workload\": \"{}\", \"seed\": {}, \"fleet_seed\": {}, \"available_parallelism\": {}, \
         \"commit\": \"{}\", \"records\": {}, \"base_records\": {}, \"tail_records\": {}, \
         \"taxis\": {}, \"fixes_per_taxi\": {}, \"distinct_queries\": {}, \"replicas\": [\"{}\", \"{}\"], \
         \"shards\": {}, \"backend\": \"{}\", \"trace\": {}, \"seconds\": {}, \"subruns\": {}, \
         \"ladder_rps\": {:?}, \"limit\": \"p{} <= {} ms\", \"server_config\": \"{:?}\"}}",
        w.name,
        args.seed,
        inputs.fleet.seed,
        conns,
        args.commit,
        inputs.data.len(),
        inputs.base.len(),
        inputs.tail.len(),
        w.taxis,
        w.fixes_per_taxi,
        queries.len(),
        w.replicas[0],
        w.replicas[1],
        w.shards,
        B::KIND,
        args.trace,
        args.seconds,
        SUBRUNS,
        w.ladder,
        LIMIT_TAIL * 100.0,
        w.limit_ms,
        ServerConfig::default(),
    );
    // The oracle: precomputed per distinct query, untimed.
    let expected: Vec<RecordBatch> = queries
        .iter()
        .map(|q| oracle::naive(&inputs.data, q))
        .collect();

    // Each rung's requests over the whole run, in passes over the
    // distinct queries; sub-run k serves the k-th slice, so the pooled
    // rung carries the mix of whole passes whatever the seed.
    let rung_plans: Vec<Vec<usize>> = RUNG_SHARE
        .iter()
        .zip(w.ladder)
        .map(|(&(_, share), rate)| {
            let per_sub = loadgen::offered(rate, args.seconds * share / SUBRUNS as f64);
            loadgen::plan(&mut rng, queries.len(), per_sub * SUBRUNS)
        })
        .collect();
    let damage_offsets: Vec<f64> = w.replicas.iter().map(|_| rng.unit()).collect();

    let mut per_layer = Metrics::default();
    println!("open loop, {conns} connections, every request timed from its due time:");
    let subs: Vec<SubRun> = (0..SUBRUNS)
        .map(|k| {
            let last = k + 1 == SUBRUNS;
            let probes = (args.trace && last).then_some(&mut per_layer);
            let dir = root.join(format!("sub{k}"));
            let plans: Vec<&[usize]> = rung_plans
                .iter()
                .map(|p| {
                    let n = p.len() / SUBRUNS;
                    &p[k * n..(k + 1) * n]
                })
                .collect();
            sub_run::<B>(
                w,
                args,
                k,
                &dir,
                &queries,
                &expected,
                &plans,
                &damage_offsets,
                &mut rng,
                conns,
                probes,
            )
        })
        .collect();

    // Pool the sub-runs.
    let rungs: Vec<RungResult> = RUNG_SHARE
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let parts: Vec<&RungResult> = subs.iter().map(|s| &s.rungs[i]).collect();
            RungResult::pool(name, &parts)
        })
        .collect();
    println!("pooled over {SUBRUNS} sub-runs:");
    for r in &rungs {
        print_rung(r);
    }
    let ingest_records: usize = subs.iter().map(|s| s.write.records).sum();
    let ingest_s: f64 = subs.iter().map(|s| s.write.ingest_s).sum();

    let mut e2e = Metrics::default();
    let setup: Vec<f64> = subs.iter().map(|s| s.setup.total() + s.start_s).collect();
    e2e.put("setup_s", median(&setup), "s", Clock::Wall);
    e2e.put("light.p50_ms", rungs[0].latency(0.5), "ms", Clock::Wall);
    e2e.put(
        format!("light.{}_ms", LIGHT_TAIL.1),
        rungs[0].latency(LIGHT_TAIL.0),
        "ms",
        Clock::Wall,
    );
    e2e.put("busy.p50_ms", rungs[1].latency(0.5), "ms", Clock::Wall);
    e2e.put(
        format!("busy.{}_ms", BUSY_TAIL.1),
        rungs[1].latency(BUSY_TAIL.0),
        "ms",
        Clock::Wall,
    );
    let max_rps = rungs
        .iter()
        .filter(|r| r.meets(LIMIT_TAIL, w.limit_ms))
        .map(RungResult::achieved_rps)
        .fold(0.0, f64::max);
    e2e.put("max_rps", max_rps, "1/s", Clock::Wall);
    let sims: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.replies.iter().map(|x| x.sim_ms))
        .collect();
    e2e.put("sim_ms_per_query", mean(&sims), "ms_sim", Clock::Simulated);
    e2e.put(
        "ingest_rec_s",
        ingest_records as f64 / ingest_s,
        "rec/s",
        Clock::Wall,
    );
    let repair_s: f64 = subs.iter().map(|s| s.write.repair_s).sum();
    e2e.put("repair_s", repair_s, "s", Clock::Wall);

    let attempted: usize = subs
        .iter()
        .map(|s| {
            s.warmup.attempted
                + s.reference.as_ref().map_or(0, |r| r.attempted)
                + s.rungs.iter().map(|r| r.attempted).sum::<usize>()
                + s.write.checks
        })
        .sum();
    let failed: usize = subs
        .iter()
        .map(|s| {
            s.warmup.failed
                + s.reference.as_ref().map_or(0, |r| r.failed)
                + s.rungs.iter().map(|r| r.failed).sum::<usize>()
                + s.write.failed_checks
        })
        .sum();
    let fail_ratio = failed as f64 / attempted.max(1) as f64;

    // Routing as served: one digest per sub-run, shares over the timed
    // requests, and the legs whose route changed between calibrations.
    let calibrations: Vec<&Vec<u32>> = subs.iter().map(|s| &s.calibrated_routes).collect();
    let legs = calibrations[0].len();
    let unstable = (0..legs)
        .filter(|&i| calibrations.iter().any(|r| r[i] != calibrations[0][i]))
        .count();
    let shares = route_shares(&subs, &inputs, &queries, w.replicas.len());
    println!(
        "routing: served digests {} over {legs} (query, shard) legs; share of timed requests {}; \
         {unstable} of {legs} legs routed differently across the {SUBRUNS} calibrations; \
         legs on r1 per calibration {}",
        subs.iter()
            .map(|s| digest(&s.served_routes))
            .collect::<Vec<_>>()
            .join(" "),
        shares
            .iter()
            .enumerate()
            .map(|(i, s)| format!("r{i} {s:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        calibrations
            .iter()
            .map(|r| r.iter().filter(|&&x| x == 1).count().to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "max_rps: highest ladder rate whose p{} stays within {} ms with no backlog (failures count as misses); \
         fail_ratio {fail_ratio} ({failed} of {attempted}) [count]",
        LIMIT_TAIL * 100.0,
        w.limit_ms
    );
    let joined = subs.iter().all(|s| s.joined);
    if args.trace {
        pooled_layer_metrics(
            &mut per_layer,
            &subs,
            &rungs,
            shares,
            unstable as f64 / legs as f64,
        );
        per_layer.print("per-layer metrics:");
    } else {
        e2e.print("end-to-end metrics:");
    }
    Outcome {
        correct: failed == 0 && joined,
        attempted,
        failed,
        end_to_end: e2e,
        per_layer,
    }
}

fn set_timing<B: BenchBackend>(stores: &[std::sync::Arc<BlotStore<B>>], on: bool) {
    for s in stores {
        s.backend().set_timing(on);
    }
}

fn storage_totals<B: BenchBackend>(
    stores: &[std::sync::Arc<BlotStore<B>>],
) -> timed::StorageTotals {
    stores
        .iter()
        .fold(timed::StorageTotals::default(), |acc, s| {
            acc.plus(s.backend().totals())
        })
}

/// Share of the timed requests' (query, shard) legs served by each
/// replica, pooled over the sub-runs.
fn route_shares(subs: &[SubRun], inputs: &Inputs, queries: &[Cuboid], replicas: usize) -> Vec<f64> {
    let placement = inputs.placement();
    let mut leg_start = Vec::with_capacity(queries.len());
    let mut at = 0;
    for q in queries {
        let n = deploy::fanout(placement.as_ref(), q).len();
        leg_start.push((at, n));
        at += n;
    }
    let mut counts = vec![0usize; replicas];
    for sub in subs {
        for reply in sub.rungs.iter().flat_map(|r| &r.replies) {
            let (start, n) = leg_start[reply.qidx];
            for &r in &sub.served_routes[start..start + n] {
                counts[r as usize] += 1;
            }
        }
    }
    let total: usize = counts.iter().sum();
    counts
        .iter()
        .map(|&c| c as f64 / total.max(1) as f64)
        .collect()
}

/// Per-layer metrics pooled over the traced run's sub-runs.
fn pooled_layer_metrics(
    m: &mut Metrics,
    subs: &[SubRun],
    rungs: &[RungResult],
    shares: Vec<f64>,
    unstable_share: f64,
) {
    let wall = Clock::Wall;
    let none = Clock::None;
    // set-up
    let med_of = |f: fn(&SubRun) -> f64| median(&subs.iter().map(f).collect::<Vec<_>>());
    m.put(
        "setup.generate_s",
        med_of(|s| s.setup.generate_s),
        "s",
        wall,
    );
    m.put(
        "setup.calibrate_s",
        med_of(|s| s.setup.calibrate_s),
        "s",
        wall,
    );
    m.put("setup.build_s", med_of(|s| s.setup.build_s), "s", wall);
    m.put("setup.start_s", med_of(|s| s.start_s), "s", wall);

    // server: the stage fields every reply carries. The client RTT is
    // admission + batch + wire by definition of wire; the medians need
    // not add up, and what they leave over is printed as unattributed.
    for r in &rungs[..2] {
        let col =
            |f: fn(&loadgen::Reply) -> f64| median(&r.replies.iter().map(f).collect::<Vec<_>>());
        let rtt = col(|x| x.rtt_ms);
        let admission = col(|x| x.admission_ms);
        let batch = col(|x| x.batch_ms);
        let wire = col(|x| x.rtt_ms - x.admission_ms - x.batch_ms);
        m.put(
            format!("server.admission_ms.{}", r.name),
            admission,
            "ms",
            wall,
        );
        m.put(format!("server.batch_ms.{}", r.name), batch, "ms", wall);
        m.put(
            format!("server.store_ms.{}", r.name),
            col(|x| x.store_ms),
            "ms",
            wall,
        );
        m.put(format!("client.wire_ms.{}", r.name), wire, "ms", wall);
        m.put(format!("client.rtt_ms.{}", r.name), rtt, "ms", wall);
        m.put(
            format!("client.unattributed_ms.{}", r.name),
            rtt - admission - batch - wire,
            "ms",
            wall,
        );
        println!(
            "server stages ({}, p50): rtt {rtt:.4} ms = admission {admission:.4} + batch {batch:.4} + \
             wire {wire:.4} + unattributed {:.4} [wall]",
            r.name,
            rtt - admission - batch - wire
        );
    }
    for r in rungs {
        m.put(
            format!("gen.lag_p99_ms.{}", r.name),
            percentile(&r.lag_ms, 0.99),
            "ms",
            wall,
        );
    }
    if let Some(sub) = subs.iter().find(|s| s.reference.is_some()) {
        let reference = sub.reference.as_ref().map_or(0.0, |r| r.latency(0.5));
        let ratio = sub.rungs[0].latency(0.5) / reference;
        m.put("trace.overhead_ratio", ratio, "ratio", none);
        println!("tracing overhead: traced / untraced light.p50_ms = {ratio:.4} (same sub-run)");
    }
    for (i, s) in shares.iter().enumerate() {
        m.put(format!("route.share.r{i}"), *s, "ratio", none);
    }
    m.put("route.unstable_share", unstable_share, "ratio", none);

    // storage: the timing wrapper, during the timed rungs and the write phase.
    let reads = subs.iter().fold(timed::StorageTotals::default(), |acc, s| {
        acc.plus(s.read_storage)
    });
    let answered = rungs.iter().map(|r| r.replies.len()).sum::<usize>().max(1) as f64;
    for (name, op) in [("get", reads.get), ("get_tail", reads.get_tail)] {
        m.put(
            format!("storage.{name}.calls_per_query"),
            op.calls as f64 / answered,
            "count",
            none,
        );
        m.put(
            format!("storage.{name}.ms_per_query"),
            op.ms / answered,
            "ms",
            wall,
        );
        m.put(
            format!("storage.{name}.kb_per_query"),
            op.bytes as f64 / 1024.0 / answered,
            "KiB",
            none,
        );
    }
    let puts = subs.iter().fold(timed::OpTotals::default(), |acc, s| {
        acc.plus(s.write.storage.put)
    });
    let n = subs.len() as f64;
    m.put("storage.put.calls", puts.calls as f64 / n, "count", none);
    m.put("storage.put.ms", puts.ms / n, "ms", wall);
    m.put(
        "storage.put.mb",
        puts.bytes as f64 / 1_048_576.0 / n,
        "MiB",
        none,
    );

    // core.store writes.
    let batches: Vec<f64> = subs
        .iter()
        .flat_map(|s| s.write.batch_ms.iter().copied())
        .collect();
    m.put("ingest.batch_ms", median(&batches), "ms", wall);
    m.put(
        "ingest.units_rewritten",
        med_of(|s| s.write.units_rewritten as f64),
        "count",
        none,
    );
    m.put("scrub_ms", med_of(|s| s.write.scrub_ms), "ms", wall);
    m.put(
        "repair.units_repaired",
        med_of(|s| s.write.repaired as f64),
        "count",
        none,
    );
}

/// Probes that time each layer's public calls from outside, on the
/// stores of the traced run's last sub-run while they are served.
fn probe_layers<B: BenchBackend>(
    m: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    serving: &deploy::Serving<B>,
    queries: &[Cuboid],
) {
    let wall = Clock::Wall;
    let none = Clock::None;
    // core.store, core.cost, index, codec: the replay.
    let placement = inputs.placement();
    let replay = layers::replay(&serving.stores, &serving.dirs, placement.as_ref(), queries);
    let legs = replay.legs as f64;
    m.put("store.query_ms", median(&replay.query_ms), "ms", wall);
    m.put(
        "store.query_serial_ms",
        median(&replay.serial_ms),
        "ms",
        wall,
    );
    m.put(
        "store.prune_ratio",
        replay.units_skipped as f64 / replay.partitions_scanned as f64,
        "ratio",
        none,
    );
    m.put(
        "store.bytes_skipped",
        replay.bytes_skipped as f64 / legs,
        "B/query",
        none,
    );
    let bytes: u64 = serving.stores.iter().map(|s| s.total_bytes()).sum();
    m.put(
        "store.bytes_per_record",
        bytes as f64 / inputs.data.len() as f64,
        "B/rec",
        none,
    );
    m.put("store.route_us", median(&replay.route_us), "us", wall);
    m.put(
        "route.wall_regret",
        replay.routed_wall_ms / replay.best_wall_ms,
        "ratio",
        none,
    );
    m.put(
        "route.sim_regret",
        replay.routed_sim_ms / replay.best_sim_ms,
        "ratio",
        Clock::Simulated,
    );
    m.put(
        "route.pred_over_actual",
        median(&replay.pred_over_actual),
        "ratio",
        Clock::Simulated,
    );
    m.put("index.involved_us", median(&replay.involved_us), "us", wall);
    m.put("index.units_per_query", mean(&replay.units), "count", none);
    let stage_sum = replay.stage_sum_ms();
    let serial_sum = replay.serial_sum_ms();
    let unattributed = (serial_sum - stage_sum) / legs;
    let reconciled = (serial_sum - stage_sum).abs() <= workloads::RECONCILE_TOLERANCE * serial_sum;
    println!(
        "store stages (serial, sum over {} legs): query {serial_sum:.3} ms vs route {:.3} + involved {:.3} + \
         prune {:.3} + fetch {:.3} + decode/filter {:.3} + merge {:.3} = {stage_sum:.3} ms; \
         unattributed {unattributed:.4} ms/leg; within +-{:.0}%: {reconciled} [wall]",
        replay.legs,
        replay.stage_route_ms,
        replay.stage_involved_ms,
        replay.stage_prune_ms,
        replay.stage_fetch_ms,
        replay.stage_decode_ms,
        replay.stage_merge_ms,
        workloads::RECONCILE_TOLERANCE * 100.0,
    );
    m.put("replay.prune_ms", replay.stage_prune_ms / legs, "ms", wall);
    m.put("replay.fetch_ms", replay.stage_fetch_ms / legs, "ms", wall);
    m.put("replay.merge_ms", replay.stage_merge_ms / legs, "ms", wall);
    m.put("unattributed_ms", unattributed, "ms", wall);
    m.put(
        "replay.reconciled",
        f64::from(u8::from(reconciled)),
        "bool",
        none,
    );
    m.put("codec.decode_ms", mean(&replay.decode_ms), "ms", wall);
    m.put(
        "codec.useful_ratio",
        replay.matched_records as f64 / replay.decoded_records as f64,
        "ratio",
        none,
    );
    for scheme in SCHEMES {
        let rate = replay
            .decode_by_scheme
            .get(*scheme)
            .map_or(0.0, |d| d.records as f64 / d.secs / 1e6);
        m.put(
            format!("codec.decode_mrec_s.{scheme}"),
            rate,
            "Mrec/s",
            wall,
        );
    }
    let encode = layers::encode_rates(&inputs.base, inputs.fleet.universe(), &w.replicas);
    for scheme in SCHEMES {
        let (rate, bpr) = encode.get(*scheme).copied().unwrap_or((0.0, 0.0));
        m.put(
            format!("codec.encode_mrec_s.{scheme}"),
            rate,
            "Mrec/s",
            wall,
        );
        m.put(
            format!("codec.bytes_per_record.{scheme}"),
            bpr,
            "B/rec",
            none,
        );
    }

    // router: zero where the workload has no coordinator.
    let probe = match &serving.router {
        Some(router) => layers::probe_router(router, &serving.shard_addrs, queries),
        None => layers::RouterProbe::default(),
    };
    m.put("router.fanout", mean(&probe.fanout), "count", none);
    m.put(
        "router.leg_retries",
        probe.leg_retries as f64,
        "count",
        none,
    );
    m.put("router.overhead_ms", median(&probe.overhead_ms), "ms", wall);
}
