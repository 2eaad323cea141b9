//! Single-process open-loop load generator.
//!
//! Request `i` of a rung is due at `t0 + i / rate`, whatever happened to
//! earlier requests. At most `conns` requests are in flight: each sender
//! thread owns one connection and takes the next due request as soon as
//! it is free. A request is timed from when it was due, so a stall that
//! delays later sends counts against them, and the generator's own
//! lateness is reported as lag. Requests still unsent a grace period
//! after the rung ends are abandoned and reported as backlog.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use blot_core::prelude::*;
use blot_server::client::{Client, ClientConfig};

use crate::oracle;
use crate::stats::{percentile, Rng};

/// How long after its end a rung may still send overdue requests.
const GRACE: Duration = Duration::from_secs(1);

/// Share of the offered rate a rung must answer per second of its wall
/// time to count as keeping pace.
const KEEP_PACE: f64 = 0.9;

/// What a served request reported about itself.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub qidx: usize,
    pub rtt_ms: f64,
    pub sim_ms: f64,
    pub admission_ms: f64,
    pub batch_ms: f64,
    pub store_ms: f64,
}

#[derive(Debug, Default)]
pub struct RungResult {
    pub name: String,
    pub rate: f64,
    pub secs: f64,
    /// Requests due in the rung.
    pub offered: usize,
    pub attempted: usize,
    pub succeeded: usize,
    /// Transport errors, `Overloaded` after the client's retries, other
    /// server errors and wrong answers.
    pub failed: usize,
    /// Due requests abandoned unsent (a growing backlog).
    pub unsent: usize,
    /// Latency from the due time, ms, of every answered request
    /// (wrong answers included; they also count in `failed`).
    pub latency_ms: Vec<f64>,
    /// Send time minus due time, ms.
    pub lag_ms: Vec<f64>,
    pub replies: Vec<Reply>,
    /// Wall seconds from the first due time to the last answer.
    pub elapsed_s: f64,
}

impl RungResult {
    /// One rung made of the same rung of several sub-runs.
    pub fn pool(name: &str, parts: &[&Self]) -> Self {
        let mut out = Self {
            name: name.to_owned(),
            rate: parts.first().map_or(0.0, |p| p.rate),
            ..Self::default()
        };
        for p in parts {
            out.secs += p.secs;
            out.offered += p.offered;
            out.attempted += p.attempted;
            out.succeeded += p.succeeded;
            out.failed += p.failed;
            out.unsent += p.unsent;
            out.latency_ms.extend_from_slice(&p.latency_ms);
            out.lag_ms.extend_from_slice(&p.lag_ms);
            out.replies.extend_from_slice(&p.replies);
            out.elapsed_s += p.elapsed_s;
        }
        out
    }

    /// Answers completed per second of rung wall time.
    pub fn achieved_rps(&self) -> f64 {
        self.replies.len() as f64 / self.elapsed_s.max(1e-9)
    }

    /// Latency percentile over answered requests.
    pub fn latency(&self, p: f64) -> f64 {
        percentile(&self.latency_ms, p)
    }

    /// Whether the rung met `limit_ms` at percentile `p`, with failures
    /// and abandoned requests counted as misses, and without a growing
    /// backlog: nothing abandoned, and answers kept pace with the
    /// offered rate.
    pub fn meets(&self, p: f64, limit_ms: f64) -> bool {
        let mut all = self.latency_ms.clone();
        all.extend(std::iter::repeat_n(
            f64::INFINITY,
            self.failed + self.unsent,
        ));
        self.unsent == 0
            && self.achieved_rps() >= KEEP_PACE * self.rate
            && percentile(&all, p) <= limit_ms
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[derive(Default)]
struct SenderLog {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    replies: Vec<Reply>,
    attempted: usize,
    failed: usize,
    unsent: usize,
    ended: Option<Instant>,
}

/// Where a rung's requests go and what their answers must be.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    pub addr: &'a str,
    /// Connections, one sender thread each.
    pub conns: usize,
    pub queries: &'a [Cuboid],
    /// The expected answer of each query, in canonical order.
    pub expected: &'a [RecordBatch],
}

/// Requests a rung offers at `rate` req/s for `secs` seconds.
pub fn offered(rate: f64, secs: f64) -> usize {
    (rate * secs).round().max(1.0) as usize
}

/// `n` query indices in passes over all `distinct` queries, each pass
/// in a seeded order, so that any run of whole passes carries the
/// workload's mix exactly.
pub fn plan(rng: &mut Rng, distinct: usize, n: usize) -> Vec<usize> {
    let mut plan: Vec<usize> = Vec::with_capacity(n + distinct);
    while plan.len() < n {
        let mut pass: Vec<usize> = (0..distinct).collect();
        rng.shuffle(&mut pass);
        plan.extend(pass);
    }
    plan.truncate(n);
    plan
}

/// Offers `plan`'s queries to `target` at `rate` req/s, checking every
/// answer against its expectation on a separate verifier thread.
pub fn run_rung(target: Target<'_>, name: &str, plan: &[usize], rate: f64) -> RungResult {
    let Target {
        addr,
        conns,
        queries,
        expected,
    } = target;
    let offered = plan.len();
    let secs = offered as f64 / rate;
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, RecordBatch)>();
    let clients: Vec<Client> = (0..conns)
        .map(|_| {
            Client::connect_with(addr, ClientConfig::default())
                .unwrap_or_else(|e| panic!("load generator cannot connect to {addr}: {e}"))
        })
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + Duration::from_secs_f64(secs) + GRACE;
    let (logs, wrong) = std::thread::scope(|s| {
        let verifier = s.spawn(move || {
            rx.iter()
                .map(|(qidx, answer)| oracle::matches(answer, &expected[qidx]))
                .filter(|ok| !ok)
                .count()
        });
        let senders: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let tx = tx.clone();
                let next = &next;
                s.spawn(move || {
                    let mut log = SenderLog::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&qidx) = plan.get(i) else { break };
                        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        let sent = Instant::now();
                        if sent > deadline {
                            log.unsent += 1;
                            continue;
                        }
                        log.attempted += 1;
                        log.lag_ms.push((sent - due).as_secs_f64() * 1e3);
                        let outcome = client.query(&queries[qidx]);
                        let done = Instant::now();
                        match outcome {
                            Ok(r) => {
                                log.latency_ms.push((done - due).as_secs_f64() * 1e3);
                                log.replies.push(Reply {
                                    qidx,
                                    rtt_ms: (done - sent).as_secs_f64() * 1e3,
                                    sim_ms: r.sim_ms,
                                    admission_ms: r.admission_ms,
                                    batch_ms: r.batch_ms,
                                    store_ms: r.store_ms,
                                });
                                let _ = tx.send((qidx, r.records));
                            }
                            Err(e) => {
                                log.failed += 1;
                                eprintln!("perfbench: {name} request {i} failed: {e}");
                            }
                        }
                    }
                    log.ended = Some(Instant::now());
                    log
                })
            })
            .collect();
        drop(tx);
        let logs: Vec<SenderLog> = senders
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect();
        let wrong = verifier.join().expect("verifier thread panicked");
        (logs, wrong)
    });
    let ended = logs.iter().filter_map(|l| l.ended).max().unwrap_or(t0);
    let elapsed = ended.saturating_duration_since(t0).as_secs_f64().max(1e-9);
    let mut out = RungResult {
        name: name.to_owned(),
        rate,
        secs,
        offered,
        elapsed_s: elapsed,
        ..RungResult::default()
    };
    for log in logs {
        out.latency_ms.extend(log.latency_ms);
        out.lag_ms.extend(log.lag_ms);
        out.replies.extend(log.replies);
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.unsent += log.unsent;
    }
    out.failed += wrong;
    out.succeeded = out.replies.len() - wrong;
    out
}

/// Closed-loop capacity probe: `conns` connections send back to back for
/// `secs` seconds; returns answers per second.
pub fn probe_capacity(addr: &str, conns: usize, queries: &[Cuboid], seed: u64, secs: f64) -> f64 {
    let stop = Instant::now() + Duration::from_secs_f64(secs);
    let started = Instant::now();
    let done: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ c as u64);
                    let mut client =
                        Client::connect_with(addr, ClientConfig::default()).expect("connect");
                    let mut n = 0usize;
                    while Instant::now() < stop {
                        if client.query(&queries[rng.below(queries.len())]).is_ok() {
                            n += 1;
                        }
                    }
                    n
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum()
    });
    done as f64 / started.elapsed().as_secs_f64()
}
