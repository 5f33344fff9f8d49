//! The `api_mixed` workload: the v1 HTTP API under an open-loop mix of
//! entity-scoped OS reads and proposal writes.
//!
//! One `ApiServer` (default `ServerConfig`) serves storage seeded with the
//! OS of a ~20K-variable fabric. No control rounds run. One generator process drives [`CONNS`] keep-alive
//! connections, pipelining requests at their scheduled (Poisson) times, at
//! each rate of a fixed ladder. Every request is timed from when it was
//! due, so a stall is charged to the requests queued behind it; how late
//! the generator sent each request (its lag) is reported per rung.

use crate::checks::{self, Checks};
use crate::metrics;
use crate::report::{self, Json, Metrics};
use crate::stats::{median, ratio, Summary};
use crate::system::{self, System, Workload};
use crate::trace::Tracer;
use crate::{Opts, Outcome, SETUP_REPEATS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use statesman_httpapi::http::{encode_component, read_response_buffered};
use statesman_httpapi::{ApiServer, ServerConfig};
use statesman_obs::{Gauge, Obs};
use statesman_storage::{ReadRequest, WriteRequest};
use statesman_types::{
    AppId, Attribute, EntityName, Freshness, NetworkState, Pool, SimTime, StateKey, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Offered rates of the ladder, requests/s, in the order they run.
const RATES: &[f64] = &[200.0, 400.0, 800.0, 1600.0];
/// The rate the end-to-end latencies are reported at: the lowest rung,
/// well below the knee on a 2-CPU host, so the reference measures the
/// cost of a request rather than queueing that amplifies host noise.
const REFERENCE_RATE: f64 = 200.0;
/// Share of `--seconds` the reference rung runs; the other rungs split
/// the rest.
const REFERENCE_SHARE: f64 = 0.5;
/// Keep-alive connections the generator drives.
const CONNS: usize = 2;
/// Requests in flight per connection before the generator waits (kept
/// well under the server's ready-queue bound, so overload shows as
/// generator lag instead of sheds).
const MAX_IN_FLIGHT: usize = 32;
/// Tail latency limit for a rung to count as meeting the SLO, ms.
const SLO_MS: f64 = 20.0;
/// A rung's lag grows when its last quarter's median lag exceeds its
/// first quarter's by more than this, ms.
const LAG_GROWTH_MS: f64 = 2.0;
/// A generator this far behind its schedule gives up on the rung; the
/// requests it has not sent are the rung's backlog.
const MAX_LAG: Duration = Duration::from_secs(1);
/// How long the generator waits for an answer before counting the
/// request (and every one pipelined behind it) as failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);
/// Share of requests that are reads.
const READ_SHARE: f64 = 0.8;
/// An untimed, read-only warm-up before the ladder (fills the
/// bounded-stale cache and the server's lazily built state).
const WARM_UP: (f64, f64) = (400.0, 0.5);
/// Application identities that write proposals.
const APPS: [&str; 2] = ["api-app-1", "api-app-2"];
/// Every this-many-th read has its rows checked.
const CHECK_EVERY: u64 = 8;

/// What a request does.
#[derive(Debug, Clone)]
enum Op {
    Read {
        entity: EntityName,
        freshness: Freshness,
    },
    Write {
        app: AppId,
        rows: Vec<NetworkState>,
    },
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Request {
    id: u64,
    /// When it is due, from the rung's start.
    due: Duration,
    conn: usize,
    op: Op,
    bytes: Vec<u8>,
}

impl Request {
    fn is_read(&self) -> bool {
        matches!(self.op, Op::Read { .. })
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
struct Answer {
    sent: Option<Duration>,
    done: Option<Duration>,
    status: u16,
}

impl Answer {
    fn ok(&self) -> bool {
        self.done.is_some() && (200..300).contains(&self.status)
    }
}

/// The fabric's entities: reads pick any; writes from connection `c`
/// touch only entities whose index is `c` modulo [`CONNS`], so all writes
/// to one key travel in order on one connection.
struct Fabric {
    entities: Vec<EntityName>,
}

/// Build a rung's schedule: Poisson arrivals at `rate` for `secs`, a
/// `read_share` of them reads.
fn schedule(
    fabric: &Fabric,
    seed: u64,
    rung: usize,
    (rate, secs): (f64, f64),
    read_share: f64,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xA91_u64 << 20) ^ rung as u64);
    let now = SimTime::ZERO;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= secs {
            break;
        }
        let id = (rung as u64) << 32 | out.len() as u64;
        let conn = rng.gen_range(0..CONNS);
        let op = if rng.gen_bool(read_share) {
            Op::Read {
                entity: fabric.entities[rng.gen_range(0..fabric.entities.len())].clone(),
                freshness: if rng.gen_bool(0.5) {
                    Freshness::UpToDate
                } else {
                    Freshness::BoundedStale
                },
            }
        } else {
            let app = AppId::new(APPS[rng.gen_range(0..APPS.len())]);
            let n = rng.gen_range(1..=8usize);
            let mut rows: BTreeMap<StateKey, Value> = BTreeMap::new();
            for k in 0..n {
                // Entities `conn`, `conn + CONNS`, ... belong to this
                // connection.
                let slots = (fabric.entities.len() - conn).div_ceil(CONNS);
                let entity = fabric.entities[rng.gen_range(0..slots) * CONNS + conn].clone();
                let (attribute, value) = match entity.as_device() {
                    Some(_) => (
                        Attribute::DeviceFirmwareVersion,
                        Value::text(format!("fw-{id:x}-{k}")),
                    ),
                    None => (Attribute::LinkAdminPower, Value::power(rng.gen_bool(0.5))),
                };
                rows.insert(StateKey::new(entity, attribute), value);
            }
            let rows = rows
                .into_iter()
                .map(|(k, v)| NetworkState::new(k.entity, k.attribute, v, now, app.clone()))
                .collect();
            Op::Write { app, rows }
        };
        let bytes = encode(&op);
        out.push(Request {
            id,
            due: Duration::from_secs_f64(t),
            conn,
            op,
            bytes,
        });
    }
    out
}

/// The request's wire bytes, as `ApiClient` would send them but ready to
/// pipeline.
fn encode(op: &Op) -> Vec<u8> {
    match op {
        Op::Read { entity, freshness } => format!(
            "GET /v1/read?Datacenter={}&Pool=OS&Freshness={}&Entity={} HTTP/1.1\r\n\
             host: statesman\r\ncontent-length: 0\r\n\r\n",
            encode_component(entity.datacenter.as_str()),
            encode_component(freshness.wire_name()),
            encode_component(&entity.wire_name()),
        )
        .into_bytes(),
        Op::Write { app, rows } => {
            let body = serde_json::to_vec(rows).expect("rows serialize");
            let mut out = format!(
                "POST /v1/write?Pool={} HTTP/1.1\r\nhost: statesman\r\ncontent-length: {}\r\n\
                 x-statesman-app: {}\r\n\r\n",
                encode_component(&Pool::Proposed(app.clone()).wire_name()),
                body.len(),
                app.as_str(),
            )
            .into_bytes();
            out.extend(body);
            out
        }
    }
}

/// Counts requests in flight on one connection.
struct InFlight {
    n: Mutex<usize>,
    cv: Condvar,
}

impl InFlight {
    /// Wait for a free slot until `deadline`; false when it passed.
    fn acquire(&self, deadline: Instant) -> bool {
        let mut n = self.n.lock().expect("in-flight lock poisoned");
        while *n >= MAX_IN_FLIGHT {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            n = self
                .cv
                .wait_timeout(n, deadline - now)
                .expect("in-flight lock poisoned")
                .0;
        }
        *n += 1;
        true
    }

    fn release(&self) {
        *self.n.lock().expect("in-flight lock poisoned") -= 1;
        self.cv.notify_one();
    }
}

/// A request's index, its answer, and its entity-read check (if sampled).
type Received = (usize, Answer, Option<Result<(), String>>);

/// What one rung produced.
struct Rung {
    rate: f64,
    secs: f64,
    requests: Vec<Request>,
    answers: Vec<Answer>,
    /// Requests never sent because the generator fell more than
    /// [`MAX_LAG`] behind.
    backlog: usize,
    /// Failed entity-read checks.
    read_check_failures: Vec<String>,
    read_checks: u64,
}

/// Drive one rung's schedule over fresh keep-alive connections.
/// `queue_depth` (traced runs) is sampled at every send.
fn run_rung(
    addr: SocketAddr,
    rate: f64,
    secs: f64,
    requests: Vec<Request>,
    queue_depth: Option<(&Gauge, &AtomicI64)>,
) -> Result<Rung, String> {
    let mut answers = vec![Answer::default(); requests.len()];
    let mut backlog = 0;
    let mut read_check_failures = Vec::new();
    let mut read_checks = 0;
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        // A server that stops answering fails its requests instead of
        // hanging the run.
        stream
            .set_read_timeout(Some(ANSWER_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        conns.push((stream, reader));
    }
    // Start a little in the future so every thread is waiting on time.
    let origin = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (c, (mut stream, mut reader)) in conns.into_iter().enumerate() {
            let mine: Vec<usize> = (0..requests.len())
                .filter(|&i| requests[i].conn == c)
                .collect();
            let requests = &requests;
            let slots = InFlight {
                n: Mutex::new(0),
                cv: Condvar::new(),
            };
            let (tx, rx) = mpsc::channel::<(usize, Duration)>();
            handles.push(s.spawn(move || {
                std::thread::scope(|s2| {
                    let slots = &slots;
                    let sender = s2.spawn(move || {
                        let mut unsent = 0;
                        for (k, &i) in mine.iter().enumerate() {
                            let due = origin + requests[i].due;
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let give_up = due + MAX_LAG;
                            if Instant::now() > give_up || !slots.acquire(give_up) {
                                unsent = mine.len() - k;
                                break;
                            }
                            if let Some((g, max)) = queue_depth {
                                max.fetch_max(g.get(), Ordering::Relaxed);
                            }
                            let sent = Instant::now() - origin;
                            if stream.write_all(&requests[i].bytes).is_err() {
                                slots.release();
                                unsent = mine.len() - k;
                                break;
                            }
                            if tx.send((i, sent)).is_err() {
                                break;
                            }
                        }
                        unsent
                    });
                    let mut got: Vec<Received> = Vec::new();
                    // After a failed read the stream is out of step with
                    // the requests; everything still in flight fails.
                    let mut broken = false;
                    for (i, sent) in rx {
                        let resp = if broken {
                            None
                        } else {
                            read_response_buffered(&mut reader).ok()
                        };
                        broken = resp.is_none();
                        let done = Instant::now() - origin;
                        slots.release();
                        let mut answer = Answer {
                            sent: Some(sent),
                            done: None,
                            status: 0,
                        };
                        let mut check = None;
                        if let Some(r) = resp {
                            answer.done = Some(done);
                            answer.status = r.status;
                            if let Op::Read { entity, .. } = &requests[i].op {
                                if requests[i].id.is_multiple_of(CHECK_EVERY) && r.status == 200 {
                                    let rows: Vec<NetworkState> =
                                        serde_json::from_slice(&r.body).unwrap_or_default();
                                    check = Some(checks::entity_rows_only(entity, &rows));
                                }
                            }
                        }
                        got.push((i, answer, check));
                    }
                    let unsent = sender.join().expect("sender thread panicked");
                    (got, unsent)
                })
            }));
        }
        for h in handles {
            let (got, unsent) = h.join().expect("connection thread panicked");
            backlog += unsent;
            for (i, answer, check) in got {
                answers[i] = answer;
                if let Some(c) = check {
                    read_checks += 1;
                    if let Err(e) = c {
                        read_check_failures.push(e);
                    }
                }
            }
        }
    });
    Ok(Rung {
        rate,
        secs,
        requests,
        answers,
        backlog,
        read_check_failures,
        read_checks,
    })
}

/// Latency (ms, from due time) of every answered 2xx request of a kind.
fn latencies(rung: &Rung, reads: bool) -> Vec<f64> {
    rung.requests
        .iter()
        .zip(&rung.answers)
        .filter(|(r, a)| r.is_read() == reads && a.ok())
        .map(|(r, a)| (a.done.expect("ok answers are done") - r.due).as_secs_f64() * 1e3)
        .collect()
}

/// Generator lag (ms) of every sent request, in due order.
fn lags(rung: &Rung) -> Vec<f64> {
    rung.requests
        .iter()
        .zip(&rung.answers)
        .filter_map(|(r, a)| a.sent.map(|s| s.saturating_sub(r.due).as_secs_f64() * 1e3))
        .collect()
}

/// A rung's figures.
struct RungStats {
    reads: Summary,
    writes: Summary,
    lag: Summary,
    lag_growth_ms: f64,
    attempted: u64,
    failed: u64,
    meets_slo: bool,
}

fn rung_stats(rung: &Rung) -> RungStats {
    let reads = Summary::of(&latencies(rung, true));
    let writes = Summary::of(&latencies(rung, false));
    let lag_v = lags(rung);
    let q = lag_v.len() / 4;
    let lag_growth_ms = if q == 0 {
        0.0
    } else {
        median(&lag_v[lag_v.len() - q..]) - median(&lag_v[..q])
    };
    let attempted = rung.answers.iter().filter(|a| a.sent.is_some()).count() as u64;
    let failed = rung
        .answers
        .iter()
        .filter(|a| a.sent.is_some() && !a.ok())
        .count() as u64;
    RungStats {
        reads,
        writes,
        lag: Summary::of(&lag_v),
        lag_growth_ms,
        attempted,
        failed,
        meets_slo: failed == 0
            && rung.backlog == 0
            && reads.tail <= SLO_MS
            && writes.tail <= SLO_MS
            && lag_growth_ms <= LAG_GROWTH_MS,
    }
}

fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("p50_ms", Json::Num(s.p50)),
        ("tail_ms", Json::Num(s.tail)),
        ("tail_percentile", Json::Num(s.tail_pct)),
        ("samples", Json::Int(s.n as i64)),
        ("beyond", Json::Int(s.beyond as i64)),
    ])
}

fn rung_json(rung: &Rung, st: &RungStats) -> Json {
    Json::obj([
        ("offered_rps", Json::Num(rung.rate)),
        ("seconds", Json::Num(rung.secs)),
        ("scheduled", Json::Int(rung.requests.len() as i64)),
        ("attempted", Json::Int(st.attempted as i64)),
        ("failed", Json::Int(st.failed as i64)),
        ("backlog", Json::Int(rung.backlog as i64)),
        ("read", summary_json(&st.reads)),
        ("write", summary_json(&st.writes)),
        ("lag", summary_json(&st.lag)),
        ("lag_growth_ms", Json::Num(st.lag_growth_ms)),
        ("meets_slo", Json::Bool(st.meets_slo)),
    ])
}

/// A system plus its server, torn down in order.
struct Served {
    sys: System,
    server: ApiServer,
    setup_s: f64,
}

impl Served {
    fn start(opts: &Opts, obs: Option<Obs>) -> Result<Served, String> {
        let t = Instant::now();
        let sys = system::build(Workload::ApiMixed, opts.scale, opts.seed, obs.clone())
            .map_err(|e| e.to_string())?;
        let server =
            ApiServer::start_with_config(sys.storage.clone(), ServerConfig::default(), obs)
                .map_err(|e| e.to_string())?;
        Ok(Served {
            setup_s: t.elapsed().as_secs_f64(),
            sys,
            server,
        })
    }

    fn stop(self) {
        let Served {
            sys, mut server, ..
        } = self;
        server.shutdown();
        drop(server);
        drop(sys);
    }
}

/// The fabric's device and link entities, in graph order.
fn fabric(sys: &System) -> Fabric {
    let mut entities: Vec<EntityName> = sys
        .graph
        .nodes()
        .map(|(_, n)| EntityName::device(n.datacenter.clone(), n.name.clone()))
        .collect();
    entities.extend(
        sys.graph
            .edges()
            .map(|(_, e)| EntityName::link_named(e.datacenter.clone(), e.name.clone())),
    );
    Fabric { entities }
}

/// Seconds each rung runs for.
fn rung_secs(seconds: f64) -> Vec<f64> {
    let other = seconds * (1.0 - REFERENCE_SHARE) / (RATES.len() - 1) as f64;
    RATES
        .iter()
        .map(|&r| {
            if r == REFERENCE_RATE {
                seconds * REFERENCE_SHARE
            } else {
                other
            }
        })
        .collect()
}

fn reference_rung() -> usize {
    RATES
        .iter()
        .position(|&r| r == REFERENCE_RATE)
        .expect("the reference rate is on the ladder")
}

/// Every acknowledged write is readable at the end, every partition's WAL
/// chain verifies, and the sampled entity reads held only their entity.
fn final_checks(served: &Served, rungs: &[Rung], checks: &mut Checks) {
    // Expected value per (pool, key): the last acknowledged write, in
    // per-connection send order (all writes to a key share a connection).
    let mut expected: BTreeMap<(String, StateKey), Value> = BTreeMap::new();
    let mut unknown: BTreeSet<(String, StateKey)> = BTreeSet::new();
    for rung in rungs {
        for (r, a) in rung.requests.iter().zip(&rung.answers) {
            let Op::Write { app, rows } = &r.op else {
                continue;
            };
            if a.sent.is_none() {
                continue;
            }
            let pool = Pool::Proposed(app.clone()).wire_name().into_owned();
            for row in rows {
                let k = (pool.clone(), row.key());
                if a.ok() {
                    unknown.remove(&k);
                    expected.insert(k, row.value.clone());
                } else {
                    // Sent but unanswered or refused: its effect is unknown.
                    expected.remove(&k);
                    unknown.insert(k);
                }
            }
        }
    }
    let mut stored: BTreeMap<(String, StateKey), Value> = BTreeMap::new();
    let dcs = served.sys.storage.partitions();
    for app in APPS {
        let pool = Pool::Proposed(AppId::new(app));
        for dc in &dcs {
            let req = ReadRequest {
                datacenter: dc.clone(),
                pool: pool.clone(),
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            };
            match served.sys.storage.read(req) {
                Ok(rows) => {
                    for row in rows {
                        stored.insert((pool.wire_name().into_owned(), row.key()), row.value);
                    }
                }
                Err(e) => checks.note("acked_writes_readable", Err(format!("read {pool}: {e}"))),
            }
        }
    }
    checks.note(
        "acked_writes_readable",
        checks::acked_writes_visible(&expected, &stored),
    );
    let chains: Vec<(String, Result<u64, String>)> = dcs
        .iter()
        .map(|dc| (dc.to_string(), served.sys.storage.verify_wal_chains(dc)))
        .collect();
    checks.note("wal_chains_verify", checks::wal_chains(&chains));
    for rung in rungs {
        let outcome = match rung.read_check_failures.first() {
            None => Ok(()),
            Some(first) => Err(format!(
                "{} of {} sampled reads, e.g. {first}",
                rung.read_check_failures.len(),
                rung.read_checks
            )),
        };
        checks.note("entity_reads_scoped", outcome);
    }
}

/// Run the untimed warm-up; any failed request fails the run.
fn warm_up(served: &Served, fab: &Fabric, seed: u64) -> Result<(), String> {
    let reqs = schedule(fab, seed, RATES.len(), WARM_UP, 1.0);
    let rung = run_rung(served.server.addr(), WARM_UP.0, WARM_UP.1, reqs, None)?;
    let bad = rung.answers.iter().filter(|a| !a.ok()).count();
    if bad == 0 {
        Ok(())
    } else {
        Err(format!("{bad} warm-up requests failed"))
    }
}

/// The `api_mixed` workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut detail = Vec::new();

    let served = Served::start(opts, None)?;
    let mut setups = vec![served.setup_s];
    let fab = fabric(&served.sys);
    warm_up(&served, &fab, opts.seed)?;
    let secs = rung_secs(opts.seconds);
    let mut rungs = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        let reqs = schedule(&fab, opts.seed, i, (rate, secs[i]), READ_SHARE);
        rungs.push(run_rung(served.server.addr(), rate, secs[i], reqs, None)?);
    }
    final_checks(&served, &rungs, &mut checks);
    served.stop();
    let peak_rss_mb = system::peak_rss_mb();
    // More set-ups for `setup_s`, after the peak RSS is read.
    if !opts.trace {
        for _ in 1..SETUP_REPEATS {
            let again = Served::start(opts, None)?;
            setups.push(again.setup_s);
            again.stop();
        }
    }

    let stats: Vec<RungStats> = rungs.iter().map(rung_stats).collect();
    let reference = &stats[reference_rung()];
    let max_rate = RATES
        .iter()
        .zip(&stats)
        .filter(|(_, s)| s.meets_slo)
        .map(|(r, _)| *r)
        .fold(0.0, f64::max);
    let attempted: u64 = stats.iter().map(|s| s.attempted).sum();
    let failed: u64 = stats.iter().map(|s| s.failed).sum();
    let setup_s = median(&setups);
    metrics.put("setup_s", setup_s, "s");
    metrics.put("p50_ms", reference.reads.p50, "ms");
    metrics.put("write_p50_ms", reference.writes.p50, "ms");
    metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
    let named = [
        ("read_p50_ms", reference.reads.p50, "ms"),
        ("read_tail_ms", reference.reads.tail, "ms"),
        ("write_p50_ms", reference.writes.p50, "ms"),
        ("write_tail_ms", reference.writes.tail, "ms"),
        ("max_rate_under_slo_rps", max_rate, "1/s"),
        (
            "failed_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("setup_s", setup_s, "s"),
    ];
    detail.push((
        "setup_s_samples".to_string(),
        Json::Arr(setups.iter().map(|s| Json::Num(*s)).collect()),
    ));
    detail.push((
        "end_to_end".to_string(),
        Json::obj([
            (
                "metrics",
                Json::Obj(
                    named
                        .iter()
                        .map(|(n, v, u)| (n.to_string(), report::value_unit(Json::Num(*v), u)))
                        .collect(),
                ),
            ),
            ("reference_rps", Json::Num(REFERENCE_RATE)),
            ("slo_tail_ms", Json::Num(SLO_MS)),
            (
                "ladder",
                Json::Arr(
                    rungs
                        .iter()
                        .zip(&stats)
                        .map(|(r, s)| rung_json(r, s))
                        .collect(),
                ),
            ),
        ]),
    ));

    let (mut attempted, mut failed) = (attempted, failed);
    if opts.trace {
        let (a, f) = traced(
            opts,
            &fab,
            &rungs[reference_rung()],
            reference,
            &mut metrics,
            &mut detail,
            &mut checks,
        )?;
        attempted += a;
        failed += f;
    }
    Ok(Outcome {
        metrics,
        detail,
        checks,
        attempted,
        failed,
    })
}

/// The traced pass: the reference rung again with the server's `Obs`
/// attached and a span per request, then the same requests replayed
/// straight into `StorageService` on a fresh system.
#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    fab: &Fabric,
    untraced: &Rung,
    untraced_stats: &RungStats,
    m: &mut Metrics,
    detail: &mut Vec<(String, Json)>,
    checks: &mut Checks,
) -> Result<(u64, u64), String> {
    let put = |m: &mut Metrics, name: &str, v: f64| m.put(name, v, metrics::unit(name));
    let i = reference_rung();
    let obs = Obs::new();
    let served = Served::start(opts, Some(obs.clone()))?;
    let reg = &obs.registry;
    let wal0 = served.sys.storage.wal_stats();
    let (writes0, rows0) = (
        reg.counter("storage_writes_total").get(),
        reg.counter("storage_rows_written_total").get(),
    );
    let (delta0, retries0) = (
        served.sys.storage.delta_stats(),
        served.sys.storage.retry_stats(),
    );
    let resolutions0 = statesman_types::key_resolutions();
    let depth = reg.gauge("httpapi_queue_depth");
    let depth_max = AtomicI64::new(0);
    warm_up(&served, fab, opts.seed)?;
    let reqs = schedule(
        fab,
        opts.seed,
        i,
        (untraced.rate, untraced.secs),
        READ_SHARE,
    );
    let rung = run_rung(
        served.server.addr(),
        untraced.rate,
        untraced.secs,
        reqs,
        Some((&depth, &depth_max)),
    )?;
    let st = rung_stats(&rung);

    // Spans: request = generator lag + HTTP call, timed from due.
    let mut tr = Tracer::new();
    let origin = Instant::now();
    for (r, a) in rung.requests.iter().zip(&rung.answers) {
        let (Some(sent), Some(done)) = (a.sent, a.done) else {
            continue;
        };
        let at = |d: Duration| origin + d;
        let name = if r.is_read() { "api.read" } else { "api.write" };
        let root = tr.record(name, r.id, None, at(r.due), at(done));
        tr.record("loadgen.lag", r.id, Some(root), at(r.due), at(sent));
        tr.record("httpapi.call", r.id, Some(root), at(sent), at(done));
    }

    let wal1 = served.sys.storage.wal_stats();
    let (delta1, retries1) = (
        served.sys.storage.delta_stats(),
        served.sys.storage.retry_stats(),
    );
    metrics::wal_layer(
        (
            wal1.appends - wal0.appends,
            wal1.fsyncs - wal0.fsyncs,
            wal1.bytes_written - wal0.bytes_written,
        ),
        reg.counter("storage_writes_total").get() - writes0,
        reg.counter("storage_rows_written_total").get() - rows0,
        m,
    );
    metrics::storage_layer(
        &served.sys.storage,
        (delta1.0 - delta0.0, delta1.1 - delta0.1),
        (retries1.0 - retries0.0, retries1.1 - retries0.1),
        m,
    );
    metrics::setup_layer(&served.sys.setup, m);
    put(
        m,
        "types.key_resolutions",
        (statesman_types::key_resolutions() - resolutions0) as f64,
    );
    let http_writes = rung
        .requests
        .iter()
        .zip(&rung.answers)
        .filter(|(r, a)| !r.is_read() && a.ok())
        .count() as f64;
    let requests = rung.answers.iter().filter(|a| a.done.is_some()).count() as f64;
    let batches = reg.counter("httpapi_write_batches_total").get() as f64;
    let coalesced = reg.counter("httpapi_writes_coalesced_total").get() as f64;
    put(m, "httpapi.write_batches", batches);
    put(m, "httpapi.writes_coalesced", coalesced);
    put(m, "httpapi.coalesce_ratio", ratio(coalesced, http_writes));
    put(
        m,
        "httpapi.sheds",
        reg.counter_sum("httpapi_sheds_total") as f64,
    );
    put(
        m,
        "httpapi.io_timeouts",
        reg.counter("httpapi_io_timeouts_total").get() as f64,
    );
    put(
        m,
        "httpapi.bytes_sent_per_req",
        ratio(
            reg.counter("httpapi_bytes_sent_total").get() as f64,
            requests,
        ),
    );
    put(
        m,
        "httpapi.bytes_received_per_req",
        ratio(
            reg.counter("httpapi_bytes_received_total").get() as f64,
            requests,
        ),
    );
    put(
        m,
        "httpapi.queue_depth_max",
        depth_max.load(Ordering::Relaxed) as f64,
    );
    put(m, "loadgen.lag_tail_ms", st.lag.tail);
    put(m, "loadgen.offered_rps", rung.rate);
    put(m, "loadgen.backlog", rung.backlog as f64);
    put(
        m,
        "trace.overhead_p50_ms",
        st.reads.p50 - untraced_stats.reads.p50,
    );
    final_checks(&served, std::slice::from_ref(&rung), checks);
    let gap = tr.worst_closure_gap_ms();
    checks.note(
        "span_closure",
        if gap < 1e-6 {
            Ok(())
        } else {
            Err(format!("children miss their parent by {gap} ms"))
        },
    );
    served.stop();

    // Replay the same requests straight into storage, one at a time.
    let fresh = Served::start(opts, None)?;
    let mut storage_read = Vec::new();
    let mut storage_write = Vec::new();
    let mut replay_failed = 0u64;
    for r in &rung.requests {
        let t = Instant::now();
        let ok = match &r.op {
            Op::Read { entity, freshness } => fresh
                .sys
                .storage
                .read(ReadRequest {
                    datacenter: entity.datacenter.clone(),
                    pool: Pool::Observed,
                    freshness: *freshness,
                    entity: Some(entity.clone()),
                    attribute: None,
                })
                .is_ok(),
            Op::Write { app, rows } => fresh
                .sys
                .storage
                .write(WriteRequest {
                    pool: Pool::Proposed(app.clone()),
                    rows: rows.clone(),
                })
                .is_ok(),
        };
        let end = Instant::now();
        let name = if r.is_read() {
            "storage.read"
        } else {
            "storage.write"
        };
        tr.record(name, r.id, None, t, end);
        let ms = (end - t).as_secs_f64() * 1e3;
        if !ok {
            replay_failed += 1;
        } else if r.is_read() {
            storage_read.push(ms);
        } else {
            storage_write.push(ms);
        }
    }
    fresh.stop();
    let (sr, sw) = (median(&storage_read), median(&storage_write));
    put(m, "storage.read_ms", sr);
    put(m, "storage.write_ms", sw);
    put(m, "httpapi.read_overhead_ms", st.reads.p50 - sr);
    put(m, "httpapi.write_overhead_ms", st.writes.p50 - sw);
    detail.push(("traced".to_string(), rung_json(&rung, &st)));
    detail.push((
        "spans".to_string(),
        crate::write_spans(&tr, Workload::ApiMixed, opts.seed),
    ));
    Ok((
        st.attempted + rung.requests.len() as u64,
        st.failed + replay_failed,
    ))
}
