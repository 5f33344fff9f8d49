//! The control-loop workloads: `telemetry_churn` and `proposal_storm`.
//!
//! A round is one simulated minute. The simulator is stepped first
//! (`SimNetwork::step`, timed on its own and never part of the round),
//! then the round runs: the applications' `propose` calls,
//! `Coordinator::tick`, and the applications' `take_receipts` calls. The
//! round's host time is the wall time of exactly those calls.

use crate::checks::{self, Checks, Fnv};
use crate::metrics;
use crate::report::{self, Json, Metrics};
use crate::stats::{median, ratio, Summary};
use crate::system::{self, Scale, Setup, System, Workload};
use crate::trace::{SpanId, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use statesman_core::{RoundReport, StatesmanClient};
use statesman_obs::Obs;
use statesman_storage::WalStats;
use statesman_topology::graph::components;
use statesman_topology::{HealthView, NetworkGraph};
use statesman_types::{
    Attribute, DatacenterId, DeviceRole, EntityName, Pool, SimDuration, StateKey, Value,
    WriteReceipt,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Proposing applications in `proposal_storm`.
const APPS: usize = 4;
/// Rows each application proposes per round.
const ROWS_PER_APP: usize = 64;
/// Firmware versions applications ask for (the first is what the
/// simulator installs, so some proposals are already satisfied).
const FIRMWARE: &[&str] = &["6.0.3", "7.0.1", "7.1.0"];

/// How long a pass runs.
#[derive(Debug, Clone)]
pub enum Budget {
    /// Until this many seconds have passed: `telemetry_churn` runs one
    /// episode of rounds (at least the scale's `count_rounds`);
    /// `proposal_storm` runs whole episodes (at least [`MIN_EPISODES`]).
    Seconds(f64),
    /// Exactly these episodes, each with this many rounds (the traced pass
    /// repeats the untraced pass's shape so their decisions compare).
    Shape(Vec<usize>),
}

/// Rounds in one `proposal_storm` episode. Each episode starts from a
/// freshly built, healthy fabric: left alone, the storm drives the fabric
/// into a state where the invariants reject nearly every proposal and the
/// round cost collapses, at a round that differs from seed to seed.
/// Fixed-length episodes keep every run measuring the same phase.
pub const EPISODE_ROUNDS: usize = 12;

/// Episodes a `proposal_storm` pass runs at least (each is one set-up, so
/// `setup_s` is always a median of several).
pub const MIN_EPISODES: usize = 3;

/// Rounds every pass runs at least, and the prefix over which counts are
/// summed (so counts repeat exactly for a seed, whatever the host speed).
fn count_rounds(w: Workload, scale: Scale) -> usize {
    match (w, scale) {
        (Workload::ProposalStorm, _) => EPISODE_ROUNDS,
        (_, Scale::Full) => 8,
        (_, Scale::Tiny) => 3,
    }
}

/// One measured round.
pub struct RoundRecord {
    /// Host ms of the round: propose calls + tick + receipt calls.
    pub wall_ms: f64,
    /// Host ms of each `StatesmanClient::propose` call.
    pub propose_ms: Vec<f64>,
    /// The tick's report.
    pub report: RoundReport,
    /// Partition-lock wait during the round, µs.
    pub lock_wait_us: u64,
    /// Digest of the round's decisions.
    pub digest: u64,
}

/// Cumulative counters sampled around a pass.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    wal: (u64, u64, u64),
    retries: (u64, u64),
    delta: (u64, u64),
    commands: (u64, u64),
    key_resolutions: u64,
    storage_writes: u64,
    storage_rows: u64,
    full_degrades: u64,
}

impl Counters {
    fn sample(sys: &System, obs: Option<&Obs>) -> Counters {
        let w: WalStats = sys.storage.wal_stats();
        let (d, f, _) = sys.storage.delta_stats();
        let counter = |name: &str| {
            obs.and_then(|o| o.registry.counter_value(name))
                .unwrap_or(0)
        };
        Counters {
            wal: (w.appends, w.fsyncs, w.bytes_written),
            retries: sys.storage.retry_stats(),
            delta: (d, f),
            commands: sys.net.command_stats(),
            key_resolutions: statesman_types::key_resolutions(),
            storage_writes: counter("storage_writes_total"),
            storage_rows: counter("storage_rows_written_total"),
            full_degrades: counter("checker_full_degrades_total"),
        }
    }

    fn since(self, before: Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            wal: (
                d(self.wal.0, before.wal.0),
                d(self.wal.1, before.wal.1),
                d(self.wal.2, before.wal.2),
            ),
            retries: (
                d(self.retries.0, before.retries.0),
                d(self.retries.1, before.retries.1),
            ),
            delta: (
                d(self.delta.0, before.delta.0),
                d(self.delta.1, before.delta.1),
            ),
            commands: (
                d(self.commands.0, before.commands.0),
                d(self.commands.1, before.commands.1),
            ),
            key_resolutions: d(self.key_resolutions, before.key_resolutions),
            storage_writes: d(self.storage_writes, before.storage_writes),
            storage_rows: d(self.storage_rows, before.storage_rows),
            full_degrades: d(self.full_degrades, before.full_degrades),
        }
    }
}

/// One pass: every episode's rounds, in order.
pub struct Pass {
    /// Every round, in order.
    pub rounds: Vec<RoundRecord>,
    /// Rounds per episode.
    pub episodes: Vec<usize>,
    /// Each episode's set-up.
    pub setups: Vec<Setup>,
    /// Rounds after which the simulator's ground truth broke an
    /// installed invariant's promise, with an example each.
    pub unsafe_rounds: Vec<(usize, String)>,
    /// Operations attempted (ticks + client calls).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Counter deltas over the first `counted` rounds.
    counts: Counters,
    /// Rounds the counts cover: `count_rounds`, or every round of a pass
    /// that stopped short of it.
    counted: usize,
}

impl Pass {
    /// Per-round decision digests.
    pub fn digests(&self) -> Vec<u64> {
        self.rounds.iter().map(|r| r.digest).collect()
    }

    fn wall(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.wall_ms).collect()
    }
}

/// One pod's proposable entities: (devices, links).
type PodEntities = (Vec<EntityName>, Vec<EntityName>);

/// Seeded synthetic applications: firmware versions on pod devices and
/// `LinkAdminPower` on links, concentrated on one focus pod per DC each
/// round so the applications' keys overlap.
struct ProposalGen {
    rng: StdRng,
    /// Per DC, per pod.
    pods: Vec<Vec<PodEntities>>,
    wan_links: Vec<EntityName>,
}

impl ProposalGen {
    fn new(graph: &NetworkGraph, seed: u64) -> ProposalGen {
        let mut by_dc: BTreeMap<DatacenterId, BTreeMap<u32, PodEntities>> = BTreeMap::new();
        for (_, n) in graph.nodes() {
            if let Some(pod) = n.pod {
                by_dc
                    .entry(n.datacenter.clone())
                    .or_default()
                    .entry(pod)
                    .or_default()
                    .0
                    .push(EntityName::device(n.datacenter.clone(), n.name.clone()));
            }
        }
        let mut wan_links = Vec::new();
        for (_, e) in graph.edges() {
            let entity = EntityName::link_named(e.datacenter.clone(), e.name.clone());
            if e.datacenter.is_wan() {
                wan_links.push(entity);
                continue;
            }
            // A pod link has at least one pod endpoint (ToR–Agg, Agg–Core).
            let pod = graph.node(e.a).pod.or(graph.node(e.b).pod);
            if let Some(pod) = pod {
                by_dc
                    .entry(e.datacenter.clone())
                    .or_default()
                    .entry(pod)
                    .or_default()
                    .1
                    .push(entity);
            }
        }
        ProposalGen {
            rng: StdRng::seed_from_u64(seed ^ 0x005E_ED0F_A995),
            pods: by_dc
                .into_values()
                .map(|pods| pods.into_values().collect())
                .collect(),
            wan_links,
        }
    }

    /// One round's batches, one per application.
    fn round(&mut self) -> Vec<Vec<(EntityName, Attribute, Value)>> {
        let focus: Vec<usize> = self
            .pods
            .iter()
            .map(|pods| self.rng.gen_range(0..pods.len()))
            .collect();
        (0..APPS).map(|_| self.batch(&focus)).collect()
    }

    fn batch(&mut self, focus: &[usize]) -> Vec<(EntityName, Attribute, Value)> {
        let mut rows: BTreeMap<(EntityName, Attribute), Value> = BTreeMap::new();
        while rows.len() < ROWS_PER_APP {
            let rng = &mut self.rng;
            if !self.wan_links.is_empty() && rng.gen_bool(0.03) {
                let link = self.wan_links[rng.gen_range(0..self.wan_links.len())].clone();
                rows.insert(
                    (link, Attribute::LinkAdminPower),
                    Value::power(rng.gen_bool(0.5)),
                );
                continue;
            }
            let dc = rng.gen_range(0..self.pods.len());
            let pod = if rng.gen_bool(0.75) {
                focus[dc]
            } else {
                rng.gen_range(0..self.pods[dc].len())
            };
            let (devices, links) = &self.pods[dc][pod];
            if rng.gen_bool(0.5) {
                let d = devices[rng.gen_range(0..devices.len())].clone();
                let fw = FIRMWARE[rng.gen_range(0..FIRMWARE.len())];
                rows.insert((d, Attribute::DeviceFirmwareVersion), Value::text(fw));
            } else {
                let l = links[rng.gen_range(0..links.len())].clone();
                rows.insert(
                    (l, Attribute::LinkAdminPower),
                    Value::power(rng.gen_bool(0.5)),
                );
            }
        }
        rows.into_iter().map(|((e, a), v)| (e, a, v)).collect()
    }
}

/// Digest of everything a round decided: checker outcomes and receipts,
/// updater actions, monitor writes, and the receipts applications drained.
fn round_digest(report: &RoundReport, drained: &[Vec<WriteReceipt>]) -> u64 {
    let mut h = Fnv::default();
    for c in &report.checkers {
        h.put(&c.group)
            .put(c.proposals_seen)
            .put(c.accepted)
            .put(c.rejected)
            .put(c.already_satisfied)
            .put(c.ts_pruned)
            .put(c.quarantine_rejected)
            .put(c.variables_read);
        let mut receipts: Vec<String> = c
            .receipts
            .iter()
            .map(|r| {
                format!(
                    "{}|{}|{}|{}",
                    r.app,
                    r.key,
                    r.outcome.tag(),
                    r.proposed.render()
                )
            })
            .collect();
        receipts.sort();
        for r in receipts {
            h.put(r);
        }
    }
    let u = &report.updater;
    for v in [
        u.diffs,
        u.commands_applied,
        u.commands_failed,
        u.unrenderable,
        u.plan_steps,
        u.plan_waves,
        u.plan_max_width,
        u.plan_inflight_rejections,
        u.plan_rollbacks,
    ] {
        h.put(v);
    }
    let m = &report.monitor;
    h.put(u.sim_io.as_millis())
        .put(m.sim_io.as_millis())
        .put(m.devices_polled)
        .put(m.devices_unreachable)
        .put(m.rows_written)
        .put(m.writes_suppressed)
        .put(report.skipped_groups.join(","));
    for app in drained {
        h.put(app.len());
        for r in app {
            h.put(&r.key).put(r.outcome.tag());
        }
    }
    h.finish()
}

/// Ground truth after a round: every operational ToR must reach a core
/// or border router over links that are up, and every DC pair must keep
/// a usable WAN link — the promises the connectivity and WAN invariants
/// make. Returns one line per broken promise.
pub fn ground_truth_violations(sys: &System) -> Vec<String> {
    let graph = &sys.graph;
    let mut health = HealthView::all_up();
    for (_, n) in graph.nodes() {
        if !sys.net.device_operational(&n.name) {
            health.set_device_down(n.name.clone());
        }
    }
    for (_, e) in graph.edges() {
        if !sys.net.link_oper_up(&e.name) {
            health.set_link_down(e.name.clone());
        }
    }
    let mut out = Vec::new();
    for comp in components(graph, &health) {
        let reaches_core = comp
            .iter()
            .any(|id| matches!(graph.node(*id).role, DeviceRole::Core | DeviceRole::Border));
        if !reaches_core {
            for id in comp {
                let n = graph.node(id);
                if n.role == DeviceRole::ToR {
                    out.push(format!("{} is cut off from the core tier", n.name));
                }
            }
        }
    }
    let mut pairs: BTreeMap<(DatacenterId, DatacenterId), usize> = BTreeMap::new();
    for (_, e) in graph.edges() {
        if !e.datacenter.is_wan() {
            continue;
        }
        let (a, b) = (
            graph.node(e.a).datacenter.clone(),
            graph.node(e.b).datacenter.clone(),
        );
        let key = if a <= b { (a, b) } else { (b, a) };
        *pairs.entry(key).or_insert(0) += usize::from(health.link_usable(&e.name));
    }
    for ((a, b), usable) in pairs {
        if usable == 0 {
            out.push(format!("DC pair {a}–{b} has no usable WAN link"));
        }
    }
    out
}

/// Compare the OS rows of a seeded sample of devices and links with the
/// simulator's current values.
pub fn os_sample(
    sys: &System,
    seed: u64,
    per_kind: usize,
) -> Vec<(StateKey, Value, Option<Value>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05_C4EC);
    let nodes: Vec<_> = sys.graph.nodes().map(|(_, n)| n.clone()).collect();
    let edges: Vec<_> = sys.graph.edges().map(|(_, e)| e.clone()).collect();
    let read = |entity: &EntityName, attribute: Attribute| {
        sys.storage
            .read_row(&Pool::Observed, &StateKey::new(entity.clone(), attribute))
            .ok()
            .flatten()
            .map(|r| r.value)
    };
    let mut out = Vec::new();
    for _ in 0..per_kind.min(nodes.len()) {
        let n = &nodes[rng.gen_range(0..nodes.len())];
        let Some(d) = sys.net.device_snapshot(&n.name) else {
            continue;
        };
        let entity = EntityName::device(n.datacenter.clone(), n.name.clone());
        for (attribute, sim) in [
            (Attribute::DeviceAdminPower, Value::Power(d.admin_power)),
            (
                Attribute::DeviceFirmwareVersion,
                Value::text(d.observed_firmware()),
            ),
            (Attribute::DeviceCpuUtilization, Value::Float(d.cpu_util)),
            (Attribute::DeviceMemoryUtilization, Value::Float(d.mem_util)),
        ] {
            let os = read(&entity, attribute);
            out.push((StateKey::new(entity.clone(), attribute), sim, os));
        }
    }
    for _ in 0..per_kind.min(edges.len()) {
        let e = &edges[rng.gen_range(0..edges.len())];
        let Some(l) = sys.net.link_snapshot(&e.name) else {
            continue;
        };
        let entity = EntityName::link_named(e.datacenter.clone(), e.name.clone());
        for (attribute, sim) in [
            (Attribute::LinkAdminPower, Value::Power(l.admin_power)),
            (
                Attribute::LinkOperStatus,
                Value::oper(sys.net.link_oper_up(&e.name)),
            ),
        ] {
            let os = read(&entity, attribute);
            out.push((StateKey::new(entity.clone(), attribute), sim, os));
        }
    }
    out
}

/// The seed of episode `e`: the workload seed for the first, then a
/// deterministic derivation of it.
fn episode_seed(seed: u64, e: usize) -> u64 {
    seed.wrapping_add((e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run a loop workload: build a system per episode and run its rounds.
/// With a tracer, every call is recorded as a span and the tick is split
/// by its report's host-time stage fields. Returns the pass and the last
/// episode's system.
#[allow(clippy::too_many_arguments)]
pub fn run_pass(
    w: Workload,
    scale: Scale,
    seed: u64,
    budget: Budget,
    obs: Option<&Obs>,
    mut tracer: Option<&mut Tracer>,
    checks: &mut Checks,
) -> Result<(Pass, System), String> {
    let storm = w == Workload::ProposalStorm;
    let min_rounds = count_rounds(w, scale);
    let start = Instant::now();
    let secs_left = |s: f64| start.elapsed().as_secs_f64() < s;
    let mut pass = Pass {
        rounds: Vec::new(),
        episodes: Vec::new(),
        setups: Vec::new(),
        unsafe_rounds: Vec::new(),
        attempted: 0,
        failed: 0,
        counts: Counters::default(),
        counted: 0,
    };
    let mut last: Option<System> = None;
    loop {
        let e = pass.episodes.len();
        // Rounds this episode runs; `None` = until the time is up.
        let rounds: Option<usize> = match &budget {
            Budget::Shape(shape) => match shape.get(e) {
                Some(&n) => Some(n),
                None => break,
            },
            Budget::Seconds(s) if storm => {
                if e >= MIN_EPISODES && !secs_left(*s) {
                    break;
                }
                Some(EPISODE_ROUNDS)
            }
            Budget::Seconds(_) if e > 0 => break,
            Budget::Seconds(_) => None,
        };
        drop(last.take());
        let sys = system::build(w, scale, episode_seed(seed, e), obs.cloned())
            .map_err(|err| format!("episode {e} set-up: {err}"))?;
        pass.setups.push(sys.setup);
        let before = Counters::sample(&sys, obs);
        let apps: Vec<StatesmanClient> = if storm {
            (1..=APPS)
                .map(|i| {
                    StatesmanClient::new(format!("app-{i}"), sys.storage.clone(), sys.clock.clone())
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut gen = storm.then(|| ProposalGen::new(&sys.graph, episode_seed(seed, e)));
        let mut in_episode = 0;
        loop {
            let done = match (rounds, &budget) {
                (Some(n), _) => in_episode >= n,
                (None, Budget::Seconds(s)) => in_episode >= min_rounds && !secs_left(*s),
                (None, Budget::Shape(_)) => unreachable!("shaped episodes have a round count"),
            };
            if done {
                break;
            }
            let r = pass.rounds.len();
            let round_id = r as u64;

            // Advance the simulation one minute: device counters move and
            // the previous round's commands land. Not part of the round.
            let step_start = Instant::now();
            sys.net.step(SimDuration::from_mins(1));
            let step_end = Instant::now();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record("net.step", round_id, None, step_start, step_end);
            }
            if storm && in_episode > 0 {
                note_safety(&sys, r - 1, &mut pass);
            }

            let batches = gen.as_mut().map(|g| g.round()).unwrap_or_default();
            let lock_before = sys.storage.lock_wait_stats();
            let round_start = Instant::now();
            let mut propose_spans = Vec::with_capacity(apps.len());
            for (app, rows) in apps.iter().zip(batches) {
                let t = Instant::now();
                let res = app.propose(rows);
                propose_spans.push((t, Instant::now()));
                pass.attempted += 1;
                if let Err(err) = res {
                    pass.failed += 1;
                    checks.note("propose", Err(format!("round {r}: {err}")));
                }
            }
            let tick_start = Instant::now();
            let tick = sys.coord.tick();
            let tick_end = Instant::now();
            pass.attempted += 1;
            let report = match tick {
                Ok(rep) => rep,
                Err(err) => {
                    pass.failed += 1;
                    checks.note("tick", Err(format!("round {r}: {err}")));
                    break;
                }
            };
            let mut drained = Vec::with_capacity(apps.len());
            let mut receipt_spans = Vec::with_capacity(apps.len());
            for app in &apps {
                let t = Instant::now();
                let res = app.take_receipts();
                receipt_spans.push((t, Instant::now()));
                pass.attempted += 1;
                match res {
                    Ok(rs) => drained.push(rs),
                    Err(err) => {
                        pass.failed += 1;
                        checks.note("take_receipts", Err(format!("round {r}: {err}")));
                        drained.push(Vec::new());
                    }
                }
            }
            let round_end = Instant::now();
            let lock_wait_us = sys.storage.lock_wait_stats().saturating_sub(lock_before);

            for c in &report.checkers {
                checks.note(
                    "decisions_balance",
                    checks::decisions_balance(
                        &c.group,
                        c.proposals_seen,
                        c.accepted,
                        c.rejected,
                        c.already_satisfied,
                    ),
                );
            }
            if let Some(tr) = tracer.as_deref_mut() {
                let round = tr.record("round", round_id, None, round_start, round_end);
                for (a, b) in &propose_spans {
                    tr.record("client.propose", round_id, Some(round), *a, *b);
                }
                let tick_span = tr.record(
                    "coordinator.tick",
                    round_id,
                    Some(round),
                    tick_start,
                    tick_end,
                );
                split_tick(tr, tick_span, &report);
                for (a, b) in &receipt_spans {
                    tr.record("client.take_receipts", round_id, Some(round), *a, *b);
                }
                tr.close(round);
            }
            pass.rounds.push(RoundRecord {
                wall_ms: ms(round_start, round_end),
                propose_ms: propose_spans.iter().map(|(a, b)| ms(*a, *b)).collect(),
                digest: round_digest(&report, &drained),
                report,
                lock_wait_us,
            });
            in_episode += 1;
            if pass.rounds.len() == min_rounds {
                pass.counts = Counters::sample(&sys, obs).since(before);
                pass.counted = min_rounds;
            }
        }
        if storm && in_episode > 0 {
            // Let the episode's last commands land, then judge it too.
            sys.net.step(SimDuration::from_mins(1));
            note_safety(&sys, pass.rounds.len() - 1, &mut pass);
        }
        if pass.counted == 0 {
            pass.counts = Counters::sample(&sys, obs).since(before);
            pass.counted = pass.rounds.len();
        }
        pass.episodes.push(in_episode);
        last = Some(sys);
    }
    let sys = last.ok_or("the pass ran no episode")?;
    Ok((pass, sys))
}

fn note_safety(sys: &System, round: usize, pass: &mut Pass) {
    if let Some(first) = ground_truth_violations(sys).into_iter().next() {
        pass.unsafe_rounds.push((round, first));
    }
}

/// Split a tick span by the host-time fields its report carries: the
/// monitor (poll, diff, write), each checker pass, and the updater (read,
/// diff, exec). Each level is closed with its unattributed leaf.
fn split_tick(tr: &mut Tracer, tick: SpanId, report: &RoundReport) {
    let m = &report.monitor;
    let u = &report.updater;
    let mut parts: Vec<(&str, f64)> = vec![("monitor", dur_ms(m.elapsed))];
    parts.extend(
        report
            .checkers
            .iter()
            .map(|c| ("checker.pass", dur_ms(c.elapsed))),
    );
    parts.push(("updater", dur_ms(u.elapsed)));
    let ids = tr.derive_children(tick, &parts);
    let (monitor, updater) = (ids[0], ids[ids.len() - 1]);
    tr.derive_children(
        monitor,
        &[
            ("monitor.poll", dur_ms(m.stage_poll)),
            ("monitor.diff", dur_ms(m.stage_diff)),
            ("monitor.write", dur_ms(m.stage_write)),
        ],
    );
    tr.close(monitor);
    tr.derive_children(
        updater,
        &[
            ("updater.read", dur_ms(u.stage_read)),
            ("updater.diff", dur_ms(u.stage_diff)),
            ("updater.exec", dur_ms(u.stage_exec)),
        ],
    );
    tr.close(updater);
    tr.close(tick);
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

fn dur_ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over rounds of the per-round sum of spans called `name`.
fn per_round_median(tr: &Tracer, name: &str) -> f64 {
    let mut by_round: BTreeMap<u64, f64> = BTreeMap::new();
    for s in tr.spans().iter().filter(|s| s.name == name) {
        *by_round.entry(s.id).or_insert(0.0) += s.ms();
    }
    median(&by_round.into_values().collect::<Vec<_>>())
}

/// The foreground write of a loop workload, as its writer sees it: the
/// monitor's storage write stage (`telemetry_churn`) or one application's
/// `propose` call (`proposal_storm`).
fn write_samples(w: Workload, pass: &Pass) -> Vec<f64> {
    match w {
        Workload::ProposalStorm => pass
            .rounds
            .iter()
            .flat_map(|r| r.propose_ms.iter().copied())
            .collect(),
        _ => pass
            .rounds
            .iter()
            .map(|r| dur_ms(r.report.monitor.stage_write))
            .collect(),
    }
}

/// End-to-end metrics of an untraced pass, plus the report's detail.
pub fn end_to_end(
    w: Workload,
    pass: &Pass,
    setup_s: f64,
    peak_rss_mb: f64,
    m: &mut Metrics,
) -> Json {
    let wall = Summary::of(&pass.wall());
    let writes = Summary::of(&write_samples(w, pass));
    m.put("setup_s", setup_s, "s");
    m.put("p50_ms", wall.p50, "ms");
    m.put("write_p50_ms", writes.p50, "ms");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");

    let decided: usize = pass
        .rounds
        .iter()
        .flat_map(|r| &r.report.checkers)
        .map(|c| c.accepted + c.rejected + c.already_satisfied)
        .sum();
    let wall_s: f64 = pass.wall().iter().sum::<f64>() / 1e3;
    let sim: Vec<f64> = pass
        .rounds
        .iter()
        .map(|r| (r.report.monitor.sim_io.as_millis() + r.report.updater.sim_io.as_millis()) as f64)
        .collect();
    let mut named = vec![
        ("round_p50_ms", Json::Num(wall.p50), "ms"),
        ("round_tail_ms", Json::Num(wall.tail), "ms"),
        ("loop_sim_ms_p50", Json::Num(median(&sim)), "sim_ms"),
        (
            "failed_ratio",
            Json::Num(ratio(pass.failed as f64, pass.attempted as f64)),
            "ratio",
        ),
        ("peak_rss_mb", Json::Num(peak_rss_mb), "MiB"),
        ("setup_s", Json::Num(setup_s), "s"),
    ];
    if w == Workload::ProposalStorm {
        named.push((
            "decisions_per_s",
            Json::Num(ratio(decided as f64, wall_s)),
            "rows/s",
        ));
        named.push((
            "unsafe_rounds",
            Json::Int(pass.unsafe_rounds.len() as i64),
            "count",
        ));
        named.push(("propose_p50_ms", Json::Num(writes.p50), "ms"));
    } else {
        named.push(("monitor_write_p50_ms", Json::Num(writes.p50), "ms"));
    }
    let mut detail = vec![
        (
            "metrics".to_string(),
            Json::Obj(
                named
                    .into_iter()
                    .map(|(n, v, u)| (n.to_string(), report::value_unit(v, u)))
                    .collect(),
            ),
        ),
        ("rounds".to_string(), Json::Int(pass.rounds.len() as i64)),
        (
            "round_tail".to_string(),
            Json::obj([
                ("percentile", Json::Num(wall.tail_pct)),
                ("samples", Json::Int(wall.n as i64)),
                ("beyond", Json::Int(wall.beyond as i64)),
            ]),
        ),
        ("decided_rows".to_string(), Json::Int(decided as i64)),
    ];
    if w == Workload::ProposalStorm {
        detail.push((
            "unsafe".to_string(),
            Json::Arr(
                pass.unsafe_rounds
                    .iter()
                    .map(|(r, why)| {
                        Json::obj([
                            ("round", Json::Int(*r as i64)),
                            ("example", Json::str(why.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(detail)
}

/// Per-layer metrics of a traced pass.
pub fn per_layer(sys: &System, pass: &Pass, tr: &Tracer, m: &mut Metrics) {
    let put = |m: &mut Metrics, name: &str, v: f64| m.put(name, v, metrics::unit(name));
    let n = pass.counts;
    let prefix = &pass.rounds[..pass.counted];
    let sum = |f: &dyn Fn(&RoundRecord) -> usize| prefix.iter().map(f).sum::<usize>() as f64;
    let checkers = |f: &dyn Fn(&statesman_core::CheckerPassReport) -> usize| {
        sum(&|r: &RoundRecord| r.report.checkers.iter().map(f).sum())
    };

    put(
        m,
        "coordinator.tick_ms",
        median(&tr.durations("coordinator.tick")),
    );
    put(
        m,
        "coordinator.unattributed_ms",
        median(&tr.durations("coordinator.tick.unattributed")),
    );
    for (metric, span) in [
        ("monitor.poll_ms", "monitor.poll"),
        ("monitor.diff_ms", "monitor.diff"),
        ("monitor.write_ms", "monitor.write"),
        ("monitor.other_ms", "monitor.unattributed"),
        ("updater.read_ms", "updater.read"),
        ("updater.diff_ms", "updater.diff"),
        ("updater.exec_ms", "updater.exec"),
        ("updater.other_ms", "updater.unattributed"),
        ("checker.pass_ms", "checker.pass"),
        ("net.step_ms", "net.step"),
    ] {
        put(m, metric, per_round_median(tr, span));
    }
    let pass_max: Vec<f64> = pass
        .rounds
        .iter()
        .map(|r| {
            r.report
                .checkers
                .iter()
                .map(|c| dur_ms(c.elapsed))
                .fold(0.0, f64::max)
        })
        .collect();
    put(m, "checker.pass_max_ms", median(&pass_max));

    let written = sum(&|r| r.report.monitor.rows_written);
    let suppressed = sum(&|r| r.report.monitor.writes_suppressed);
    put(m, "monitor.rows_written", written);
    put(m, "monitor.writes_suppressed", suppressed);
    put(
        m,
        "monitor.write_ratio",
        ratio(written, written + suppressed),
    );
    let sim = |f: &dyn Fn(&RoundReport) -> u64| {
        median(
            &pass
                .rounds
                .iter()
                .map(|r| f(&r.report) as f64)
                .collect::<Vec<_>>(),
        )
    };
    put(
        m,
        "monitor.sim_io_ms",
        sim(&|r| r.monitor.sim_io.as_millis()),
    );
    put(
        m,
        "updater.sim_io_ms",
        sim(&|r| r.updater.sim_io.as_millis()),
    );

    let seen = checkers(&|c| c.proposals_seen);
    let accepted = checkers(&|c| c.accepted);
    put(m, "checker.proposals_seen", seen);
    put(m, "checker.accepted", accepted);
    put(m, "checker.rejected", checkers(&|c| c.rejected));
    put(
        m,
        "checker.already_satisfied",
        checkers(&|c| c.already_satisfied),
    );
    put(m, "checker.accept_ratio", ratio(accepted, seen));
    for (metric, tag) in [
        ("checker.reject.uncontrollable", "rejected-uncontrollable"),
        ("checker.reject.conflict", "rejected-conflict"),
        ("checker.reject.invariant", "rejected-invariant"),
        ("checker.reject.invalid", "rejected-invalid"),
    ] {
        put(
            m,
            metric,
            checkers(&|c| c.receipts.iter().filter(|r| r.outcome.tag() == tag).count()),
        );
    }
    put(m, "checker.variables_read", checkers(&|c| c.variables_read));
    put(m, "checker.full_degrades", n.full_degrades as f64);

    let steps = sum(&|r| r.report.updater.plan_steps);
    let inflight = sum(&|r| r.report.updater.plan_inflight_rejections);
    put(m, "updater.diffs", sum(&|r| r.report.updater.diffs));
    put(m, "updater.plan_steps", steps);
    put(
        m,
        "updater.plan_waves",
        sum(&|r| r.report.updater.plan_waves),
    );
    put(
        m,
        "updater.plan_max_width",
        prefix
            .iter()
            .map(|r| r.report.updater.plan_max_width)
            .max()
            .unwrap_or(0) as f64,
    );
    put(
        m,
        "updater.commands_applied",
        sum(&|r| r.report.updater.commands_applied),
    );
    put(
        m,
        "updater.commands_failed",
        sum(&|r| r.report.updater.commands_failed),
    );
    put(m, "updater.inflight_rejections", inflight);
    put(
        m,
        "updater.rollbacks",
        sum(&|r| r.report.updater.plan_rollbacks),
    );
    put(m, "updater.withheld_ratio", ratio(inflight, steps));

    let propose = Summary::of(&tr.durations("client.propose"));
    let receipts = Summary::of(&tr.durations("client.take_receipts"));
    put(m, "client.propose_ms", propose.p50);
    put(m, "client.propose_tail_ms", propose.tail);
    put(m, "client.receipts_ms", receipts.p50);
    put(m, "client.receipts_tail_ms", receipts.tail);

    let lock_wait: f64 = pass
        .rounds
        .iter()
        .map(|r| r.lock_wait_us as f64)
        .sum::<f64>();
    put(
        m,
        "storage.lock_wait_ms",
        lock_wait / 1e3 / pass.rounds.len().max(1) as f64,
    );
    metrics::storage_layer(&sys.storage, n.delta, n.retries, m);
    metrics::wal_layer(n.wal, n.storage_writes, n.storage_rows, m);
    put(m, "net.commands_accepted", n.commands.0 as f64);
    put(m, "net.commands_failed", n.commands.1 as f64);
    put(m, "types.key_resolutions", n.key_resolutions as f64);
}
