//! The monitor: periodic collection of network state into the OS.
//!
//! Paper §3, §6.3: the monitor "periodically collects the current network
//! state from the switches and links, transforms it into OS variables, and
//! writes the variables to the storage service", shielding everyone else
//! from device heterogeneity. "We split the monitoring responsibility
//! across many monitor instances, so each instance covers roughly 1,000
//! switches."
//!
//! Protocol use mirrors the deployment: SNMP for power/firmware/config
//! state and counters on everything; OpenFlow collection for routing state
//! on OpenFlow models; the vendor CLI for the RIB of BGP routers. A device
//! that times out is handled the way network management systems do: the
//! monitor marks every incident link oper-down (its live peers corroborate
//! this), which is exactly the signal the checker's projection needs to
//! treat the device as unavailable.
//!
//! Rounds are *partial-tolerant*: no device failure aborts a round. A
//! failing device is quarantined for a cooldown — its OS rows go stale
//! and its links stay inferred-down — instead of being re-polled (and
//! re-timing-out) every round. After the cooldown one half-open probe
//! either clears the quarantine or renews it. Only storage write failures
//! abort a round; those are the coordinator's degraded-mode concern.
//!
//! The variables a round polls are a fixed set per graph entity, and only
//! a few percent change between rounds. So polls land in a dense
//! per-entity slot array (`DenseBase`), the diff is a linear compare
//! against the values last written, and only changed slots become
//! [`NetworkState`] rows.

use parking_lot::Mutex;
use statesman_net::{DeviceModel, DeviceProtocol, OpenFlowSim, SimNetwork, SnmpSim, VendorCliSim};
use statesman_storage::{SeedStats, StorageService, WriteRequest};
use statesman_topology::{EdgeId, NetworkGraph, NodeId};
use statesman_types::{
    AppId, Attribute, DatacenterId, DeviceName, EntityKind, EntityName, NetworkState, Pool,
    SimDuration, SimTime, StateResult, Value,
};
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Modeled per-entity poll cost (SNMP walk + parse), milliseconds.
const POLL_MS: u64 = 50;
/// Concurrent polls per monitor instance.
const CONCURRENCY_PER_SHARD: u64 = 64;
/// Switches per monitor instance (§6.3: "roughly 1,000 switches").
pub const SHARD_SIZE: usize = 1_000;
/// Changed-row count above which a bootstrap round (empty diff base)
/// routes through the storage bulk-ingest path instead of chunked
/// steady-state writes. Matches the 50K chunk size: below it the
/// chunked path is a single WriteBatch per partition anyway, so the
/// switch only replaces rounds that would otherwise multi-chunk.
pub const BULK_SEED_THRESHOLD: usize = 50_000;
/// Rows per partition in one steady-state write batch.
const WRITE_CHUNK: usize = 50_000;
/// Default quarantine cooldown after a failed device poll.
pub const DEFAULT_QUARANTINE_COOLDOWN: SimDuration = SimDuration::from_mins(5);
/// Default full-resync cadence: every Nth round writes the whole OS view
/// regardless of the diff cache, healing any drift between the monitor's
/// memory of what it wrote and what storage actually holds.
pub const DEFAULT_RESYNC_EVERY: u64 = 16;

/// Where every (entity, attribute) the polls report lives in the
/// monitor's dense slot arrays, and the inverse.
///
/// Every graph node owns one slot per reportable device attribute (in
/// `NodeId` order), followed by one per reportable link attribute for
/// every edge (in `EdgeId` order). "Reportable" is what the attribute
/// catalogue lists for the entity kind, minus the lock. Built once at
/// [`Monitor::new`] and never changed.
struct SlotLayout {
    /// Each entity's name, built once: nodes by `NodeId`, then edges by
    /// `EdgeId`.
    entities: Vec<EntityName>,
    /// Graph node count: where the link slots start.
    nodes: usize,
    /// A device's attributes, in slot order.
    device_attrs: Vec<Attribute>,
    /// A link's attributes, in slot order.
    link_attrs: Vec<Attribute>,
    /// Each attribute's offset inside its entity's slot range, indexed by
    /// `Attribute as usize`; `None` for what no poll reports.
    offset: Vec<Option<usize>>,
}

impl SlotLayout {
    fn new(graph: &NetworkGraph) -> Self {
        let entities: Vec<EntityName> = graph
            .nodes()
            .map(|(_, n)| EntityName::device(n.datacenter.clone(), n.name.clone()))
            .chain(
                graph
                    .edges()
                    .map(|(_, e)| EntityName::link_named(e.datacenter.clone(), e.name.clone())),
            )
            .collect();
        let reportable = |kind| -> Vec<Attribute> {
            Attribute::for_entity(kind)
                .filter(|a| !a.is_lock())
                .collect()
        };
        let (device_attrs, link_attrs) =
            (reportable(EntityKind::Device), reportable(EntityKind::Link));
        let mut offset = vec![None; Attribute::catalogue().len()];
        for attrs in [&device_attrs, &link_attrs] {
            for (i, attr) in attrs.iter().enumerate() {
                offset[*attr as usize] = Some(i);
            }
        }
        SlotLayout {
            entities,
            nodes: graph.node_count(),
            device_attrs,
            link_attrs,
            offset,
        }
    }

    /// Total slot count.
    fn len(&self) -> usize {
        self.nodes * self.device_attrs.len()
            + (self.entities.len() - self.nodes) * self.link_attrs.len()
    }

    fn offset(&self, attr: Attribute) -> usize {
        self.offset[attr as usize].unwrap_or_else(|| panic!("the monitor has no slot for {attr}"))
    }

    /// The slot of a device attribute.
    fn device_slot(&self, node: NodeId, attr: Attribute) -> usize {
        debug_assert_eq!(attr.entity_kind(), EntityKind::Device);
        node.0 as usize * self.device_attrs.len() + self.offset(attr)
    }

    /// The slot of a link attribute.
    fn link_slot(&self, edge: EdgeId, attr: Attribute) -> usize {
        debug_assert_eq!(attr.entity_kind(), EntityKind::Link);
        self.nodes * self.device_attrs.len()
            + edge.0 as usize * self.link_attrs.len()
            + self.offset(attr)
    }

    /// The entity and attribute a slot holds.
    fn key(&self, slot: usize) -> (&EntityName, Attribute) {
        let device_slots = self.nodes * self.device_attrs.len();
        if slot < device_slots {
            let per = self.device_attrs.len();
            (&self.entities[slot / per], self.device_attrs[slot % per])
        } else {
            let (s, per) = (slot - device_slots, self.link_attrs.len());
            (
                &self.entities[self.nodes + s / per],
                self.link_attrs[s % per],
            )
        }
    }
}

/// The monitor's per-round poll buffer and diff base, one entry per
/// [`SlotLayout`] slot.
///
/// Polls write into `polled` and stamp the slot with the round; a later
/// write to the same slot wins, as in the serial poll order. The diff
/// then walks the slots once: a stamped slot whose value equals `base` is
/// suppressed, any other stamped slot becomes a row. No name is hashed or
/// interned per slot, and nothing is allocated for unchanged ones.
struct DenseBase {
    /// This round's value per slot, meaningful where `stamp` equals
    /// `round`.
    polled: Vec<Value>,
    /// The round that last wrote each slot of `polled`.
    stamp: Vec<u64>,
    /// The value this monitor last wrote per slot; `None` when never
    /// written or dropped from the poll. Writer is always the monitor.
    base: Vec<Option<Value>>,
    /// Occupied `base` slots.
    base_len: usize,
    /// Rounds begun; the current round's stamp.
    round: u64,
}

/// One round's diff: the rows to write and what was suppressed.
struct Diff {
    /// Changed rows, sorted by key.
    changed: Vec<NetworkState>,
    /// Polled rows equal to the base.
    suppressed: usize,
    /// The base was empty and the round is seed-sized: write through the
    /// storage bulk-ingest path.
    bulk: bool,
}

impl DenseBase {
    fn new(slots: usize) -> Self {
        DenseBase {
            polled: vec![Value::None; slots],
            stamp: vec![0; slots],
            base: vec![None; slots],
            base_len: 0,
            round: 0,
        }
    }

    fn begin_round(&mut self) {
        self.round += 1;
    }

    fn put(&mut self, slot: usize, value: Value) {
        self.polled[slot] = value;
        self.stamp[slot] = self.round;
    }

    /// Diff this round's stamped slots against the base and advance the
    /// base to what the round writes. `force_full` writes every stamped
    /// slot. A full-coverage round drops unstamped slots from the base (the
    /// entity vanished from the poll); a partial one (quarantined,
    /// unreachable or skipped devices) carries them over.
    fn diff(
        &mut self,
        layout: &SlotLayout,
        force_full: bool,
        full_coverage: bool,
        now: SimTime,
    ) -> Diff {
        let was_empty = self.base_len == 0;
        let writer = AppId::monitor();
        let mut changed = Vec::new();
        let mut suppressed = 0usize;
        for slot in 0..self.stamp.len() {
            if self.stamp[slot] != self.round {
                if full_coverage && self.base[slot].take().is_some() {
                    self.base_len -= 1;
                }
                continue;
            }
            if !force_full && self.base[slot].as_ref() == Some(&self.polled[slot]) {
                suppressed += 1;
                continue;
            }
            let value = std::mem::replace(&mut self.polled[slot], Value::None);
            if self.base[slot].replace(value.clone()).is_none() {
                self.base_len += 1;
            }
            let (entity, attr) = layout.key(slot);
            changed.push(NetworkState::new(
                entity.clone(),
                attr,
                value,
                now,
                writer.clone(),
            ));
        }
        // The deterministic write order is string-key order.
        changed.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
        Diff {
            bulk: was_empty && changed.len() >= BULK_SEED_THRESHOLD,
            changed,
            suppressed,
        }
    }

    /// Forget everything written: the next round rewrites every row.
    fn clear(&mut self) {
        self.base.iter_mut().for_each(|v| *v = None);
        self.base_len = 0;
    }
}

/// Poll outcome counts of one round (or one shard of it).
#[derive(Debug, Clone, Copy, Default)]
struct PollCounts {
    devices_polled: usize,
    devices_unreachable: usize,
    devices_quarantined: usize,
    links_polled: usize,
    /// Devices and links actually polled (drives the modeled I/O time).
    entities_polled: u64,
}

impl PollCounts {
    fn add(&mut self, other: &PollCounts) {
        self.devices_polled += other.devices_polled;
        self.devices_unreachable += other.devices_unreachable;
        self.devices_quarantined += other.devices_quarantined;
        self.links_polled += other.links_polled;
        self.entities_polled += other.entities_polled;
    }
}

/// One collection round's outcome.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Devices successfully polled.
    pub devices_polled: usize,
    /// Devices that timed out (rebooting, powered off, broken).
    pub devices_unreachable: usize,
    /// Devices skipped this round because they are quarantined from an
    /// earlier failed poll (their links stay inferred-down; their other
    /// OS rows go stale).
    pub devices_quarantined: usize,
    /// Links reported (directly or inferred down).
    pub links_polled: usize,
    /// OS rows written.
    pub rows_written: usize,
    /// Polled rows *not* written because they match the monitor's last
    /// written value (the delta path; quiescent rounds suppress nearly
    /// everything).
    pub writes_suppressed: usize,
    /// Number of monitor instances (shards) this round used.
    pub shards: usize,
    /// Modeled wall time of the collection round in simulated terms
    /// (polls run concurrently within each shard).
    pub sim_io: SimDuration,
    /// Host wall-clock time of the round (compute only): exactly
    /// `stage_poll + stage_diff + stage_write`.
    pub elapsed: Duration,
    /// Wall time spent polling devices and links (including shard
    /// fan-in on the parallel path).
    pub stage_poll: Duration,
    /// Wall time spent diffing against the last written base and
    /// building the changed rows.
    pub stage_diff: Duration,
    /// Wall time spent on storage writes.
    pub stage_write: Duration,
    /// Stage breakdown of the bulk-ingest seed write, present only on
    /// rounds routed through [`StorageService::write_bulk`] (an empty
    /// diff base plus a seed-sized changed set — bootstrap).
    pub seed: Option<SeedStats>,
}

/// The monitor over one simulated network.
pub struct Monitor {
    net: SimNetwork,
    snmp: SnmpSim,
    of: OpenFlowSim,
    cli: VendorCliSim,
    storage: StorageService,
    graph: NetworkGraph,
    /// Devices under quarantine, mapped to when their cooldown expires.
    quarantine: Mutex<HashMap<DeviceName, SimTime>>,
    quarantine_cooldown: SimDuration,
    /// What this monitor last wrote per variable — the diff base that
    /// lets a round write only rows whose value actually changed — plus
    /// the round's poll buffer. Cleared on any write failure so the next
    /// round rewrites everything (the base may no longer match what
    /// storage holds).
    base: Mutex<DenseBase>,
    /// Where each polled variable lives in `base`.
    layout: SlotLayout,
    /// Every Nth round ignores the diff base and writes the full view
    /// (1 = the pre-delta behavior: every round writes everything).
    resync_every: u64,
}

impl Monitor {
    /// Build a monitor with the standard protocol adapters.
    pub fn new(net: SimNetwork, storage: StorageService, graph: NetworkGraph) -> Self {
        let layout = SlotLayout::new(&graph);
        Monitor {
            snmp: SnmpSim::new(net.clone()),
            of: OpenFlowSim::new(net.clone()),
            cli: VendorCliSim::new(net.clone()),
            net,
            storage,
            base: Mutex::new(DenseBase::new(layout.len())),
            layout,
            graph,
            quarantine: Mutex::new(HashMap::new()),
            quarantine_cooldown: DEFAULT_QUARANTINE_COOLDOWN,
            resync_every: DEFAULT_RESYNC_EVERY,
        }
    }

    /// Replace the quarantine cooldown (how long a failed device is left
    /// unpolled before a half-open re-probe).
    pub fn with_quarantine_cooldown(mut self, cooldown: SimDuration) -> Self {
        self.quarantine_cooldown = cooldown;
        self
    }

    /// Replace the full-resync cadence. `1` disables the delta path
    /// entirely: every round writes the whole view, as before deltas.
    pub fn with_resync_every(mut self, every: u64) -> Self {
        self.resync_every = every.max(1);
        self
    }

    /// Devices currently under quarantine at `now` — the set the checker
    /// must treat as uncontrollable (their OS rows are stale).
    pub fn quarantined_devices(&self, now: SimTime) -> BTreeSet<DeviceName> {
        self.quarantine
            .lock()
            .iter()
            .filter(|(_, &until)| now < until)
            .map(|(d, _)| d.clone())
            .collect()
    }

    fn is_quarantined(&self, device: &DeviceName, now: SimTime) -> bool {
        matches!(self.quarantine.lock().get(device), Some(&until) if now < until)
    }

    /// Record a poll outcome in the quarantine table: failures (re)start
    /// the cooldown, successes clear it.
    fn note_poll(&self, device: &DeviceName, now: SimTime, reachable: bool) {
        let mut q = self.quarantine.lock();
        if reachable {
            q.remove(device);
        } else {
            q.insert(device.clone(), now + self.quarantine_cooldown);
        }
    }

    /// The NMS inference for an unresponsive device: every incident link
    /// is oper-down for traffic purposes (its live peers corroborate
    /// this).
    fn infer_links_down(&self, node: NodeId, put: &mut impl FnMut(usize, Value)) {
        for (e, _) in self.graph.neighbors(node) {
            put(
                self.layout.link_slot(*e, Attribute::LinkOperStatus),
                Value::oper(false),
            );
        }
    }

    /// Poll devices in order: their state on success, inferred link-down
    /// rows when quarantined or when the management plane fails in any
    /// way. Infallible by design — a broken device must never abort a
    /// collection round (partial-round tolerance).
    fn poll_devices(
        &self,
        ids: impl Iterator<Item = NodeId>,
        now: SimTime,
        counts: &mut PollCounts,
        put: &mut impl FnMut(usize, Value),
    ) {
        for id in ids {
            let name = &self.graph.node(id).name;
            // Quarantined devices are not re-polled (no poll budget spent
            // re-timing-out); their links stay inferred-down.
            if self.is_quarantined(name, now) {
                counts.devices_quarantined += 1;
                self.infer_links_down(id, put);
                continue;
            }
            counts.entities_polled += 1;
            let reachable = match self.snmp.collect_device(name) {
                Ok(pairs) => {
                    for (attr, value) in pairs {
                        put(self.layout.device_slot(id, attr), value);
                    }
                    // Routing state by model.
                    let model = self
                        .net
                        .with_device(name, |d| d.model)
                        .unwrap_or(DeviceModel::OpenFlowSwitch);
                    let routing = match model {
                        DeviceModel::OpenFlowSwitch => self.of.collect_device(name),
                        DeviceModel::BgpRouter => self.cli.collect_device(name),
                    };
                    for (attr, value) in routing.into_iter().flatten() {
                        put(self.layout.device_slot(id, attr), value);
                    }
                    counts.devices_polled += 1;
                    true
                }
                Err(_) => {
                    self.infer_links_down(id, put);
                    counts.devices_unreachable += 1;
                    false
                }
            };
            self.note_poll(name, now, reachable);
        }
    }

    /// Poll links in order (or infer oper-down when neither endpoint
    /// answers). Infallible for the same reason as device polls.
    fn poll_links(
        &self,
        ids: impl Iterator<Item = EdgeId>,
        counts: &mut PollCounts,
        put: &mut impl FnMut(usize, Value),
    ) {
        for id in ids {
            counts.entities_polled += 1;
            counts.links_polled += 1;
            match self.snmp.collect_link(&self.graph.edge(id).name) {
                Ok(pairs) => {
                    for (attr, value) in pairs {
                        put(self.layout.link_slot(id, attr), value);
                    }
                }
                Err(_) => put(
                    self.layout.link_slot(id, Attribute::LinkOperStatus),
                    Value::oper(false),
                ),
            }
        }
    }

    /// Persist a diff. Any write failure clears the diff base: it may no
    /// longer match what storage holds, so the next round rewrites
    /// everything.
    fn commit(&self, base: &mut DenseBase, diff: Diff) -> StateResult<Option<SeedStats>> {
        let result = if diff.bulk {
            // Bootstrap: the diff base has never been written, so every
            // row is new and each partition's pool is being seeded from
            // empty. One BulkBatch per partition (batched slot minting,
            // pre-sized columns, single watermark bump) replaces the
            // chunked steady-state commits — below the threshold the
            // chunked path is one WriteBatch per partition anyway.
            self.storage
                .write_bulk(WriteRequest {
                    pool: Pool::Observed,
                    rows: diff.changed,
                })
                .map(Some)
        } else {
            self.write_chunked(diff.changed).map(|()| None)
        };
        if result.is_err() {
            base.clear();
        }
        result
    }

    /// Chunk large rounds: one consensus commit per ~50K rows *per
    /// partition* keeps per-message payloads bounded at DC scale (§8:
    /// 394K variables). Chunks are ranked within each partition and every
    /// write batch carries each partition's same-rank chunk, so the
    /// storage proxy's per-partition fan-out commits them concurrently —
    /// while each ring still sees its own rows in the exact order the
    /// serial loop fed them, keeping versions, watermarks, and the wire
    /// format byte-identical.
    fn write_chunked(&self, rows: Vec<NetworkState>) -> StateResult<()> {
        // Key order sorts by datacenter first, so each partition's rows
        // are one contiguous run, and the runs come in partition order.
        let mut parts: Vec<Vec<NetworkState>> = Vec::new();
        for row in rows {
            match parts.last_mut() {
                Some(part) if part[0].entity.datacenter == row.entity.datacenter => part.push(row),
                _ => parts.push(vec![row]),
            }
        }
        let chunks = parts
            .iter()
            .map(|p| p.len().div_ceil(WRITE_CHUNK))
            .max()
            .unwrap_or(0);
        let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
        for _ in 0..chunks {
            let batch: Vec<NetworkState> = parts
                .iter_mut()
                .flat_map(|p| p.by_ref().take(WRITE_CHUNK))
                .collect();
            self.storage.write(WriteRequest {
                pool: Pool::Observed,
                rows: batch,
            })?;
        }
        Ok(())
    }

    /// Diff, persist, and account one polled round.
    fn finish_round(
        &self,
        base: &mut DenseBase,
        counts: PollCounts,
        skipped_dcs: bool,
        now: SimTime,
        started: Instant,
    ) -> StateResult<MonitorReport> {
        let poll_done = Instant::now();
        let force_full = (base.round - 1).is_multiple_of(self.resync_every);
        // Keys in skipped DCs or on quarantined/unreachable devices were
        // not polled, so those rounds carry their base entries over.
        let full_coverage =
            !skipped_dcs && counts.devices_quarantined == 0 && counts.devices_unreachable == 0;
        let diff = base.diff(&self.layout, force_full, full_coverage, now);
        let (rows_written, writes_suppressed) = (diff.changed.len(), diff.suppressed);
        let diff_done = Instant::now();
        let seed = self.commit(base, diff)?;
        let write_done = Instant::now();

        let shards = self.graph.node_count().div_ceil(SHARD_SIZE).max(1);
        let lanes = shards as u64 * CONCURRENCY_PER_SHARD;
        let sim_io = SimDuration::from_millis(counts.entities_polled.div_ceil(lanes) * POLL_MS);
        let stage_poll = poll_done - started;
        let stage_diff = diff_done - poll_done;
        let stage_write = write_done - diff_done;
        Ok(MonitorReport {
            devices_polled: counts.devices_polled,
            devices_unreachable: counts.devices_unreachable,
            devices_quarantined: counts.devices_quarantined,
            links_polled: counts.links_polled,
            rows_written,
            writes_suppressed,
            shards,
            sim_io,
            elapsed: stage_poll + stage_diff + stage_write,
            stage_poll,
            stage_diff,
            stage_write,
            seed,
        })
    }

    /// Run one collection round: poll everything, write the OS.
    pub fn run_round(&self) -> StateResult<MonitorReport> {
        self.run_round_excluding(&BTreeSet::new())
    }

    /// Run one collection round skipping every entity homed in `skip_dcs`
    /// (their storage partition is down, so their OS rows could not be
    /// written anyway). The coordinator's degraded mode drives this.
    pub fn run_round_excluding(
        &self,
        skip_dcs: &BTreeSet<DatacenterId>,
    ) -> StateResult<MonitorReport> {
        let started = Instant::now();
        let now = self.net.clock().now();
        let mut base = self.base.lock();
        base.begin_round();
        let mut counts = PollCounts::default();
        let mut put = |slot: usize, value: Value| base.put(slot, value);
        let nodes = self
            .graph
            .nodes()
            .filter(|(_, n)| !skip_dcs.contains(&n.datacenter))
            .map(|(id, _)| id);
        self.poll_devices(nodes, now, &mut counts, &mut put);
        let edges = self
            .graph
            .edges()
            .filter(|(_, e)| !skip_dcs.contains(&e.datacenter))
            .map(|(id, _)| id);
        self.poll_links(edges, &mut counts, &mut put);
        self.finish_round(&mut base, counts, !skip_dcs.is_empty(), now, started)
    }

    /// Run one collection round with `instances` concurrent monitor
    /// instances, each covering a contiguous shard of devices and links
    /// (§6.3: "We split the monitoring responsibility across many monitor
    /// instances"). Results are identical to [`Monitor::run_round`]; only
    /// the collection concurrency differs.
    pub fn run_round_parallel(&self, instances: usize) -> StateResult<MonitorReport> {
        let instances = instances.max(1);
        let started = Instant::now();
        let now = self.net.clock().now();
        let mut base = self.base.lock();

        let node_ids: Vec<NodeId> = self.graph.nodes().map(|(id, _)| id).collect();
        let edge_ids: Vec<EdgeId> = self.graph.edges().map(|(id, _)| id).collect();
        let dev_chunk = node_ids.len().div_ceil(instances).max(1);
        let edge_chunk = edge_ids.len().div_ceil(instances).max(1);

        type Rows = Vec<(usize, Value)>;
        let shards: Vec<(Rows, Rows, PollCounts)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..instances)
                .map(|i| {
                    let devs = node_ids.chunks(dev_chunk).nth(i).unwrap_or(&[]);
                    let edges = edge_ids.chunks(edge_chunk).nth(i).unwrap_or(&[]);
                    scope.spawn(move || {
                        let mut counts = PollCounts::default();
                        let (mut dev_rows, mut link_rows) = (Vec::new(), Vec::new());
                        let mut put = |slot: usize, value: Value| dev_rows.push((slot, value));
                        self.poll_devices(devs.iter().copied(), now, &mut counts, &mut put);
                        let mut put = |slot: usize, value: Value| link_rows.push((slot, value));
                        self.poll_links(edges.iter().copied(), &mut counts, &mut put);
                        (dev_rows, link_rows, counts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("monitor shard panicked"))
                .collect()
        });
        // Replay the serial poll order whatever the thread timing: every
        // shard's device rows (in shard order) before any link rows, so a
        // polled link row always beats an endpoint's inferred-down row.
        base.begin_round();
        let mut counts = PollCounts::default();
        let (dev_rows, link_rows): (Vec<Rows>, Vec<Rows>) = shards
            .into_iter()
            .map(|(dev, link, shard_counts)| {
                counts.add(&shard_counts);
                (dev, link)
            })
            .unzip();
        let rows = dev_rows.into_iter().chain(link_rows).flatten();
        for (slot, value) in rows {
            base.put(slot, value);
        }
        self.finish_round(&mut base, counts, false, now, started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use statesman_net::{DeviceCommand, SimClock, SimConfig};
    use statesman_topology::DcnSpec;
    use statesman_types::{DatacenterId, DeviceName, Freshness, LinkName, StateKey};
    use std::collections::BTreeMap;

    fn setup() -> (SimNetwork, StorageService, NetworkGraph, SimClock) {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
        let storage = StorageService::single_dc("dc1", clock.clone());
        (net, storage, graph, clock)
    }

    #[test]
    fn healthy_round_covers_everything() {
        let (net, storage, graph, _clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph.clone());
        let report = m.run_round().unwrap();
        assert_eq!(report.devices_polled, graph.node_count());
        assert_eq!(report.devices_unreachable, 0);
        assert_eq!(report.links_polled, graph.edge_count());
        assert!(report.rows_written > graph.node_count() * 7);
        assert_eq!(report.shards, 1);
        assert!(report.sim_io > SimDuration::ZERO);

        // Spot-check an OS row.
        let fw = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceFirmwareVersion,
                ),
            )
            .unwrap()
            .unwrap();
        assert_eq!(fw.value, Value::text("6.0.3"));
        assert_eq!(fw.writer, AppId::monitor());
    }

    #[test]
    fn routing_state_collected_per_model() {
        let (net, storage, graph, _clock) = setup();
        let m = Monitor::new(net.clone(), storage.clone(), graph);
        m.run_round().unwrap();
        let rules = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::device("dc1", "tor-1-1"),
                    Attribute::DeviceRoutingRules,
                ),
            )
            .unwrap();
        assert!(rules.is_some(), "OpenFlow switches report routing state");
    }

    #[test]
    fn rebooting_device_marks_links_down() {
        let (net, storage, graph, _clock) = setup();
        // Start an upgrade with a long reboot window.
        let g2 = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net2 = SimNetwork::new(&g2, net.clock().clone(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net2.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net2.step(SimDuration::from_millis(1));

        let m = Monitor::new(net2, storage.clone(), graph);
        let report = m.run_round().unwrap();
        assert_eq!(report.devices_unreachable, 1);
        let oper = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::link("dc1", "tor-1-1", "agg-1-1"),
                    Attribute::LinkOperStatus,
                ),
            )
            .unwrap()
            .unwrap();
        assert!(!oper.value.as_oper().unwrap().is_up());
    }

    #[test]
    fn fcs_fault_reaches_the_os() {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let link = LinkName::between("tor-1-1", "agg-1-1");
        let mut cfg = SimConfig::ideal();
        cfg.faults = cfg.faults.with_event(
            statesman_types::SimTime::from_mins(1),
            statesman_net::FaultEvent::SetFcsErrorRate {
                link: link.clone(),
                rate: 0.04,
            },
        );
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        net.step_to(statesman_types::SimTime::from_mins(1));
        let m = Monitor::new(net, storage.clone(), graph);
        m.run_round().unwrap();
        let fcs = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::link_named("dc1", link),
                    Attribute::LinkFcsErrorRate,
                ),
            )
            .unwrap()
            .unwrap();
        assert_eq!(fcs.value.as_float(), Some(0.04));
    }

    #[test]
    fn repeated_rounds_update_in_place() {
        let (net, storage, graph, clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph);
        let r1 = m.run_round().unwrap();
        assert_eq!(r1.writes_suppressed, 0, "first round writes everything");
        let n1 = storage.pool_len(&DatacenterId::new("dc1"), &Pool::Observed);
        clock.advance(SimDuration::from_mins(5));
        let r2 = m.run_round().unwrap();
        let n2 = storage.pool_len(&DatacenterId::new("dc1"), &Pool::Observed);
        assert_eq!(n1, n2, "rows are upserts, not appends");
        // A quiescent round suppresses the unchanged rows instead of
        // rewriting them; the stored row keeps its original timestamp.
        assert!(r2.writes_suppressed > 0);
        assert!(r2.rows_written < r1.rows_written);
        let rows = storage
            .read(statesman_storage::ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: Some(EntityName::device("dc1", "core-1")),
                attribute: Some(Attribute::DeviceFirmwareVersion),
            })
            .unwrap();
        assert!(
            rows[0].updated_at < clock.now(),
            "unchanged value not rewritten"
        );
    }

    #[test]
    fn resync_round_rewrites_the_full_view() {
        let (net, storage, graph, clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph).with_resync_every(2);
        let r1 = m.run_round().unwrap(); // round 0: forced full
        clock.advance(SimDuration::from_mins(5));
        let r2 = m.run_round().unwrap(); // round 1: delta
        clock.advance(SimDuration::from_mins(5));
        let r3 = m.run_round().unwrap(); // round 2: forced full again
        assert!(r2.rows_written < r1.rows_written);
        assert_eq!(r3.rows_written, r1.rows_written);
        assert_eq!(r3.writes_suppressed, 0);
    }

    #[test]
    fn resync_every_one_disables_the_delta_path() {
        let (net, storage, graph, clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph).with_resync_every(1);
        let r1 = m.run_round().unwrap();
        clock.advance(SimDuration::from_mins(5));
        let r2 = m.run_round().unwrap();
        assert_eq!(r1.rows_written, r2.rows_written);
        assert_eq!(r2.writes_suppressed, 0);
    }

    #[test]
    fn write_failure_clears_the_diff_base() {
        let (net, storage, graph, clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph).with_resync_every(2);
        let dc = DatacenterId::new("dc1");
        let r0 = m.run_round().unwrap(); // round 0: full
        clock.advance(SimDuration::from_mins(5));
        m.run_round().unwrap(); // round 1: delta
        storage.set_partition_available(&dc, false);
        clock.advance(SimDuration::from_mins(5));
        // Round 2 is a forced resync: the write fails against the offline
        // partition and must clear the diff base.
        assert!(m.run_round().is_err());
        storage.set_partition_available(&dc, true);
        clock.advance(SimDuration::from_mins(5));
        // Round 3 would normally be a delta round, but with the base
        // cleared it rewrites the whole view.
        let r3 = m.run_round().unwrap();
        assert_eq!(r3.rows_written, r0.rows_written);
        assert_eq!(r3.writes_suppressed, 0);
    }

    #[test]
    fn parallel_round_matches_serial() {
        // Two identical worlds: one polled serially, one with 4 monitor
        // instances. The resulting OS must be identical.
        let build = || {
            let clock = SimClock::new();
            let graph = DcnSpec::tiny("dc1").build();
            let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
            let storage = StorageService::single_dc("dc1", clock.clone());
            (Monitor::new(net, storage.clone(), graph), storage)
        };
        let (serial, s_storage) = build();
        let (parallel, p_storage) = build();
        let r1 = serial.run_round().unwrap();
        let r2 = parallel.run_round_parallel(4).unwrap();
        assert_eq!(r1.rows_written, r2.rows_written);
        assert_eq!(r1.devices_polled, r2.devices_polled);
        assert_eq!(r1.links_polled, r2.links_polled);

        assert_eq!(os_rows(&s_storage), os_rows(&p_storage));
    }

    /// Every OS row of dc1 as (key, value), in key order.
    fn os_rows(storage: &StorageService) -> Vec<(StateKey, Value)> {
        let mut rows = storage
            .read(statesman_storage::ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .unwrap();
        rows.sort_by_key(|a| a.key());
        rows.into_iter().map(|r| (r.key(), r.value)).collect()
    }

    #[test]
    fn parallel_round_handles_unreachable_devices() {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        net.submit(
            &DeviceName::new("agg-1-1"),
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        let m = Monitor::new(net, storage, graph);
        let r = m.run_round_parallel(3).unwrap();
        assert_eq!(r.devices_unreachable, 1);
    }

    /// A world where agg-1-1 is mid-reboot (unreachable) for `reboot_ms`.
    fn rebooting_world(reboot_ms: u64) -> (SimNetwork, StorageService, NetworkGraph, SimClock) {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = reboot_ms;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        net.submit(
            &DeviceName::new("agg-1-1"),
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        (net, storage, graph, clock)
    }

    #[test]
    fn failed_device_is_quarantined_then_reprobed() {
        let (net, storage, graph, clock) = rebooting_world(120_000);
        let m = Monitor::new(net.clone(), storage.clone(), graph.clone())
            .with_quarantine_cooldown(SimDuration::from_mins(5));

        // Round 1: the poll fails; the device enters quarantine.
        let r1 = m.run_round().unwrap();
        assert_eq!(r1.devices_unreachable, 1);
        assert_eq!(r1.devices_quarantined, 0);
        assert_eq!(m.quarantined_devices(clock.now()).len(), 1);

        // Round 2, inside the cooldown: no re-poll, links stay inferred
        // down, the round completes.
        net.step(SimDuration::from_mins(1));
        let r2 = m.run_round().unwrap();
        assert_eq!(r2.devices_unreachable, 0);
        assert_eq!(r2.devices_quarantined, 1);
        assert!(r2.sim_io <= r1.sim_io, "quarantine must not add poll cost");
        let oper = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::link("dc1", "tor-1-1", "agg-1-1"),
                    Attribute::LinkOperStatus,
                ),
            )
            .unwrap()
            .unwrap();
        assert!(!oper.value.as_oper().unwrap().is_up());

        // Cooldown over, reboot finished: the half-open probe succeeds.
        net.step(SimDuration::from_mins(5));
        let r3 = m.run_round().unwrap();
        assert_eq!(r3.devices_quarantined, 0);
        assert_eq!(r3.devices_polled, graph.node_count());
        assert!(m.quarantined_devices(clock.now()).is_empty());
    }

    #[test]
    fn failed_reprobe_renews_quarantine() {
        let (net, storage, graph, clock) = rebooting_world(20 * 60_000);
        let m = Monitor::new(net.clone(), storage, graph)
            .with_quarantine_cooldown(SimDuration::from_mins(5));
        m.run_round().unwrap();
        // Past the cooldown but still rebooting: the probe fails and the
        // quarantine is renewed rather than dropped.
        net.step(SimDuration::from_mins(6));
        let r2 = m.run_round().unwrap();
        assert_eq!(r2.devices_unreachable, 1);
        assert_eq!(m.quarantined_devices(clock.now()).len(), 1);
    }

    #[test]
    fn shard_count_follows_paper_sizing() {
        // 2,500 devices → 3 instances at 1,000 switches each.
        assert_eq!(2_500usize.div_ceil(SHARD_SIZE), 3);
    }

    #[test]
    fn parallel_merge_keeps_serial_precedence() {
        // agg-1-1 reboots for 2 minutes but stays quarantined for 5. In
        // between it forwards again: its own shard infers its links down
        // while the shards owning those links poll them up. The polled
        // rows must win on every path, as in the serial poll order.
        let run = |instances: Option<usize>| {
            let (net, storage, graph, _clock) = rebooting_world(120_000);
            let m = Monitor::new(net.clone(), storage.clone(), graph)
                .with_quarantine_cooldown(SimDuration::from_mins(5));
            let round = || match instances {
                Some(n) => m.run_round_parallel(n).unwrap(),
                None => m.run_round().unwrap(),
            };
            assert_eq!(round().devices_unreachable, 1);
            net.step(SimDuration::from_mins(3));
            assert!(net.device_operational(&DeviceName::new("agg-1-1")));
            let r = round();
            assert_eq!(r.devices_quarantined, 1);
            (r.rows_written, r.writes_suppressed, os_rows(&storage))
        };
        let serial = run(None);
        let link = StateKey::new(
            EntityName::link("dc1", "tor-1-1", "agg-1-1"),
            Attribute::LinkOperStatus,
        );
        let oper = serial.2.iter().find(|(k, _)| *k == link).unwrap();
        assert!(oper.1.as_oper().unwrap().is_up(), "the polled row wins");
        // Shard timing differs run to run; an arrival-order merge fails
        // some of these.
        for _ in 0..8 {
            assert_eq!(run(Some(4)), serial);
        }
    }

    #[test]
    fn stage_timers_add_up_to_elapsed() {
        let (net, storage, graph, clock) = setup();
        let m = Monitor::new(net, storage, graph).with_resync_every(3);
        for i in 0..4 {
            let r = if i % 2 == 0 {
                m.run_round().unwrap()
            } else {
                m.run_round_parallel(3).unwrap()
            };
            assert_eq!(r.stage_poll + r.stage_diff + r.stage_write, r.elapsed);
            clock.advance(SimDuration::from_mins(1));
        }
    }

    #[test]
    fn every_reportable_attribute_has_its_own_slot() {
        // Every (entity, attribute) maps to its own slot and back.
        let graph = DcnSpec::tiny("dc1").build();
        let layout = SlotLayout::new(&graph);
        let mut seen = BTreeSet::new();
        for (id, n) in graph.nodes() {
            for attr in Attribute::for_entity(EntityKind::Device).filter(|a| !a.is_lock()) {
                let slot = layout.device_slot(id, attr);
                assert!(seen.insert(slot));
                let want = EntityName::device(n.datacenter.clone(), n.name.clone());
                assert_eq!(layout.key(slot), (&want, attr));
            }
        }
        for (id, e) in graph.edges() {
            for attr in Attribute::for_entity(EntityKind::Link).filter(|a| !a.is_lock()) {
                let slot = layout.link_slot(id, attr);
                assert!(seen.insert(slot));
                let want = EntityName::link_named(e.datacenter.clone(), e.name.clone());
                assert_eq!(layout.key(slot), (&want, attr));
            }
        }
        assert_eq!(seen.len(), layout.len());
    }

    /// The diff rules as a plain ordered map — the reference the dense
    /// base must agree with.
    #[derive(Default)]
    struct OracleBase(BTreeMap<StateKey, Value>);

    impl OracleBase {
        /// One round: the rows written, the count suppressed, and
        /// whether the write succeeded.
        fn round(
            &mut self,
            puts: &[(StateKey, Value)],
            force_full: bool,
            full_coverage: bool,
            write_fails: bool,
        ) -> (Vec<(StateKey, Value)>, usize, bool) {
            // A later duplicate wins.
            let polled: BTreeMap<StateKey, Value> = puts.iter().cloned().collect();
            let mut written = Vec::new();
            let mut suppressed = 0;
            for (k, v) in &polled {
                if !force_full && self.0.get(k) == Some(v) {
                    suppressed += 1;
                } else {
                    written.push((k.clone(), v.clone()));
                }
            }
            // No rows, no write, nothing to fail.
            if write_fails && !written.is_empty() {
                self.0.clear();
                return (written, suppressed, false);
            }
            if full_coverage {
                self.0 = polled;
            } else {
                self.0.extend(polled);
            }
            (written, suppressed, true)
        }
    }

    /// One generated round: (slot pick, value) puts, then whether the
    /// round is a resync, has full coverage, and has its write fail.
    type GenRound = (Vec<(usize, i64)>, bool, bool, bool);

    fn gen_round() -> impl Strategy<Value = GenRound> {
        (
            proptest::collection::vec((0usize..12, 0i64..3), 0..24),
            (0u8..6).prop_map(|r| r == 0),
            (0u8..3).prop_map(|c| c != 0),
            (0u8..6).prop_map(|f| f == 0),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The dense diff base, committed through the monitor's real
        /// write path, writes exactly the rows the map reference writes
        /// and suppresses the same count, round after round: duplicates,
        /// vanishing and reappearing keys, partial coverage, resyncs and
        /// failed writes included.
        #[test]
        fn dense_base_matches_the_map_reference(
            rounds in proptest::collection::vec(gen_round(), 1..12)
        ) {
            let (net, storage, graph, clock) = setup();
            let dc = DatacenterId::new("dc1");
            let m = Monitor::new(net, storage.clone(), graph.clone());
            let layout = SlotLayout::new(&graph);
            let mut dense = DenseBase::new(layout.len());
            // Twelve slots spread over devices and links.
            let slots = layout.len();
            let universe: Vec<usize> = (0..12).map(|i| i * slots / 12 + i % 3).collect();
            let mut oracle = OracleBase::default();
            for (picks, force_full, full_coverage, write_fails) in rounds {
                clock.advance(SimDuration::from_mins(1));
                dense.begin_round();
                let mut puts = Vec::new();
                for (pick, v) in picks {
                    let slot = universe[pick];
                    dense.put(slot, Value::Int(v));
                    let (entity, attr) = layout.key(slot);
                    puts.push((StateKey::new(entity.clone(), attr), Value::Int(v)));
                }
                let diff = dense.diff(&layout, force_full, full_coverage, clock.now());
                let written: Vec<(StateKey, Value)> = diff
                    .changed
                    .iter()
                    .map(|r| (r.key(), r.value.clone()))
                    .collect();
                let suppressed = diff.suppressed;
                storage.set_partition_available(&dc, !write_fails);
                let ok = m.commit(&mut dense, diff).is_ok();
                storage.set_partition_available(&dc, true);
                let want = oracle.round(&puts, force_full, full_coverage, write_fails);
                prop_assert_eq!((written, suppressed, ok), want);
            }
        }
    }
}
