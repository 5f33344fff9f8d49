//! Columnar state-plane equivalence suite.
//!
//! The columnar refactor swaps every hot-path state container — storage
//! pools, checker mirrors, monitor diff base — from `HashMap<VarId, _>`
//! to dense slot-indexed columns, and makes the checker incremental
//! (blast-radius re-projection + cached verdicts). None of that may be
//! observable: columnar reads must stay bit-equal to the hashmap
//! reference, and an incremental pass must decide exactly what a full
//! pass decides. This suite pins both:
//!
//! * **view equivalence** — a columnar `MapView` and a hash `MapView`
//!   driven through the same interleaved upsert/remove/remove_var/clear
//!   soup agree on every read, including the returned rows of removals;
//! * **machine equivalence** — the columnar `StateMachine` pools match a
//!   plain `HashMap` shadow model across churn and deletes, slots are
//!   never reused across delete/re-insert cycles, and point reads agree
//!   for every key ever written;
//! * **compaction crossing** — a columnar mirror fed `read_since` deltas
//!   survives a change-index compaction (snapshot fallback) bit-equal to
//!   a full read;
//! * **incremental checker equivalence** — a delta+columnar checker and
//!   a full-read checker driven through identical proposal/churn/outage
//!   histories issue identical receipts and leave identical pools;
//! * **stale-cache regression** — a checker whose mirrors and seed cache
//!   predate a compaction-floor crossing must still decide like a fresh
//!   checker (the snapshot fallback evicts, never serves stale parts).

use proptest::prelude::*;
use statesman_core::groups::ImpactGroup;
use statesman_core::{
    Checker, CheckerConfig, MapView, MergePolicy, Monitor, StateView, TorPairCapacityInvariant,
};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{
    LogCommand, ReadRequest, StateMachine, StorageConfig, StorageService, WriteRequest,
};
use statesman_types::{
    slot_registry, AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState, Pool,
    SimTime, StateKey, Value,
};
use std::collections::{HashMap, HashSet};

/// The change-index depth (mirrors `CHANGE_INDEX_CAPACITY` in
/// `statesman-storage`); writing more distinct rows than this between two
/// `read_since` calls forces the snapshot fallback.
const CHANGE_INDEX_CAPACITY: usize = 65_536;

fn test_key(idx: u8) -> (EntityName, Attribute) {
    let entity = EntityName::device("dc1", format!("cev-{}", idx % 48));
    let attr = match idx % 3 {
        0 => Attribute::DeviceFirmwareVersion,
        1 => Attribute::DeviceBootImage,
        _ => Attribute::DeviceCpuUtilization,
    };
    (entity, attr)
}

fn test_row(idx: u8, val: u8, when: u64) -> NetworkState {
    let (entity, attr) = test_key(idx);
    NetworkState::new(
        entity,
        attr,
        Value::text(format!("v-{val}")),
        SimTime(when),
        AppId::new("prop-writer"),
    )
}

/// One operation against a state view or a storage pool.
#[derive(Debug, Clone)]
enum SoupOp {
    Upsert { idx: u8, val: u8, when: u64 },
    RemoveKey { idx: u8 },
    RemoveVar { idx: u8 },
    Clear,
}

fn soup_op() -> impl Strategy<Value = SoupOp> {
    // Weighted mix: mostly upserts, a fair share of both removal shapes,
    // the occasional clear.
    (0..11u8, any::<u8>(), any::<u8>(), 0..10_000u64).prop_map(
        |(kind, idx, val, when)| match kind {
            0..=5 => SoupOp::Upsert { idx, val, when },
            6 | 7 => SoupOp::RemoveKey { idx },
            8 | 9 => SoupOp::RemoveVar { idx },
            _ => SoupOp::Clear,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A columnar `MapView` is observationally identical to the hashmap
    /// representation under interleaved upserts, key removals, var-id
    /// removals (the mirror-delete path), and clears — including the
    /// rows the removal operations hand back.
    #[test]
    fn columnar_view_matches_hash_view(
        ops in proptest::collection::vec(soup_op(), 1..80)
    ) {
        let mut hash = MapView::new();
        let mut col = MapView::columnar(Pool::Observed);
        prop_assert!(col.is_columnar() && !hash.is_columnar());
        for op in &ops {
            match op {
                SoupOp::Upsert { idx, val, when } => {
                    hash.upsert(test_row(*idx, *val, *when));
                    col.upsert(test_row(*idx, *val, *when));
                }
                SoupOp::RemoveKey { idx } => {
                    let (entity, attr) = test_key(*idx);
                    let key = StateKey::new(entity, attr);
                    prop_assert_eq!(hash.remove(&key), col.remove(&key));
                }
                SoupOp::RemoveVar { idx } => {
                    let (entity, attr) = test_key(*idx);
                    let var = StateKey::new(entity, attr).var_id();
                    prop_assert_eq!(hash.remove_var(var), col.remove_var(var));
                }
                SoupOp::Clear => {
                    hash.clear();
                    col.clear();
                }
            }
            prop_assert_eq!(hash.len(), col.len());
            prop_assert_eq!(hash.is_empty(), col.is_empty());
        }
        // Full-scan equality (sorted by key, payload bit-equal).
        prop_assert_eq!(
            hash.clone().into_sorted_rows(),
            col.clone().into_sorted_rows()
        );
        // Point reads agree over the whole key universe, hits and misses.
        for idx in 0..=255u8 {
            let (entity, attr) = test_key(idx);
            let var = StateKey::new(entity, attr).var_id();
            prop_assert_eq!(hash.get_var(var), col.get_var(var));
        }
        // The columnar byte accounting tracks occupancy.
        if !col.is_empty() {
            prop_assert!(col.approx_bytes() > 0);
        }
    }

    /// The columnar `StateMachine` pools match a plain hashmap shadow
    /// model under interleaved write/delete batches across two pools,
    /// and a slot, once assigned to a variable, is never reassigned —
    /// delete/re-insert cycles reuse the *same* slot, and no two
    /// variables ever share one.
    #[test]
    fn machine_pools_match_hashmap_shadow(
        ops in proptest::collection::vec(
            (soup_op(), any::<bool>()), 1..120
        )
    ) {
        let mut machine = StateMachine::new();
        let mut shadow: HashMap<Pool, HashMap<StateKey, NetworkState>> = HashMap::new();
        let mut first_slot: HashMap<(Pool, StateKey), u32> = HashMap::new();
        let mut seen: HashSet<(Pool, StateKey)> = HashSet::new();

        for (op, to_target) in &ops {
            let pool = if *to_target { Pool::Target } else { Pool::Observed };
            match op {
                SoupOp::Upsert { idx, val, when } => {
                    let row = test_row(*idx, *val, *when);
                    let key = row.key();
                    machine.apply(&LogCommand::WriteBatch {
                        pool: pool.clone(),
                        rows: vec![row.clone()].into(),
                    });
                    shadow.entry(pool.clone()).or_default().insert(key.clone(), row);
                    let slot = slot_registry().slot_of(&pool, key.var_id()).0;
                    let prior = first_slot
                        .entry((pool.clone(), key.clone()))
                        .or_insert(slot);
                    prop_assert_eq!(*prior, slot, "slot moved for {:?}", key);
                    seen.insert((pool, key));
                }
                // The machine has no clear/var-id command; fold the other
                // soup shapes into key deletes so the mix stays dense.
                other => {
                    let idx = match other {
                        SoupOp::RemoveKey { idx } | SoupOp::RemoveVar { idx } => *idx,
                        _ => 0,
                    };
                    let (entity, attr) = test_key(idx);
                    let key = StateKey::new(entity, attr);
                    machine.apply(&LogCommand::DeleteBatch {
                        pool: pool.clone(),
                        keys: vec![key.clone()],
                    });
                    shadow.entry(pool.clone()).or_default().remove(&key);
                }
            }
        }

        // The machine stamps rows with commit versions the shadow cannot
        // know; compare everything else bit-for-bit.
        fn essence(r: &NetworkState) -> (String, Value, SimTime, AppId) {
            (r.key().to_string(), r.value.clone(), r.updated_at, r.writer.clone())
        }
        for pool in [Pool::Observed, Pool::Target] {
            let model = shadow.remove(&pool).unwrap_or_default();
            prop_assert_eq!(machine.pool_len(&pool), model.len());
            let mut got: Vec<_> = machine.pool_rows(&pool).iter().map(essence).collect();
            got.sort_by(|a, b| a.0.cmp(&b.0));
            let mut want: Vec<_> = model.values().map(essence).collect();
            want.sort_by(|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(got, want);
            // Point reads agree for every key ever touched in this pool,
            // live or deleted.
            for (p, key) in &seen {
                if *p != pool {
                    continue;
                }
                prop_assert_eq!(
                    machine.get(&pool, key).map(essence),
                    model.get(key).map(essence)
                );
            }
        }

        // Slot uniqueness: distinct variables of one pool never collide.
        for pool in [Pool::Observed, Pool::Target] {
            let slots: HashSet<u32> = first_slot
                .iter()
                .filter(|((p, _), _)| *p == pool)
                .map(|(_, s)| *s)
                .collect();
            let vars = first_slot.keys().filter(|(p, _)| *p == pool).count();
            prop_assert_eq!(slots.len(), vars);
        }
    }
}

fn full_sorted(storage: &StorageService, dc: &DatacenterId, pool: Pool) -> Vec<NetworkState> {
    let mut rows = storage
        .read(ReadRequest {
            datacenter: dc.clone(),
            pool,
            freshness: Freshness::UpToDate,
            entity: None,
            attribute: None,
        })
        .unwrap();
    rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
    rows
}

/// A columnar changefeed mirror crossing the change-index compaction
/// floor: the `read_since` snapshot fallback must rebuild the columnar
/// view bit-equal to a full read (this is the path that evicts checker
/// mirrors after compaction).
#[test]
fn columnar_mirror_survives_change_index_compaction() {
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());

    // Seed a handful of rows and sync a columnar mirror incrementally.
    let rows: Vec<NetworkState> = (0..20u8).map(|i| test_row(i, 1, 10)).collect();
    storage
        .write(WriteRequest {
            pool: Pool::Observed,
            rows,
        })
        .unwrap();
    let mut view = MapView::columnar(Pool::Observed);
    let d0 = storage
        .read_since(&dc, &Pool::Observed, statesman_types::Version::GENESIS)
        .unwrap();
    let watermark = d0.watermark;
    view.apply_delta(d0);
    assert_eq!(
        view.clone().into_sorted_rows(),
        full_sorted(&storage, &dc, Pool::Observed)
    );

    // Blow past the change-index capacity in one commit: every entry the
    // mirror's watermark could have been served from is compacted away.
    let burst: Vec<NetworkState> = (0..CHANGE_INDEX_CAPACITY as u32 + 10)
        .map(|i| {
            NetworkState::new(
                EntityName::device("dc1", format!("bulk-{i}")),
                Attribute::DeviceCpuUtilization,
                Value::text(format!("load-{i}")),
                SimTime(100),
                AppId::new("bulk-writer"),
            )
        })
        .collect();
    storage
        .write(WriteRequest {
            pool: Pool::Observed,
            rows: burst,
        })
        .unwrap();

    let d1 = storage.read_since(&dc, &Pool::Observed, watermark).unwrap();
    assert!(
        d1.snapshot,
        "a burst past the change-index capacity must force the snapshot fallback"
    );
    view.apply_delta(d1);
    assert!(view.is_columnar(), "snapshot rebuild must stay columnar");
    assert_eq!(
        view.into_sorted_rows(),
        full_sorted(&storage, &dc, Pool::Observed)
    );
}

/// One control-loop stack for the incremental-vs-full comparison.
struct Stack {
    clock: SimClock,
    dc: DatacenterId,
    storage: StorageService,
    checker: Checker,
}

fn build_stack(incremental: bool) -> Stack {
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let graph = statesman_topology::DcnSpec::tiny("dc1").build();
    let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
    Monitor::new(net, storage.clone(), graph.clone())
        .run_round()
        .unwrap();
    let mut checker = Checker::new(
        CheckerConfig {
            group: ImpactGroup::Datacenter(dc.clone()),
            policy: MergePolicy::LastWriterWins,
        },
        graph.clone(),
    )
    .with_delta_reads(incremental)
    .with_columnar_state(incremental);
    checker.add_invariant(Box::new(TorPairCapacityInvariant::paper_default(
        &graph,
        dc.clone(),
        Some(1),
    )));
    Stack {
        clock,
        dc,
        storage,
        checker,
    }
}

/// A randomly generated proposal against the tiny fabric's aggs.
#[derive(Debug, Clone)]
struct RandomProposal {
    app: u8,
    pod: u32,
    agg: u32,
    attr_pick: u8,
    when: u64,
}

fn proposal_strategy() -> impl Strategy<Value = RandomProposal> {
    (0..3u8, 1..=2u32, 1..=2u32, 0..3u8, 0..10_000u64).prop_map(
        |(app, pod, agg, attr_pick, when)| RandomProposal {
            app,
            pod,
            agg,
            attr_pick,
            when,
        },
    )
}

/// Observed-state churn applied between checker passes: the monitor-shaped
/// writes and deletes that drive the incremental path's blast radius.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Flip a device's admin power in the OS (projected-down blast).
    Power { pod: u32, agg: u32, on: bool },
    /// Rewrite a counter row (radius-affecting but invariant-neutral).
    Counter { pod: u32, agg: u32, val: u8 },
    /// Delete an OS row outright (tombstone through the mirrors).
    Delete { pod: u32, agg: u32 },
}

fn churn_strategy() -> impl Strategy<Value = ChurnOp> {
    (0..6u8, 1..=2u32, 1..=2u32, any::<u8>()).prop_map(|(kind, pod, agg, val)| match kind {
        0 | 1 => ChurnOp::Power {
            pod,
            agg,
            on: val & 1 == 0,
        },
        2..=4 => ChurnOp::Counter { pod, agg, val },
        _ => ChurnOp::Delete { pod, agg },
    })
}

fn apply_churn(storage: &StorageService, op: &ChurnOp, when: u64) {
    let entity = |pod: &u32, agg: &u32| EntityName::device("dc1", format!("agg-{pod}-{agg}"));
    match op {
        ChurnOp::Power { pod, agg, on } => {
            storage
                .write(WriteRequest {
                    pool: Pool::Observed,
                    rows: vec![NetworkState::new(
                        entity(pod, agg),
                        Attribute::DeviceAdminPower,
                        Value::power(*on),
                        SimTime(when),
                        AppId::new("monitor"),
                    )],
                })
                .unwrap();
        }
        ChurnOp::Counter { pod, agg, val } => {
            storage
                .write(WriteRequest {
                    pool: Pool::Observed,
                    rows: vec![NetworkState::new(
                        entity(pod, agg),
                        Attribute::DeviceCpuUtilization,
                        Value::text(format!("cpu-{val}")),
                        SimTime(when),
                        AppId::new("monitor"),
                    )],
                })
                .unwrap();
        }
        ChurnOp::Delete { pod, agg } => {
            storage
                .delete(
                    Pool::Observed,
                    vec![StateKey::new(
                        entity(pod, agg),
                        Attribute::DeviceCpuUtilization,
                    )],
                )
                .unwrap();
        }
    }
}

fn write_proposal(stack: &Stack, p: &RandomProposal) {
    let entity = EntityName::device("dc1", format!("agg-{}-{}", p.pod, p.agg));
    let app = AppId::new(format!("app-{}", p.app));
    let (attr, value) = match p.attr_pick {
        0 => (Attribute::DeviceFirmwareVersion, Value::text("9.9")),
        1 => (Attribute::DeviceBootImage, Value::text("img-x")),
        _ => (Attribute::DeviceAdminPower, Value::power(false)),
    };
    let row = NetworkState::new(entity, attr, value, SimTime(p.when), app.clone());
    stack
        .storage
        .write(WriteRequest {
            pool: Pool::Proposed(app),
            rows: vec![row],
        })
        .unwrap();
}

fn receipt_lines(report: &statesman_core::CheckerPassReport) -> Vec<String> {
    let mut lines: Vec<String> = report
        .receipts
        .iter()
        .map(|r| format!("{}|{}|{}", r.app, r.key, r.outcome.tag()))
        .collect();
    lines.sort();
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The incremental checker (delta reads + columnar mirrors +
    /// blast-radius seed cache) decides exactly what a full-read checker
    /// decides, pass after pass, under proposal load, observed-state
    /// churn, deletes, and a mid-history partition outage.
    #[test]
    fn incremental_checker_matches_full_checker(
        proposals in proptest::collection::vec(proposal_strategy(), 1..18),
        churn in proptest::collection::vec(churn_strategy(), 0..10),
    ) {
        let inc = build_stack(true);
        let full = build_stack(false);
        let rounds = 4usize;
        let mut when = 20_000u64;

        for round in 0..rounds {
            // Identical proposal slices land on both stacks.
            for p in proposals.iter().skip(round).step_by(rounds) {
                write_proposal(&inc, p);
                write_proposal(&full, p);
            }
            // Identical churn between passes.
            for op in churn.iter().skip(round).step_by(rounds) {
                when += 1;
                apply_churn(&inc.storage, op, when);
                apply_churn(&full.storage, op, when);
            }
            // Mid-history outage: both passes fail, the incremental
            // checker's seed cache is invalidated, and the next pass
            // must recover bit-equal.
            if round == 2 {
                inc.storage.set_partition_available(&inc.dc, false);
                full.storage.set_partition_available(&full.dc, false);
                prop_assert!(inc.checker.run_pass(&inc.storage, inc.clock.now()).is_err());
                prop_assert!(full.checker.run_pass(&full.storage, full.clock.now()).is_err());
                inc.storage.set_partition_available(&inc.dc, true);
                full.storage.set_partition_available(&full.dc, true);
            }

            let ri = inc.checker.run_pass(&inc.storage, inc.clock.now()).unwrap();
            let rf = full.checker.run_pass(&full.storage, full.clock.now()).unwrap();
            prop_assert_eq!(ri.proposals_seen, rf.proposals_seen, "round {}", round);
            prop_assert_eq!(ri.accepted, rf.accepted, "round {}", round);
            prop_assert_eq!(ri.rejected, rf.rejected, "round {}", round);
            prop_assert_eq!(ri.already_satisfied, rf.already_satisfied, "round {}", round);
            prop_assert_eq!(ri.ts_pruned, rf.ts_pruned, "round {}", round);
            prop_assert_eq!(ri.variables_read, rf.variables_read, "round {}", round);
            prop_assert_eq!(receipt_lines(&ri), receipt_lines(&rf), "round {}", round);
        }

        // Final pool contents are bit-equal.
        for pool in [Pool::Observed, Pool::Target] {
            prop_assert_eq!(
                full_sorted(&inc.storage, &inc.dc, pool.clone()),
                full_sorted(&full.storage, &full.dc, pool)
            );
        }
    }
}

/// Regression (stale cache after compaction): a checker holding columnar
/// mirrors and a verdict seed from before a change-index compaction must
/// not reuse them against the stale watermark — the snapshot-fallback
/// delta rebuilds the mirror and forces a full reseed. A fresh checker
/// reading the same storage is the oracle.
#[test]
fn checker_cache_evicted_on_compaction_crossing() {
    // The identical history, driven through either stack: a first pass
    // seeds the mirrors and verdict cache, then a burst of distinct OS
    // rows crosses the compaction floor (plus a real health flip the
    // stale seed doesn't know about), then new proposals force a second
    // decision pass. Returns that second pass's report.
    let drive = |stack: &Stack| -> statesman_core::CheckerPassReport {
        write_proposal(
            stack,
            &RandomProposal {
                app: 0,
                pod: 1,
                agg: 1,
                attr_pick: 0,
                when: 100,
            },
        );
        stack
            .checker
            .run_pass(&stack.storage, stack.clock.now())
            .unwrap();

        let mut burst: Vec<NetworkState> = (0..CHANGE_INDEX_CAPACITY as u32 + 10)
            .map(|i| {
                NetworkState::new(
                    EntityName::device("dc1", format!("bulk-{i}")),
                    Attribute::DeviceCpuUtilization,
                    Value::text(format!("load-{i}")),
                    SimTime(200),
                    AppId::new("bulk-writer"),
                )
            })
            .collect();
        burst.push(NetworkState::new(
            EntityName::device("dc1", "agg-2-1"),
            Attribute::DeviceAdminPower,
            Value::power(false),
            SimTime(201),
            AppId::new("monitor"),
        ));
        stack
            .storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: burst,
            })
            .unwrap();

        for (app, pod, agg, pick) in [(1u8, 1u32, 2u32, 0u8), (2, 2, 2, 2)] {
            write_proposal(
                stack,
                &RandomProposal {
                    app,
                    pod,
                    agg,
                    attr_pick: pick,
                    when: 300,
                },
            );
        }
        stack
            .checker
            .run_pass(&stack.storage, stack.clock.now())
            .unwrap()
    };

    let stale = build_stack(true);
    let report = drive(&stale);
    let oracle = build_stack(false);
    let want = drive(&oracle);

    assert_eq!(report.proposals_seen, want.proposals_seen);
    assert_eq!(report.accepted, want.accepted);
    assert_eq!(report.rejected, want.rejected);
    assert_eq!(report.already_satisfied, want.already_satisfied);
    assert_eq!(report.variables_read, want.variables_read);
    assert_eq!(receipt_lines(&report), receipt_lines(&want));
    assert_eq!(
        full_sorted(&stale.storage, &stale.dc, Pool::Target),
        full_sorted(&oracle.storage, &oracle.dc, Pool::Target)
    );
}

/// One chaos seed, bit-equal across representations: the standard chaos
/// scenario (quarantines, degraded rounds, command faults) driven through
/// a columnar-state coordinator and a hashmap-state coordinator produces
/// the identical `ScenarioOutcome`.
#[test]
fn chaos_outcome_identical_columnar_vs_hash() {
    use statesman_chaos::ChaosScenario;
    let columnar = {
        let mut s = ChaosScenario::standard(7);
        s.columnar_state = true;
        s.run()
    };
    let hash = {
        let mut s = ChaosScenario::standard(7);
        s.columnar_state = false;
        s.run()
    };
    assert_eq!(
        columnar, hash,
        "chaos outcome diverged between columnar and hashmap state planes"
    );
    assert!(columnar.safety_violations.is_empty());
    assert!(columnar.converged_at.is_some(), "never converged");
}
