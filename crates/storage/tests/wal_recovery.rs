//! Property-based and targeted tests for the durable storage plane:
//! WAL record framing round trips, torn-write truncation at *every*
//! byte offset of the final record, mid-log hash-chain break detection,
//! snapshot-boundary recovery equivalence, and the deliberately broken
//! canary that proves the recovery-safety checker actually bites.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use statesman_storage::bus::ReplicaId;
use statesman_storage::cluster::{ClusterConfig, PaxosCluster};
use statesman_storage::machine::LogCommand;
use statesman_storage::recovery::{self, HashChainChecker, RecoverySafetyChecker};
use statesman_storage::wal::{encode_record, replay_log, DurabilityMode, RECORD_HEADER_LEN};
use statesman_types::{AppId, Attribute, EntityName, NetworkState, Pool, SimTime, Value};

/// Build a framed log from payloads, chained from `anchor`.
fn build_log(payloads: &[Vec<u8>], anchor: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut hash = anchor;
    for (seq, p) in payloads.iter().enumerate() {
        bytes.extend_from_slice(&encode_record(seq as u64, hash, p));
        hash = statesman_storage::wal::chain_hash(hash, p);
    }
    bytes
}

fn payloads_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    pvec(pvec(any::<u8>(), 0..48), 1..8)
}

proptest! {
    /// Encode → append → replay is the identity on payloads: every
    /// record comes back byte-equal, in order, with a clean chain.
    #[test]
    fn record_round_trip_is_identity(payloads in payloads_strategy(), anchor in any::<u64>()) {
        let bytes = build_log(&payloads, anchor);
        let replayed = replay_log(&bytes, anchor);
        prop_assert!(replayed.corrupt.is_none(), "{:?}", replayed.corrupt);
        prop_assert_eq!(replayed.truncated_records, 0);
        prop_assert_eq!(&replayed.payloads, &payloads);
        prop_assert_eq!(replayed.valid_len, bytes.len());
        prop_assert_eq!(replayed.end_seq, payloads.len() as u64);
    }

    /// A torn write — the log cut at *any* byte offset inside the final
    /// record — is repaired by truncation, never mistaken for
    /// corruption: every earlier record survives, and exactly the torn
    /// one is counted (zero when the cut lands on the record boundary).
    #[test]
    fn torn_final_record_truncates_at_every_offset(
        payloads in payloads_strategy(),
        anchor in any::<u64>(),
    ) {
        let bytes = build_log(&payloads, anchor);
        let last_start = bytes.len()
            - RECORD_HEADER_LEN
            - payloads.last().expect("non-empty").len();
        for cut in last_start..bytes.len() {
            let replayed = replay_log(&bytes[..cut], anchor);
            prop_assert!(
                replayed.corrupt.is_none(),
                "cut {cut}: torn tail misread as corruption: {:?}",
                replayed.corrupt
            );
            prop_assert_eq!(replayed.payloads.len(), payloads.len() - 1, "cut {}", cut);
            prop_assert_eq!(replayed.valid_len, last_start, "cut {}", cut);
            let expect_truncated = u64::from(cut != last_start);
            prop_assert_eq!(replayed.truncated_records, expect_truncated, "cut {}", cut);
        }
    }

    /// A flipped payload byte in any *non-final* record is a mid-log
    /// integrity violation: acknowledged state is damaged, so replay
    /// must refuse (report corruption), not silently truncate.
    #[test]
    fn mid_log_payload_flip_is_detected(
        // Non-empty payloads so every record has a byte to flip.
        payloads in pvec(pvec(any::<u8>(), 1..48), 2..8),
        anchor in any::<u64>(),
        pick in 0..1000usize,
        offset in 0..1000usize,
    ) {
        let bytes = build_log(&payloads, anchor);
        let clean = replay_log(&bytes, anchor);
        let victim = pick % (payloads.len() - 1); // any record but the last
        let start = clean.offsets[victim] + RECORD_HEADER_LEN;
        let flip_at = start + offset % payloads[victim].len();
        let mut torn = bytes.clone();
        torn[flip_at] ^= 0xFF;
        let replayed = replay_log(&torn, anchor);
        prop_assert!(
            replayed.corrupt.is_some(),
            "flip at byte {flip_at} of record {victim} went undetected"
        );
        prop_assert_eq!(replayed.payloads.len(), victim, "valid prefix stops at the flip");
    }
}

fn wb(dev: &str, v: &str) -> LogCommand {
    LogCommand::WriteBatch {
        pool: Pool::Observed,
        rows: vec![NetworkState::new(
            EntityName::device("dc1", dev),
            Attribute::DeviceFirmwareVersion,
            Value::text(v),
            SimTime::ZERO,
            AppId::monitor(),
        )]
        .into(),
    }
}

fn framed_cluster(snapshot_every: u64, commits: usize) -> PaxosCluster {
    let mut cfg = ClusterConfig::intra_dc(5);
    cfg.durability = DurabilityMode::FramedMemory;
    cfg.snapshot_every = snapshot_every;
    let mut c = PaxosCluster::new(cfg);
    for i in 0..commits {
        c.submit(wb(&format!("dev-{i}"), "1")).unwrap();
    }
    c
}

proptest! {
    /// Snapshot-boundary recovery equivalence: a replica rebuilt purely
    /// from its durable store (snapshot + WAL tail) is bit-equal to the
    /// never-crashed replica, wherever the snapshot boundary happens to
    /// sit relative to the commit count.
    #[test]
    fn recovery_is_bit_equal_to_never_crashing(
        snapshot_every in 2..8u64,
        commits in 1..20usize,
    ) {
        let c = framed_cluster(snapshot_every, commits);
        let live = c.replica_machine(ReplicaId(2)).to_snapshot();
        let (recovered, report) = recovery::recover(ReplicaId(2), 3, &c.store(ReplicaId(2)));
        prop_assert!(!report.refused);
        prop_assert_eq!(recovered.applied_through(), c.applied_through(ReplicaId(2)));
        prop_assert_eq!(recovered.machine.to_snapshot(), live, "recovered state diverged");
    }
}

/// The deliberately broken canary: truncate a store below its highest
/// committed decree (exactly what a buggy compaction would do) and prove
/// the `RecoverySafetyChecker` catches it — while the `HashChainChecker`
/// stays clean, because the damage leaves a perfectly valid chain
/// prefix. Integrity checking alone cannot catch silent truncation;
/// the watermark checker exists for precisely this hole.
#[test]
fn canary_truncation_below_committed_is_caught() {
    // Default snapshot cadence (256) so nothing is snapshotted and the
    // whole history lives in the log tail.
    let c = framed_cluster(256, 8);
    let store = c.store(ReplicaId(1));
    let mut safety = RecoverySafetyChecker::default();
    safety.observe_committed("dc1", 1, c.applied_through(ReplicaId(1)));

    store.canary_truncate_tail_records(4);

    let mut chain = HashChainChecker::default();
    chain.record("dc1/r1", store.verify_chain());
    assert!(
        chain.is_clean(),
        "canary truncation keeps a valid chain prefix — integrity checks must NOT fire: {:?}",
        chain.violations
    );

    let (_replica, report) = recovery::recover(ReplicaId(1), 3, &store);
    assert!(!report.refused, "truncation is not corruption");
    safety.check_recovery("dc1", 1, report.recovered_frontier);
    assert_eq!(
        safety.violations.len(),
        1,
        "recovery-safety checker missed the truncation canary"
    );
    assert!(safety.violations[0].contains("recovery_safety violated"));
}
