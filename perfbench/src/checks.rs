//! The benchmark's hard correctness checks.
//!
//! Each check is a pure function over data the run collected, so the
//! benchmark's tests can show that it fires on a tampered input. A failed
//! check makes the run print `"correct": false` and exit nonzero.

use statesman_types::{EntityName, NetworkState, StateKey, Value};
use std::collections::BTreeMap;

/// Failures collected over one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Names of the checks that ran, with their pass count.
    pub ran: BTreeMap<&'static str, u64>,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check's outcome.
    pub fn note(&mut self, name: &'static str, outcome: Result<(), String>) {
        *self.ran.entry(name).or_insert(0) += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{name}: {e}"));
        }
    }

    /// True when nothing failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Every proposal row a checker pass saw was decided exactly once.
pub fn decisions_balance(
    group: &str,
    seen: usize,
    accepted: usize,
    rejected: usize,
    already_satisfied: usize,
) -> Result<(), String> {
    if seen == accepted + rejected + already_satisfied {
        Ok(())
    } else {
        Err(format!(
            "group {group}: proposals_seen {seen} != accepted {accepted} + rejected \
             {rejected} + already_satisfied {already_satisfied}"
        ))
    }
}

/// The OS rows read back equal the simulator's values. `rows` pairs each
/// key with (simulator value, stored OS value).
pub fn os_matches_simulator(rows: &[(StateKey, Value, Option<Value>)]) -> Result<(), String> {
    let bad: Vec<String> = rows
        .iter()
        .filter(|(_, sim, os)| os.as_ref() != Some(sim))
        .map(|(k, sim, os)| format!("{k}: simulator {sim:?}, OS {os:?}"))
        .collect();
    match bad.len() {
        0 => Ok(()),
        n => Err(format!(
            "{n} of {} rows differ, e.g. {}",
            rows.len(),
            bad[0]
        )),
    }
}

/// Every acknowledged write is readable: for each key the final stored
/// value is the value of the last acknowledged write to it.
pub fn acked_writes_visible(
    expected: &BTreeMap<(String, StateKey), Value>,
    stored: &BTreeMap<(String, StateKey), Value>,
) -> Result<(), String> {
    let bad: Vec<String> = expected
        .iter()
        .filter(|(k, v)| stored.get(*k) != Some(*v))
        .map(|((pool, key), v)| {
            format!(
                "{pool} {key}: acknowledged {v:?}, read {:?}",
                stored.get(&(pool.clone(), key.clone()))
            )
        })
        .collect();
    match bad.len() {
        0 => Ok(()),
        n => Err(format!(
            "{n} of {} acknowledged rows not readable, e.g. {}",
            expected.len(),
            bad[0]
        )),
    }
}

/// An entity-scoped read returned rows of that entity only, and at least
/// one.
pub fn entity_rows_only(requested: &EntityName, rows: &[NetworkState]) -> Result<(), String> {
    if rows.is_empty() {
        return Err(format!("read of {requested} returned no rows"));
    }
    match rows.iter().find(|r| &r.entity != requested) {
        None => Ok(()),
        Some(r) => Err(format!(
            "read of {requested} returned a row of {}",
            r.entity
        )),
    }
}

/// Every partition's WAL hash chains verify.
pub fn wal_chains(results: &[(String, Result<u64, String>)]) -> Result<(), String> {
    match results
        .iter()
        .find_map(|(dc, r)| r.as_ref().err().map(|e| format!("partition {dc}: {e}")))
    {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// The traced pass decided exactly what the untraced pass decided.
pub fn digests_equal(untraced: &[u64], traced: &[u64]) -> Result<(), String> {
    if untraced.len() != traced.len() {
        return Err(format!(
            "traced pass ran {} rounds, untraced {}",
            traced.len(),
            untraced.len()
        ));
    }
    match untraced.iter().zip(traced).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(r) => Err(format!(
            "round {r}: untraced digest {:016x}, traced {:016x}",
            untraced[r], traced[r]
        )),
    }
}

/// FNV-1a, 64 bit: a stable digest of decision records.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes in.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        self
    }

    /// Fold a displayable value in.
    pub fn put(&mut self, v: impl std::fmt::Display) -> &mut Self {
        self.bytes(v.to_string().as_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_types::{AppId, Attribute, SimTime};

    fn key(dev: &str) -> StateKey {
        StateKey::new(
            EntityName::device("dc1", dev),
            Attribute::DeviceFirmwareVersion,
        )
    }

    #[test]
    fn unbalanced_decisions_fire() {
        assert!(decisions_balance("dc:dc1", 10, 6, 3, 1).is_ok());
        assert!(decisions_balance("dc:dc1", 10, 6, 3, 0).is_err());
    }

    #[test]
    fn os_mismatch_fires() {
        let good = vec![(
            key("tor-1-1"),
            Value::text("6.0.3"),
            Some(Value::text("6.0.3")),
        )];
        assert!(os_matches_simulator(&good).is_ok());
        let mut bad = good.clone();
        bad[0].2 = Some(Value::text("7.0.1"));
        assert!(os_matches_simulator(&bad).is_err());
        bad[0].2 = None;
        assert!(os_matches_simulator(&bad).is_err());
    }

    #[test]
    fn dropped_acknowledged_write_fires() {
        let mut expected = BTreeMap::new();
        expected.insert(("PS:a".to_string(), key("tor-1-1")), Value::text("x1"));
        expected.insert(("PS:a".to_string(), key("tor-1-2")), Value::text("x2"));
        let stored = expected.clone();
        assert!(acked_writes_visible(&expected, &stored).is_ok());
        // The store lost one acknowledged write.
        let mut lost = stored.clone();
        lost.remove(&("PS:a".to_string(), key("tor-1-2")));
        assert!(acked_writes_visible(&expected, &lost).is_err());
        // An acknowledged write the store never saw.
        let mut extra = expected.clone();
        extra.insert(("PS:a".to_string(), key("tor-1-3")), Value::text("x3"));
        assert!(acked_writes_visible(&extra, &stored).is_err());
    }

    #[test]
    fn foreign_row_in_entity_read_fires() {
        let e = EntityName::device("dc1", "tor-1-1");
        let row = |ent: EntityName| {
            NetworkState::new(
                ent,
                Attribute::DeviceFirmwareVersion,
                Value::text("6.0.3"),
                SimTime::ZERO,
                AppId::new("monitor"),
            )
        };
        assert!(entity_rows_only(&e, &[row(e.clone())]).is_ok());
        assert!(entity_rows_only(&e, &[]).is_err());
        let other = EntityName::device("dc1", "tor-1-2");
        assert!(entity_rows_only(&e, &[row(e.clone()), row(other)]).is_err());
    }

    #[test]
    fn broken_wal_chain_fires() {
        let ok = vec![("dc1".to_string(), Ok(12)), ("wan".to_string(), Ok(3))];
        assert!(wal_chains(&ok).is_ok());
        let mut bad = ok.clone();
        bad[1].1 = Err("hash mismatch at record 2".to_string());
        assert!(wal_chains(&bad).is_err());
    }

    #[test]
    fn perturbed_traced_digest_fires() {
        let untraced = vec![1, 2, 3];
        assert!(digests_equal(&untraced, &untraced).is_ok());
        assert!(digests_equal(&untraced, &[1, 2, 4]).is_err());
        assert!(digests_equal(&untraced, &[1, 2]).is_err());
    }

    #[test]
    fn digest_separates_fields() {
        let a = Fnv::default().put("ab").put("c").finish();
        let b = Fnv::default().put("a").put("bc").finish();
        assert_ne!(a, b);
    }
}
