//! Delta search: the walkthrough optimisation of §5.4.
//!
//! "For VISUAL, the search algorithm can be improved to a 'delta' search
//! algorithm which does not retrieve objects that have been retrieved in the
//! previous queries. As the models stored in the database are heavy-weighted,
//! delta search can reduce the I/O cost significantly."
//!
//! [`DeltaSearch`] tracks the resident set (model key → LoD level and bytes)
//! across a sequence of queries and accounts resident/peak memory — the
//! numbers behind the paper's 28 MB (VISUAL) vs 62 MB (REVIEW) comparison.
//! The resident set *is* the skip set: every traversal takes
//! `skip: Option<&DeltaSearch>` and looks keys up in it directly, so a
//! frame never copies the set. [`apply`](DeltaSearch::apply) and
//! [`merge`](DeltaSearch::merge) fold a result into the map in place and keep
//! the byte total as a running sum, so a steady-state walkthrough frame
//! allocates nothing here.

use crate::search::{QueryResult, ResultKey};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Outcome of folding one query into the resident set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaSummary {
    /// Entries fetched this query (new key, or level change).
    pub added: usize,
    /// Entries reused from the resident set.
    pub retained: usize,
    /// Entries evicted because they left the result set.
    pub evicted: usize,
}

/// A deterministic multiplicative hasher for [`ResultKey`]s and object
/// ids: one rotate-xor-multiply round per written word. Keys are small
/// integers, so SipHash's flooding resistance buys nothing here and costs
/// most of a lookup.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

/// A hash map keyed through [`KeyHasher`], for the per-frame lookups.
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    /// Derived `Hash` writes an enum's discriminant as an `isize`.
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One resident model: its level, its bytes, and the fold that last saw it.
#[derive(Debug, Clone, Copy)]
struct Resident {
    level: usize,
    bytes: u64,
    epoch: u32,
}

/// Resident-set tracker for walkthrough sessions, and the skip set every
/// traversal consults.
#[derive(Debug, Default)]
pub struct DeltaSearch {
    /// Every entry carries the current `epoch` between folds; `apply` bumps
    /// the epoch, re-stamps what the result confirms, and evicts the rest.
    resident: KeyMap<ResultKey, Resident>,
    epoch: u32,
    resident_bytes: u64,
    peak_bytes: u64,
}

impl DeltaSearch {
    /// An empty resident set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resident LoD level of `key`, if it is resident.
    pub fn resident_level(&self, key: ResultKey) -> Option<usize> {
        self.resident.get(&key).map(|r| r.level)
    }

    /// The delta-search skip test: `key` is resident at exactly `level`,
    /// so the traversal serves it `cached`, with no model I/O.
    #[inline]
    pub fn is_resident(&self, key: ResultKey, level: usize) -> bool {
        self.resident.get(&key).is_some_and(|r| r.level == level)
    }

    /// Folds a query result into the resident set: newly fetched entries are
    /// added, reused entries retained, and entries absent from the result are
    /// evicted (the paper's systems do not cache beyond the active set).
    pub fn apply(&mut self, result: &QueryResult) -> DeltaSummary {
        self.epoch = self.epoch.wrapping_add(1);
        let mut summary = self.fold(result);
        let (epoch, mut freed) = (self.epoch, 0);
        self.resident.retain(|_, r| {
            let keep = r.epoch == epoch;
            if !keep {
                summary.evicted += 1;
                freed += r.bytes;
            }
            keep
        });
        self.resident_bytes -= freed;
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
        summary
    }

    /// Merges a (possibly partial) result into the resident set without
    /// evicting anything — used by budget-truncated progressive frames,
    /// where absence from the result only means "not re-confirmed yet".
    pub fn merge(&mut self, result: &QueryResult) -> DeltaSummary {
        let summary = self.fold(result);
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
        summary
    }

    /// Inserts or updates every entry of `result` under the current epoch,
    /// keeping `resident_bytes` equal to the sum over the map.
    fn fold(&mut self, result: &QueryResult) -> DeltaSummary {
        let mut summary = DeltaSummary::default();
        for e in result.entries() {
            if e.cached {
                summary.retained += 1;
            } else {
                summary.added += 1;
            }
            let now = Resident {
                level: e.level,
                bytes: e.bytes,
                epoch: self.epoch,
            };
            let old = self.resident.insert(e.key, now).map_or(0, |r| r.bytes);
            self.resident_bytes = self.resident_bytes - old + e.bytes;
        }
        summary
    }

    /// Iterates over the resident keys (what is currently "on screen").
    pub fn resident_keys(&self) -> impl Iterator<Item = ResultKey> + '_ {
        self.resident.keys().copied()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Peak resident bytes over the session.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Number of resident models.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Empties the resident set (peak is kept).
    pub fn clear(&mut self) {
        self.resident.clear();
        self.resident_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::ResultEntry;

    fn result(entries: Vec<ResultEntry>) -> QueryResult {
        let mut r = QueryResult::default();
        for e in entries {
            r.push_for_test(e);
        }
        r
    }

    fn obj(id: u64, level: usize, bytes: u64, cached: bool) -> ResultEntry {
        ResultEntry {
            key: ResultKey::Object(id),
            level,
            polygons: bytes / 10,
            bytes,
            dov: 0.1,
            cached,
        }
    }

    #[test]
    fn first_apply_adds_everything() {
        let mut d = DeltaSearch::new();
        let s = d.apply(&result(vec![obj(1, 0, 100, false), obj(2, 1, 50, false)]));
        assert_eq!(
            s,
            DeltaSummary {
                added: 2,
                retained: 0,
                evicted: 0
            }
        );
        assert_eq!(d.resident_bytes(), 150);
        assert_eq!(d.resident_count(), 2);
    }

    #[test]
    fn retained_and_evicted_tracked() {
        let mut d = DeltaSearch::new();
        d.apply(&result(vec![obj(1, 0, 100, false), obj(2, 1, 50, false)]));
        // Object 1 reused (cached), object 2 gone, object 3 new.
        let s = d.apply(&result(vec![obj(1, 0, 100, true), obj(3, 0, 70, false)]));
        assert_eq!(
            s,
            DeltaSummary {
                added: 1,
                retained: 1,
                evicted: 1
            }
        );
        assert_eq!(d.resident_bytes(), 170);
    }

    #[test]
    fn peak_survives_eviction() {
        let mut d = DeltaSearch::new();
        d.apply(&result(vec![obj(1, 0, 1000, false)]));
        d.apply(&result(vec![obj(2, 0, 10, false)]));
        assert_eq!(d.peak_bytes(), 1000);
        assert_eq!(d.resident_bytes(), 10);
    }

    #[test]
    fn skip_lookups_reflect_levels() {
        let mut d = DeltaSearch::new();
        d.apply(&result(vec![obj(7, 2, 40, false)]));
        assert_eq!(d.resident_level(ResultKey::Object(7)), Some(2));
        assert!(d.is_resident(ResultKey::Object(7), 2));
        assert!(!d.is_resident(ResultKey::Object(7), 1));
        assert!(!d.is_resident(ResultKey::Internal(7), 2));
        assert_eq!(d.resident_count(), 1);
    }

    #[test]
    fn clear_resets_resident_not_peak() {
        let mut d = DeltaSearch::new();
        d.apply(&result(vec![obj(1, 0, 500, false)]));
        d.clear();
        assert_eq!(d.resident_bytes(), 0);
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.peak_bytes(), 500);
    }
}
