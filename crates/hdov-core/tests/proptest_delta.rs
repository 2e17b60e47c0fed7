//! Property-based tests of the delta-search resident-set bookkeeping
//! against a naive model.

use hdov_core::delta::DeltaSummary;
use hdov_core::{DeltaSearch, QueryResult, ResultEntry, ResultKey};
use proptest::prelude::*;
use std::collections::HashMap;

fn entry_strategy() -> impl Strategy<Value = ResultEntry> {
    (0u64..40, 0usize..4, 1u64..2000, 0.0f32..0.6).prop_map(|(id, level, bytes, dov)| ResultEntry {
        key: if id % 5 == 0 {
            ResultKey::Internal(id as u32)
        } else {
            ResultKey::Object(id)
        },
        level,
        polygons: bytes / 10,
        bytes,
        dov,
        cached: false,
    })
}

fn result_strategy() -> impl Strategy<Value = Vec<ResultEntry>> {
    prop::collection::vec(entry_strategy(), 0..30).prop_map(|mut v| {
        // One entry per key (a query result never repeats a key).
        let mut seen = std::collections::HashSet::new();
        v.retain(|e| seen.insert(e.key));
        v
    })
}

fn to_result(entries: &[ResultEntry], resident: &HashMap<ResultKey, usize>) -> QueryResult {
    let mut r = QueryResult::default();
    for e in entries {
        let mut e = *e;
        // Model what search() does with a skip map: matching level = cached.
        e.cached = resident.get(&e.key) == Some(&e.level);
        r.push_for_test(e);
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apply_sequences_match_model(queries in prop::collection::vec(result_strategy(), 1..12)) {
        let mut delta = DeltaSearch::new();
        let mut model: HashMap<ResultKey, (usize, u64)> = HashMap::new();
        let mut model_peak = 0u64;

        for q in &queries {
            let resident_levels: HashMap<ResultKey, usize> =
                model.iter().map(|(k, &(l, _))| (*k, l)).collect();
            let result = to_result(q, &resident_levels);
            let summary = delta.apply(&result);

            // Model the transition.
            let mut next: HashMap<ResultKey, (usize, u64)> = HashMap::new();
            let mut added = 0;
            let mut retained = 0;
            for e in result.entries() {
                if e.cached { retained += 1 } else { added += 1 }
                next.insert(e.key, (e.level, e.bytes));
            }
            let evicted = model.keys().filter(|k| !next.contains_key(k)).count();
            model = next;
            let bytes: u64 = model.values().map(|&(_, b)| b).sum();
            model_peak = model_peak.max(bytes);

            prop_assert_eq!(summary.added, added);
            prop_assert_eq!(summary.retained, retained);
            prop_assert_eq!(summary.evicted, evicted);
            prop_assert_eq!(delta.resident_bytes(), bytes);
            prop_assert_eq!(delta.resident_count(), model.len());
            prop_assert_eq!(delta.peak_bytes(), model_peak);

            // Skip lookups answer the model's key → level view.
            prop_assert_eq!(delta.resident_count(), model.len());
            for (k, &(l, _)) in &model {
                prop_assert_eq!(delta.resident_level(*k), Some(l));
            }
        }
    }

    /// One `DeltaSearch` reused across a long random mix of `apply`,
    /// `merge` and `clear`: after every step its skip lookups, summary, and
    /// resident and peak bytes equal a model that rebuilds everything from
    /// scratch.
    #[test]
    fn reused_resident_set_matches_model_after_every_step(
        ops in prop::collection::vec((0u8..10, result_strategy()), 1..80),
    ) {
        let mut delta = DeltaSearch::new();
        let mut model: HashMap<ResultKey, (usize, u64)> = HashMap::new();
        let mut model_peak = 0u64;

        for (step, (op, q)) in ops.iter().enumerate() {
            let levels: HashMap<ResultKey, usize> =
                model.iter().map(|(k, &(l, _))| (*k, l)).collect();
            let result = to_result(q, &levels);
            let (mut added, mut retained) = (0, 0);
            for e in result.entries() {
                if e.cached { retained += 1 } else { added += 1 }
            }
            let (summary, want) = match op {
                0..=5 => {
                    let next: HashMap<ResultKey, (usize, u64)> =
                        result.entries().iter().map(|e| (e.key, (e.level, e.bytes))).collect();
                    let evicted = model.keys().filter(|k| !next.contains_key(k)).count();
                    model = next;
                    (delta.apply(&result), DeltaSummary { added, retained, evicted })
                }
                6..=8 => {
                    for e in result.entries() {
                        model.insert(e.key, (e.level, e.bytes));
                    }
                    (delta.merge(&result), DeltaSummary { added, retained, evicted: 0 })
                }
                _ => {
                    model.clear();
                    delta.clear();
                    (DeltaSummary::default(), DeltaSummary::default())
                }
            };
            let bytes: u64 = model.values().map(|&(_, b)| b).sum();
            model_peak = model_peak.max(bytes);

            prop_assert_eq!(summary, want, "step {}: summary {:?} vs {:?}", step, summary, want);
            prop_assert_eq!(delta.resident_bytes(), bytes, "step {}: resident bytes", step);
            prop_assert_eq!(delta.peak_bytes(), model_peak, "step {}: peak bytes", step);
            prop_assert_eq!(delta.resident_count(), model.len());
            for id in 0u64..40 {
                for key in [ResultKey::Object(id), ResultKey::Internal(id as u32)] {
                    let level = model.get(&key).map(|&(l, _)| l);
                    prop_assert_eq!(delta.resident_level(key), level);
                    for l in 0..4 {
                        prop_assert_eq!(delta.is_resident(key, l), level == Some(l));
                    }
                }
            }
        }
    }

    #[test]
    fn merge_never_evicts(a in result_strategy(), b in result_strategy()) {
        let mut delta = DeltaSearch::new();
        delta.apply(&to_result(&a, &HashMap::new()));
        let before: std::collections::HashSet<ResultKey> =
            delta.resident_keys().collect();
        delta.merge(&to_result(&b, &HashMap::new()));
        let after: std::collections::HashSet<ResultKey> = delta.resident_keys().collect();
        for k in &before {
            prop_assert!(after.contains(k), "merge evicted {k:?}");
        }
        for e in &b {
            prop_assert!(after.contains(&e.key));
        }
    }
}
