//! Answer verification, after the clock stops.

use crate::drive::OpRecord;
use crate::inputs::{locate_digest, Plan, QueryKind};
use rand::{Rng, SeedableRng};
use sinr_core::BoxedEngine;
use std::collections::{BTreeMap, HashSet};

/// `mobile_churn` steps re-located per connection on a fresh engine.
const CHURN_SAMPLES: usize = 16;

/// The `(conn, op)` of every answered op whose answer differs from the
/// reference. Read-only workloads compare every op against the digests
/// computed before the clock started. On `mobile_churn` the answers
/// depend on the mutations before them, so a client-side mirror network
/// replays each connection's steps and a seeded sample of them (plus
/// the last) is re-located on a fresh local engine.
pub fn mismatches<'a>(
    plan: &Plan,
    records: impl IntoIterator<Item = &'a OpRecord>,
) -> HashSet<(usize, usize)> {
    let mut bad = HashSet::new();
    let mut stepped: Vec<BTreeMap<usize, u64>> = vec![BTreeMap::new(); plan.conns.len()];
    for r in records {
        let Some(got) = r.digest else { continue };
        let cp = &plan.conns[r.conn];
        match cp.query(r.op).expected {
            Some(want) if want != got => {
                bad.insert((r.conn, r.op));
            }
            Some(_) => {}
            None => {
                stepped[r.conn].insert(r.op, got);
            }
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(plan.seed ^ 0x5EED);
    for (c, answered) in stepped.iter().enumerate() {
        let Some(&last) = answered.keys().next_back() else {
            continue;
        };
        let mut sample: Vec<usize> = (0..CHURN_SAMPLES)
            .map(|_| rng.gen_range(0..last + 1))
            .filter(|op| answered.contains_key(op))
            .collect();
        sample.push(last);
        sample.sort_unstable();
        sample.dedup();
        let cp = &plan.conns[c];
        let mut mirror = plan.net.clone();
        let mut applied = 0;
        for op in sample {
            while applied <= op {
                mirror
                    .apply_ops(&cp.steps[applied].ops)
                    .expect("mirror replays the planned steps");
                applied += 1;
            }
            let QueryKind::Locate(points) = &cp.query(op).kind else {
                unreachable!("mutating connections send locate batches")
            };
            let engine = BoxedEngine::voronoi_assisted(&mirror);
            if locate_digest(&engine, points) != answered[&op] {
                bad.insert((c, op));
            }
        }
    }
    bad
}
