//! Output checks against the benchmark's own Eq. 3–5 computation and the
//! properties the stored state must keep. Every check returns problems as
//! strings; an empty list means the state is correct.

use crate::gen::Rng;
use crate::oracle::Oracle;
use crate::stream::{page_problem, PAGE};
use tdstore::TdStore;
use tencentrec::topology::state::{counter_prefix, decode_sim_list};
use tencentrec::topology::{CfPipelineConfig, TopologyRecommender};

const TOLERANCE: f64 = 1e-9;

fn item_of(key: &[u8], prefix: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        key.get(prefix..prefix + 8)?.try_into().ok()?,
    ))
}

/// Every `ic:` counter equals the oracle's itemCount, and every item the
/// oracle counts has a counter. Replayed or duplicated deliveries would
/// show here, so this is also the exactly-once check on dedup.
fn item_counts(store: &TdStore, oracle: &Oracle, problems: &mut Vec<String>) {
    let stored = store.scan_prefix(b"ic:").expect("scan ic:");
    let mut seen = 0usize;
    for (key, value) in &stored {
        let Some(item) = item_of(key, 3) else {
            problems.push(format!("malformed ic: key {key:?}"));
            continue;
        };
        seen += 1;
        let (got, want) = (counter_prefix(value), oracle.item_count(item));
        if (got - want).abs() > TOLERANCE {
            problems.push(format!("itemCount({item}) = {got}, oracle {want}"));
        }
    }
    let expected = oracle.items().count();
    if seen != expected {
        problems.push(format!(
            "{seen} item counters stored, oracle has {expected}"
        ));
    }
}

/// A seeded sample of co-rated pairs plus random (mostly unrelated) pairs,
/// read through the query path's `similarity`.
fn similarities(
    rec: &TopologyRecommender,
    oracle: &Oracle,
    items: &[u64],
    rng: &mut Rng,
    problems: &mut Vec<String>,
) {
    let pairs = oracle.pairs();
    let mut sample: Vec<(u64, u64)> = (0..300)
        .filter(|_| !pairs.is_empty())
        .map(|_| pairs[rng.range(0, pairs.len() as u64 - 1) as usize])
        .collect();
    for _ in 0..100 {
        let p = items[rng.range(0, items.len() as u64 - 1) as usize];
        let q = items[rng.range(0, items.len() as u64 - 1) as usize];
        if p != q {
            sample.push((p, q));
        }
    }
    for (p, q) in sample {
        let (got, want) = (rec.similarity(p, q, 0), oracle.similarity(p, q));
        if (got - want).abs() > TOLERANCE {
            problems.push(format!("sim({p}, {q}) = {got}, oracle {want}"));
        }
    }
}

/// Every similar-items list: sorted, at most `top_k`, values in [0, 1],
/// no self-entry, no duplicate. Lists change only when one of their
/// pairs is touched, so they are checked for these properties, not for
/// equality with a batch top-k.
fn sim_lists(store: &TdStore, top_k: usize, problems: &mut Vec<String>) {
    for (key, value) in store.scan_prefix(b"sim:").expect("scan sim:") {
        let Some(item) = item_of(&key, 4) else {
            problems.push(format!("malformed sim: key {key:?}"));
            continue;
        };
        let list = decode_sim_list(&value);
        let mut others: Vec<u64> = list.iter().map(|e| e.0).collect();
        others.sort_unstable();
        others.dedup();
        // A pair whose counts are all equal computes pc / (√ic · √ic),
        // which rounds to 1 + 2^-52 in floating point.
        let bad = list.len() > top_k
            || others.len() != list.len()
            || list
                .iter()
                .any(|&(o, s)| o == item || !(0.0..=1.0 + TOLERANCE).contains(&s))
            || list.windows(2).any(|w| w[1].1 > w[0].1);
        if bad {
            problems.push(format!("sim list of {item} breaks its contract: {list:?}"));
        }
    }
}

/// After the stream drained: pages obey the contract and never hold an
/// item the user rated.
fn drained_queries(
    rec: &TopologyRecommender,
    oracle: &Oracle,
    users: &[u64],
    rng: &mut Rng,
    problems: &mut Vec<String>,
) {
    for _ in 0..300 {
        let user = users[rng.range(0, users.len() as u64 - 1) as usize];
        let recs = rec.recommend(user, PAGE);
        if let Some(problem) = page_problem(&recs) {
            problems.push(format!("recommend({user}): {problem}"));
        }
        let rated = oracle.rated(user);
        if let Some(&(item, _)) = recs.iter().find(|(i, _)| rated.contains(i)) {
            problems.push(format!("recommend({user}) returned rated item {item}"));
        }
    }
}

/// All state checks on a drained store. Stops at the first few problems.
pub fn state(
    store: &TdStore,
    config: &CfPipelineConfig,
    oracle: &Oracle,
    users: &[u64],
    seed: u64,
) -> Vec<String> {
    let rec = TopologyRecommender::new(store.clone(), config.clone());
    let mut rng = Rng::new(seed ^ 0xC4EC);
    let items: Vec<u64> = {
        let mut v: Vec<u64> = oracle.items().map(|(i, _)| i).collect();
        v.sort_unstable();
        v
    };
    let mut problems = Vec::new();
    item_counts(store, oracle, &mut problems);
    similarities(&rec, oracle, &items, &mut rng, &mut problems);
    sim_lists(store, config.top_k, &mut problems);
    drained_queries(&rec, oracle, users, &mut rng, &mut problems);
    problems.truncate(8);
    problems
}

/// Key+value bytes of the store by key family (`hist`, `ic`, `pc`,
/// `sim`, other).
pub fn bytes_by_family(store: &TdStore) -> Vec<(&'static str, u64)> {
    let mut sums = [
        ("hist", 0u64),
        ("ic", 0),
        ("pc", 0),
        ("sim", 0),
        ("other", 0),
    ];
    for (key, value) in store.scan_prefix(b"").expect("scan store") {
        let family = match key.iter().position(|&b| b == b':') {
            Some(n) => &key[..n],
            None => &key[..0],
        };
        let slot = sums
            .iter()
            .position(|(f, _)| f.as_bytes() == family)
            .unwrap_or(4);
        sums[slot].1 += (key.len() + value.len()) as u64;
    }
    sums.to_vec()
}
