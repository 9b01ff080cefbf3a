//! The benchmark's own computation of the paper's Eqs. 3–5 from the
//! generated action list, independent of every program crate:
//!
//! - Eq. 3: a user's rating of an item is the largest weight among the
//!   user's actions on it;
//! - the co-rating of a pair is the smaller of the two ratings;
//! - Eq. 5: `itemCount(p) = Σ_u r_up`, `pairCount(p, q) = Σ_u min(r_up, r_uq)`;
//! - Eq. 4: `sim(p, q) = pairCount / (√itemCount(p) · √itemCount(q))`.

use std::collections::{BTreeMap, HashMap, HashSet};
use tencentrec::action::{ActionWeights, UserAction};

pub struct Oracle {
    /// Per user: item → rating.
    ratings: HashMap<u64, BTreeMap<u64, f64>>,
    item_count: HashMap<u64, f64>,
    pair_count: HashMap<(u64, u64), f64>,
}

impl Oracle {
    pub fn new(actions: &[UserAction], weights: &ActionWeights) -> Self {
        let mut ratings: HashMap<u64, BTreeMap<u64, f64>> = HashMap::new();
        for a in actions {
            let w = weights.weight(a.action);
            let r = ratings
                .entry(a.user)
                .or_default()
                .entry(a.item)
                .or_insert(0.0);
            *r = r.max(w);
        }
        let mut item_count: HashMap<u64, f64> = HashMap::new();
        let mut pair_count: HashMap<(u64, u64), f64> = HashMap::new();
        for rated in ratings.values() {
            let rated: Vec<(u64, f64)> = rated.iter().map(|(&i, &r)| (i, r)).collect();
            for (k, &(p, rp)) in rated.iter().enumerate() {
                *item_count.entry(p).or_default() += rp;
                for &(q, rq) in &rated[k + 1..] {
                    // BTreeMap order: p < q, the canonical pair.
                    *pair_count.entry((p, q)).or_default() += rp.min(rq);
                }
            }
        }
        Oracle {
            ratings,
            item_count,
            pair_count,
        }
    }

    pub fn item_count(&self, item: u64) -> f64 {
        self.item_count.get(&item).copied().unwrap_or(0.0)
    }

    /// Items with a positive count.
    pub fn items(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.item_count.iter().map(|(&i, &c)| (i, c))
    }

    pub fn pair_count(&self, p: u64, q: u64) -> f64 {
        let key = (p.min(q), p.max(q));
        self.pair_count.get(&key).copied().unwrap_or(0.0)
    }

    pub fn similarity(&self, p: u64, q: u64) -> f64 {
        let (ip, iq) = (self.item_count(p), self.item_count(q));
        if ip <= 0.0 || iq <= 0.0 {
            return 0.0;
        }
        self.pair_count(p, q) / (ip.sqrt() * iq.sqrt())
    }

    /// Co-rated pairs in a fixed order (for seeded sampling).
    pub fn pairs(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.pair_count.keys().copied().collect();
        v.sort_unstable();
        v
    }

    pub fn rated(&self, user: u64) -> HashSet<u64> {
        self.ratings
            .get(&user)
            .map(|r| r.keys().copied().collect())
            .unwrap_or_default()
    }
}
