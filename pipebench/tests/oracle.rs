//! The benchmark's Eq. 3–5 oracle against the program's batch reference,
//! `ExplicitItemCF::practical_similarity` (Eq. 4 computed directly over
//! the rating matrix), on random small logs.

use pipebench::gen::Rng;
use pipebench::oracle::Oracle;
use tencentrec::action::{ActionType, ActionWeights, UserAction};
use tencentrec::cf::ExplicitItemCF;

const TYPES: [ActionType; 6] = [
    ActionType::Browse,
    ActionType::Click,
    ActionType::Read,
    ActionType::Share,
    ActionType::AddToCart,
    ActionType::Purchase,
];

#[test]
fn oracle_matches_practical_similarity_on_random_logs() {
    let weights = ActionWeights::default();
    for seed in 0..50u64 {
        let mut rng = Rng::new(seed);
        let users = rng.range(1, 12);
        let items = rng.range(2, 15);
        let n = rng.range(1, 120) as usize;
        let actions: Vec<UserAction> = (0..n)
            .map(|ts| {
                let action = TYPES[rng.range(0, TYPES.len() as u64 - 1) as usize];
                UserAction::new(rng.range(1, users), rng.range(1, items), action, ts as u64)
            })
            .collect();

        // The reference takes the Eq. 3 rating (max weight) as given.
        let mut reference = ExplicitItemCF::new();
        for a in &actions {
            let w = weights.weight(a.action);
            let r = reference.rating(a.user, a.item).max(w);
            reference.add_rating(a.user, a.item, r);
        }
        let oracle = Oracle::new(&actions, &weights);
        for p in 1..=items {
            for q in 1..=items {
                if p == q {
                    continue;
                }
                let (got, want) = (
                    oracle.similarity(p, q),
                    reference.practical_similarity(p, q),
                );
                assert!(
                    (got - want).abs() < 1e-12,
                    "seed {seed}: sim({p}, {q}) oracle {got}, reference {want}"
                );
            }
        }
    }
}

#[test]
fn oracle_counts_by_hand() {
    // u1 clicks 1 (2) then reads it (3); u1 browses 2 (1); u2 clicks 1 and 2.
    let actions = [
        UserAction::new(1, 1, ActionType::Click, 1),
        UserAction::new(1, 1, ActionType::Read, 2),
        UserAction::new(1, 2, ActionType::Browse, 3),
        UserAction::new(2, 1, ActionType::Click, 4),
        UserAction::new(2, 2, ActionType::Click, 5),
    ];
    let oracle = Oracle::new(&actions, &ActionWeights::default());
    assert_eq!(oracle.item_count(1), 3.0 + 2.0);
    assert_eq!(oracle.item_count(2), 1.0 + 2.0);
    assert_eq!(oracle.pair_count(1, 2), 1.0 + 2.0);
    assert!((oracle.similarity(2, 1) - 3.0 / (5.0f64.sqrt() * 3.0f64.sqrt())).abs() < 1e-15);
}
