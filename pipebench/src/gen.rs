//! Seeded input generation. Everything a workload feeds the program is a
//! pure function of `--seed` and the layout arguments: the same seed
//! gives the same actions in the same order.
//!
//! Users are bucketed by the TDAccess partition their key hashes to, and
//! every partition receives exactly the same number of actions. So the
//! per-partition offsets at which the workloads checkpoint, restore and
//! read back do not depend on the seed, only on the layout.

use std::collections::VecDeque;
use tencentrec::action::{ActionType, UserAction};

/// First user id handed out; ids below are never used.
const USER_BASE: u64 = 1_000_000;
/// Probe items live above the catalogue so nothing else ever rates them.
const PROBE_ITEM_BASE: u64 = 50_000_000;
/// Action timestamps start here (ms) and advance 1 ms per action, so a
/// whole run stays inside the pipeline's 6 h linked time and every
/// co-rated pair forms, as Eq. 4 assumes.
pub const TS_BASE: u64 = 1_700_000_000_000;

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) sampler over items `1..=n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64 + 1
    }
}

/// TDAccess's keyed partitioner (FNV-1a over the key bytes), reproduced
/// so users can be bucketed before they are produced.
pub fn partition_of(user: u64, partitions: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in user.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % partitions as u64) as usize
}

/// Hands out fresh user ids per partition, in a fixed (seed-free) order.
pub struct UserIds {
    partitions: usize,
    next: u64,
    spare: Vec<VecDeque<u64>>,
}

impl UserIds {
    pub fn new(partitions: usize) -> Self {
        UserIds {
            partitions,
            next: USER_BASE,
            spare: vec![VecDeque::new(); partitions],
        }
    }

    /// A never-used user id whose key lands in `partition`.
    pub fn take(&mut self, partition: usize) -> u64 {
        loop {
            if let Some(id) = self.spare[partition].pop_front() {
                return id;
            }
            let id = self.next;
            self.next += 1;
            self.spare[partition_of(id, self.partitions)].push_back(id);
        }
    }
}

/// History depths spread evenly over `[lo, hi]` by a golden-ratio
/// sequence that does not depend on the seed: every seed gets users of
/// the same depths, so the pair-update work of a log (Σ depth²) is the
/// same on every seed and only the items and the order differ.
struct Depths {
    lo: u64,
    hi: u64,
    k: u64,
}

impl Depths {
    fn new((lo, hi): (u64, u64)) -> Self {
        Depths { lo, hi, k: 0 }
    }

    fn next(&mut self) -> u64 {
        self.k += 1;
        let frac = (self.k as f64 * 0.618_033_988_749_895).fract();
        self.lo + (frac * (self.hi - self.lo + 1) as f64) as u64
    }
}

/// One user's items: distinct Zipf draws, except that every eighth action
/// re-rates one of the user's earlier items (Eq. 3's max-weight rating).
/// With distinct items a user of depth `d` forms exactly `d(d-1)/2`
/// pairs, so the pair work follows from the depths alone.
fn user_items(rng: &mut Rng, zipf: &Zipf, depth: usize) -> Vec<u64> {
    let mut items: Vec<u64> = Vec::with_capacity(depth);
    for k in 0..depth {
        if k % 8 == 7 {
            items.push(items[rng.range(0, k as u64 - 1) as usize]);
            continue;
        }
        let mut item = zipf.sample(rng);
        for _ in 0..64 {
            if !items.contains(&item) {
                break;
            }
            item = zipf.sample(rng);
        }
        items.push(item);
    }
    items
}

/// Who generates a stretch of the log.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Actions per user, spread evenly over this range (histories stay
    /// below the pipeline's `max_history` of 1024).
    pub depth: (u64, u64),
    /// Catalogue size and Zipf exponent of item popularity.
    pub items: usize,
    pub zipf: f64,
    /// Users of one partition in session at once. A user's actions are
    /// spread over the stretch of the log in which they are in session,
    /// not over the whole log, so a checkpoint interval changes the
    /// histories of only the users in session during it.
    pub in_session: usize,
}

/// Weighted action types (Browse 1 … Purchase 5); Impression (weight 0)
/// is left out so every action rates its item.
const ACTIONS: [ActionType; 5] = [
    ActionType::Browse,
    ActionType::Click,
    ActionType::Click,
    ActionType::Read,
    ActionType::Purchase,
];

/// `per_partition` actions for each of `partitions` partitions, drawn from
/// fresh users of `mix`, with each partition's users in session
/// `mix.in_session` at a time and their actions interleaved at random, and
/// the partitions interleaved round-robin. Timestamps are assigned later
/// by [`stamp`]. Returns the actions and the users created.
pub fn backlog(
    rng: &mut Rng,
    ids: &mut UserIds,
    mix: Mix,
    partitions: usize,
    per_partition: usize,
) -> (Vec<UserAction>, Vec<u64>) {
    let zipf = Zipf::new(mix.items, mix.zipf);
    let mut users = Vec::new();
    let mut lanes: Vec<Vec<UserAction>> = Vec::with_capacity(partitions);
    for p in 0..partitions {
        let mut depths = Depths::new(mix.depth);
        let mut queue = VecDeque::new(); // (user, items left, last first)
        let mut planned = 0;
        while planned < per_partition {
            let user = ids.take(p);
            users.push(user);
            let depth = (depths.next() as usize).min(per_partition - planned);
            planned += depth;
            let mut items = user_items(rng, &zipf, depth);
            items.reverse();
            queue.push_back((user, items));
        }
        let mut open: Vec<(u64, Vec<u64>)> = Vec::with_capacity(mix.in_session);
        let mut lane = Vec::with_capacity(per_partition);
        while lane.len() < per_partition {
            while open.len() < mix.in_session {
                match queue.pop_front() {
                    Some(user) => open.push(user),
                    None => break,
                }
            }
            let slot = rng.range(0, open.len() as u64 - 1) as usize;
            let (user, items) = &mut open[slot];
            let item = items.pop().expect("users in session have items left");
            let action = ACTIONS[rng.range(0, ACTIONS.len() as u64 - 1) as usize];
            lane.push(UserAction::new(*user, item, action, 0));
            if items.is_empty() {
                open.swap_remove(slot);
            }
        }
        lanes.push(lane);
    }
    let mut out = Vec::with_capacity(partitions * per_partition);
    for i in 0..per_partition {
        for lane in &lanes {
            out.push(lane[i]);
        }
    }
    (out, users)
}

/// Gives `actions` consecutive timestamps starting at `*clock`.
pub fn stamp(actions: &mut [UserAction], clock: &mut u64) {
    for a in actions {
        a.timestamp = *clock;
        *clock += 1;
    }
}

/// A freshness probe. In setup, `p` clicks `a` and `q` clicks `b`; nobody
/// else ever touches `a` or `b`. The probe itself is `p` clicking `b`:
/// the pair (a, b) then gets a pair count and a similarity, `b`'s
/// similar-items list gains `a`, and `recommend(q)` — empty until then —
/// returns `a`. The action reaches the query result only through the
/// pair-count/similarity write.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub p: u64,
    pub q: u64,
    pub a: u64,
    pub b: u64,
    /// The probe action's timestamp, later than every setup click.
    pub ts: u64,
}

impl Probe {
    /// The action that is sent, stamped like every other input action.
    pub fn action(&self) -> UserAction {
        UserAction::new(self.p, self.b, ActionType::Click, self.ts)
    }
}

/// `n` probes (`2n` a multiple of `partitions`) and their setup clicks,
/// not yet stamped. The `2n` probe users are spread evenly over the
/// partitions, so the setup clicks keep every partition the same length.
pub fn probes(ids: &mut UserIds, partitions: usize, n: usize) -> (Vec<Probe>, Vec<UserAction>) {
    let mut probes = Vec::with_capacity(n);
    let mut setup = Vec::with_capacity(2 * n);
    for j in 0..n {
        let p = ids.take((2 * j) % partitions);
        let q = ids.take((2 * j + 1) % partitions);
        let a = PROBE_ITEM_BASE + 2 * j as u64;
        let probe = Probe {
            p,
            q,
            a,
            b: a + 1,
            ts: 0,
        };
        setup.push(UserAction::new(p, probe.a, ActionType::Click, 0));
        setup.push(UserAction::new(q, probe.b, ActionType::Click, 0));
        probes.push(probe);
    }
    (probes, setup)
}

/// Light users: `n` actions by short-history users (depth from `mix`),
/// with every `heavy_every`-th action instead taken by a random user of
/// `heavy` — the live stream's make-up. Users are not bucketed; the live
/// stream has no offset-dependent operation.
pub fn stream(
    rng: &mut Rng,
    ids: &mut UserIds,
    mix: Mix,
    heavy: &[u64],
    heavy_every: usize,
    n: usize,
) -> Vec<UserAction> {
    let zipf = Zipf::new(mix.items, mix.zipf);
    let mut depths = Depths::new(mix.depth);
    let mut open: Vec<(u64, Vec<u64>)> = Vec::new(); // (user, items left)
    let mut out = Vec::with_capacity(n);
    let mut partition = 0usize;
    while out.len() < n {
        let action = ACTIONS[rng.range(0, ACTIONS.len() as u64 - 1) as usize];
        if out.len() % heavy_every == heavy_every - 1 && !heavy.is_empty() {
            let user = heavy[rng.range(0, heavy.len() as u64 - 1) as usize];
            out.push(UserAction::new(user, zipf.sample(rng), action, 0));
            continue;
        }
        if open.len() < mix.in_session * ids.partitions {
            let user = ids.take(partition % ids.partitions);
            partition += 1;
            let mut items = user_items(rng, &zipf, depths.next() as usize);
            items.reverse();
            open.push((user, items));
        }
        let slot = rng.range(0, open.len() as u64 - 1) as usize;
        let (user, items) = &mut open[slot];
        let item = items.pop().expect("open users have items left");
        out.push(UserAction::new(*user, item, action, 0));
        if items.is_empty() {
            open.swap_remove(slot);
        }
    }
    out
}
