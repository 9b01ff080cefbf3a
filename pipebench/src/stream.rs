//! The load-generation phase shared by all workloads: an open-loop
//! producer thread sends actions and freshness probes on a fixed
//! schedule, and one closed-loop query thread calls
//! `TopologyRecommender::recommend` back to back, checking pending probes
//! between queries. The calling thread samples consumer lag and takes
//! checkpoints at a fixed action cadence. Two load threads in all, at most
//! `nproc` on the reference box.

use crate::env::{cf_config, Env, TOPIC};
use crate::gen::{Probe, Rng};
use crossbeam::channel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tencentrec::action::UserAction;
use tencentrec::topology::TopologyRecommender;

/// Page size of every query.
pub const PAGE: usize = 10;
/// A probe not visible this long after its scheduled send is a failed
/// operation.
pub const PROBE_BOUND: Duration = Duration::from_secs(2);

pub struct Plan<'a> {
    /// Open-loop actions (timestamps already assigned), sent at `rate`.
    pub actions: &'a [UserAction],
    pub rate: f64,
    pub probes: &'a [Probe],
    pub probe_period: Duration,
    /// Users the query thread serves, uniformly at random.
    pub serve_users: &'a [u64],
    /// Items whose similar-items lists the traced run reads directly.
    pub items: &'a [u64],
    /// Checkpoint each time this many more records commit.
    pub checkpoint_every: Option<u64>,
    pub traced: bool,
    pub seed: u64,
}

#[derive(Default)]
pub struct Outcome {
    /// Scheduled send → first query reflecting the probe (ms).
    pub freshness_ms: Vec<f64>,
    pub probes_failed: usize,
    pub serve_us: Vec<f64>,
    /// Traced only: `similar_items` call latency (µs).
    pub similar_us: Vec<f64>,
    /// Traced only: `Producer::send` call latency (µs).
    pub produce_us: Vec<f64>,
    /// How late each send left against its schedule (ms).
    pub lateness_ms: Vec<f64>,
    /// Consumer lag (records not yet committed), sampled every 5 ms.
    pub lag: Vec<u64>,
    /// Query results that broke the output contract.
    pub bad_queries: Vec<String>,
    /// Store reads the query thread made: `recommend` reads the history and
    /// one similar-items list per recent item (serve users all have at
    /// least `recent_k` items; a probe's `q` has one), `similar_items`
    /// reads one list. Lets the pipeline's own reads be told apart.
    pub query_gets: u64,
    /// Checkpoint call durations and delta bytes.
    pub checkpoints: Vec<(Duration, Option<u64>)>,
    /// First scheduled send → every record committed.
    pub elapsed: Duration,
}

enum Event {
    Action(usize),
    Probe(usize),
}

fn schedule(plan: &Plan) -> Vec<(Duration, Event)> {
    let mut events: Vec<(Duration, Event)> = (0..plan.actions.len())
        .map(|i| {
            (
                Duration::from_secs_f64(i as f64 / plan.rate),
                Event::Action(i),
            )
        })
        .collect();
    events.extend(
        (0..plan.probes.len())
            .map(|j| (plan.probe_period.mul_f64(j as f64 + 0.5), Event::Probe(j))),
    );
    events.sort_by_key(|&(due, _)| due);
    events
}

/// Checks one page against the query contract: at most `PAGE` distinct
/// items in descending score.
pub fn page_problem(recs: &[(u64, f64)]) -> Option<String> {
    if recs.len() > PAGE {
        return Some(format!("{} items on a page of {PAGE}", recs.len()));
    }
    for (k, w) in recs.windows(2).enumerate() {
        if w[1].1 > w[0].1 || w[1].1.is_nan() {
            return Some(format!("scores not descending at {k}: {recs:?}"));
        }
    }
    let mut items: Vec<u64> = recs.iter().map(|r| r.0).collect();
    items.sort_unstable();
    items.dedup();
    (items.len() != recs.len()).then(|| format!("duplicate items: {recs:?}"))
}

/// Runs the plan against the running life and waits until every record
/// of the topic has committed.
pub fn run(env: &mut Env, plan: &Plan) -> Result<Outcome, String> {
    let events = schedule(plan);
    let life = env.life();
    let store = life.store.clone();
    let topic = env.topic.clone();
    let acks = env.acks.clone();
    let sending = AtomicBool::new(true);
    let (probe_tx, probe_rx) = channel::unbounded::<(usize, Instant)>();
    let mut out = Outcome::default();
    let start = Instant::now() + Duration::from_millis(5);

    std::thread::scope(|s| -> Result<(), String> {
        let producer = s.spawn(|| {
            let producer = topic.producer(TOPIC).expect("producer");
            let mut lateness = Vec::with_capacity(events.len());
            let mut produce_us = Vec::new();
            for (offset, event) in &events {
                let due = start + *offset;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                lateness.push(due.elapsed().as_secs_f64() * 1e3);
                let action = match *event {
                    Event::Action(i) => plan.actions[i],
                    Event::Probe(j) => plan.probes[j].action(),
                };
                let t = Instant::now();
                let (pid, off) = producer
                    .send(Some(&action.user.to_le_bytes()[..]), &action.to_bytes())
                    .expect("produce");
                if plan.traced {
                    produce_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                if let Event::Probe(j) = *event {
                    if let Some(acks) = &acks {
                        let src = tencentrec::topology::replay::encode_src(pid, off);
                        acks.sent(src, due);
                    }
                    probe_tx.send((j, due)).expect("query thread alive");
                }
            }
            sending.store(false, Ordering::SeqCst);
            (lateness, produce_us)
        });

        let query = s.spawn(|| {
            let config = cf_config(obs::Registry::new());
            let serve_gets = 1 + config.recent_k as u64;
            let rec = TopologyRecommender::new(store.clone(), config);
            let mut rng = Rng::new(plan.seed ^ 0x0051_E27E);
            let mut pending: Vec<(usize, Instant)> = Vec::new();
            let mut q = Outcome::default();
            loop {
                pending.extend(probe_rx.try_iter());
                q.query_gets += 2 * pending.len() as u64;
                pending.retain(|&(j, due)| {
                    let probe = &plan.probes[j];
                    if rec
                        .recommend(probe.q, PAGE)
                        .iter()
                        .any(|&(i, _)| i == probe.a)
                    {
                        q.freshness_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        false
                    } else if due.elapsed() > PROBE_BOUND {
                        q.probes_failed += 1;
                        false
                    } else {
                        true
                    }
                });
                if !sending.load(Ordering::SeqCst) && pending.is_empty() && probe_rx.is_empty() {
                    break;
                }
                let user =
                    plan.serve_users[rng.range(0, plan.serve_users.len() as u64 - 1) as usize];
                let t = Instant::now();
                let recs = rec.recommend(user, PAGE);
                q.serve_us.push(t.elapsed().as_secs_f64() * 1e6);
                q.query_gets += serve_gets;
                if let Some(problem) = page_problem(&recs) {
                    if q.bad_queries.len() < 5 {
                        q.bad_queries.push(format!("recommend({user}): {problem}"));
                    }
                }
                if plan.traced {
                    let item = plan.items[rng.range(0, plan.items.len() as u64 - 1) as usize];
                    let t = Instant::now();
                    std::hint::black_box(rec.similar_items(item));
                    q.similar_us.push(t.elapsed().as_secs_f64() * 1e6);
                    q.query_gets += 1;
                }
            }
            q
        });

        // Lag sampling and checkpoints at the fixed cadence.
        let mut next_ckpt = plan
            .checkpoint_every
            .map(|every| env.life().committed() + every);
        while !producer.is_finished() {
            std::thread::sleep(Duration::from_millis(5));
            let life = env.life();
            out.lag
                .push(env.topic_len().saturating_sub(life.committed()));
            if let (Some(mark), Some(every)) = (next_ckpt, plan.checkpoint_every) {
                if life.committed() >= mark {
                    out.checkpoints.push(env.checkpoint());
                    next_ckpt = Some(mark + every);
                }
            }
        }
        let (lateness, produce_us) = producer.join().expect("producer thread panicked");
        out.lateness_ms = lateness;
        out.produce_us = produce_us;
        let drained = env.wait_committed(env.topic_len(), Duration::from_secs(60));
        out.elapsed = start.elapsed();
        let q = query.join().expect("query thread panicked");
        drained?;
        out.freshness_ms = q.freshness_ms;
        out.probes_failed = q.probes_failed;
        out.serve_us = q.serve_us;
        out.similar_us = q.similar_us;
        out.bad_queries = q.bad_queries;
        out.query_gets = q.query_gets;
        Ok(())
    })?;
    Ok(out)
}
