//! The three workloads. A run repeats whole rounds of one workload, as
//! many as fit `--seconds` at the workload's nominal round length (at
//! least two), so every run of a given length does the same work; each round
//! sets a deployment up from scratch, runs the workload's main phase,
//! a load phase with freshness probes and queries, and at least one
//! crash/restore, then checks the resulting state against the oracle.

use crate::check;
use crate::env::{cf_config, Env, Knobs, PARTITIONS};
use crate::gen::{self, Mix, Probe, Rng, UserIds};
use crate::oracle::Oracle;
use crate::report::{LayerCounters, Report};
use crate::stream::{self, Plan};
use crate::sys;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionWeights, UserAction};

/// A stalled pipeline ends the run (with an error) after this long.
const STALL_LIMIT: Duration = Duration::from_secs(60);
/// Freshness probes per round on the quiescent workloads.
const QUIET_PROBES: usize = 32;
const QUIET_PROBE_PERIOD: Duration = Duration::from_millis(25);
/// Crash/restores at the end of a `backlog` or `live` round.
const ROUND_END_RESTARTS: usize = 3;

/// Deep-history users of one partition in session at once.
const SESSION: usize = 3;

/// `backlog`: deep-history users, Zipf(0.9) over 4,000 items.
const BACKLOG_MIX: Mix = Mix {
    depth: (20, 150),
    items: 4_000,
    zipf: 0.9,
    in_session: SESSION,
};
/// Records per partition of the backlog log.
const BACKLOG_PER_PARTITION: usize = 1_536;
/// The `backlog` log is cut into this many checkpoint intervals. Setup
/// drains the first `BACKLOG_BASE` and ends with the full base checkpoint;
/// the drain then checkpoints at the end of each further interval, the
/// last on the quiescent pipeline. The base holds several intervals' worth
/// of state, so each interval's changes stay below the production
/// `max_delta_ratio` and go out as deltas.
const BACKLOG_INTERVALS: u64 = 8;
const BACKLOG_BASE: u64 = 3;

/// `live`: warm state of heavy users, then a stream of light users.
const WARM_MIX: Mix = Mix {
    depth: (20, 200),
    items: 4_000,
    zipf: 0.9,
    in_session: SESSION,
};
const WARM_PER_PARTITION: usize = 1_024;
const LIGHT_MIX: Mix = Mix {
    depth: (1, 8),
    items: 4_000,
    zipf: 0.9,
    in_session: 16,
};
/// One stream action in this many comes from a warm heavy user.
const HEAVY_EVERY: usize = 20;
pub const LIVE_STREAM_SECS: f64 = 3.0;
/// Open-loop send rate of the `live` stream, in actions/s: well below the
/// pipeline's capacity on light users, so latency is timed unsaturated.
pub const LIVE_RATE: f64 = 1_000.0;
const LIVE_PROBE_PERIOD: Duration = Duration::from_millis(20);
const LIVE_CHECKPOINT_EVERY: u64 = 1_500;

/// `restart`: medium histories.
const RESTART_MIX: Mix = Mix {
    depth: (10, 80),
    items: 4_000,
    zipf: 0.9,
    in_session: SESSION,
};
/// Deltas after the full base; the tail after the last delta is as long
/// as one checkpoint interval.
const RESTART_DELTAS: usize = 3;
const RESTARTS_PER_ROUND: usize = 4;
/// Poll size of the lagging reader: not a divisor of the segment size,
/// so its reads straddle segment boundaries.
const LAGGING_POLL: usize = 100;

/// Everything one run needs besides the workload's inputs.
pub struct Run {
    pub knobs: Knobs,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub work: PathBuf,
}

/// One workload's inputs: a pure function of the seed and the layout.
pub struct Inputs {
    /// Produced in setup.
    pub log: Vec<UserAction>,
    /// Sent open-loop during the load phase (`live` only).
    pub stream: Vec<UserAction>,
    pub probes: Vec<Probe>,
    /// Users whose pages the query thread serves.
    pub serve_users: Vec<u64>,
    /// Every user (for the drained-query check).
    pub users: Vec<u64>,
    pub items: Vec<u64>,
    pub oracle: Oracle,
}

impl Inputs {
    fn finish(
        mut log: Vec<UserAction>,
        mut stream: Vec<UserAction>,
        mut probes: Vec<Probe>,
        serve_users: Vec<u64>,
    ) -> Inputs {
        let mut clock = gen::TS_BASE;
        gen::stamp(&mut log, &mut clock);
        gen::stamp(&mut stream, &mut clock);
        // Probe sends are stamped last; their order does not matter.
        for probe in &mut probes {
            probe.ts = clock;
            clock += 1;
        }
        let probe_actions: Vec<UserAction> = probes.iter().map(Probe::action).collect();
        let all: Vec<UserAction> = log
            .iter()
            .chain(&stream)
            .chain(&probe_actions)
            .copied()
            .collect();
        let oracle = Oracle::new(&all, &ActionWeights::default());
        let mut users: Vec<u64> = all.iter().map(|a| a.user).collect();
        users.sort_unstable();
        users.dedup();
        let mut items: Vec<u64> = oracle.items().map(|(i, _)| i).collect();
        items.sort_unstable();
        Inputs {
            log,
            stream,
            probes,
            serve_users,
            users,
            items,
            oracle,
        }
    }
}

/// Probe setup clicks first, then `per_partition - setup share` records
/// per partition of `mix`: every partition ends up `per_partition` long.
fn seeded_log(
    rng: &mut Rng,
    ids: &mut UserIds,
    per_partition: usize,
    n_probes: usize,
    mix: Mix,
) -> (Vec<UserAction>, Vec<Probe>, Vec<u64>) {
    assert!(
        (2 * n_probes).is_multiple_of(PARTITIONS),
        "probe setup clicks must split evenly over the partitions"
    );
    let (probes, mut log) = gen::probes(ids, PARTITIONS, n_probes);
    let share = 2 * n_probes / PARTITIONS;
    let (body, users) = gen::backlog(rng, ids, mix, PARTITIONS, per_partition - share);
    log.extend(body);
    (log, probes, users)
}

pub fn backlog_inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut ids = UserIds::new(PARTITIONS);
    let (log, probes, users) = seeded_log(
        &mut rng,
        &mut ids,
        BACKLOG_PER_PARTITION,
        QUIET_PROBES,
        BACKLOG_MIX,
    );
    Inputs::finish(log, Vec::new(), probes, users)
}

pub fn live_inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut ids = UserIds::new(PARTITIONS);
    let n_probes = (LIVE_STREAM_SECS / LIVE_PROBE_PERIOD.as_secs_f64()) as usize;
    let (log, probes, warm) =
        seeded_log(&mut rng, &mut ids, WARM_PER_PARTITION, n_probes, WARM_MIX);
    let n = (LIVE_RATE * LIVE_STREAM_SECS) as usize;
    let stream = gen::stream(&mut rng, &mut ids, LIGHT_MIX, &warm, HEAVY_EVERY, n);
    Inputs::finish(log, stream, probes, warm)
}

/// `--segment-msgs` must be a multiple of this, so that
/// [`restart_layout`]'s offsets are all multiples of 32.
pub const SEGMENT_MSGS_UNIT: usize = 1024;

/// Per-partition layout of the `restart` log, in records: the full base
/// at `base`, a checkpoint every `interval`, and a tail of one interval.
/// With `segment_msgs` a multiple of [`SEGMENT_MSGS_UNIT`], all are
/// multiples of the spout's 32-record poll, so replay reads stay aligned.
/// The base holds three intervals, so each delta stays below the
/// production `max_delta_ratio`. The tail crosses from the second
/// segment into the third, and the lagging reader's range from the first
/// (spilled) segment into the second (spilled) one.
pub fn restart_layout(segment_msgs: usize) -> (usize, usize) {
    let interval = 10 * segment_msgs / 32;
    (3 * interval, interval)
}

pub fn restart_inputs(seed: u64, segment_msgs: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut ids = UserIds::new(PARTITIONS);
    let (base, interval) = restart_layout(segment_msgs);
    let per_partition = base + (RESTART_DELTAS + 1) * interval;
    let (log, probes, users) =
        seeded_log(&mut rng, &mut ids, per_partition, QUIET_PROBES, RESTART_MIX);
    Inputs::finish(log, Vec::new(), probes, users)
}

impl Run {
    fn env(&self, round: usize) -> Env {
        Env::new(
            &self.knobs,
            self.work.join(format!("round-{round}")),
            self.traced,
        )
    }

    fn plan<'a>(
        &self,
        inputs: &'a Inputs,
        rate: f64,
        period: Duration,
        ckpt: Option<u64>,
    ) -> Plan<'a> {
        Plan {
            actions: &inputs.stream,
            rate,
            probes: &inputs.probes,
            probe_period: period,
            serve_users: &inputs.serve_users,
            items: &inputs.items,
            checkpoint_every: ckpt,
            traced: self.traced,
            seed: self.seed,
        }
    }

    /// `--seconds` worth of rounds of nominal length `nominal_s`, at
    /// least two.
    pub fn rounds(
        &self,
        nominal_s: f64,
        mut round: impl FnMut(usize) -> Result<(), String>,
    ) -> Result<(), String> {
        let n = ((self.seconds / nominal_s).round() as usize).max(2);
        for k in 0..n {
            let t = Instant::now();
            round(k)?;
            eprintln!(
                "pipebench: round {k} of {n} took {:.2} s",
                t.elapsed().as_secs_f64()
            );
        }
        Ok(())
    }

    /// The probe-and-query phase on an otherwise idle pipeline.
    fn quiet_load(
        &self,
        env: &mut Env,
        inputs: &Inputs,
        report: &mut Report,
    ) -> Result<(), String> {
        let plan = self.plan(inputs, 1.0, QUIET_PROBE_PERIOD, None);
        let out = stream::run(env, &plan)?;
        report.load(&out, inputs.probes.len());
        take_probe_acks(env, report);
        self.query_gets(env, inputs, report);
        Ok(())
    }

    /// Traced only: store reads per query, on a drained pipeline.
    fn query_gets(&self, env: &Env, inputs: &Inputs, report: &mut Report) {
        if !self.traced {
            return;
        }
        let life = env.life();
        let rec = tencentrec::topology::TopologyRecommender::new(
            life.store.clone(),
            cf_config(obs::Registry::new()),
        );
        let before = LayerCounters::read(life);
        let n = 200;
        for k in 0..n {
            let user = inputs.serve_users[k * 7919 % inputs.serve_users.len()];
            std::hint::black_box(rec.recommend(user, stream::PAGE));
        }
        let after = LayerCounters::read(life);
        report
            .gets_per_query
            .push((after.gets - before.gets) as f64 / n as f64);
    }

    /// Round-end crashes, each recovering from the same checkpoint, then
    /// the oracle checks.
    fn restart_and_check(
        &self,
        env: &mut Env,
        inputs: &Inputs,
        report: &mut Report,
    ) -> Result<(), String> {
        for _ in 0..ROUND_END_RESTARTS {
            let r = env.restart(STALL_LIMIT)?;
            report.restart(&r);
            report.attempted += 1;
        }
        self.check(env, inputs, report);
        Ok(())
    }

    fn check(&self, env: &Env, inputs: &Inputs, report: &mut Report) {
        let life = env.life();
        let len = env.topic_len();
        if life.committed() != len {
            report
                .problems
                .push(format!("committed {} of {len} records", life.committed()));
        }
        let problems = check::state(
            &life.store,
            &cf_config(obs::Registry::new()),
            &inputs.oracle,
            &inputs.users,
            self.seed,
        );
        report.problems.extend(problems);
    }

    pub fn backlog(&self, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
        self.rounds(5.0, |round| {
            // Setup: the whole log is produced, the topology launched and
            // warmed on the first `BACKLOG_BASE` checkpoint intervals of
            // the log, which end with the full base checkpoint.
            let t = Instant::now();
            let mut env = self.env(round);
            env.produce(&inputs.log);
            env.launch(TdStore::new(StoreConfig::default()), Vec::new());
            let n = inputs.log.len() as u64;
            let every = n / BACKLOG_INTERVALS;
            env.wait_committed(BACKLOG_BASE * every, STALL_LIMIT)?;
            let mut checkpoints = vec![env.checkpoint()];
            report.setup_s.push(t.elapsed().as_secs_f64());

            // Drain the rest with delta checkpoints at a fixed action
            // cadence and a final checkpoint on the quiescent pipeline.
            let ledger = sys::Ledger::start();
            let phase = report.phase_start(&env);
            let drain = Instant::now();
            let from = env.life().committed();
            for k in BACKLOG_BASE + 1..BACKLOG_INTERVALS {
                env.wait_committed(k * every, STALL_LIMIT)?;
                checkpoints.push(env.checkpoint());
            }
            env.wait_committed(n, STALL_LIMIT)?;
            checkpoints.push(env.checkpoint());
            let drain = drain.elapsed();
            report.main_phase(&env, phase, &ledger, n - from, drain, 0);
            report.checkpoints(&checkpoints);
            report.attempted += n;

            self.quiet_load(&mut env, inputs, report)?;
            self.restart_and_check(&mut env, inputs, report)
        })
    }

    pub fn live(&self, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
        self.rounds(5.0, |round| {
            let t = Instant::now();
            let mut env = self.env(round);
            env.produce(&inputs.log);
            env.launch(TdStore::new(StoreConfig::default()), Vec::new());
            env.wait_committed(inputs.log.len() as u64, STALL_LIMIT)?;
            let base = env.checkpoint();
            report.setup_s.push(t.elapsed().as_secs_f64());

            let ledger = sys::Ledger::start();
            let phase = report.phase_start(&env);
            let plan = self.plan(
                inputs,
                LIVE_RATE,
                LIVE_PROBE_PERIOD,
                Some(LIVE_CHECKPOINT_EVERY),
            );
            let out = stream::run(&mut env, &plan)?;
            let n = inputs.stream.len() as u64;
            report.main_phase(&env, phase, &ledger, n, out.elapsed, out.query_gets);
            report.load(&out, inputs.probes.len());
            take_probe_acks(&env, report);
            let mut checkpoints = vec![base];
            checkpoints.extend(out.checkpoints.iter().copied());
            report.checkpoints(&checkpoints);
            report.overload(&out, LIVE_RATE);
            report.attempted += n;
            self.query_gets(&env, inputs, report);

            // The crash comes after a final checkpoint on the drained
            // pipeline, so every round restores the same state.
            env.checkpoint();
            self.restart_and_check(&mut env, inputs, report)
        })
    }

    pub fn restart(&self, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
        let p = PARTITIONS;
        let (base, interval) = restart_layout(self.knobs.segment_msgs);
        self.rounds(5.0, |round| {
            // Setup: the log is produced in stages and each checkpoint
            // lands on a quiescent pipeline — a full base, then deltas
            // one interval apart — then the tail the crash loses.
            let t = Instant::now();
            let mut env = self.env(round);
            let mut at = base * p;
            env.produce(&inputs.log[..at]);
            env.launch(TdStore::new(StoreConfig::default()), Vec::new());
            let mut checkpoints = Vec::new();
            for stage in 0..=RESTART_DELTAS {
                env.wait_committed(at as u64, STALL_LIMIT)?;
                checkpoints.push(env.checkpoint());
                let next = at + interval * p;
                env.produce(&inputs.log[at..next]);
                at = next;
                if stage == RESTART_DELTAS {
                    assert_eq!(at, inputs.log.len(), "restart layout covers the log");
                }
            }
            report.setup_s.push(t.elapsed().as_secs_f64());
            report.checkpoints(&checkpoints);

            let phase = report.phase_start(&env);
            let mut replayed = 0;
            let mut replay_time = Duration::ZERO;
            let mut usage = sys::LayerUse::new();
            let mut counters = LayerCounters::default();
            for _ in 0..RESTARTS_PER_ROUND {
                let r = env.restart(STALL_LIMIT)?;
                replayed += r.tail;
                replay_time += r.tail_replay;
                for (layer, (cpu, read)) in &r.usage {
                    let slot = usage.entry(*layer).or_default();
                    slot.0 += cpu;
                    slot.1 += read;
                }
                report.restart(&r);
                report.attempted += 1;
                // Each life is new, so its counters cover exactly its tail
                // replay (and the restore's store writes).
                counters.add(&LayerCounters::read(env.life()));
            }
            report.main_phase_with(&env, phase, usage, counters, replayed, replay_time);

            report.attempted += 1;
            if let Err(gap) = lagging_read(&env, p, base as u64, inputs.log.len() as u64 / p as u64)
            {
                report.failed += 1;
                report.notes.push(format!("lagging reader: {gap}"));
            }

            self.quiet_load(&mut env, inputs, report)?;
            self.check(&env, inputs, report);
            Ok(())
        })
    }
}

fn take_probe_acks(env: &Env, report: &mut Report) {
    if let Some(acks) = &env.acks {
        report.probe_acks(acks.take());
    }
}

/// A new consumer group reads every partition of the retained log from
/// the full base's sealed offset `from` to `end` and checks that each
/// offset arrives exactly once and in order. Bounded: it stops at the
/// first empty poll or after five seconds.
fn lagging_read(env: &Env, partitions: usize, from: u64, end: u64) -> Result<(), String> {
    let mut consumer = env
        .topic
        .consumer(crate::env::TOPIC, "lagging-reader")
        .map_err(|e| e.to_string())?;
    let mut next = vec![from; partitions];
    for pid in 0..partitions {
        consumer.seek(pid as u32, from);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut first_gap = None;
    while Instant::now() < deadline {
        let batch = consumer
            .poll_records(LAGGING_POLL)
            .map_err(|e| e.to_string())?;
        if batch.is_empty() {
            break;
        }
        for (pid, msg) in batch {
            let want = &mut next[pid as usize];
            if msg.offset != *want && first_gap.is_none() {
                first_gap = Some(format!(
                    "partition {pid}: expected offset {want}, got {}",
                    msg.offset
                ));
            }
            *want = msg.offset + 1;
        }
    }
    if let Some(gap) = first_gap {
        return Err(gap);
    }
    match next.iter().position(|&n| n != end) {
        Some(pid) => Err(format!("partition {pid} read up to {} of {end}", next[pid])),
        None => Ok(()),
    }
}
