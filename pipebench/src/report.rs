//! Accumulates one run's measurements and turns them into the end-to-end
//! and per-layer metrics.

use crate::env::{Env, Life, Restart};
use crate::stream::Outcome;
use crate::sys;
use obs::LatencySnapshot;
use std::collections::HashMap;
use std::time::{Duration, Instant};

pub const BOLTS: [&str; 4] = ["pretreatment", "user_history", "item_count", "cf_pair"];

/// Counters a life's registry exports, read at a point in time.
#[derive(Default, Clone)]
pub struct LayerCounters {
    pub gets: u64,
    pub writes: u64,
    pub stalls: u64,
    pub pair_tuples: u64,
    pub exec: HashMap<&'static str, LatencySnapshot>,
}

impl LayerCounters {
    pub fn read(life: &Life) -> LayerCounters {
        let reg = &life.registry;
        let op = |name: &str| {
            reg.counter_value("tdstore_ops_total", &[("op", name)])
                .unwrap_or(0)
        };
        let stalls = reg
            .export()
            .into_iter()
            .filter(|s| s.family == "tstorm_backpressure_stalls_total")
            .map(|s| match s.kind {
                obs::SampleKind::Counter(c) => c,
                _ => 0,
            })
            .sum();
        let exec = BOLTS
            .iter()
            .filter_map(|&bolt| {
                reg.histogram_snapshot("tstorm_exec_latency_seconds", &[("component", bolt)])
                    .map(|h| (bolt, h))
            })
            .collect();
        LayerCounters {
            gets: op("get"),
            writes: op("write"),
            stalls,
            pair_tuples: reg
                .counter_value("tstorm_executed_total", &[("component", "cf_pair")])
                .unwrap_or(0),
            exec,
        }
    }

    /// `self - earlier`, histograms bucket by bucket.
    pub fn since(&self, earlier: &LayerCounters) -> LayerCounters {
        let exec = self
            .exec
            .iter()
            .map(|(&bolt, now)| {
                let before: HashMap<u32, u64> = earlier
                    .exec
                    .get(bolt)
                    .map(|h| h.sparse_counts().into_iter().collect())
                    .unwrap_or_default();
                let sparse: Vec<(u32, u64)> = now
                    .sparse_counts()
                    .into_iter()
                    .map(|(b, c)| (b, c - before.get(&b).copied().unwrap_or(0)))
                    .collect();
                let sum = now.sum_nanos() - earlier.exec.get(bolt).map_or(0, |h| h.sum_nanos());
                (bolt, LatencySnapshot::from_parts(&sparse, 0, sum, 0))
            })
            .collect();
        LayerCounters {
            gets: self.gets - earlier.gets,
            writes: self.writes - earlier.writes,
            stalls: self.stalls - earlier.stalls,
            pair_tuples: self.pair_tuples - earlier.pair_tuples,
            exec,
        }
    }

    pub fn add(&mut self, other: &LayerCounters) {
        self.gets += other.gets;
        self.writes += other.writes;
        self.stalls += other.stalls;
        self.pair_tuples += other.pair_tuples;
        for (&bolt, h) in &other.exec {
            self.exec.entry(bolt).or_default().merge(h);
        }
    }
}

/// Where a main phase started.
pub struct Phase {
    t: Instant,
    invol: u64,
    pub counters: LayerCounters,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any makes `correct` false.
    pub problems: Vec<String>,
    /// Expected, counted failures (printed to stderr).
    pub notes: Vec<String>,
    pub setup_s: Vec<f64>,
    main_actions: u64,
    /// Per main phase: actions/s and pipeline CPU µs per action.
    main_rates: Vec<f64>,
    main_cpu_us: Vec<f64>,
    main_wall: f64,
    usage: sys::LayerUse,
    counters: LayerCounters,
    invol: u64,
    state: Vec<Vec<(&'static str, u64)>>,
    freshness_ms: Vec<f64>,
    serve_us: Vec<f64>,
    similar_us: Vec<f64>,
    produce_us: Vec<f64>,
    lateness_ms: Vec<f64>,
    lag_max: u64,
    probe_acked_ms: Vec<f64>,
    pub gets_per_query: Vec<f64>,
    recover_s: Vec<f64>,
    recover_cpu_s: Vec<f64>,
    restore_ms: Vec<f64>,
    tail_replay_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    delta_bytes: Vec<f64>,
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * q).round() as usize]
}

impl Report {
    pub fn phase_start(&self, env: &Env) -> Phase {
        Phase {
            t: Instant::now(),
            invol: sys::invol_ctx_switches(),
            counters: env
                .life
                .as_ref()
                .map(LayerCounters::read)
                .unwrap_or_default(),
        }
    }

    /// Closes a main phase that ran on the current life; `query_gets`
    /// store reads were the query thread's, not the pipeline's.
    pub fn main_phase(
        &mut self,
        env: &Env,
        phase: Phase,
        ledger: &sys::Ledger,
        actions: u64,
        elapsed: Duration,
        query_gets: u64,
    ) {
        let mut counters = LayerCounters::read(env.life()).since(&phase.counters);
        counters.gets = counters.gets.saturating_sub(query_gets);
        self.main_phase_with(env, phase, ledger.stop(), counters, actions, elapsed);
    }

    /// Closes a main phase given its per-layer use and counters.
    pub fn main_phase_with(
        &mut self,
        env: &Env,
        phase: Phase,
        usage: sys::LayerUse,
        counters: LayerCounters,
        actions: u64,
        elapsed: Duration,
    ) {
        let rate = actions as f64 / elapsed.as_secs_f64();
        let cpu_us = sys::pipeline_cpu(&usage) * 1e6 / actions.max(1) as f64;
        eprintln!(
            "pipebench:   main phase: {actions} actions in {:.3} s ({rate:.0}/s), pipeline cpu {cpu_us:.1} us/action",
            elapsed.as_secs_f64(),
        );
        self.main_rates.push(rate);
        self.main_cpu_us.push(cpu_us);
        for (layer, (cpu, read)) in usage {
            let slot = self.usage.entry(layer).or_default();
            slot.0 += cpu;
            slot.1 += read;
        }
        self.counters.add(&counters);
        self.main_actions += actions;
        self.main_wall += phase.t.elapsed().as_secs_f64();
        self.invol += sys::invol_ctx_switches().saturating_sub(phase.invol);
        self.state
            .push(crate::check::bytes_by_family(&env.life().store));
    }

    pub fn load(&mut self, out: &Outcome, probes: usize) {
        eprintln!(
            "pipebench:   load phase: freshness p50 {:.3} ms over {} probes, serve p50 {:.1} us over {} queries",
            median(&out.freshness_ms),
            out.freshness_ms.len(),
            median(&out.serve_us),
            out.serve_us.len()
        );
        self.freshness_ms.extend(&out.freshness_ms);
        self.serve_us.extend(&out.serve_us);
        self.similar_us.extend(&out.similar_us);
        self.produce_us.extend(&out.produce_us);
        self.lateness_ms.extend(&out.lateness_ms);
        self.lag_max = self.lag_max.max(out.lag.iter().copied().max().unwrap_or(0));
        self.attempted += probes as u64;
        self.failed += out.probes_failed as u64;
        for problem in &out.bad_queries {
            self.problems.push(problem.clone());
        }
    }

    pub fn probe_acks(&mut self, acked: Vec<Duration>) {
        self.probe_acked_ms
            .extend(acked.iter().map(|d| d.as_secs_f64() * 1e3));
    }

    /// A `live` run is valid only below capacity: the generator kept to
    /// its schedule (at most 5 % of sends more than 50 ms late; a segment
    /// spill's fsync on the produce path delays a few in a row) and the
    /// consumer lag did not grow over the stream (median lag of the last
    /// third against the first; medians, since checkpoint barriers
    /// spike it).
    pub fn overload(&mut self, out: &Outcome, rate: f64) {
        let late = out.lateness_ms.iter().filter(|&&l| l > 50.0).count();
        if late * 20 > out.lateness_ms.len() {
            self.problems.push(format!(
                "load generator fell behind: {late} of {} sends over 50 ms late",
                out.lateness_ms.len()
            ));
        }
        let third = out.lag.len() / 3;
        if third > 0 {
            let lag = |s: &[u64]| median(&s.iter().map(|&l| l as f64).collect::<Vec<_>>());
            let (first, last) = (
                lag(&out.lag[..third]),
                lag(&out.lag[out.lag.len() - third..]),
            );
            if last > 2.0 * first + rate * 0.05 {
                self.problems.push(format!(
                    "consumer lag grew over the stream (median {first:.0} -> {last:.0} records): rate above capacity"
                ));
            }
        }
    }

    pub fn restart(&mut self, r: &Restart) {
        eprintln!(
            "pipebench:   restart: restore {:.1} ms, tail {} in {:.1} ms, cpu {:.3} s",
            r.restore.as_secs_f64() * 1e3,
            r.tail,
            r.tail_replay.as_secs_f64() * 1e3,
            r.cpu_s
        );
        self.recover_s.push(r.total.as_secs_f64());
        self.recover_cpu_s.push(r.cpu_s);
        self.restore_ms.push(r.restore.as_secs_f64() * 1e3);
        self.tail_replay_ms.push(r.tail_replay.as_secs_f64() * 1e3);
    }

    pub fn checkpoints(&mut self, calls: &[(Duration, Option<u64>)]) {
        for &(took, delta) in calls {
            self.checkpoint_ms.push(took.as_secs_f64() * 1e3);
            if let Some(bytes) = delta {
                self.delta_bytes.push(bytes as f64 / 1e6);
            }
        }
    }

    fn per_action(&self, x: f64) -> f64 {
        x / self.main_actions.max(1) as f64
    }

    fn cpu_us(&self, layer: &str) -> f64 {
        self.per_action(self.usage.get(layer).map_or(0.0, |u| u.0) * 1e6)
    }

    fn read_bytes(&self, layer: &str) -> f64 {
        self.per_action(self.usage.get(layer).map_or(0, |u| u.1) as f64)
    }

    fn state_mb(&self, family: Option<&str>) -> f64 {
        let per_round: Vec<f64> = self
            .state
            .iter()
            .map(|fams| {
                fams.iter()
                    .filter(|(f, _)| family.is_none_or(|want| *f == want))
                    .map(|(_, b)| *b as f64 / 1e6)
                    .sum()
            })
            .collect();
        median(&per_round)
    }

    /// `(name, unit, value)` of every end-to-end metric.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            ("setup_s", "s", median(&self.setup_s)),
            ("peak_rss_mb", "MB", sys::status_kb("VmHWM") / 1024.0),
            (
                "ingest_actions_per_s",
                "actions/s",
                median(&self.main_rates),
            ),
            (
                "pipeline_cpu_us_per_action",
                "us",
                median(&self.main_cpu_us),
            ),
            ("state_mb", "MB", self.state_mb(None)),
            ("freshness_p50_ms", "ms", median(&self.freshness_ms)),
            ("serve_p50_us", "us", median(&self.serve_us)),
            ("recover_s", "s", median(&self.recover_s)),
            ("recover_cpu_s", "s", median(&self.recover_cpu_s)),
        ]
    }

    /// `(name, unit, value)` of every per-layer metric (traced runs).
    pub fn per_layer(&self) -> Vec<(String, &'static str, f64)> {
        let c = &self.counters;
        let mut m: Vec<(String, &'static str, f64)> = vec![
            (
                "tdaccess.read_bytes_per_action".into(),
                "B",
                self.read_bytes("spout"),
            ),
            (
                "tdaccess.produce_p50_us".into(),
                "us",
                median(&self.produce_us),
            ),
            (
                "tdaccess.lag_max_actions".into(),
                "actions",
                self.lag_max as f64,
            ),
            (
                "tstorm.spout.cpu_us_per_action".into(),
                "us",
                self.cpu_us("spout"),
            ),
            (
                "tstorm.acker.cpu_us_per_action".into(),
                "us",
                self.cpu_us("acker"),
            ),
            (
                "tstorm.backpressure_stalls_per_kaction".into(),
                "count",
                self.per_action(c.stalls as f64 * 1e3),
            ),
            (
                "tstorm.probe_acked_p50_ms".into(),
                "ms",
                median(&self.probe_acked_ms),
            ),
        ];
        for bolt in BOLTS {
            m.push((
                format!("core.{bolt}.cpu_us_per_action"),
                "us",
                self.cpu_us(bolt),
            ));
        }
        for bolt in BOLTS {
            let p50 = c
                .exec
                .get(bolt)
                .map_or(0.0, |h| h.quantile_nanos(0.5) as f64 / 1e3);
            m.push((format!("core.{bolt}.exec_p50_us"), "us", p50));
        }
        m.extend([
            (
                "core.cf_pair.tuples_per_action".into(),
                "count",
                self.per_action(c.pair_tuples as f64),
            ),
            (
                "core.query.similar_items_p50_us".into(),
                "us",
                median(&self.similar_us),
            ),
            (
                "tdstore.gets_per_action".into(),
                "count",
                self.per_action(c.gets as f64),
            ),
            (
                "tdstore.writes_per_action".into(),
                "count",
                self.per_action(c.writes as f64),
            ),
            (
                "tdstore.gets_per_query".into(),
                "count",
                median(&self.gets_per_query),
            ),
            (
                "tdstore.sync.cpu_us_per_action".into(),
                "us",
                self.cpu_us("sync"),
            ),
        ]);
        for family in ["hist", "ic", "pc", "sim"] {
            m.push((
                format!("tdstore.bytes.{family}"),
                "MB",
                self.state_mb(Some(family)),
            ));
        }
        m.extend([
            (
                "ckpt.checkpoint_p50_ms".into(),
                "ms",
                median(&self.checkpoint_ms),
            ),
            (
                "ckpt.read_bytes_per_action".into(),
                "B",
                self.read_bytes("caller"),
            ),
            (
                "ckpt.delta_bytes_p50".into(),
                "MB",
                median(&self.delta_bytes),
            ),
            ("ckpt.restore_ms".into(), "ms", median(&self.restore_ms)),
            (
                "ckpt.tail_replay_ms".into(),
                "ms",
                median(&self.tail_replay_ms),
            ),
            (
                "process.invol_ctx_switches_per_s".into(),
                "count/s",
                self.invol as f64 / self.main_wall.max(1e-9),
            ),
            (
                "loadgen.lateness_p99_ms".into(),
                "ms",
                quantile(&self.lateness_ms, 0.99),
            ),
        ]);
        m
    }
}
