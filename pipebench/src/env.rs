//! One pipeline deployment as production runs it: a disk-spilled TDAccess
//! topic, the tstorm CF topology reading it through a `ReplayableSpout`
//! (dedup window 256), TDStore state, and a checkpoint coordinator. A
//! [`Life`] is one launch of the topology; a restart kills it and starts
//! the next from the newest checkpoint.

use crate::sys;
use ckpt::{CheckpointConfig, Coordinator};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig, Producer, SegmentConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::UserAction;
use tencentrec::topology::{
    build_cf_topology_with_spout, CfParallelism, CfPipelineConfig, OffsetTable, ReplayProgress,
    ReplayableSpout,
};
use tstorm::prelude::*;
use tstorm::topology::TopologyConfig;

pub const TOPIC: &str = "actions";
/// Partitions of the topic. Every workload gives each partition the same
/// number of records, so checkpoint, restore and read-back offsets are
/// the same on every seed.
pub const PARTITIONS: usize = 4;

/// The run's explicit deployment knobs (stamped into every result).
#[derive(Debug, Clone)]
pub struct Knobs {
    pub segment_msgs: usize,
    pub batch_size: usize,
    pub flush_us: u64,
    pub parallelism: CfParallelism,
}

/// The production CF configuration: dedup on, everything else default.
pub fn cf_config(registry: obs::Registry) -> CfPipelineConfig {
    CfPipelineConfig {
        dedup_window: 256,
        registry,
        ..Default::default()
    }
}

/// Records when probe tuple trees complete. Shared by the spout wrapper
/// (ack side) and the load generator (send side).
#[derive(Default)]
pub struct ProbeAcks {
    /// src → due time; filled when the probe is sent.
    pending: Mutex<HashMap<u64, Instant>>,
    /// Due → acked, per completed probe tree.
    acked: Mutex<Vec<Duration>>,
}

impl ProbeAcks {
    pub fn sent(&self, src: u64, due: Instant) {
        self.pending
            .lock()
            .expect("probe ack table poisoned")
            .insert(src, due);
    }

    fn ack(&self, src: u64) {
        let hit = self
            .pending
            .lock()
            .expect("probe ack table poisoned")
            .remove(&src);
        if let Some(due) = hit {
            self.acked
                .lock()
                .expect("probe ack table poisoned")
                .push(due.elapsed());
        }
    }

    pub fn take(&self) -> Vec<Duration> {
        std::mem::take(&mut *self.acked.lock().expect("probe ack table poisoned"))
    }
}

/// `ReplayableSpout` plus, in traced runs, a look at each completed tree
/// to time probe acks. Untraced runs pass `None` and only delegate.
struct ProbeSpout {
    inner: ReplayableSpout,
    acks: Option<Arc<ProbeAcks>>,
}

impl Spout for ProbeSpout {
    fn open(&mut self, ctx: &TaskContext) {
        self.inner.open(ctx);
    }
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        self.inner.next_tuple(collector)
    }
    fn ack(&mut self, msg_id: u64) {
        if let Some(acks) = &self.acks {
            acks.ack(msg_id);
        }
        self.inner.ack(msg_id);
    }
    fn fail(&mut self, msg_id: u64) {
        self.inner.fail(msg_id);
    }
    fn close(&mut self) {
        self.inner.close();
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        self.inner.declare_outputs()
    }
}

/// One launch of the topology.
pub struct Life {
    pub handle: TopologyHandle,
    pub store: TdStore,
    pub registry: obs::Registry,
    pub progress: Arc<ReplayProgress>,
    pub offsets: Arc<OffsetTable>,
    /// Records below the spout's start offsets (already in restored state).
    pub skipped: u64,
}

impl Life {
    /// Records of the topic this life has committed, counting the ones
    /// its checkpoint already covered.
    pub fn committed(&self) -> u64 {
        self.skipped + self.progress.committed()
    }
}

pub struct Env {
    knobs: Knobs,
    dir: PathBuf,
    pub topic: AccessCluster,
    producer: Producer,
    coord: Option<Coordinator>,
    /// The coordinator's own metrics: whether an epoch went out as a
    /// delta is read from `ckpt_rebase_total`, not re-derived here.
    ckpt_metrics: obs::Registry,
    pub life: Option<Life>,
    pub acks: Option<Arc<ProbeAcks>>,
    lives: usize,
    /// Checkpoints taken through the current coordinator handle.
    since_open: u64,
}

/// Opens the checkpoint log with the production policy (`CheckpointConfig`
/// defaults) and a registry of its own for the coordinator's metrics.
fn open_ckpt(path: PathBuf) -> Result<(Coordinator, obs::Registry), String> {
    let coord = Coordinator::open(path, CheckpointConfig::default())
        .map_err(|e| format!("open checkpoint log: {e}"))?;
    let registry = obs::Registry::new();
    coord.register_metrics(&registry);
    Ok((coord, registry))
}

impl Env {
    /// Fresh topic and checkpoint log under `dir` (removed on drop).
    pub fn new(knobs: &Knobs, dir: PathBuf, traced: bool) -> Env {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work dir");
        let topic = AccessCluster::new(ClusterConfig {
            segment: SegmentConfig {
                max_messages: knobs.segment_msgs,
                max_bytes: usize::MAX,
                spill_dir: Some(dir.join("segments")),
            },
            ..Default::default()
        });
        topic.create_topic(TOPIC, PARTITIONS).expect("create topic");
        let producer = topic.producer(TOPIC).expect("producer");
        let (coord, ckpt_metrics) = open_ckpt(dir.join("ckpt.fdb")).expect("open ckpt log");
        Env {
            knobs: knobs.clone(),
            dir,
            topic,
            producer,
            coord: Some(coord),
            ckpt_metrics,
            life: None,
            acks: traced.then(|| Arc::new(ProbeAcks::default())),
            lives: 0,
            since_open: 0,
        }
    }

    fn ckpt_path(&self) -> PathBuf {
        self.dir.join("ckpt.fdb")
    }

    /// Appends `actions`, keyed by user.
    pub fn produce(&self, actions: &[UserAction]) {
        for a in actions {
            self.producer
                .send(Some(&a.user.to_le_bytes()[..]), &a.to_bytes())
                .expect("produce");
        }
    }

    pub fn topic_len(&self) -> u64 {
        self.topic.topic_len(TOPIC).expect("topic length")
    }

    /// Launches a topology over `store`, seeking to `start` (empty = the
    /// beginning of the log). Each life joins a consumer group of its own.
    pub fn launch(&mut self, store: TdStore, start: Vec<(u32, u64)>) -> &Life {
        assert!(self.life.is_none(), "previous life still running");
        self.lives += 1;
        let group = format!("cf-{}", self.lives);
        let registry = obs::Registry::new();
        store.register_metrics(&registry);
        let progress = Arc::new(ReplayProgress::default());
        let offsets = Arc::new(OffsetTable::new());
        let skipped = start.iter().map(|&(_, off)| off).sum();
        let k = &self.knobs;
        let topology = build_cf_topology_with_spout(
            {
                let topic = self.topic.clone();
                let progress = Arc::clone(&progress);
                let offsets = Arc::clone(&offsets);
                let acks = self.acks.clone();
                move || ProbeSpout {
                    inner: ReplayableSpout::new(
                        topic.clone(),
                        TOPIC,
                        &group,
                        Arc::clone(&progress),
                    )
                    .with_offset_table(Arc::clone(&offsets))
                    .with_start_offsets(start.clone()),
                    acks: acks.clone(),
                }
            },
            store.clone(),
            cf_config(registry.clone()),
            k.parallelism,
            TopologyConfig {
                batch_size: k.batch_size,
                flush_interval: Duration::from_micros(k.flush_us),
                ..Default::default()
            },
        )
        .expect("valid CF topology");
        self.life = Some(Life {
            handle: topology.launch(),
            store,
            registry,
            progress,
            offsets,
            skipped,
        });
        self.life.as_ref().expect("just launched")
    }

    pub fn life(&self) -> &Life {
        self.life.as_ref().expect("a running life")
    }

    /// Waits until the running life has committed `target` records of the
    /// topic. `Err` carries a description when it stalls past `limit`.
    pub fn wait_committed(&self, target: u64, limit: Duration) -> Result<(), String> {
        let life = self.life();
        let deadline = Instant::now() + limit;
        while life.committed() < target {
            if Instant::now() > deadline {
                return Err(format!(
                    "pipeline stalled at {}/{target} committed (emitted {}, acked {}, failed {})",
                    life.committed(),
                    life.progress.emitted(),
                    life.progress.acked(),
                    life.progress.failed()
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok(())
    }

    /// One checkpoint of the running life. Returns the call's duration and
    /// the published bytes when the epoch was a delta.
    pub fn checkpoint(&mut self) -> (Duration, Option<u64>) {
        let life = self.life.as_ref().expect("a running life");
        let coord = self.coord.as_ref().expect("an open checkpoint log");
        let rebases = || self.ckpt_metrics.counter_value("ckpt_rebase_total", &[]);
        let rebases_before = rebases();
        let t = Instant::now();
        let meta = coord
            .checkpoint(&life.handle, &life.store, &life.offsets, now_ms())
            .expect("checkpoint");
        let took = t.elapsed();
        // A handle's first epoch has no previous capture to diff against
        // and goes out full; after that every epoch is a delta unless the
        // coordinator counted a rebase (chain length or churn ratio).
        let delta = self.since_open > 0 && rebases() == rebases_before;
        self.since_open += 1;
        eprintln!(
            "pipebench:   checkpoint {}: {} {:.2} MB in {:.1} ms",
            meta.epoch,
            if delta { "delta" } else { "full" },
            meta.bytes as f64 / 1e6,
            took.as_secs_f64() * 1e3
        );
        (took, delta.then_some(meta.bytes))
    }

    /// Crash: abandons in-flight work, like a SIGKILLed worker.
    fn kill(&mut self) {
        if let Some(life) = self.life.take() {
            life.handle.kill();
        }
    }

    /// One restart: kill the running life, reopen the checkpoint log cold,
    /// restore into a fresh store, and replay the tail to the log end.
    pub fn restart(&mut self, limit: Duration) -> Result<Restart, String> {
        self.kill();
        self.coord = None; // the crashed process's handle dies with it
        let ledger = sys::Ledger::start();
        let cpu0 = sys::process_cpu_s();
        let t = Instant::now();
        let (coord, ckpt_metrics) = open_ckpt(self.ckpt_path())?;
        let store = TdStore::new(StoreConfig::default());
        let restored = coord
            .restore_into(&store)
            .map_err(|e| format!("restore: {e}"))?
            .ok_or("no checkpoint to restore")?;
        let restore = t.elapsed();
        self.coord = Some(coord);
        self.ckpt_metrics = ckpt_metrics;
        self.since_open = 0;
        let end = self.topic_len();
        self.launch(store, restored.start_offsets);
        let tail = end - self.life().skipped;
        let tail_start = Instant::now();
        self.wait_committed(end, limit)?;
        let total = t.elapsed();
        Ok(Restart {
            restore,
            tail_replay: tail_start.elapsed(),
            total,
            cpu_s: sys::process_cpu_s() - cpu0,
            tail,
            usage: ledger.stop(),
        })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        self.kill();
        self.coord = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one restart cost.
pub struct Restart {
    pub restore: Duration,
    pub tail_replay: Duration,
    pub total: Duration,
    pub cpu_s: f64,
    pub tail: u64,
    /// Per layer, over the whole restart: CPU and bytes read (the
    /// checkpoint log reads land on `caller`, segment reads on `spout`).
    pub usage: sys::LayerUse,
}

pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}
