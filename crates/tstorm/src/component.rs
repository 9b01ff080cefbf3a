//! Spout and bolt traits — the user-facing programming model.

use crate::ack::SpoutMsg;
use crate::collector::{BoltCollector, SpoutCollector};
use crate::tuple::{Schema, Tuple};
use crossbeam::channel::Sender;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Declaration of one output stream of a component.
#[derive(Debug, Clone)]
pub struct StreamDef {
    /// Stream id (`"default"` for the main stream).
    pub id: String,
    /// Field names of tuples emitted on this stream.
    pub schema: Schema,
}

impl StreamDef {
    /// Declares a stream `id` with the given field names.
    pub fn new<I, S>(id: &str, fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        StreamDef {
            id: id.to_string(),
            schema: Schema::new(fields),
        }
    }
}

/// Per-task information handed to `open`/`prepare`.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// Component name in the topology.
    pub component: String,
    /// Index of this task within the component, `0..n_tasks`.
    pub task_index: usize,
    /// Total parallelism of the component.
    pub n_tasks: usize,
    /// Wakes this spout task out of its idle wait (`None` for bolts). A
    /// spout whose source can signal new data hands it to the source in
    /// [`Spout::open`]; sources that cannot signal are polled on the idle
    /// backoff instead.
    pub waker: Option<SpoutWaker>,
}

/// Wakes one idle spout task so it polls its source now. Wakes coalesce:
/// while a posted [`SpoutMsg::Wake`] is unread, further calls post
/// nothing. The task clears the pending flag when it reads the Wake,
/// before its next poll, so a wake that races an empty poll is never
/// lost: either that poll sees the new data, or the wake finds the flag
/// clear and posts a fresh Wake.
#[derive(Clone)]
pub struct SpoutWaker {
    pending: Arc<AtomicBool>,
    tx: Sender<SpoutMsg>,
}

impl SpoutWaker {
    /// A waker posting to the spout control channel `tx`. The runtime
    /// makes one per spout task; tests that drive a spout by hand can
    /// make their own and read the Wakes from the channel.
    pub fn new(tx: Sender<SpoutMsg>) -> Self {
        SpoutWaker {
            pending: Arc::new(AtomicBool::new(false)),
            tx,
        }
    }

    /// Asks the task to poll again. Cheap and non-blocking; callable from
    /// any thread.
    ///
    /// The flag publishes no data. A source calls this after making the
    /// data visible under its own lock, and the task's next poll takes
    /// that lock after `clear`, so either the poll sees the data or this
    /// swap sees the cleared flag and posts.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = self.tx.send(SpoutMsg::Wake);
        }
    }

    /// Clears the pending flag; the task calls this on reading a Wake.
    pub(crate) fn clear(&self) {
        self.pending.store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for SpoutWaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpoutWaker")
            .field("pending", &self.pending.load(Ordering::Relaxed))
            .finish()
    }
}

/// A source of tuples. One instance is created per task via the registered
/// factory, so implementations may keep mutable per-task state freely.
pub trait Spout: Send {
    /// Called once before the first `next_tuple`. `ctx.waker` is the
    /// task's [`SpoutWaker`].
    fn open(&mut self, _ctx: &TaskContext) {}

    /// Emits zero or more tuples. Returns `false` when there was nothing to
    /// emit, in which case the runtime waits until the task's waker fires,
    /// a control message arrives or the idle backoff expires.
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool;

    /// A tuple tree rooted at the message emitted with `msg_id` completed.
    fn ack(&mut self, _msg_id: u64) {}

    /// A tuple tree rooted at `msg_id` failed (explicitly or by timeout).
    fn fail(&mut self, _msg_id: u64) {}

    /// Called on shutdown.
    fn close(&mut self) {}

    /// Output stream declarations; consumers can only subscribe to declared
    /// streams.
    fn declare_outputs(&self) -> Vec<StreamDef>;
}

/// A processing node. `execute` is invoked for every incoming tuple; tuples
/// emitted from within `execute` are automatically anchored to the input
/// (at-least-once semantics), and the input is acked when `execute` returns
/// `Ok` and failed when it returns `Err`.
pub trait Bolt: Send {
    /// Called once before the first `execute`.
    fn prepare(&mut self, _ctx: &TaskContext) {}

    /// Processes one input tuple.
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String>;

    /// Whether the runtime should hand this bolt whole runs of tuples via
    /// [`Bolt::execute_batch`]. The default (`false`) keeps per-tuple
    /// `execute` calls with per-tuple ack/fail. Opt in when the bolt can
    /// merge same-key work across a batch (e.g. summing counter deltas
    /// before touching the store); completion then becomes all-or-nothing
    /// per run, which is safe under at-least-once replay and exact under
    /// the per-(source, key) dedup layer.
    fn supports_batch(&self) -> bool {
        false
    }

    /// Processes a run of input tuples in one call (only invoked when
    /// [`Bolt::supports_batch`] returns `true`). `Ok` acks every tuple in
    /// the run; `Err` (or a panic) fails the whole run and each tuple
    /// replays. Implementations that emit should call
    /// [`BoltCollector::anchor_to`] with the relevant input before each
    /// emit so the tuple tree stays connected; the runtime pre-anchors the
    /// collector to the union of the run's anchors as a conservative
    /// default.
    fn execute_batch(
        &mut self,
        tuples: &[Tuple],
        collector: &mut BoltCollector,
    ) -> Result<(), String> {
        for t in tuples {
            collector.anchor_to(t);
            self.execute(t, collector)?;
        }
        Ok(())
    }

    /// Called at the configured tick interval (see
    /// [`crate::topology::BoltDeclarer::tick_interval`]); used by windowed
    /// state and combiners to flush on time rather than on data.
    fn tick(&mut self, _collector: &mut BoltCollector) {}

    /// Called on shutdown.
    fn cleanup(&mut self) {}

    /// Output stream declarations (empty for terminal bolts).
    fn declare_outputs(&self) -> Vec<StreamDef> {
        Vec::new()
    }
}

impl Spout for Box<dyn Spout> {
    fn open(&mut self, ctx: &TaskContext) {
        (**self).open(ctx)
    }
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        (**self).next_tuple(collector)
    }
    fn ack(&mut self, msg_id: u64) {
        (**self).ack(msg_id)
    }
    fn fail(&mut self, msg_id: u64) {
        (**self).fail(msg_id)
    }
    fn close(&mut self) {
        (**self).close()
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        (**self).declare_outputs()
    }
}

impl Bolt for Box<dyn Bolt> {
    fn prepare(&mut self, ctx: &TaskContext) {
        (**self).prepare(ctx)
    }
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        (**self).execute(tuple, collector)
    }
    fn supports_batch(&self) -> bool {
        (**self).supports_batch()
    }
    fn execute_batch(
        &mut self,
        tuples: &[Tuple],
        collector: &mut BoltCollector,
    ) -> Result<(), String> {
        (**self).execute_batch(tuples, collector)
    }
    fn tick(&mut self, collector: &mut BoltCollector) {
        (**self).tick(collector)
    }
    fn cleanup(&mut self) {
        (**self).cleanup()
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        (**self).declare_outputs()
    }
}

impl<F> Bolt for F
where
    F: FnMut(&Tuple, &mut BoltCollector) -> Result<(), String> + Send,
{
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        self(tuple, collector)
    }
}
