//! Per-topic append watches: callbacks a producer runs after each
//! successful append, so a consumer can block until data arrives instead
//! of re-polling an idle partition on a timer.

use parking_lot::RwLock;
use std::sync::Arc;

/// A callback run after every append to the watched topic. It runs on
/// the producer's thread, outside every broker lock, so it should only
/// signal (set a flag, post to a channel) and never block or poll.
pub type AppendWatcher = Arc<dyn Fn() + Send + Sync>;

/// The watchers of one topic. Producers of the topic and the guards of
/// its watches share one list, so a watch registered after a producer
/// was created still sees that producer's appends.
#[derive(Default)]
pub(crate) struct TopicWatchers {
    /// `(watch id, callback)`; ids are unique within the list.
    list: RwLock<(u64, Vec<(u64, AppendWatcher)>)>,
}

impl TopicWatchers {
    fn add(&self, watcher: AppendWatcher) -> u64 {
        let mut guard = self.list.write();
        let (next_id, list) = &mut *guard;
        let id = *next_id;
        *next_id += 1;
        list.push((id, watcher));
        id
    }

    fn remove(&self, id: u64) {
        self.list.write().1.retain(|(i, _)| *i != id);
    }

    pub(crate) fn len(&self) -> usize {
        self.list.read().1.len()
    }

    /// Runs every registered callback.
    pub(crate) fn notify(&self) {
        for (_, watcher) in &self.list.read().1 {
            watcher();
        }
    }
}

/// Keeps one append watch registered; dropping it unregisters the watch.
pub struct WatchGuard {
    watchers: Arc<TopicWatchers>,
    id: u64,
}

impl WatchGuard {
    pub(crate) fn new(watchers: Arc<TopicWatchers>, watcher: AppendWatcher) -> Self {
        let id = watchers.add(watcher);
        WatchGuard { watchers, id }
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.watchers.remove(self.id);
    }
}
