//! An append to the topic of an idle `ReplayableSpout` topology wakes
//! its spout: the action commits, and the wake is counted as a `data`
//! wakeup of the spout task.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{ReplayProgress, ReplayableSpout};
use tstorm::prelude::*;

fn data_wakeups(registry: &obs::Registry) -> u64 {
    registry
        .counter_value(
            "tstorm_spout_wakeups_total",
            &[("component", "actions"), ("task", "0"), ("cause", "data")],
        )
        .unwrap_or(0)
}

#[test]
fn append_wakes_an_idle_spout() {
    let cluster = AccessCluster::new(ClusterConfig::default());
    cluster.create_topic("t", 2).unwrap();
    let producer = cluster.producer("t").unwrap();
    let progress = Arc::new(ReplayProgress::default());
    let mut b = TopologyBuilder::new();
    {
        let cluster = cluster.clone();
        let progress = Arc::clone(&progress);
        b.set_spout(
            "actions",
            move || ReplayableSpout::new(cluster.clone(), "t", "cf", Arc::clone(&progress)),
            1,
        );
    }
    b.set_bolt("sink", || |_t: &Tuple, _c: &mut BoltCollector| Ok(()), 1)
        .shuffle_grouping("actions");
    let handle = b.build().unwrap().launch();
    let registry = handle.registry();

    // Long enough for the idle backoff to reach its 20 ms cap.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(cluster.watcher_count("t"), 1, "open registered the waker");
    assert_eq!(data_wakeups(&registry), 0, "nothing appended yet");

    let action = UserAction::new(7, 42, ActionType::Click, 1);
    producer
        .send(Some(&7u64.to_le_bytes()), &action.to_bytes())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while progress.committed() < 1 {
        assert!(Instant::now() < deadline, "action never committed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The send posted exactly one Wake, queued ahead of the tree's ack,
    // so it was counted by the time the commit landed. (A backoff poll
    // could still race it to the record; the count does not depend on
    // which poll emitted.)
    assert_eq!(data_wakeups(&registry), 1);

    handle.shutdown(Duration::from_secs(5));
    assert_eq!(cluster.watcher_count("t"), 0, "close dropped the watch");
}
