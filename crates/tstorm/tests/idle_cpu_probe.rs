//! Idle spouts poll on the backoff backstop only: a spout that never has
//! data and gets no control traffic ends its idle waits by timeout, and
//! the 1 → 20 ms exponential backoff bounds how many of those it can take
//! in a window. A busy-polling regression (a lost cap, a reset on every
//! empty poll) shows as far more timeout wakeups than the bound.
//!
//! The bound is counted from each wait's minimum length, so a slower host
//! only takes fewer wakeups, never more.

use std::time::{Duration, Instant};
use tstorm::prelude::*;

struct IdleSpout;
impl Spout for IdleSpout {
    fn next_tuple(&mut self, _c: &mut SpoutCollector) -> bool {
        false
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["v"])]
    }
}

const SPOUTS: usize = 4;

fn wakeups(registry: &obs::Registry, task: usize, cause: &str) -> u64 {
    let task = task.to_string();
    registry
        .counter_value(
            "tstorm_spout_wakeups_total",
            &[("component", "s"), ("task", &task), ("cause", cause)],
        )
        .unwrap_or(0)
}

#[test]
fn idle_spouts_wake_only_on_the_backoff() {
    let mut b = TopologyBuilder::new();
    b.set_spout("s", || IdleSpout, SPOUTS);
    b.set_bolt("b", || |_t: &Tuple, _c: &mut BoltCollector| Ok(()), 4)
        .shuffle_grouping("s");
    let handle = b.build().unwrap().launch();
    let registry = handle.registry();
    let t0 = Instant::now();
    let before: Vec<u64> = (0..SPOUTS)
        .map(|t| wakeups(&registry, t, "timeout"))
        .collect();
    std::thread::sleep(Duration::from_secs(1));
    let after: Vec<u64> = (0..SPOUTS)
        .map(|t| wakeups(&registry, t, "timeout"))
        .collect();
    let window = t0.elapsed();
    // From the first idle wait on: 1 + 2 + 4 + 8 + 16 ms of ramp, then
    // one wakeup per 20 ms at the cap. Two extra per task allow for a
    // wait that straddles each end of the window.
    let bound = 5 + window.as_millis() as u64 / 20 + 2;
    for task in 0..SPOUTS {
        let taken = after[task] - before[task];
        assert!(
            taken <= bound,
            "spout task {task} took {taken} timeout wakeups in {window:?} (bound {bound})"
        );
        assert!(taken > 0, "spout task {task} never polled while idle");
        assert_eq!(wakeups(&registry, task, "data"), 0, "no source signals");
        assert_eq!(wakeups(&registry, task, "control"), 0, "no control traffic");
    }
    handle.shutdown(Duration::from_secs(2));
}
