//! Process and thread accounting read from the kernel: per-thread CPU
//! clocks addressed by thread id, per-thread `/proc/self/task/*/io` read
//! counts, `getrusage` and `/proc/self/status`.

use std::collections::HashMap;
use std::fs;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// Involuntary context switches of the whole process so far, exited
/// threads included (`getrusage(RUSAGE_SELF).ru_nivcsw`).
pub fn invol_ctx_switches() -> u64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 × i64 each) and
    // fourteen `long`s; `ru_nivcsw` is the last.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is an exclusively borrowed buffer of exactly the
    // size and alignment of `struct rusage` on 64-bit Linux; RUSAGE_SELF
    // (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage[17] as u64
    } else {
        0
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU of every thread of the process,
/// including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn clock_ns(clock: i32) -> Option<u64> {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux) for the duration of the call;
    // an unknown clock id makes the call fail with EINVAL, not write.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID).unwrap_or(0) as f64 / 1e9
}

/// CPU nanoseconds of thread `tid` of this process (Linux's per-thread
/// CPU clock id: `(!tid << 3) | CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED`).
/// `None` once the thread has exited.
fn thread_cpu_ns(tid: i32) -> Option<u64> {
    clock_ns(((!tid) << 3) | 6)
}

fn rchar_of(io: &str) -> u64 {
    io.lines()
        .find_map(|l| l.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// One live thread's accounting.
struct ThreadUse {
    layer: &'static str,
    cpu_ns: u64,
    rchar: u64,
}

/// Live threads of this process by tid. Thread names are cut to 15 bytes
/// by the kernel (`tstorm-user_history-0` reads as `tstorm-user_his`), so
/// layers match on prefixes.
fn threads() -> HashMap<i32, ThreadUse> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return HashMap::new();
    };
    let mut out = HashMap::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        let io = fs::read_to_string(entry.path().join("io")).unwrap_or_default();
        if let Some(cpu_ns) = thread_cpu_ns(tid) {
            let layer = layer_of(comm.trim_end());
            out.insert(
                tid,
                ThreadUse {
                    layer,
                    cpu_ns,
                    rchar: rchar_of(&io),
                },
            );
        }
    }
    out
}

/// Layer a thread belongs to, by its (truncated) name: a pipeline layer,
/// or `caller` for the benchmark's own threads (the checkpoint and
/// restore calls run on the main thread).
fn layer_of(comm: &str) -> &'static str {
    const LAYERS: [(&str, &str); 7] = [
        ("tstorm-spout", "spout"),
        ("tstorm-acker", "acker"),
        ("tstorm-pretrea", "pretreatment"),
        ("tstorm-user_hi", "user_history"),
        ("tstorm-item_co", "item_count"),
        ("tstorm-cf_pair", "cf_pair"),
        ("tdstore-sync", "sync"),
    ];
    match LAYERS.iter().find(|(prefix, _)| comm.starts_with(prefix)) {
        Some(&(_, layer)) => layer,
        None if comm.starts_with("tstorm-") => "tstorm_other",
        None => "caller",
    }
}

/// Per layer: CPU seconds and bytes read.
pub type LayerUse = HashMap<&'static str, (f64, u64)>;

/// CPU and reads per layer between [`Ledger::start`] and
/// [`Ledger::stop`]. Threads born in between count from zero; threads
/// that exit in between are lost, so stop before shutting a topology
/// down.
pub struct Ledger {
    start: HashMap<i32, ThreadUse>,
}

impl Ledger {
    pub fn start() -> Self {
        Ledger { start: threads() }
    }

    pub fn stop(&self) -> LayerUse {
        let mut by_layer = LayerUse::new();
        for (tid, now) in threads() {
            let (cpu0, rchar0) = self.start.get(&tid).map_or((0, 0), |t| (t.cpu_ns, t.rchar));
            let slot = by_layer.entry(now.layer).or_default();
            slot.0 += now.cpu_ns.saturating_sub(cpu0) as f64 / 1e9;
            slot.1 += now.rchar.saturating_sub(rchar0);
        }
        by_layer
    }
}

/// CPU seconds of the pipeline's threads (every layer but `caller`).
pub fn pipeline_cpu(usage: &LayerUse) -> f64 {
    usage
        .iter()
        .filter(|(layer, _)| **layer != "caller")
        .map(|(_, (cpu, _))| cpu)
        .sum()
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in kB.
pub fn status_kb(field: &str) -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}
