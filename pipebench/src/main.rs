//! `pipebench --workload <backlog|live|restart> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The line before
//! it stamps the run's configuration and carries every metric computed.
//!
//! `pipebench --baseline --seed <n>` instead times the in-memory `ItemCF`
//! on the `backlog` log on one thread.

use pipebench::env::Knobs;
use pipebench::report::Report;
use pipebench::workloads::{self, Run};
use std::time::Instant;
use tencentrec::topology::CfParallelism;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    baseline: bool,
    knobs: Knobs,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        baseline: false,
        knobs: Knobs {
            segment_msgs: 1024,
            batch_size: 64,
            flush_us: 1000,
            parallelism: CfParallelism {
                spouts: 1,
                pretreatment: 2,
                history: 2,
                item_count: 2,
                pair: 2,
            },
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--baseline" {
            args.baseline = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        let k = &mut args.knobs;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)? as f64,
            "--trace" => args.trace = num(&value)? != 0,
            "--segment-msgs" => k.segment_msgs = num(&value)? as usize,
            "--batch-size" => k.batch_size = num(&value)? as usize,
            "--flush-us" => k.flush_us = num(&value)?,
            "--spouts" => k.parallelism.spouts = num(&value)? as usize,
            "--pretreatment" => k.parallelism.pretreatment = num(&value)? as usize,
            "--history" => k.parallelism.history = num(&value)? as usize,
            "--item-count" => k.parallelism.item_count = num(&value)? as usize,
            "--pair" => k.parallelism.pair = num(&value)? as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let k = &args.knobs;
    let p = &k.parallelism;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let widest = [p.spouts, p.pretreatment, p.history, p.item_count, p.pair];
    if widest.iter().any(|&t| t == 0 || t > nproc) {
        return Err(format!(
            "every component needs 1..={nproc} (nproc) tasks, got {widest:?}"
        ));
    }
    if k.segment_msgs == 0 || !k.segment_msgs.is_multiple_of(workloads::SEGMENT_MSGS_UNIT) {
        return Err(format!(
            "--segment-msgs must be a positive multiple of {}, so that every checkpoint \
             and replay offset is a multiple of the spout's 32-record poll",
            workloads::SEGMENT_MSGS_UNIT
        ));
    }
    if k.batch_size == 0 {
        return Err("--batch-size must be positive".into());
    }
    if !args.baseline && !["backlog", "live", "restart"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be backlog, live or restart, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// The commit of the checkout the benchmark runs in, if it is a git
/// repository itself; git may not search the parent directories.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(a: &Args) -> String {
    let k = &a.knobs;
    let p = &k.parallelism;
    format!(
        concat!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"nproc\": {}, \"parallelism\": {{\"spouts\": {}, \"pretreatment\": {}, ",
            "\"user_history\": {}, \"item_count\": {}, \"cf_pair\": {}}}, ",
            "\"batch_size\": {}, \"flush_us\": {}, \"segment_msgs\": {}, ",
            "\"profile\": \"{}\", \"commit\": \"{}\"}}"
        ),
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        p.spouts,
        p.pretreatment,
        p.history,
        p.item_count,
        p.pair,
        k.batch_size,
        k.flush_us,
        k.segment_msgs,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit(),
    )
}

fn metrics_json<N: AsRef<str>>(metrics: &[(N, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                name.as_ref()
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The single-threaded reference: the in-memory `ItemCF` over the same
/// `backlog` log, on this thread alone.
fn baseline(a: &Args) {
    let inputs = workloads::backlog_inputs(a.seed);
    let mut cf = tencentrec::ItemCF::new(tencentrec::CfConfig::default());
    let t = Instant::now();
    for action in &inputs.log {
        cf.process(action);
    }
    let secs = t.elapsed().as_secs_f64();
    println!(
        "{{\"baseline\": \"in-memory ItemCF, one thread\", \"actions\": {}, \"seconds\": {secs}, \"actions_per_s\": {}}}",
        inputs.log.len(),
        inputs.log.len() as f64 / secs
    );
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    if args.baseline {
        baseline(&args);
        return;
    }
    let stamp = stamp(&args);
    eprintln!("pipebench: {stamp}");
    let run = Run {
        knobs: args.knobs.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        work: std::path::PathBuf::from(".pipebench-work").join(std::process::id().to_string()),
    };
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "backlog" => run.backlog(&workloads::backlog_inputs(args.seed), &mut report),
        "live" => run.live(&workloads::live_inputs(args.seed), &mut report),
        _ => run.restart(
            &workloads::restart_inputs(args.seed, args.knobs.segment_msgs),
            &mut report,
        ),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    if let Some(parent) = run.work.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    if let Err(e) = result {
        eprintln!("pipebench: run aborted: {e}");
        std::process::exit(1);
    }
    for note in &report.notes {
        eprintln!("pipebench: counted failure: {note}");
    }
    for problem in &report.problems {
        eprintln!("pipebench: INCORRECT: {problem}");
    }
    let e2e = report.end_to_end();
    let layers = report.per_layer();
    println!(
        "{{\"config\": {stamp}, \"end_to_end\": {}, \"per_layer\": {}}}",
        metrics_json(&e2e),
        if args.trace {
            metrics_json(&layers)
        } else {
            "{}".into()
        }
    );
    let metrics = if args.trace {
        metrics_json(&layers)
    } else {
        metrics_json(&e2e)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failed
    );
}
