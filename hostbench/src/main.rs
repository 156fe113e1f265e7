//! `hostbench` — the repository benchmark.
//!
//! ```text
//! hostbench --workload <train_ctr|stream_saturated|fabric_1024>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload (a fresh setup each time) until `--seconds` have
//! passed, checks every repeat's digest, prints a human-readable table and
//! then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones from untraced repeats; with `--trace 1`
//! traced and untraced repeats alternate and the metrics are per layer.
//! Exits 1 if any checked output differs from its reference, 2 on bad
//! arguments.

use aiacc_simnet::{par, SolveBreakdown};
use hostbench::calib::{self, Calib};
use hostbench::stats::{median, tail, Fnv};
use hostbench::trace::{Name, Off, Probe, Tracer};
use hostbench::{fabric, stream, train_ctr, Run};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Solver worker count every run is pinned to (clamped to the host's CPU
/// count).
const SOLVER_WORKERS: usize = 2;

/// Untraced repeats a `--trace 0` run makes at least, however long they
/// take; medians of fewer would follow single outliers.
const MIN_REPEATS: usize = 3;

/// Calibration kernel samples a `--trace 0` run takes before each repeat
/// and after the last (see [`hostbench::calib`]).
const CALIB_SAMPLES: usize = 2;

/// Setup-only builds a `--trace 0` run makes after each repeat; `setup_s` is
/// their median. Spreading them over the run lets the median see the same
/// mix of quiet and busy host periods as `wall_s`, where a burst taken at
/// one moment would see only one.
const SETUP_SAMPLES_PER_REPEAT: usize = 5;

/// Recorded output digests, one `<key> <seed> <digest>` per line.
const EXPECTED: &str = include_str!("../expected.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TrainCtr,
    StreamSaturated,
    Fabric1024,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "train_ctr" => Some(Workload::TrainCtr),
            "stream_saturated" => Some(Workload::StreamSaturated),
            "fabric_1024" => Some(Workload::Fabric1024),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrainCtr => "train_ctr",
            Workload::StreamSaturated => "stream_saturated",
            Workload::Fabric1024 => "fabric_1024",
        }
    }

    fn default_seed(self) -> u64 {
        match self {
            Workload::TrainCtr => train_ctr::DEFAULT_SEED,
            Workload::StreamSaturated => stream::DEFAULT_SEED,
            Workload::Fabric1024 => fabric::DEFAULT_SEED,
        }
    }

    /// Runs the workload's fixed-seed check, returning the `expected.txt`
    /// key, seed and digest. It keeps every run checking the program's
    /// simulated output against a recorded digest, whatever seed it measures.
    fn canary(self) -> Result<(&'static str, u64, u64), String> {
        Ok(match self {
            Workload::TrainCtr => {
                let seed = train_ctr::DEFAULT_SEED;
                (
                    "train_ctr",
                    seed,
                    train_ctr::run(&train_ctr::config(seed), false, &mut Off)?.0.digest,
                )
            }
            Workload::StreamSaturated => {
                let seed = stream::DEFAULT_SEED;
                let run = stream::run(stream::small_config(seed), false, &mut Off)?;
                ("stream_saturated.small", seed, run.digest)
            }
            Workload::Fabric1024 => {
                let seed = fabric::DEFAULT_SEED;
                let run = fabric::run(&fabric::small_config(seed), false, &mut Off)?;
                ("fabric_1024.small", seed, run.digest)
            }
        })
    }

    fn run<P: Probe>(self, seed: u64, setup_only: bool, probe: &mut P) -> Result<Run, String> {
        match self {
            Workload::TrainCtr => {
                train_ctr::run(&train_ctr::config(seed), setup_only, probe).map(|(r, _)| r)
            }
            Workload::StreamSaturated => {
                let cfg = stream::config(seed, stream::JOBS, stream::WINDOW);
                stream::run(cfg, setup_only, probe)
            }
            Workload::Fabric1024 => fabric::run(&fabric::config(seed), setup_only, probe),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or_else(|| workload.default_seed());
    Ok(Args { workload, seed, seconds, trace })
}

fn expected_digest(key: &str, seed: u64) -> Option<u64> {
    EXPECTED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (k, s, d) = (f.next()?, f.next()?, f.next()?);
        (k == key && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Checked outputs and their failures.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The repository root (the parent of this crate).
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the crate sits inside the repository")
}

/// Digest of the program's sources: every file under `crates/` plus the
/// root manifest and lock file, so results from a checkout without git
/// history still name the code they measured.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        h.bytes(rel.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn git_commit() -> String {
    if !repo_root().join(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// Appends one `"name": {"value": v, "unit": u}` entry.
fn metric(json: &mut String, name: &str, value: f64, unit: &str) {
    if !json.ends_with('{') {
        json.push(',');
    }
    let value = if value.is_finite() { format!("{value}") } else { "null".to_string() };
    let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

fn row(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<40} {value:>16.6} {unit:<10} {note}");
}

/// Repeat-level wall time (setup plus run), seconds.
fn repeat_wall(r: &Run) -> f64 {
    r.setup_s + r.run_s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <train_ctr|stream_saturated|fabric_1024> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a checked output mismatched.
fn bench(args: &Args) -> Result<bool, String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = SOLVER_WORKERS.min(host_cpus);
    par::set_jobs(workers);
    let w = args.workload;
    let mut checks = Checks::default();

    let (key, seed, got) = w.canary()?;
    match expected_digest(key, seed) {
        Some(exp) => checks.check(got == exp, || {
            format!("{key} seed {seed}: digest {got:016x} != expected {exp:016x}")
        }),
        None => return Err(format!("expected.txt records no digest for {key} seed {seed}")),
    }

    // The reference every repeat's digest must equal: the recorded digest at
    // the default seed; for `train_ctr` also `TrainingSim::run` on the same
    // configuration (the driver must match it bit for bit at any seed); else
    // the first repeat, so repeats still check each other.
    let expected = expected_digest(w.name(), args.seed);
    let mut reference = expected;
    if w == Workload::TrainCtr {
        let got = train_ctr::digest(&train_ctr::reference_iter_secs(&train_ctr::config(args.seed)));
        if let Some(exp) = expected {
            checks.check(got == exp, || {
                format!("TrainingSim digest {got:016x} != expected {exp:016x}")
            });
        }
        reference = Some(expected.unwrap_or(got));
    }

    let mut setups = Vec::new();
    let mut plain: Vec<Run> = Vec::new();
    let mut traced: Vec<(Run, f64)> = Vec::new();
    let mut tracer = Tracer::new();
    let mut calib = (!args.trace).then(Calib::new);
    let mut calib_s = Vec::new();
    let mut calibrate = || {
        if let Some(c) = calib.as_mut() {
            calib_s.extend((0..CALIB_SAMPLES).map(|_| c.sample()));
        }
    };
    let t0 = Instant::now();
    loop {
        calibrate();
        plain.push(w.run(args.seed, false, &mut Off)?);
        if args.trace {
            let start = tracer.elapsed_s();
            let run = w.run(args.seed, false, &mut tracer)?;
            traced.push((run, tracer.elapsed_s() - start));
        } else {
            for _ in 0..SETUP_SAMPLES_PER_REPEAT {
                setups.push(w.run(args.seed, true, &mut Off)?.setup_s);
            }
        }
        let enough = if args.trace { !traced.is_empty() } else { plain.len() >= MIN_REPEATS };
        if enough && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    calibrate();

    for (i, r) in plain.iter().chain(traced.iter().map(|(r, _)| r)).enumerate() {
        let want = *reference.get_or_insert(r.digest);
        checks.check(r.digest == want, || {
            format!("repeat {i}: digest {:016x} != reference {want:016x}", r.digest)
        });
        if let Some(s) = &r.sched {
            checks.check(
                s.emitted == stream::JOBS && s.completed == stream::JOBS && s.failed == 0,
                || format!("repeat {i}: {s:?}, want every one of {} jobs done", stream::JOBS),
            );
        }
    }

    let last = plain.last().expect("at least one repeat");
    println!(
        "# hostbench {} seed={} repeats={} traced_repeats={} host_cpus={host_cpus} \
         solver_workers={workers} rustc=\"{}\" commit={} source={}",
        w.name(),
        args.seed,
        plain.len(),
        traced.len(),
        env!("HOSTBENCH_RUSTC_VERSION"),
        git_commit(),
        source_digest(),
    );
    println!(
        "# digest {:016x} ({})",
        last.digest,
        match expected {
            Some(_) => "checked against the recorded digest",
            None if w == Workload::TrainCtr => "checked against TrainingSim::run",
            None => "no recorded digest at this seed; repeats checked against each other",
        }
    );
    for f in &checks.failures {
        println!("# MISMATCH {f}");
    }
    let failed = checks.failures.len() as u64;
    let ops_failed_frac = failed as f64 / checks.attempted as f64;

    let mut json = String::from("{");
    if args.trace {
        per_layer(w, &plain, &traced, &tracer, &mut json);
        write_trace(w, args.seed, &tracer);
    } else {
        end_to_end(w, &plain, &setups, &calib_s, ops_failed_frac, &mut json);
    }
    json.push('}');
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{json}}}",
        failed == 0,
        checks.attempted,
    );
    Ok(failed == 0)
}

fn end_to_end(
    w: Workload,
    runs: &[Run],
    setups: &[f64],
    calib_s: &[f64],
    ops_failed_frac: f64,
    json: &mut String,
) {
    // Host times are scaled to the calibration kernel's reference speed.
    let calib_med = median(calib_s);
    let scale = calib::REFERENCE_S / calib_med;
    let raw_wall = median(&runs.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let wall_s = raw_wall * scale;
    let setup_s = median(setups) * scale;
    let per_sim_s = median(&runs.iter().map(|r| r.run_s / r.sim_s).collect::<Vec<_>>()) * scale;
    let rss = peak_rss_mb() - calib::RESIDENT_BYTES as f64 / (1024.0 * 1024.0);
    let r0 = &runs[0];

    println!(
        "end-to-end ({}; medians over {} untraced repeats; host times scaled by {scale:.4}: \
         calibration kernel {calib_med:.6} s vs reference {} s; raw wall_s {raw_wall:.6})",
        w.name(),
        runs.len(),
        calib::REFERENCE_S,
    );
    row("wall_s", wall_s, "s", "lower is better");
    row("setup_s", setup_s, "s", "lower is better");
    row("peak_rss_mb", rss, "MiB", "lower is better");
    row("host_s_per_sim_s", per_sim_s, "s/s", "lower is better");
    row("ops_failed_frac", ops_failed_frac, "fraction", "lower is better");
    match w {
        Workload::TrainCtr => {
            row("sim_iters_per_s", r0.units as f64 / wall_s, "1/s", "higher is better");
            row("sim_events_per_s", r0.events as f64 / wall_s, "1/s", "higher is better");
            steps("iter_host_ms", runs, scale);
        }
        Workload::StreamSaturated => {
            row("sim_jobs_per_s", r0.units as f64 / wall_s, "1/s", "higher is better");
        }
        Workload::Fabric1024 => {
            row("sim_events_per_s", r0.events as f64 / wall_s, "1/s", "higher is better");
            steps("slice_host_ms", runs, scale);
        }
    }

    metric(json, "wall_s", wall_s, "s");
    metric(json, "setup_s", setup_s, "s");
    metric(json, "peak_rss_mb", rss, "MiB");
    metric(json, "host_s_per_sim_s", per_sim_s, "s/s");
}

/// Prints the per-step median and tail over every repeat's steps, scaled
/// like the other host times.
fn steps(stem: &str, runs: &[Run], scale: f64) {
    let all: Vec<f64> = runs.iter().flat_map(|r| r.steps_ms.iter().map(|ms| ms * scale)).collect();
    row(&format!("{stem}_p50"), median(&all), "ms", "lower is better");
    match tail(&all) {
        Some((p, v)) => row(
            &format!("{stem}_tail"),
            v,
            "ms",
            &format!("lower is better; p{p} of {} samples", all.len()),
        ),
        None => println!("  {stem}_tail: too few samples ({})", all.len()),
    }
}

fn per_layer(w: Workload, plain: &[Run], traced: &[(Run, f64)], tr: &Tracer, json: &mut String) {
    let n = traced.len() as f64;
    let traced_wall: f64 = traced.iter().map(|(_, s)| s).sum();
    let overhead = median(&traced.iter().map(|(_, s)| *s).collect::<Vec<_>>())
        / median(&plain.iter().map(repeat_wall).collect::<Vec<_>>())
        - 1.0;
    let run = &traced[0].0;
    let fnet = run.flownet.unwrap_or_default();
    let bd = traced.iter().fold(SolveBreakdown::default(), |a, (r, _)| {
        let b = r.flownet.unwrap_or_default().breakdown;
        SolveBreakdown {
            solve_s: a.solve_s + b.solve_s,
            apply_s: a.apply_s + b.apply_s,
            queue_s: a.queue_s + b.queue_s,
        }
    });
    let c = run.counts;
    let sched = run.sched.unwrap_or_default();
    let share = |s: f64| s / traced_wall;

    println!(
        "per-layer ({}; {} traced repeats, {:.3} s traced wall; seconds and calls per repeat)",
        w.name(),
        traced.len(),
        traced_wall
    );
    // (span, report self time instead of total, report the call count)
    const LAYERS: [(Name, bool, bool); 13] = [
        (Name::NextEvent, true, true),
        (Name::StartFlow, false, true),
        (Name::ClusterBuild, false, false),
        (Name::ScheduleWorkerCompute, false, true),
        (Name::EngineBuild, false, false),
        (Name::BeginIteration, true, true),
        (Name::OnGradReady, true, true),
        (Name::OnBackwardDone, true, true),
        (Name::OnTimer, true, true),
        (Name::OnCollectiveDone, true, true),
        (Name::OnFlowCompleted, false, true),
        (Name::SchedSetup, false, false),
        (Name::SchedRun, false, false),
    ];
    let mut out: Vec<(String, f64, &str)> = Vec::new();
    let mut seconds: Vec<(String, f64)> = Vec::new();
    for (name, self_time, calls) in LAYERS {
        let st = tr.stat(name);
        let (s, suffix) = if self_time { (st.self_s, ".self") } else { (st.total_s, "") };
        let stem = name.label();
        seconds.push((format!("{stem}{suffix}_s"), s / n));
        out.push((format!("{stem}{suffix}.share"), share(s), "fraction"));
        if calls {
            out.push((format!("{stem}.calls"), st.calls as f64 / n, "count"));
        }
    }
    for (phase, s) in [("solve", bd.solve_s), ("apply", bd.apply_s), ("queue", bd.queue_s)] {
        seconds.push((format!("simnet.flownet.{phase}_s"), s / n));
        out.push((format!("simnet.flownet.{phase}.share"), share(s), "fraction"));
    }

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let st = fnet.stats;
    for (name, v, unit) in [
        ("simnet.events.timer", c.timers as f64, "count"),
        ("simnet.events.flow_completed", c.flow_completed as f64, "count"),
        ("simnet.stale_timer_frac", ratio(c.stale_timers, c.timers), "fraction"),
        ("simnet.flownet.recomputes", st.recomputes as f64, "count"),
        ("simnet.flownet.comps_solved", st.comps_solved as f64, "count"),
        ("simnet.flownet.comp_solve_ratio", ratio(st.comps_solved, st.comps_existing), "fraction"),
        ("simnet.flownet.fill_rounds", st.fill_rounds as f64, "count"),
        ("simnet.flownet.par_solves", st.par_solves as f64, "count"),
        ("collectives.ops_per_flow", ratio(c.ops_completed, c.flow_completed), "ratio"),
        ("sched.peak_backlog", sched.peak_backlog as f64, "count"),
        ("sched.peak_active", sched.peak_active as f64, "count"),
        ("sched.jobs_completed", (sched.completed - sched.failed) as f64, "count"),
        ("sched.jobs_failed", sched.failed as f64, "count"),
        ("trace.attributed_frac", share(tr.covered_s()), "fraction"),
        ("trace.overhead_frac", overhead, "fraction"),
    ] {
        out.push((name.to_string(), v, unit));
    }

    for (name, s) in &seconds {
        row(name, *s, "s", "");
    }
    for (name, v, unit) in &out {
        row(name, *v, unit, "");
        metric(json, name, *v, unit);
    }
}

/// Writes the recorded spans as Chrome trace JSON under `out/`.
fn write_trace(w: Workload, seed: u64, tr: &Tracer) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{seed}.json", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.to_chrome_json())) {
        Ok(()) => println!("# trace: {} span(s) written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("hostbench: cannot write {}: {e}", path.display()),
    }
}
