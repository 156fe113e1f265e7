//! `bench` — regenerates and gates the committed `BENCH_*.json` reports.
//!
//! ```text
//! bench <chaos|stream|compress|scale|parallel|multijob> [--quick] [--jobs N] [--out FILE]
//!
//! --quick          reduced sweep (CI smoke); written only with --out
//! --jobs N         sweep worker count (default 4)
//! --out FILE       where to write the report (default BENCH_<scenario>.json;
//!                  `parallel` and --quick runs write a file only with --out)
//! --wall-budget S  scale only: max wall-clock seconds per simulated second
//!                  for the largest cell
//! ```
//!
//! Every scenario runs its sweep at `--jobs 1` and again at `--jobs N`,
//! requires the two to be bit-identical, and checks its headline claim
//! (the `g.check` calls below). The report is written and printed first;
//! every failed gate is then listed on stderr and the exit status is 1. A
//! bad command line exits 2. Everything in a report is simulated and
//! machine-independent except the members named `timing`.

use aiacc_bench::cli::{check_jobs, usage_error, Cli};
use aiacc_bench::exp_scale::{
    run_cell, run_curve, run_sync_cell, CellResult, NODES_PER_RACK, SCALE_CELLS, SCALE_QUICK_CELLS,
    STREAMS_PER_NODE, SYNC_STREAMS_PER_NODE, SYNC_TIERS,
};
use aiacc_bench::*;
use aiacc_compress::Scheme;
use aiacc_simnet::{SimDuration, SolveMode};
use std::time::Instant;

const USAGE: &str = "usage: bench <chaos|stream|compress|scale|parallel|multijob> [--quick] \
                     [--jobs N] [--out FILE] [--wall-budget S (scale only)]";

/// The failed gates of a scenario, reported after its report is written.
#[derive(Default)]
struct Gates(Vec<String>);

impl Gates {
    fn check(&mut self, ok: bool, failure: String) {
        if !ok {
            self.0.push(failure);
        }
    }
}

/// What a scenario run needs from the command line.
struct Opts {
    quick: bool,
    jobs: usize,
    wall_budget: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let Some(scenario) = args.first().filter(|a| !a.starts_with('-')) else {
        usage_error("missing scenario", USAGE)
    };
    let accepted: &[&str] = match scenario.as_str() {
        "scale" => &["--quick", "--jobs", "--out", "--wall-budget"],
        "parallel" => &["--jobs", "--out"],
        "chaos" | "stream" | "compress" | "multijob" => &["--quick", "--jobs", "--out"],
        other => usage_error(&format!("unknown scenario {other}"), USAGE),
    };
    let cli = Cli::parse(&args[1..], accepted).unwrap_or_else(|e| usage_error(&e, USAGE));
    if let Some(extra) = cli.words.first() {
        usage_error(&format!("unexpected argument {extra}"), USAGE);
    }
    let opts = Opts { quick: cli.quick, jobs: cli.jobs.unwrap_or(4), wall_budget: cli.wall_budget };

    let mut gates = Gates::default();
    let report = match scenario.as_str() {
        "chaos" => chaos(&opts, &mut gates),
        "stream" => stream(&opts, &mut gates),
        "compress" => compress(&opts, &mut gates),
        "scale" => scale(&opts, &mut gates),
        "parallel" => parallel(&opts, &mut gates),
        _ => multijob(&opts, &mut gates),
    };
    let text = report.render();
    let out = cli.out.or_else(|| {
        (!opts.quick && scenario != "parallel").then(|| format!("BENCH_{scenario}.json"))
    });
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, &text) {
            eprintln!("[bench] could not write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("[bench] wrote {out}");
    }
    print!("{text}");

    for g in &gates.0 {
        eprintln!("[bench] gate failed: {g}");
    }
    if !gates.0.is_empty() {
        std::process::exit(1);
    }
}

fn regenerate(scenario: &str) -> String {
    format!("cargo run --release -p aiacc-bench --bin bench -- {scenario}")
}

/// The `determinism` object: the `--jobs 1` vs `--jobs N` verdict and the
/// checks that gate it elsewhere.
fn determinism(jobs: usize, identical: bool, gated_by: &[&str]) -> Json {
    let key = format!("bit_identical_across_jobs_1_and_{jobs}");
    let mut members = vec![(key, Json::from(identical))];
    if !gated_by.is_empty() {
        members.push(("gated_by".into(), Json::strs(gated_by)));
    }
    Json::Obj(members)
}

fn chaos(o: &Opts, g: &mut Gates) -> Json {
    let seeds = if o.quick { CHAOS_QUICK_SEEDS } else { CHAOS_SEEDS };
    let iterations = 6;
    let run = check_jobs("chaos sweep", o.jobs, PartialEq::eq, || chaos_points(seeds, iterations));
    let points = &run.value;
    let aiacc = mean_delta_p99(points, "aiacc");
    let horovod = mean_delta_p99(points, "horovod");
    let crashes: u32 = points.iter().map(|p| p.chaos.crashes_total).sum();
    let mitigations: u32 = points.iter().map(|p| p.chaos.mitigations_total).sum();

    g.check(run.identical, "parallel chaos sweep differed from serial".into());
    g.check(crashes > 0, "no crash ever hit a running gang: the chaos plan is toothless".into());
    g.check(aiacc < horovod, format!("aiacc mean delta-p99 {aiacc:.3}s vs horovod {horovod:.3}s"));

    let rows = points.iter().map(|p| {
        row! {
            "seed" => p.seed, "engine" => p.engine,
            "clean_p99_s" => Json::fixed(p.clean.jct_p99_secs, 3),
            "chaos_p99_s" => Json::fixed(p.chaos.jct_p99_secs, 3),
            "delta_p99_s" => Json::fixed(p.delta_p99_secs(), 3),
            "crashes" => p.chaos.crashes_total, "shrinks" => p.chaos.shrinks_total,
            "mitigations" => p.chaos.mitigations_total,
            "recovery_s" => Json::fixed(p.chaos.recovery_total_secs, 3),
            "failed" => p.chaos.njobs_failed,
        }
    });
    obj! {
        "scenario" => obj! {
            "cluster" => "4 nodes x 8 V100, 30 Gbps TCP",
            "placement" => "spread",
            "workload" => format!("comm-heavy mix, 8 jobs/seed, {iterations} iterations/job"),
            "chaos" => "FaultPlan::chaos per seed: guaranteed crash+repair and straggler window \
                        plus 12 mixed events over a 60 s horizon; shrink recovery; straggler \
                        mitigation at 1.3x median",
            "regenerate" => regenerate("chaos"),
        },
        "points" => Json::Arr(rows.collect()),
        "headline" => obj! {
            "claim" => format!(
                "under identical seeded chaos (node crashes, stragglers, NIC faults) AIACC's \
                 p99 JCT degrades {:.1}% less than single-stream Horovod's in absolute terms",
                (1.0 - aiacc / horovod) * 100.0
            ),
            "aiacc_mean_delta_p99_s" => Json::fixed(aiacc, 3),
            "horovod_mean_delta_p99_s" => Json::fixed(horovod, 3),
            "crashes_total" => crashes,
            "mitigations_total" => mitigations,
            "gated_by" => Json::strs(&[
                "crates/bench exp_chaos::tests::aiacc_degrades_less_than_horovod_under_chaos",
                "tests/chaos.rs::aiacc_tail_degrades_less_under_chaos",
            ]),
        },
        "determinism" => determinism(o.jobs, run.identical, &[
            "ci chaos-smoke (byte-for-byte TSV diff)",
            "tests/chaos.rs::chaos_scenario_is_bit_reproducible",
        ]),
    }
}

fn stream(o: &Opts, g: &mut Gates) -> Json {
    let (sat_jobs, scale_jobs) = if o.quick {
        (STREAM_SATURATED_QUICK_JOBS, STREAM_SCALE_QUICK_JOBS)
    } else {
        (STREAM_SATURATED_JOBS, STREAM_SCALE_JOBS)
    };
    let label = format!("saturated cells ({sat_jobs} jobs/engine)");
    let run = check_jobs(&label, o.jobs, PartialEq::eq, || saturated_points(sat_jobs));
    let points = &run.value;
    eprintln!("[bench] scale witness ({scale_jobs} jobs, arrival-limited)...");
    let scale = scale_point(scale_jobs);
    let aiacc = steady_throughput(points, "aiacc");
    let horovod = steady_throughput(points, "horovod");
    let st = &scale.stats;

    g.check(run.identical, "parallel saturated sweep differed from serial".into());
    g.check(aiacc > horovod, format!("aiacc {aiacc:.1} jobs/s vs horovod {horovod:.1} jobs/s"));
    for p in points {
        let (engine, backlog) = (p.engine, p.stats.peak_backlog);
        g.check(
            backlog as u64 > p.jobs / 2,
            format!("{engine}: backlog {backlog} never saturated"),
        );
        g.check(p.stats.completed == p.jobs, format!("{engine}: jobs lost"));
    }
    g.check(st.completed == scale.jobs, "scale witness lost jobs".into());
    g.check(st.failed == 0, format!("scale witness failed {} jobs", st.failed));
    g.check(
        st.peak_backlog < 100,
        format!("scale witness backlog {} not bounded", st.peak_backlog),
    );
    g.check(
        (st.sketch_stored_items as u64) * 4 < scale.jobs,
        format!("sketch stores {} of {} jobs: not sublinear", st.sketch_stored_items, scale.jobs),
    );

    let rows = points.iter().map(|p| {
        row! {
            "engine" => p.engine, "jobs" => p.jobs,
            "throughput_jobs_per_s" => Json::fixed(p.throughput_jobs_per_sec(), 3),
            "jct_p50_s" => Json::fixed(p.summary.jct_p50_secs, 3),
            "jct_p99_s" => Json::fixed(p.summary.jct_p99_secs, 3),
            "peak_backlog" => p.stats.peak_backlog, "peak_active" => p.stats.peak_active,
            "sketch_items" => p.stats.sketch_stored_items,
            "sketch_rank_err" => p.stats.sketch_max_rank_error,
            "failed" => p.stats.failed,
        }
    });
    obj! {
        "scenario" => obj! {
            "cluster" => "4 nodes x 8 V100, 30 Gbps TCP",
            "placement" => "packed",
            "workload" => "tiny mix, 2 iterations/job, Poisson arrivals (seed 7)",
            "saturated" => "0.1 ms mean gap — arrivals outpace service, so throughput is the \
                            engine's drain capacity",
            "scale" => format!(
                "20 ms mean gap, {scale_jobs} jobs through the bounded slot pool (alternating \
                 engines)"
            ),
            "regenerate" => regenerate("stream"),
        },
        "saturated" => Json::Arr(rows.collect()),
        "headline" => obj! {
            "claim" => format!(
                "under an identical saturating arrival stream AIACC drains the cluster {:.2}x \
                 faster than single-stream Horovod at steady state",
                aiacc / horovod
            ),
            "aiacc_jobs_per_s" => Json::fixed(aiacc, 3),
            "horovod_jobs_per_s" => Json::fixed(horovod, 3),
            "speedup" => Json::fixed(aiacc / horovod, 3),
            "gated_by" => Json::strs(&[
                "crates/bench exp_stream::tests::aiacc_sustains_higher_steady_state_throughput",
                "bench_stream trailing asserts",
            ]),
        },
        "scale" => obj! {
            "jobs" => scale.jobs, "completed" => st.completed, "failed" => st.failed,
            "nslots" => st.nslots, "peak_backlog" => st.peak_backlog,
            "peak_active" => st.peak_active, "windows_emitted" => st.windows_emitted,
            "sketch_stored_items" => st.sketch_stored_items,
            "sketch_max_rank_error" => st.sketch_max_rank_error,
            "jct_p50_s" => Json::fixed(scale.summary.jct_p50_secs, 4),
            "jct_p99_s" => Json::fixed(scale.summary.jct_p99_secs, 4),
            "gated_by" => Json::strs(&[
                "crates/bench exp_stream::tests::scale_witness_stays_bounded",
                "tests/streaming.rs::slot_pool_bounds_live_state",
                "ci stream-smoke (peak-RSS gate)",
            ]),
        },
        "determinism" => determinism(o.jobs, run.identical, &[
            "ci stream-smoke (byte-for-byte TSV diff, snapshot/resume cat-cmp)",
            "tests/streaming.rs::snapshot_resume_is_byte_identical",
        ]),
    }
}

fn compress(o: &Opts, g: &mut Gates) -> Json {
    let streams = if o.quick { FRONTIER_QUICK_STREAMS } else { FRONTIER_STREAMS };
    let (dp_steps, budget) = if o.quick { (120u64, 12usize) } else { (150, 30) };
    let started = Instant::now();
    let run = check_jobs("data plane and frontier", o.jobs, PartialEq::eq, || {
        (data_plane_points(dp_steps), frontier_points(streams))
    });
    let (dp, fr) = &run.value;
    eprintln!("[bench] autotune (budget {budget}, 3-axis then 4-axis warm-started)...");
    let tc = tune_comparison(budget, 7);

    let exact = dp.iter().find(|p| p.scheme == Scheme::None).expect("uncompressed run");
    let best_plain = best_point(fr, |p| p.scheme == Scheme::None);
    let best_lossy = best_point(fr, |p| p.scheme != Scheme::None);
    let frontier_win = best_lossy.iter_s < best_plain.iter_s;
    let (plain_s, wide_s) = (tc.uncompressed_s, tc.compressed_s);

    g.check(run.identical, "parallel data-plane/frontier sweep differed from serial".into());
    for p in dp.iter().filter(|p| p.scheme != Scheme::None) {
        let (acc, exact_acc) = (p.accuracy, exact.accuracy);
        let msg = format!("{} lost too much accuracy: {acc:.3} vs {exact_acc:.3}", p.scheme);
        g.check(acc >= exact_acc - 0.10, msg);
        let (wire, exact_wire) = (p.wire_bytes_per_step, exact.wire_bytes_per_step);
        let msg = format!("{} did not shrink the wire ({wire} vs {exact_wire} B/step)", p.scheme);
        g.check(wire < exact_wire, msg);
    }
    let (plain_streams, plain_iter) = (best_plain.streams, best_plain.iter_s);
    let msg = format!(
        "no compressed config beat uncompressed ({plain_streams} streams, {plain_iter:.4}s)"
    );
    g.check(frontier_win, msg);
    g.check(
        wide_s <= plain_s,
        format!("4-axis search lost its warm start: {wide_s:.4} vs {plain_s:.4}"),
    );
    g.check(wide_s < plain_s, format!("tuner found nothing better than {}", tc.uncompressed));

    let dp_rows = dp.iter().map(|p| {
        row! {
            "scheme" => p.scheme.to_string(),
            "final_loss" => Json::fixed(p.final_loss, 6),
            "accuracy" => Json::fixed(p.accuracy, 4),
            "wire_bytes_per_step" => p.wire_bytes_per_step,
            "loss_delta_vs_exact" => Json::fixed(p.final_loss - exact.final_loss, 6),
            "wire_reduction_x" =>
                Json::fixed(exact.wire_bytes_per_step as f64 / p.wire_bytes_per_step as f64, 2),
        }
    });
    let fr_rows = fr.iter().map(|p| {
        row! {
            "scheme" => p.scheme.to_string(), "streams" => p.streams,
            "iter_s" => Json::fixed(p.iter_s, 6),
        }
    });
    obj! {
        "scenario" => obj! {
            "data_plane" => format!(
                "4-16-3 MLP, 4 workers, exact Perseus collectives, {dp_steps} steps, error \
                 feedback on lossy wire"
            ),
            "frontier" => "ctr_production on 2x8 V100 behind 5 Gbps TCP, scheme x streams, one \
                           warmed-up simulated iteration each",
            "regenerate" => regenerate("compress"),
        },
        "data_plane" => Json::Arr(dp_rows.collect()),
        "frontier" => obj! {
            "points" => Json::Arr(fr_rows.collect()),
            "best_uncompressed" => row! {
                "streams" => plain_streams, "iter_s" => Json::fixed(plain_iter, 6),
            },
            "best_compressed" => row! {
                "scheme" => best_lossy.scheme.to_string(), "streams" => best_lossy.streams,
                "iter_s" => Json::fixed(best_lossy.iter_s, 6),
            },
            "speedup_vs_best_uncompressed" => Json::fixed(plain_iter / best_lossy.iter_s, 3),
            "compressed_beats_all_stream_counts" => frontier_win,
        },
        "autotune" => obj! {
            "budget" => budget,
            "uncompressed_best" => row! {
                "config" => tc.uncompressed.to_string(), "iter_s" => Json::fixed(plain_s, 6),
            },
            "compressed_best" => row! {
                "config" => tc.compressed.to_string(), "iter_s" => Json::fixed(wide_s, 6),
            },
            "compressed_strictly_better" => wide_s < plain_s,
        },
        "determinism" => determinism(o.jobs, run.identical, &[]),
        "timing" => row! { "wall_s" => Json::fixed(started.elapsed().as_secs_f64(), 3) },
    }
}

fn scale(o: &Opts, g: &mut Gates) -> Json {
    let cells = if o.quick { SCALE_QUICK_CELLS } else { SCALE_CELLS };
    let same = |a: &Vec<CellResult>, b: &Vec<CellResult>| {
        a.iter().map(CellResult::deterministic).eq(b.iter().map(CellResult::deterministic))
    };
    let label = format!("curve ({} cells)", cells.len());
    let run = check_jobs(&label, o.jobs, same, || run_curve(cells));
    let sweep = &run.value;

    // Solver-equivalence witness: the same 64-node cell under the
    // partitioned solver and under the flat (every-component) solver must
    // produce byte-identical event streams.
    eprintln!("[bench] 64-node partitioned vs flat solver...");
    let eq_nodes = 64usize;
    let eq_horizon = SimDuration::from_secs_f64(if o.quick { 0.2 } else { 0.5 });
    let part = run_cell(eq_nodes, eq_horizon, SolveMode::Partitioned);
    let full = run_cell(eq_nodes, eq_horizon, SolveMode::Full);
    let modes_identical = part.deterministic() == full.deterministic();

    let big = sweep.iter().max_by_key(|c| c.nodes).expect("at least one cell");

    // Multicore section: the bulk-synchronous cell at solver worker counts
    // 1/2/4, plus a flat-solver oracle. Hash identity across all four runs
    // is gated unconditionally (pool threads run even on a 1-CPU host); the
    // ≥2× speedup gate needs real cores.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (sync_nodes, rounds) = (big.nodes, if o.quick { 3 } else { 12 });
    let worker_counts = [1usize, 2, 4];
    let sync_runs: Vec<_> = worker_counts
        .iter()
        .map(|&w| {
            eprintln!("[bench] sync-round cell ({sync_nodes}n, {rounds} rounds), {w} worker(s)...");
            run_sync_cell(sync_nodes, rounds, SolveMode::Partitioned, w)
        })
        .collect();
    eprintln!("[bench] sync-round cell, flat solver oracle...");
    let sync_full = run_sync_cell(sync_nodes, rounds, SolveMode::Full, 4);
    let s0 = &sync_runs[0];
    let s_last = sync_runs.last().expect("worker sweep");
    let sync_identical =
        sync_runs.iter().chain([&sync_full]).all(|r| r.deterministic() == s0.deterministic());
    let speedup = s0.wall_s / s_last.wall_s;
    let gate_enforced = host_cpus >= 4;

    g.check(run.identical, "parallel curve differed from serial".into());
    let (ph, fh) = (part.hash, full.hash);
    g.check(
        modes_identical,
        format!("partitioned solver diverged from flat: {ph:016x} vs {fh:016x}"),
    );
    let (ps, fs) = (part.comps_solved, full.comps_solved);
    g.check(ps < fs, format!("partitioned mode skipped no component solves ({ps} vs {fs})"));
    g.check(big.nodes >= 1024, "largest cell below 1024 nodes".into());
    g.check(
        big.peak_flows >= 100_000,
        format!("1024-node cell peaked at {} flows", big.peak_flows),
    );
    g.check(sync_identical, "sync cell diverged across solver workers or vs flat".into());
    g.check(
        s0.par_solves == 0,
        format!("1-worker sync cell took {} parallel solves", s0.par_solves),
    );
    g.check(s_last.par_solves > 0, "4-worker sync cell never took the parallel solve path".into());
    let msg = format!("sync cell peaked at {} concurrent flows (< 100k)", s0.peak_flows);
    g.check(sync_nodes < 1024 || s0.peak_flows >= 100_000, msg);
    if gate_enforced {
        g.check(speedup >= 2.0, format!("4 solver workers gave {speedup:.2}x over 1 (gate 2x)"));
    } else {
        eprintln!("[bench] speedup gate skipped: host has {host_cpus} CPU(s) < 4 ({speedup:.2}x)");
    }
    if let Some(budget) = o.wall_budget {
        let w = big.wall_per_sim_s();
        g.check(w <= budget, format!("1024-node cell: {w:.1} wall-s per sim-s (budget {budget})"));
    }

    let hex = |h: u64| format!("{h:016x}");
    let rows = sweep.iter().map(|c| {
        row! {
            "nodes" => c.nodes, "racks" => c.racks, "sim_s" => Json::num(c.sim_s),
            "peak_flows" => c.peak_flows, "events" => c.events, "completions" => c.completions,
            "event_hash" => hex(c.hash), "solver_recomputes" => c.recomputes,
            "comps_solved" => c.comps_solved, "comps_existing" => c.comps_existing,
            "comp_solve_ratio" => Json::fixed(c.solve_ratio(), 4),
            "comp_parts_max" => c.comp_parts_max,
            "timing" => row! {
                "wall_s" => Json::fixed(c.wall_s, 3),
                "wall_per_sim_s" => Json::fixed(c.wall_per_sim_s(), 3),
                "events_per_wall_s" => Json::fixed(c.events as f64 / c.wall_s, 0),
                "solve_s" => Json::fixed(c.breakdown.solve_s, 3),
                "apply_s" => Json::fixed(c.breakdown.apply_s, 3),
                "queue_s" => Json::fixed(c.breakdown.queue_s, 3),
            },
        }
    });
    let per_worker = |f: fn(&CellResult) -> Json| Json::Arr(sync_runs.iter().map(f).collect());
    obj! {
        "scenario" => obj! {
            "fabric" => format!(
                "1 V100 + 30 Gbps TCP NIC per node, {NODES_PER_RACK} nodes/rack, \
                 2:1-oversubscribed ToR uplinks, shared spine"
            ),
            "workload" => format!(
                "{STREAMS_PER_NODE} restart-on-complete rack-local streams per node (xor-pair \
                 neighbours) + 1 intermittent cross-rack stream per rack at ~10% duty"
            ),
            "regenerate" => regenerate("scale"),
        },
        "cells" => Json::Arr(rows.collect()),
        "solver_equivalence" => obj! {
            "cell_nodes" => eq_nodes,
            "partitioned_hash" => hex(ph),
            "flat_hash" => hex(fh),
            "bit_identical" => modes_identical,
            "partitioned_comp_solve_ratio" => Json::fixed(part.solve_ratio(), 4),
            "flat_comp_solve_ratio" => Json::fixed(full.solve_ratio(), 4),
            "gated_by" => Json::strs(&[
                "crates/cluster prop_hier (bitwise rate/byte equivalence proptests)",
                "ci scale-smoke (hierarchical vs flat byte diff)",
            ]),
        },
        "multicore" => obj! {
            "workload" => format!(
                "bulk-synchronous rounds: {SYNC_STREAMS_PER_NODE} uniform-byte streams per node \
                 in {} rate-cap tiers, driver-side barrier between rounds",
                SYNC_TIERS.len()
            ),
            "nodes" => sync_nodes, "rounds" => rounds,
            "peak_flows" => s0.peak_flows, "events" => s0.events,
            "completions" => s0.completions, "event_hash" => hex(s0.hash),
            "solver_workers_compared" => Json::Arr(worker_counts.map(Json::from).to_vec()),
            "bit_identical_across_workers_and_flat" => sync_identical,
            "par_solves_by_workers" => per_worker(|r| r.par_solves.into()),
            "timing" => obj! {
                "host_cpus" => host_cpus,
                "wall_s_by_workers" => per_worker(|r| Json::fixed(r.wall_s, 3)),
                "speedup_4_workers_vs_1" => Json::fixed(speedup, 3),
                "speedup_gate" =>
                    if gate_enforced { ">= 2.0 (enforced)" } else { "skipped: host_cpus < 4" },
            },
        },
        "determinism" => determinism(o.jobs, run.identical, &[]),
    }
}

fn parallel(o: &Opts, g: &mut Gates) -> Json {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = check_jobs("fig9 quick sweep + granularity ablation", o.jobs, PartialEq::eq, || {
        [fig9_cv(QUICK_GPU_SWEEP), ablation_granularity()]
    });
    let speedup = run.serial_s / run.parallel_s;
    // On a single-CPU host threads only add overhead, so the gate reduces to
    // the identity check.
    let floor = match host_cpus {
        n if n >= 2 * o.jobs => 2.0,
        n if n > 1 => 1.2,
        _ => 0.0,
    };
    g.check(run.identical, "parallel tables differed from serial".into());
    g.check(speedup >= floor, format!("--jobs {} gave {speedup:.2}x (gate {floor}x)", o.jobs));
    obj! {
        "workload" => "fig9 quick sweep + granularity ablation",
        "output_identical" => run.identical,
        "timing" => obj! {
            "host_cpus" => host_cpus, "jobs" => o.jobs,
            "serial_s" => Json::fixed(run.serial_s, 4),
            "parallel_s" => Json::fixed(run.parallel_s, 4),
            "speedup" => Json::fixed(speedup, 3),
            "speedup_floor" => Json::num(floor),
        },
    }
}

fn multijob(o: &Opts, g: &mut Gates) -> Json {
    let (sweep, iterations) = if o.quick { (MULTIJOB_QUICK_SWEEP, 3) } else { (MULTIJOB_SWEEP, 6) };
    let run =
        check_jobs("multi-job sweep", o.jobs, PartialEq::eq, || multijob_points(sweep, iterations));
    let points = &run.value;
    let top = sweep.iter().copied().max().expect("non-empty sweep");
    let p99 = |engine: &str| {
        let p = points.iter().find(|p| p.njobs == top && p.engine == engine);
        p.expect("a point per engine").metrics.jct_p99_secs
    };
    let (aiacc, horovod) = (p99("aiacc"), p99("horovod"));

    g.check(run.identical, "parallel multi-job sweep differed from serial".into());
    g.check(aiacc < horovod, format!("{top} jobs: aiacc p99 {aiacc:.3}s vs horovod {horovod:.3}s"));

    let rows = points.iter().map(|p| {
        row! {
            "njobs" => p.njobs, "engine" => p.engine,
            "jct_p50_s" => Json::short(p.metrics.jct_p50_secs),
            "jct_p99_s" => Json::short(p.metrics.jct_p99_secs),
            "queue_delay_mean_s" => Json::short(p.metrics.queue_delay_mean_secs),
            "makespan_s" => Json::short(p.metrics.makespan_secs),
            "fabric_util" => Json::short(p.metrics.fabric_utilization),
            "jain" => Json::short(p.metrics.jain_fairness),
        }
    });
    obj! {
        "scenario" => obj! {
            "cluster" => "4 nodes x 8 V100, 30 Gbps TCP",
            "placement" => "spread",
            "workload" => format!(
                "comm-heavy mix (vgg16/bert_large), seed 7, {iterations} iterations/job, \
                 exponential arrivals (mean 3 s)"
            ),
            "regenerate" => regenerate("multijob"),
        },
        "points" => Json::Arr(rows.collect()),
        "headline" => obj! {
            "claim" => format!(
                "under {top}-job shared-fabric contention AIACC's p99 JCT is {:.2}x lower than \
                 single-stream Horovod's on the identical workload",
                horovod / aiacc
            ),
            "aiacc_p99_jct_s" => Json::short(aiacc),
            "horovod_p99_jct_s" => Json::short(horovod),
            "p99_ratio" => Json::fixed(horovod / aiacc, 3),
            "gated_by" => Json::strs(&[
                "tests/multijob.rs::aiacc_tail_jct_beats_horovod_under_contention",
                "crates/bench exp_multijob::tests::aiacc_beats_horovod_tail_under_contention",
            ]),
        },
        "determinism" => determinism(o.jobs, run.identical, &[
            "ci schedule-smoke (byte-for-byte TSV diff)",
            "tests/multijob.rs::single_job_bit_identical_to_training_sim",
        ]),
    }
}
