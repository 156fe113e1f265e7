//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [EXPERIMENT ...] [--quick] [--out DIR] [--jobs N]
//!
//! EXPERIMENT: table1 bandwidth fig2 fig9 fig10 fig11 fig12 fig13 fig14
//!             fig15 fig_multijob fig_chaos ctr insightface dawnbench tuning
//!             ablations all
//! --quick     reduced GPU sweep (1/8/32) and smaller tuning budgets
//! --out DIR   also write each table as TSV under DIR (default: results/)
//! --jobs N    fan sweep points out over N worker threads (default:
//!             AIACC_JOBS or all cores; output is bit-identical to --jobs 1)
//! ```

use aiacc_bench::cli::{usage_error, Cli};
use aiacc_bench::*;
use std::path::PathBuf;

const EXPERIMENTS: &str = "table1 bandwidth fig2 fig9 fig10 fig11 fig12 fig13 fig14 fig15 \
                           fig_multijob fig_chaos ctr insightface dawnbench tuning ablations all";

fn main() {
    let usage = format!(
        "usage: repro [EXPERIMENT ...] [--quick] [--out DIR] [--jobs N]\nEXPERIMENT: {EXPERIMENTS}"
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args, &["--quick", "--out", "--jobs"])
        .unwrap_or_else(|e| usage_error(&e, &usage));
    if let Some(bad) = cli.words.iter().find(|w| !EXPERIMENTS.split_whitespace().any(|e| e == *w)) {
        usage_error(&format!("unknown experiment {bad}"), &usage);
    }
    if let Some(n) = cli.jobs {
        aiacc_simnet::par::set_jobs(n);
    }
    let quick = cli.quick;
    let out_dir = PathBuf::from(cli.out.as_deref().unwrap_or("results"));
    let mut wanted = cli.words;
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let all = wanted.iter().any(|w| w == "all");
    let sweep = if quick { QUICK_GPU_SWEEP } else { FULL_GPU_SWEEP };
    let tuning_budget = if quick { 15 } else { 60 };
    let big_gpus = if quick { 32 } else { 128 };

    let mut ran = 0;
    let mut run = |name: &str, f: &mut dyn FnMut() -> Table| {
        if !all && !wanted.iter().any(|w| w == name) {
            return;
        }
        eprintln!("[repro] running {name} ...");
        let t = f();
        println!("{t}");
        let path = out_dir.join(format!("{name}.tsv"));
        if let Err(e) = t.write_tsv(&path) {
            eprintln!("[repro] warning: could not write {}: {e}", path.display());
        }
        ran += 1;
    };

    run("table1", &mut table1_models);
    run("bandwidth", &mut bandwidth_utilization);
    run("fig2", &mut || fig2_motivation(sweep));
    run("fig9", &mut || fig9_cv(sweep));
    run("fig10", &mut || fig10_nlp(sweep));
    run("fig11", &mut || fig11_tensorflow(sweep));
    run("fig12", &mut || fig12_mxnet(sweep));
    run("fig13", &mut || fig13_hybrid(sweep));
    run("fig14", &mut fig14_batch_sweep);
    run("fig15", &mut fig15_rdma);
    run("fig_multijob", &mut || {
        fig_multijob(
            if quick { MULTIJOB_QUICK_SWEEP } else { MULTIJOB_SWEEP },
            if quick { 3 } else { 6 },
        )
    });
    run("fig_chaos", &mut || {
        fig_chaos(if quick { CHAOS_QUICK_SEEDS } else { CHAOS_SEEDS }, if quick { 3 } else { 6 })
    });
    run("ctr", &mut || ctr_production_speedup(big_gpus));
    run("insightface", &mut || insightface_speedup(big_gpus));
    run("dawnbench", &mut dawnbench_table);
    run("tuning", &mut || tuning_report(tuning_budget));
    if all || wanted.iter().any(|w| w == "ablations") {
        for (name, t) in [
            ("ablation_flow_cap", ablation_flow_cap()),
            ("ablation_byteps_servers", ablation_byteps_servers()),
            ("ablation_sync_scheme", ablation_sync_scheme()),
            ("ablation_granularity", ablation_granularity()),
            ("ablation_tree_vs_ring", ablation_tree_vs_ring()),
            ("ablation_meta_solver", ablation_meta_solver(tuning_budget)),
        ] {
            println!("{t}");
            let path = out_dir.join(format!("{name}.tsv"));
            if let Err(e) = t.write_tsv(&path) {
                eprintln!("[repro] warning: could not write {}: {e}", path.display());
            }
            ran += 1;
        }
    }

    eprintln!("[repro] done: {ran} experiment(s); TSV in {}", out_dir.display());
}
