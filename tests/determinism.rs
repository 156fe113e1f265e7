//! Reproducibility guarantees: identical seeds give identical simulations,
//! different seeds differ, and results are independent of incidental
//! environment state.

use aiacc::prelude::*;

fn run_once(seed: u64, engine: EngineKind) -> Vec<f64> {
    run_training_sim(
        TrainingSimConfig::new(ClusterSpec::tcp_v100(16), zoo::resnet50(), engine)
            .with_iterations(1, 3)
            .with_seed(seed),
    )
    .iter_secs
}

#[test]
fn identical_seeds_identical_results_for_every_engine() {
    for engine in [
        EngineKind::aiacc_default(),
        EngineKind::Horovod(Default::default()),
        EngineKind::PyTorchDdp(Default::default()),
        EngineKind::BytePs(Default::default()),
        EngineKind::MxnetKvStore(Default::default()),
    ] {
        assert_eq!(run_once(7, engine), run_once(7, engine), "{}", engine.label());
    }
}

#[test]
fn different_seeds_shift_jitter() {
    let a = run_once(1, EngineKind::aiacc_default());
    let b = run_once(2, EngineKind::aiacc_default());
    assert_ne!(a, b, "jitter seeds had no effect");
    // ... but only within the jitter amplitude.
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() / x < 0.1, "{x} vs {y}");
    }
}

#[test]
fn data_parallel_training_is_bit_reproducible() {
    let mk = || {
        let mut t = DataParallelTrainer::new(DataParallelConfig::new(vec![4, 8, 2], 3, 4));
        t.train(25);
        t.model().params_flat()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn tuner_is_reproducible_given_seed() {
    use aiacc::trainer::tune::tune_aiacc;
    let model = zoo::tiny_cnn();
    let cluster = ClusterSpec::tcp_v100(8);
    let (a, _) = tune_aiacc(&model, &cluster, 12, 99, None);
    let (b, _) = tune_aiacc(&model, &cluster, 12, 99, None);
    assert_eq!(a, b);
}

#[test]
fn parallel_sweeps_are_bit_identical_across_worker_counts() {
    use aiacc::simnet::par;
    // Figure tables (many independent sweep points) and a tuning report
    // (batched tuner) must not change by a single byte when the worker
    // count does. Serialize the tables to their TSV form to compare the
    // exact bytes a user would diff.
    let run = |jobs: usize| {
        par::set_jobs(jobs);
        let table = aiacc_bench::fig9_cv(aiacc_bench::QUICK_GPU_SWEEP).to_tsv()
            + &aiacc_bench::ablation_granularity().to_tsv();
        let (cfg, report) = aiacc::trainer::tune::tune_aiacc(
            &zoo::tiny_cnn(),
            &ClusterSpec::tcp_v100(8),
            9,
            4,
            None,
        );
        par::set_jobs(1);
        (table, cfg, report)
    };
    let serial = run(1);
    for jobs in [2, 8] {
        let parallel = run(jobs);
        assert_eq!(parallel.0, serial.0, "Table TSV differs at --jobs {jobs}");
        assert_eq!(parallel.1, serial.1, "tuned config differs at --jobs {jobs}");
        assert_eq!(
            parallel.2.evaluations, serial.2.evaluations,
            "TuneReport evaluations differ at --jobs {jobs}"
        );
        assert_eq!(parallel.2.usage, serial.2.usage, "bandit usage differs at --jobs {jobs}");
        assert_eq!(parallel.2.best_value.to_bits(), serial.2.best_value.to_bits());
    }
}

#[test]
fn simulator_event_order_is_stable_under_ties() {
    // Schedule many coincident timers and flows; the delivered order must be
    // a pure function of the inputs.
    let order = || {
        let mut sim = Simulator::new();
        let r = sim.net_mut().add_resource("l", 100.0);
        for k in 0..10u32 {
            sim.schedule(SimDuration::from_nanos(50), aiacc::simnet::Token::new(k, 0, 0));
            sim.start_flow(FlowSpec::new(vec![r], 0.5)); // all complete together
        }
        let mut seq = Vec::new();
        while let Some((_, ev)) = sim.next_event() {
            seq.push(format!("{ev:?}"));
        }
        seq
    };
    assert_eq!(order(), order());
}
