//! Driver fidelity: the benchmark's drivers reproduce the program's own
//! paths bit for bit, and neither tracing nor the solver worker count moves
//! a single digest. Run with `cargo test --release` (debug builds are slow).

use aiacc_cluster::ClusterSpec;
use aiacc_dnn::zoo;
use aiacc_simnet::par;
use aiacc_trainer::{EngineKind, TrainingSimConfig};
use hostbench::fabric::{self, FabricCfg};
use hostbench::trace::{Name, Off, Tracer};
use hostbench::{stream, train_ctr};

fn small_train_configs() -> Vec<TrainingSimConfig> {
    vec![
        TrainingSimConfig::new(
            ClusterSpec::tcp_v100(16),
            zoo::resnet50(),
            EngineKind::aiacc_default(),
        )
        .with_iterations(2, 3)
        .with_seed(7),
        TrainingSimConfig::new(
            ClusterSpec::tcp_v100(16),
            zoo::vgg16(),
            EngineKind::Horovod(Default::default()),
        )
        .with_iterations(1, 2),
        train_ctr::config(3).with_iterations(1, 2),
    ]
}

fn small_fabric() -> FabricCfg {
    FabricCfg {
        nodes: 16,
        horizon_ns: 300_000_000,
        warmup_ns: 50_000_000,
        slice_ns: 10_000_000,
        seed: 5,
    }
}

fn small_stream() -> aiacc_sched::StreamCfg {
    stream::config(11, 300, 100)
}

/// The three workloads at small scale, each reduced to its digest.
fn digests(trace: bool) -> [u64; 3] {
    let train = train_ctr::config(9).with_iterations(0, 2);
    if trace {
        let mut t = Tracer::new();
        [
            train_ctr::run(&train, false, &mut t).unwrap().0.digest,
            stream::run(small_stream(), false, &mut t).unwrap().digest,
            fabric::run(&small_fabric(), false, &mut t).unwrap().digest,
        ]
    } else {
        [
            train_ctr::run(&train, false, &mut Off).unwrap().0.digest,
            stream::run(small_stream(), false, &mut Off).unwrap().digest,
            fabric::run(&small_fabric(), false, &mut Off).unwrap().digest,
        ]
    }
}

#[test]
fn train_driver_matches_training_sim_bit_for_bit() {
    for cfg in small_train_configs() {
        let reference = train_ctr::reference_iter_secs(&cfg);
        let (run, driven) = train_ctr::run(&cfg, false, &mut Off).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&driven), bits(&reference), "{}", cfg.engine.label());
        assert_eq!(run.digest, train_ctr::digest(&reference));
        assert_eq!(run.steps_ms.len(), cfg.warmup + cfg.iterations);
    }
}

#[test]
fn fabric_seed0_reproduces_the_bench_scale_event_hash() {
    // BENCH_scale.json, 16-node cell: sim_s 2, event_hash 5ef703cb5b86cbb4.
    let cfg = fabric::small_config(0);
    let run = fabric::run(&cfg, false, &mut Off).unwrap();
    assert_eq!(run.digest, 0x5ef7_03cb_5b86_cbb4);
    assert_eq!(run.events, 24_794);
    assert_eq!(run.steps_ms.len(), 39);
    // Another seed changes the event stream.
    let other = fabric::run(&FabricCfg { seed: 1, ..cfg }, false, &mut Off).unwrap();
    assert_ne!(other.digest, run.digest);
}

#[test]
fn digests_identical_with_tracing_on_and_off() {
    assert_eq!(digests(true), digests(false));
}

#[test]
fn digests_identical_at_one_and_nproc_solver_workers() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    par::set_jobs(1);
    let serial = digests(false);
    par::set_jobs(nproc.max(2));
    let parallel = digests(false);
    assert_eq!(serial, parallel);
}

#[test]
fn traced_train_run_attributes_its_time_to_layer_spans() {
    let mut t = Tracer::new();
    let cfg = train_ctr::config(1).with_iterations(0, 2);
    let (run, _) = train_ctr::run(&cfg, false, &mut t).unwrap();
    let wall = t.elapsed_s();
    assert!(t.covered_s() / wall > 0.5, "covered {} of {wall} s", t.covered_s());
    assert_eq!(t.stat(Name::Step).calls, 2);
    assert_eq!(t.stat(Name::OnFlowCompleted).calls, run.counts.flow_completed);
    assert_eq!(
        t.stat(Name::OnGradReady).calls
            + t.stat(Name::OnBackwardDone).calls
            + t.stat(Name::OnTimer).calls,
        run.counts.timers - run.counts.stale_timers
    );
}

#[test]
fn stream_run_finishes_every_job() {
    let run = stream::run(small_stream(), false, &mut Off).unwrap();
    let s = run.sched.unwrap();
    assert_eq!((s.emitted, s.completed, s.failed), (300, 300, 0));
    assert!(run.sim_s > 0.0);
}
