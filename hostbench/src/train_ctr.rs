//! `train_ctr`: one CTR job stepped by a copy of `TrainingSim`'s
//! fault-free iteration loop, built from public calls only so each layer
//! boundary can be timed from outside.
//!
//! The loop must stay bit-identical to `TrainingSim::run_iteration_detailed`
//! with an empty fault plan and no stragglers; `tests/fidelity.rs` and the
//! per-run reference check compare the two.

use crate::stats::Fnv;
use crate::trace::{Name, Probe};
use crate::{breakdown_delta, flownet_s, stats_delta, EventCounts, FlowNetUse, Run};
use aiacc_cluster::{ClusterNet, ClusterSpec, ComputeModel};
use aiacc_collectives::CollectiveEngine;
use aiacc_core::ddl::{DdlCtx, ENGINE_TIMER_KIND};
use aiacc_dnn::{zoo, DType, GradId};
use aiacc_simnet::{Event, Simulator, Token};
use aiacc_trainer::{
    comm_stream_limits, schedule_worker_compute, ComputeAttempt, EngineKind, TrainingSim,
    TrainingSimConfig, BWD_KIND, GRAD_KIND,
};
use std::time::Instant;

/// Seed of the recorded digest.
pub const DEFAULT_SEED: u64 = 42;
/// GPUs in the job (8 nodes of 8 V100s on 30 Gbps TCP).
pub const GPUS: usize = 64;
/// Simulated iterations per repeat.
pub const ITERATIONS: usize = 10;

/// The workload's configuration: `ctr_production` (3,610 gradients) on 64
/// V100s over 30 Gbps TCP with AIACC's default config, no warm-up.
pub fn config(seed: u64) -> TrainingSimConfig {
    TrainingSimConfig::new(
        ClusterSpec::tcp_v100(GPUS),
        zoo::ctr_production(),
        EngineKind::aiacc_default(),
    )
    .with_iterations(0, ITERATIONS)
    .with_seed(seed)
}

/// Digest of a run's simulated iteration times: the bits of each, in order.
pub fn digest(iter_secs: &[f64]) -> u64 {
    let mut h = Fnv::default();
    for s in iter_secs {
        h.u64(s.to_bits());
    }
    h.finish()
}

/// The reference: the same configuration run by `TrainingSim::run`.
pub fn reference_iter_secs(cfg: &TrainingSimConfig) -> Vec<f64> {
    TrainingSim::new(cfg.clone()).run().iter_secs
}

/// Runs `cfg.warmup + cfg.iterations` iterations through the benchmark's
/// driver, returning the simulated time of each measured iteration with the
/// host-side measurements; with `setup_only`, returns right after setup.
/// `cfg` must carry no faults or stragglers.
pub fn run<P: Probe>(
    cfg: &TrainingSimConfig,
    setup_only: bool,
    probe: &mut P,
) -> Result<(Run, Vec<f64>), String> {
    if !cfg.faults.events().is_empty() || !cfg.stragglers.is_empty() {
        return Err("the train_ctr driver copies the fault-free loop only".to_string());
    }
    let world = cfg.cluster.world_size();

    let setup_t0 = Instant::now();
    probe.enter(Name::Setup, || 0.0);
    let mut sim = Simulator::new();
    probe.enter(Name::ClusterBuild, || 0.0);
    let cluster = ClusterNet::build(&cfg.cluster, sim.net_mut());
    probe.exit(|| 0.0);
    probe.enter(Name::EngineBuild, || 0.0);
    let mut engine = cfg.engine.build(&cfg.model, world);
    probe.exit(|| 0.0);
    let compute = ComputeModel::new(cfg.cluster.node.gpu.clone());
    let mut coll = CollectiveEngine::new();
    probe.exit(|| 0.0);
    let setup_s = setup_t0.elapsed().as_secs_f64();
    if setup_only {
        return Ok((Run { setup_s, ..Run::default() }, Vec::new()));
    }

    let run_t0 = Instant::now();
    let (bd0, st0) = (sim.net().solve_breakdown(), sim.net().solver_stats());
    let batch = cfg.batch_per_gpu.unwrap_or_else(|| cfg.model.default_batch_per_gpu());
    let (streams_busy, streams_idle) = comm_stream_limits(&compute, &cfg.cluster, &cfg.model);
    let mut counts = EventCounts::default();
    let mut steps_ms = Vec::with_capacity(cfg.warmup + cfg.iterations);
    let mut iter_secs = Vec::with_capacity(cfg.iterations);
    macro_rules! fnet {
        () => {
            || flownet_s(sim.net().solve_breakdown())
        };
    }
    macro_rules! cx {
        ($streams:expr) => {
            DdlCtx { sim: &mut sim, coll: &mut coll, cluster: &cluster, max_streams_now: $streams }
        };
    }

    for iter in 0..(cfg.warmup + cfg.iterations) as u64 {
        let step_t0 = Instant::now();
        probe.enter(Name::Step, fnet!());
        let t0 = sim.now();
        let timing = compute.iteration_timing(&cfg.model, batch, DType::F32);

        probe.enter(Name::BeginIteration, fnet!());
        engine.begin_iteration(&mut cx!(streams_busy), iter);
        probe.exit(fnet!());

        let attempt = ComputeAttempt {
            world,
            seed: cfg.seed,
            jitter_frac: cfg.jitter_frac,
            framework: cfg.framework,
            timing: &timing,
            iter,
        };
        probe.enter(Name::ScheduleWorkerCompute, fnet!());
        let last_bwd = schedule_worker_compute(&mut sim, &attempt, |_| 1.0);
        probe.exit(fnet!());

        // Back-to-back calls share span boundaries (`switch`): each
        // `next_event` span also covers the dispatch `match`, and each
        // handler span the `comm_done` check after it.
        let mut busy_workers = world;
        probe.enter(Name::NextEvent, fnet!());
        let comm_done_at = loop {
            let Some((t, ev)) = sim.next_event() else {
                return Err(format!("simulation drained during iteration {iter}"));
            };
            let max_streams = if busy_workers > 0 { streams_busy } else { streams_idle };
            match ev {
                Event::Timer(tok) => {
                    counts.timers += 1;
                    if tok.kind == GRAD_KIND {
                        probe.switch(Name::OnGradReady, fnet!());
                        engine.on_grad_ready(
                            &mut cx!(max_streams),
                            tok.a as usize,
                            GradId(tok.b as u32),
                        );
                    } else if tok.kind == BWD_KIND {
                        busy_workers -= 1;
                        let streams = if busy_workers > 0 { streams_busy } else { streams_idle };
                        probe.switch(Name::OnBackwardDone, fnet!());
                        engine.on_backward_done(&mut cx!(streams), tok.a as usize);
                    } else if tok.kind == ENGINE_TIMER_KIND {
                        probe.switch(Name::OnTimer, fnet!());
                        engine.on_timer(&mut cx!(max_streams), tok.a, tok.b);
                    } else {
                        counts.stale_timers += 1;
                    }
                }
                Event::FlowCompleted(f) => {
                    counts.flow_completed += 1;
                    probe.switch(Name::OnFlowCompleted, fnet!());
                    if let Some(op) = coll.on_flow_completed(&mut sim, f) {
                        counts.ops_completed += 1;
                        probe.switch(Name::OnCollectiveDone, fnet!());
                        engine.on_collective_done(&mut cx!(max_streams), op);
                    }
                }
                Event::Fault(_) => return Err("fault event without a fault plan".to_string()),
            }
            if busy_workers == 0 && engine.comm_done() {
                probe.exit(fnet!());
                break t;
            }
            probe.switch(Name::NextEvent, fnet!());
        };

        // Advance to the iteration boundary as `TrainingSim::drain_to` does
        // without faults: a sentinel timer marks it, and stale timers and
        // lingering flow completions before it are dropped.
        let end = comm_done_at.max(last_bwd) + timing.update;
        while sim.now() < end {
            sim.schedule_at(end, Token::new(u32::MAX, 0, 0));
            probe.enter(Name::NextEvent, fnet!());
            loop {
                let Some((t, ev)) = sim.next_event() else {
                    return Err(format!("simulation drained at the end of iteration {iter}"));
                };
                match ev {
                    Event::Timer(tok) if tok.kind == u32::MAX && t >= end => break,
                    Event::Timer(_) => {
                        counts.timers += 1;
                        counts.stale_timers += 1;
                    }
                    Event::FlowCompleted(_) => counts.flow_completed += 1,
                    Event::Fault(_) => return Err("fault event without a fault plan".to_string()),
                }
                probe.switch(Name::NextEvent, fnet!());
            }
            probe.exit(fnet!());
        }
        probe.exit(fnet!());
        steps_ms.push(step_t0.elapsed().as_secs_f64() * 1e3);
        if iter >= cfg.warmup as u64 {
            iter_secs.push((end - t0).as_secs_f64());
        }
    }

    let flownet = FlowNetUse {
        breakdown: breakdown_delta(sim.net().solve_breakdown(), bd0),
        stats: stats_delta(sim.net().solver_stats(), st0),
    };
    let run = Run {
        setup_s,
        run_s: run_t0.elapsed().as_secs_f64(),
        steps_ms,
        sim_s: sim.now().as_secs_f64(),
        units: (cfg.warmup + cfg.iterations) as u64,
        events: counts.timers + counts.flow_completed,
        digest: digest(&iter_secs),
        counts,
        flownet: Some(flownet),
        sched: None,
    };
    Ok((run, iter_secs))
}
