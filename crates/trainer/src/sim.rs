//! The training-iteration simulation loop (timing plane).

use crate::engines::{EngineKind, Framework};
use crate::metrics::ThroughputReport;
use crate::recovery::{replay_failure_recovery, RecoveryConfig};
use aiacc_cluster::{jitter_factor, ClusterNet, ClusterSpec, ComputeModel, IterationTiming};
use aiacc_collectives::CollectiveEngine;
use aiacc_core::ddl::{DdlCtx, DdlEngine, ENGINE_TIMER_KIND};
use aiacc_dnn::{DType, GradId, ModelProfile};
use aiacc_simnet::trace::track;
use aiacc_simnet::{Event, FaultPlan, FlowId, SimDuration, SimTime, Simulator, Token, TraceSink};
use serde::{Deserialize, Serialize};

/// Timer kind announcing one worker's gradient became ready (`a` = worker,
/// `b` = gradient id). Public so the multi-job scheduler can route the same
/// tokens through its shared event loop.
pub const GRAD_KIND: u32 = 1;
/// Timer kind announcing one worker finished backward (`a` = worker).
pub const BWD_KIND: u32 = 2;
/// Timer kind for a scheduled node crash from the fault plan.
const FAULT_CRASH_KIND: u32 = 3;

/// Compute-side inputs of one iteration attempt, shared between
/// [`TrainingSim`] and the multi-job scheduler (`aiacc-sched`) so that an
/// N=1 scheduled job reproduces the single-job path bit-for-bit.
#[derive(Debug, Clone)]
pub struct ComputeAttempt<'a> {
    /// Number of workers.
    pub world: usize,
    /// Jitter seed.
    pub seed: u64,
    /// Jitter amplitude (fraction).
    pub jitter_frac: f64,
    /// Framework adapter (scales compute and adds per-iteration overhead).
    pub framework: Framework,
    /// Forward/backward/update durations and per-gradient ready offsets.
    pub timing: &'a IterationTiming,
    /// Iteration number (feeds the jitter hash).
    pub iter: u64,
}

/// Schedules one attempt's per-worker compute timers into `sim` — a
/// [`GRAD_KIND`] timer per gradient and a [`BWD_KIND`] timer per worker —
/// and returns the time the slowest worker finishes backward.
/// `compute_scale(w)` is worker `w`'s straggler × fault slow-down at the
/// attempt's start (`1.0` for a healthy worker).
pub fn schedule_worker_compute(
    sim: &mut Simulator,
    attempt: &ComputeAttempt<'_>,
    compute_scale: impl Fn(usize) -> f64,
) -> SimTime {
    let t_start = sim.now();
    let fw = attempt.framework;
    let timing = attempt.timing;
    let mut last_bwd = t_start;
    for w in 0..attempt.world {
        let jf = jitter_factor(attempt.seed, w, attempt.iter, attempt.jitter_frac)
            * fw.compute_factor()
            * compute_scale(w);
        let fwd = timing.forward.mul_f64(jf) + fw.per_iter_overhead();
        let bwd_at = fwd + timing.backward.mul_f64(jf);
        // Wait-free backprop makes the worker's gradients ready in offset
        // order, then backward ends: one time-sorted run.
        let grads = timing.grad_ready.iter().map(|&(g, off)| {
            (t_start + (fwd + off.mul_f64(jf)), Token::new(GRAD_KIND, w as u32, g.0 as u64))
        });
        let bwd = (t_start + bwd_at, Token::new(BWD_KIND, w as u32, 0));
        sim.schedule_run(grads.chain(std::iter::once(bwd)));
        last_bwd = last_bwd.max(t_start + bwd_at);
    }
    last_bwd
}

/// The communication stream limits `(while_compute_busy, while_idle)` for a
/// cluster/model pair. On RDMA with GPU-direct the NIC DMAs straight out of
/// GPU memory (§V-A2), so streams barely contend with compute SMs; on TCP
/// every stream needs copy kernels and staging, so compute occupancy caps
/// concurrency (§VIII-A).
pub fn comm_stream_limits(
    compute: &ComputeModel,
    cluster: &ClusterSpec,
    model: &ModelProfile,
) -> (usize, usize) {
    let busy = match cluster.node.nic.kind {
        aiacc_cluster::NetKind::Rdma => compute.max_comm_streams_idle(),
        aiacc_cluster::NetKind::Tcp => compute.max_comm_streams_during_compute(model),
    };
    (busy, compute.max_comm_streams_idle())
}

/// One job's iteration state machine: backward makes gradients ready, the
/// engine all-reduces them over the job's collective engine, and the
/// iteration's communication is done once every worker finished backward and
/// the engine reports all gradients aggregated.
///
/// [`TrainingSim`] drives one of these on its own simulator; the multi-job
/// scheduler (`aiacc-sched`) drives one per running job on a shared
/// simulator, each over a [`ClusterNet::subnet`] view. Every engine callback
/// goes through this type, so both paths hand the engine the same context.
pub struct JobDriver {
    cluster: ClusterNet,
    coll: CollectiveEngine,
    engine: Box<dyn DdlEngine>,
    /// Stream limit while any worker still runs backward.
    streams_busy: usize,
    /// Stream limit once every worker is idle.
    streams_idle: usize,
    /// Workers that have not finished backward in the current attempt.
    busy_workers: usize,
}

impl JobDriver {
    /// A driver for `engine` over `cluster`, with the `(busy, idle)` stream
    /// limits of [`comm_stream_limits`].
    pub fn new(cluster: ClusterNet, engine: Box<dyn DdlEngine>, limits: (usize, usize)) -> Self {
        let (streams_busy, streams_idle) = limits;
        JobDriver {
            cluster,
            coll: CollectiveEngine::new(),
            engine,
            streams_busy,
            streams_idle,
            busy_workers: 0,
        }
    }

    /// The engine (for its name and counters).
    pub fn engine(&self) -> &dyn DdlEngine {
        self.engine.as_ref()
    }

    /// Workers still running backward in the current attempt.
    pub fn busy_workers(&self) -> usize {
        self.busy_workers
    }

    /// Whether the collective engine owns flow `f`.
    pub fn owns_flow(&self, f: FlowId) -> bool {
        self.coll.owns_flow(f)
    }

    /// Runs `f` on the engine with the context for the current stream limit.
    fn with_engine(
        &mut self,
        sim: &mut Simulator,
        f: impl FnOnce(&mut dyn DdlEngine, &mut DdlCtx<'_>),
    ) {
        let max_streams_now =
            if self.busy_workers > 0 { self.streams_busy } else { self.streams_idle };
        let mut cx = DdlCtx { sim, coll: &mut self.coll, cluster: &self.cluster, max_streams_now };
        f(self.engine.as_mut(), &mut cx);
    }

    /// Begins an iteration attempt: resets the engine, then schedules every
    /// worker's compute (see [`schedule_worker_compute`]). Returns the time
    /// the slowest worker finishes backward.
    pub fn begin_iteration(
        &mut self,
        sim: &mut Simulator,
        attempt: &ComputeAttempt<'_>,
        compute_scale: impl Fn(usize) -> f64,
    ) -> SimTime {
        self.busy_workers = attempt.world;
        self.with_engine(sim, |e, cx| e.begin_iteration(cx, attempt.iter));
        schedule_worker_compute(sim, attempt, compute_scale)
    }

    /// Hands one event to the engine: a [`GRAD_KIND`], [`BWD_KIND`] or
    /// [`ENGINE_TIMER_KIND`] timer (scope stamps are ignored), a flow
    /// completion of this job's collective engine, or a fault record. Other
    /// timers are ignored.
    pub fn on_event(&mut self, sim: &mut Simulator, ev: Event) {
        match ev {
            Event::Timer(tok) => match tok.base_kind() {
                GRAD_KIND => self.with_engine(sim, |e, cx| {
                    e.on_grad_ready(cx, tok.a as usize, GradId(tok.b as u32))
                }),
                BWD_KIND => {
                    self.busy_workers -= 1;
                    self.with_engine(sim, |e, cx| e.on_backward_done(cx, tok.a as usize));
                }
                ENGINE_TIMER_KIND => self.with_engine(sim, |e, cx| e.on_timer(cx, tok.a, tok.b)),
                _ => {}
            },
            Event::FlowCompleted(f) => {
                if let Some(op) = self.coll.on_flow_completed(sim, f) {
                    self.with_engine(sim, |e, cx| e.on_collective_done(cx, op));
                }
            }
            Event::Fault(rec) => self.with_engine(sim, |e, cx| e.on_fault(cx, &rec)),
        }
    }

    /// Whether the current attempt's communication is done: every worker
    /// finished backward and the engine aggregated every gradient.
    pub fn comm_done(&self) -> bool {
        self.busy_workers == 0 && self.engine.comm_done()
    }

    /// Aborts the current attempt: cancels every in-flight collective and
    /// marks the workers idle (later faults see the idle stream limit).
    pub fn abort(&mut self, sim: &mut Simulator) {
        self.coll.cancel_all(sim);
        self.busy_workers = 0;
    }
}

/// Configuration of one simulated training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingSimConfig {
    /// The cluster to run on.
    pub cluster: ClusterSpec,
    /// The DNN workload.
    pub model: ModelProfile,
    /// Per-GPU batch size (`None` = the model's paper-matching default).
    pub batch_per_gpu: Option<usize>,
    /// Communication framework.
    pub engine: EngineKind,
    /// Deep-learning framework adapter.
    pub framework: Framework,
    /// Measured iterations (the paper measures 200 after 100 warm-up;
    /// simulated time is noise-free so a handful suffices — see `warmup`).
    pub iterations: usize,
    /// Unmeasured warm-up iterations.
    pub warmup: usize,
    /// Seed for the deterministic compute jitter.
    pub seed: u64,
    /// Compute jitter amplitude (fraction; real clusters show a few percent).
    pub jitter_frac: f64,
    /// Persistent stragglers: `(worker, slow_factor)` — that worker's compute
    /// runs `slow_factor`× slower every iteration (a degraded or
    /// noisy-neighbour GPU). Synchronous SGD makes everyone wait for it.
    pub stragglers: Vec<(usize, f64)>,
    /// Scheduled faults: link degradations/flaps are installed on the
    /// simulator (node targets resolved to that node's NIC tx/rx), straggler
    /// windows scale compute time, and crashes abort the running iteration
    /// and charge a replayed checkpoint restart. An empty plan (the default)
    /// changes nothing.
    pub faults: FaultPlan,
    /// Records a structured trace of the run (iteration spans, per-unit
    /// stream lanes, collective phases, fault/crash markers). Off by
    /// default: with tracing disabled no event is ever allocated and the
    /// simulation is bit-identical to a build without the trace layer.
    pub trace: bool,
}

impl TrainingSimConfig {
    /// A paper-style run: PyTorch, default batch, 2 warm-up + 3 measured
    /// iterations, 2 % jitter.
    pub fn new(cluster: ClusterSpec, model: ModelProfile, engine: EngineKind) -> Self {
        TrainingSimConfig {
            cluster,
            model,
            batch_per_gpu: None,
            engine,
            framework: Framework::PyTorch,
            iterations: 3,
            warmup: 2,
            seed: 42,
            jitter_frac: 0.02,
            stragglers: Vec::new(),
            faults: FaultPlan::new(),
            trace: false,
        }
    }

    /// Overrides the per-GPU batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch_per_gpu = Some(batch);
        self
    }

    /// Selects the framework adapter.
    pub fn with_framework(mut self, fw: Framework) -> Self {
        self.framework = fw;
        self
    }

    /// Sets measured/warm-up iteration counts.
    pub fn with_iterations(mut self, warmup: usize, measured: usize) -> Self {
        self.warmup = warmup;
        self.iterations = measured;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Marks `worker` as a persistent straggler running `factor`× slower.
    ///
    /// # Panics
    /// Panics if `factor < 1.0` or the worker is out of range.
    pub fn with_straggler(mut self, worker: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "slow factor below 1");
        assert!(worker < self.cluster.world_size(), "straggler rank out of range");
        self.stragglers.push((worker, factor));
        self
    }

    /// Installs a fault plan for the run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables (or disables) structured tracing for the run.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// Phase timestamps of one simulated iteration, relative to its start.
///
/// The *communication tail* — how long the job waits for gradient
/// aggregation after every worker finished backward — is exactly the
/// quantity AIACC's overlap machinery minimizes (Fig. 5).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationBreakdown {
    /// When the slowest worker finished backward, seconds.
    pub backward_end_secs: f64,
    /// When the last gradient finished aggregation, seconds.
    pub comm_done_secs: f64,
    /// Iteration end (after the optimizer update), seconds.
    pub iter_secs: f64,
    /// Link-fault actions (applications and restorations) observed while
    /// this iteration ran.
    pub fault_events: u32,
    /// Node crashes that aborted an attempt of this iteration.
    pub crashes: u32,
    /// Wall-clock spent in checkpoint restarts charged to this iteration.
    pub recovery_secs: f64,
}

impl IterationBreakdown {
    /// Communication time not hidden behind compute.
    pub fn comm_tail_secs(&self) -> f64 {
        (self.comm_done_secs - self.backward_end_secs).max(0.0)
    }

    /// Whether any fault activity touched this iteration.
    pub fn fault_impacted(&self) -> bool {
        self.fault_events > 0 || self.crashes > 0
    }
}

/// A reusable simulation instance (kept alive across iterations so engines
/// with cross-iteration state behave realistically).
pub struct TrainingSim {
    cfg: TrainingSimConfig,
    sim: Simulator,
    driver: JobDriver,
    compute: ComputeModel,
    iter: u64,
    /// The fault plan with node-targeted link faults resolved to NIC
    /// resources (kept for straggler-window queries).
    faults: FaultPlan,
    /// Lazily computed cost of one replayed checkpoint restart, seconds.
    recovery_cost: Option<f64>,
}

impl std::fmt::Debug for TrainingSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainingSim")
            .field("engine", &self.driver.engine().name())
            .field("iter", &self.iter)
            .finish()
    }
}

impl TrainingSim {
    /// Builds the simulation (cluster resources, engine, compute model) and
    /// installs the configured fault plan: node-targeted link faults resolve
    /// to that node's NIC tx/rx ports, link faults are armed on the
    /// simulator, and each scheduled crash becomes a timer.
    ///
    /// # Panics
    /// Panics if the plan targets a node outside the cluster.
    pub fn new(cfg: TrainingSimConfig) -> Self {
        let mut sim = Simulator::new();
        if cfg.trace {
            sim.enable_tracing();
        }
        let cluster = ClusterNet::build(&cfg.cluster, sim.net_mut());
        let engine = cfg.engine.build(&cfg.model, cfg.cluster.world_size());
        let compute = ComputeModel::new(cfg.cluster.node.gpu.clone());
        let nodes = cfg.cluster.nodes;
        let faults = cfg.faults.resolve_links(|n| {
            assert!((n as usize) < nodes, "fault targets node {n}, cluster has {nodes}");
            vec![cluster.node_tx_resource(n as usize), cluster.node_rx_resource(n as usize)]
        });
        sim.install_faults(&faults);
        for (node, at) in faults.crash_times() {
            assert!((node as usize) < nodes, "crash targets node {node}, cluster has {nodes}");
            sim.schedule_at(at, Token::new(FAULT_CRASH_KIND, node, 0));
        }
        let limits = comm_stream_limits(&compute, &cfg.cluster, &cfg.model);
        TrainingSim {
            cfg,
            sim,
            driver: JobDriver::new(cluster, engine, limits),
            compute,
            iter: 0,
            faults,
            recovery_cost: None,
        }
    }

    /// Charges a crash of `node` to `out`: the running attempt is aborted
    /// (in-flight collectives torn down) and the job pays a replayed
    /// checkpoint restart (see
    /// [`crate::recovery::replay_failure_recovery`]; computed once — the
    /// replay is deterministic, every crash costs the same). Returns the
    /// pause.
    fn crash(&mut self, node: u32, out: &mut IterationBreakdown) -> SimDuration {
        let (cluster, model) = (&self.cfg.cluster, &self.cfg.model);
        let pause = *self.recovery_cost.get_or_insert_with(|| {
            replay_failure_recovery(cluster, model, RecoveryConfig::default()).total_secs
        });
        out.crashes += 1;
        out.recovery_secs += pause;
        if self.sim.tracing_enabled() {
            let name = format!("crash n{node}");
            self.sim.trace_instant(track::TRAINER, 0, &name, "fault", Some(pause));
        }
        self.driver.abort(&mut self.sim);
        SimDuration::from_secs_f64(pause)
    }

    /// Advances the simulator to `end`, dropping stale work: fault records
    /// are still routed to the engine, and a crash timer landing inside the
    /// window extends it by a checkpoint restart. Returns the boundary
    /// actually reached.
    fn drain_to(&mut self, mut end: SimTime, out: &mut IterationBreakdown) -> SimTime {
        while self.sim.now() < end {
            self.sim.schedule_at(end, Token::new(u32::MAX, 0, 0));
            while let Some((t, ev)) = self.sim.next_event() {
                match ev {
                    Event::Timer(tok) if tok.kind == u32::MAX && t >= end => break,
                    // A sentinel for a boundary that has since been extended
                    // fires early (t < end) and is dropped.
                    Event::Timer(tok) if tok.kind == u32::MAX => {}
                    Event::Timer(tok) if tok.kind == FAULT_CRASH_KIND => {
                        end = t + self.crash(tok.a, out);
                    }
                    // Every worker is idle here (comm done, or the attempt
                    // was aborted), so the engine sees the idle limit.
                    Event::Fault(_) => {
                        out.fault_events += 1;
                        self.driver.on_event(&mut self.sim, ev);
                    }
                    // Stale timers / lingering flows from engines are dropped.
                    _ => {}
                }
            }
        }
        end
    }

    /// The effective per-GPU batch size.
    pub fn batch_per_gpu(&self) -> usize {
        self.cfg.batch_per_gpu.unwrap_or_else(|| self.cfg.model.default_batch_per_gpu())
    }

    /// The structured trace recorded so far (empty unless the config enabled
    /// tracing). Export it with [`TraceSink::to_chrome_json`] or summarize it
    /// with [`TraceSink::summary`].
    pub fn trace(&self) -> &TraceSink {
        self.sim.trace()
    }

    /// The engine's AIACC per-iteration counters, when the configured engine
    /// exposes them (baselines return `None`). Lets harnesses cross-check
    /// trace-derived lane counts against `AiaccStats::peak_streams`.
    pub fn engine_stats(&self) -> Option<aiacc_core::AiaccStats> {
        self.driver.engine().aiacc_stats()
    }

    /// Cumulative fluid-solver work counters of the underlying network
    /// (recomputes, component sizes, parallel fan-outs). Diagnostic only —
    /// the `par_*` fields vary with the solver worker count.
    pub fn solver_stats(&self) -> aiacc_simnet::SolverStats {
        self.sim.net().solver_stats()
    }

    /// Wall-clock split of solver time (solve vs apply vs queue phases).
    /// Machine-dependent; never feed it back into reported results.
    pub fn solve_breakdown(&self) -> aiacc_simnet::SolveBreakdown {
        self.sim.net().solve_breakdown()
    }

    /// Runs one training iteration, returning its wall-clock duration.
    pub fn run_iteration(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.run_iteration_detailed().iter_secs)
    }

    /// Runs one iteration and reports its phase breakdown.
    ///
    /// A node crash from the fault plan aborts the running attempt: all
    /// in-flight collectives are torn down, the job pays a replayed
    /// checkpoint restart, and the iteration re-runs from scratch — so a
    /// crashed iteration's `iter_secs` includes the lost attempt, the
    /// recovery pause and the successful re-run.
    pub fn run_iteration_detailed(&mut self) -> IterationBreakdown {
        let world = self.cfg.cluster.world_size();
        let batch = self.batch_per_gpu();
        let t0 = self.sim.now();
        let timing = self.compute.iteration_timing(&self.cfg.model, batch, DType::F32);
        let mut out = IterationBreakdown::default();

        if self.sim.tracing_enabled() {
            let name = format!("iter {}", self.iter);
            self.sim.trace_span_begin(track::TRAINER, 0, &name, "iteration");
        }

        let (last_bwd, comm_done_at) = 'attempt: loop {
            // Each worker's compute — forward, per-gradient readiness,
            // backward completion — is scaled by the framework factor, the
            // worker/iteration jitter, and any straggler fault window active
            // at the attempt's start.
            let t_start = self.sim.now();
            let attempt = ComputeAttempt {
                world,
                seed: self.cfg.seed,
                jitter_frac: self.cfg.jitter_frac,
                framework: self.cfg.framework,
                timing: &timing,
                iter: self.iter,
            };
            let (cfg, faults) = (&self.cfg, &self.faults);
            let last_bwd = self.driver.begin_iteration(&mut self.sim, &attempt, |w| {
                cfg.stragglers.iter().filter(|&&(sw, _)| sw == w).map(|&(_, f)| f).product::<f64>()
                    * faults.compute_factor(cfg.cluster.node_of(w) as u32, t_start)
            });

            // Event loop until this iteration's communication completes.
            loop {
                let Some((t, ev)) = self.sim.next_event() else {
                    panic!(
                        "simulation drained without finishing iteration {} of {}",
                        self.iter,
                        self.driver.engine().name()
                    );
                };
                match ev {
                    Event::Timer(tok) if tok.kind == FAULT_CRASH_KIND => {
                        // Synchronous SGD: one crashed node kills the whole
                        // attempt. Tear down in-flight work, pay the
                        // restart, retry the iteration.
                        let resume = t + self.crash(tok.a, &mut out);
                        self.drain_to(resume, &mut out);
                        continue 'attempt;
                    }
                    Event::Timer(tok)
                        if tok.kind == BWD_KIND
                            && self.driver.busy_workers() == 1
                            && self.sim.tracing_enabled() =>
                    {
                        // The last worker's backward, marked before the
                        // engine reacts to it.
                        self.sim.trace_instant(track::TRAINER, 0, "backward done", "phase", None);
                    }
                    Event::Fault(_) => out.fault_events += 1,
                    _ => {}
                }
                self.driver.on_event(&mut self.sim, ev);
                if self.driver.comm_done() {
                    break 'attempt (last_bwd, t);
                }
            }
        };

        // Synchronous SGD: the iteration ends after the slowest of compute
        // and communication, plus the optimizer update. Advance the
        // simulator to the boundary so the next iteration starts cleanly
        // (stale engine timers beyond the boundary are ignored by iter id;
        // a crash landing in the gap extends it by a restart).
        if self.sim.tracing_enabled() {
            self.sim.trace_instant(track::TRAINER, 0, "comm done", "phase", None);
        }
        let end = comm_done_at.max(last_bwd) + timing.update;
        let end = self.drain_to(end, &mut out);
        if self.sim.tracing_enabled() {
            let name = format!("iter {}", self.iter);
            self.sim.trace_span_end(track::TRAINER, 0, &name, "iteration");
        }
        self.iter += 1;
        out.backward_end_secs = (last_bwd - t0).as_secs_f64();
        out.comm_done_secs = (comm_done_at.max(t0) - t0).as_secs_f64();
        out.iter_secs = (end - t0).as_secs_f64();
        out
    }

    /// Runs the configured warm-up + measured iterations and reports
    /// throughput.
    pub fn run(&mut self) -> ThroughputReport {
        for _ in 0..self.cfg.warmup {
            let _ = self.run_iteration();
        }
        let mut iter_secs = Vec::with_capacity(self.cfg.iterations);
        for _ in 0..self.cfg.iterations {
            iter_secs.push(self.run_iteration().as_secs_f64());
        }
        let world = self.cfg.cluster.world_size();
        let batch = self.batch_per_gpu();
        ThroughputReport::new(
            self.driver.engine().name(),
            self.cfg.model.name().to_string(),
            world,
            batch,
            self.cfg.model.sample_unit(),
            iter_secs,
        )
    }
}

/// One-shot convenience: build and run a full simulation.
///
/// # Example
/// ```
/// use aiacc_cluster::ClusterSpec;
/// use aiacc_dnn::zoo;
/// use aiacc_trainer::{run_training_sim, EngineKind, TrainingSimConfig};
///
/// let cfg = TrainingSimConfig::new(
///     ClusterSpec::tcp_v100(8),
///     zoo::tiny_cnn(),
///     EngineKind::aiacc_default(),
/// )
/// .with_iterations(1, 2);
/// let report = run_training_sim(cfg);
/// assert!(report.samples_per_sec > 0.0);
/// ```
pub fn run_training_sim(cfg: TrainingSimConfig) -> ThroughputReport {
    TrainingSim::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_baselines::{BytePsConfig, DdpConfig, HorovodConfig, KvStoreConfig};
    use aiacc_core::AiaccConfig;
    use aiacc_dnn::zoo;

    fn quick(model: ModelProfile, gpus: usize, engine: EngineKind) -> ThroughputReport {
        run_training_sim(
            TrainingSimConfig::new(ClusterSpec::tcp_v100(gpus), model, engine)
                .with_iterations(1, 2),
        )
    }

    #[test]
    fn every_engine_completes_resnet50_on_two_nodes() {
        for engine in [
            EngineKind::aiacc_default(),
            EngineKind::Horovod(HorovodConfig::default()),
            EngineKind::PyTorchDdp(DdpConfig::default()),
            EngineKind::BytePs(BytePsConfig::default()),
            EngineKind::MxnetKvStore(KvStoreConfig::default()),
        ] {
            let r = quick(zoo::resnet50(), 16, engine);
            assert!(r.samples_per_sec > 100.0, "{}: {} img/s", engine.label(), r.samples_per_sec);
        }
    }

    #[test]
    fn aiacc_beats_horovod_on_vgg16_multinode() {
        // The headline claim at small scale (§III): 1.8× on VGG-16 @ 32 GPUs.
        let a = quick(zoo::vgg16(), 32, EngineKind::aiacc_default());
        let h = quick(zoo::vgg16(), 32, EngineKind::Horovod(HorovodConfig::default()));
        let speedup = a.samples_per_sec / h.samples_per_sec;
        assert!(
            speedup > 1.3,
            "aiacc {} vs horovod {} img/s (speedup {speedup:.2})",
            a.samples_per_sec,
            h.samples_per_sec
        );
    }

    #[test]
    fn aiacc_scaling_efficiency_high_on_resnet50() {
        let single = quick(zoo::resnet50(), 1, EngineKind::aiacc_default());
        let multi = quick(zoo::resnet50(), 32, EngineKind::aiacc_default());
        let eff = crate::scaling_efficiency(&single, &multi);
        assert!(eff > 0.85, "scaling efficiency {eff:.3}");
    }

    #[test]
    fn horovod_efficiency_matches_fig2_band() {
        // Fig. 2: Horovod at 32 GPUs on ResNet-50 reaches ~75 % efficiency.
        let single = quick(zoo::resnet50(), 1, EngineKind::Horovod(HorovodConfig::default()));
        let multi = quick(zoo::resnet50(), 32, EngineKind::Horovod(HorovodConfig::default()));
        let eff = crate::scaling_efficiency(&single, &multi);
        assert!((0.55..0.9).contains(&eff), "Horovod efficiency {eff:.3}");
    }

    #[test]
    fn single_gpu_all_engines_equal_compute_bound() {
        // With one GPU there is no communication: engines must agree.
        let a = quick(zoo::resnet50(), 1, EngineKind::aiacc_default());
        let h = quick(zoo::resnet50(), 1, EngineKind::Horovod(HorovodConfig::default()));
        let ratio = a.samples_per_sec / h.samples_per_sec;
        assert!((ratio - 1.0).abs() < 0.05, "single-GPU ratio {ratio}");
    }

    #[test]
    fn iterations_are_deterministic_given_seed() {
        let r1 = quick(zoo::tiny_cnn(), 8, EngineKind::aiacc_default());
        let r2 = quick(zoo::tiny_cnn(), 8, EngineKind::aiacc_default());
        assert_eq!(r1.iter_secs, r2.iter_secs);
    }

    #[test]
    fn framework_adapters_shift_throughput() {
        let base = TrainingSimConfig::new(
            ClusterSpec::tcp_v100(8),
            zoo::resnet50(),
            EngineKind::aiacc_default(),
        )
        .with_iterations(1, 2);
        let pt = run_training_sim(base.clone().with_framework(Framework::PyTorch));
        let mx = run_training_sim(base.with_framework(Framework::Mxnet));
        assert!(pt.samples_per_sec > mx.samples_per_sec);
    }

    #[test]
    fn batch_override_reduces_iteration_time() {
        let big = quick(zoo::bert_large(), 8, EngineKind::aiacc_default());
        let small = run_training_sim(
            TrainingSimConfig::new(
                ClusterSpec::tcp_v100(8),
                zoo::bert_large(),
                EngineKind::aiacc_default(),
            )
            .with_batch(2)
            .with_iterations(1, 2),
        );
        assert!(small.mean_iter_secs() < big.mean_iter_secs());
    }

    #[test]
    fn breakdown_shows_aiacc_hiding_the_communication_tail() {
        // The mechanism behind every figure: on a comm-bound model, AIACC's
        // multi-streamed overlap shrinks the after-backward communication
        // tail that Horovod pays in full (Fig. 5).
        let mk = |engine| {
            let mut sim = TrainingSim::new(TrainingSimConfig::new(
                ClusterSpec::tcp_v100(16),
                zoo::vgg16(),
                engine,
            ));
            let _ = sim.run_iteration(); // warm-up
            sim.run_iteration_detailed()
        };
        let a = mk(EngineKind::aiacc_default());
        let h = mk(EngineKind::Horovod(HorovodConfig::default()));
        assert!(
            a.comm_tail_secs() < h.comm_tail_secs() * 0.4,
            "aiacc tail {:.3}s vs horovod tail {:.3}s",
            a.comm_tail_secs(),
            h.comm_tail_secs()
        );
        // Internal consistency.
        for b in [a, h] {
            assert!(b.iter_secs >= b.comm_done_secs.max(b.backward_end_secs));
        }
    }

    #[test]
    fn a_straggler_slows_the_whole_synchronous_job() {
        let base = TrainingSimConfig::new(
            ClusterSpec::tcp_v100(16),
            zoo::resnet50(),
            EngineKind::aiacc_default(),
        )
        .with_iterations(1, 2);
        let clean = run_training_sim(base.clone());
        let straggled = run_training_sim(base.with_straggler(3, 1.5));
        // Synchronous SGD: one 1.5× slow worker gates every iteration.
        let ratio = clean.mean_iter_secs() / straggled.mean_iter_secs();
        assert!(
            (0.6..0.75).contains(&ratio),
            "straggler should slow the job ~1.5x, got ratio {ratio:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn straggler_rank_validated() {
        let _ = TrainingSimConfig::new(
            ClusterSpec::tcp_v100(8),
            zoo::tiny_cnn(),
            EngineKind::aiacc_default(),
        )
        .with_straggler(8, 2.0);
    }

    #[test]
    fn compression_config_flows_through() {
        let plain =
            quick(zoo::vgg16(), 16, EngineKind::Aiacc(AiaccConfig::default().with_streams(1)));
        let fp16 = quick(
            zoo::vgg16(),
            16,
            EngineKind::Aiacc(AiaccConfig::default().with_streams(1).with_compression(true)),
        );
        assert!(fp16.samples_per_sec > plain.samples_per_sec * 1.2);
    }
}
