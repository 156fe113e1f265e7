//! The datacenter-scale cells behind `bench scale`: steady-state and
//! bulk-synchronous workloads on a rack/spine fabric, driven straight
//! through the [`Simulator`] with no training engine on top.
//!
//! Each cell builds an 8-nodes-per-rack cluster with a 2:1-oversubscribed
//! ToR/spine tier. The steady-state workload ([`run_cell`]) keeps
//! [`STREAMS_PER_NODE`] rack-local streams per node against its pair
//! neighbour (restarted the moment they complete), and each rack keeps one
//! intermittent cross-rack stream at ~10 % duty (restarted by timer), so
//! the solver sees mostly-independent per-pair components with occasional
//! ToR/spine merges. The bulk-synchronous workload ([`run_sync_cell`])
//! moves uniform-byte rounds with a driver-side barrier and exercises
//! single-run multicore solving. Every event is folded into an FNV-1a hash,
//! so two runs are byte-comparable.

use aiacc_cluster::{ClusterNet, ClusterSpec, GpuSpec, NicSpec, NodeSpec, RackSpec};
use aiacc_simnet::{
    par, Event, FlowId, SimDuration, SimTime, Simulator, SolveBreakdown, SolveMode, Token,
};
use std::collections::HashMap;
use std::time::Instant;

/// `(nodes, simulated seconds)` per cell of the full curve. Larger cells
/// simulate less time: the wall-per-simulated-second quotient is what the
/// curve reports. The smallest horizon must clear the longest rack-local
/// transfer (~0.2 s) or a cell would report zero events.
pub const SCALE_CELLS: &[(usize, f64)] = &[(16, 2.0), (64, 1.0), (256, 0.5), (1024, 0.25)];

/// The quick curve: short horizons, 16/64-node cells and a 1024-node smoke.
pub const SCALE_QUICK_CELLS: &[(usize, f64)] = &[(16, 0.25), (64, 0.25), (1024, 0.25)];

/// Rack-local streams each node keeps in flight (102 400 concurrent flows
/// at 1024 nodes).
pub const STREAMS_PER_NODE: usize = 100;
/// Nodes behind one top-of-rack switch.
pub const NODES_PER_RACK: usize = 8;
/// Fair-share rate of one rack-local stream: the 3.75 GB/s NIC split
/// `STREAMS_PER_NODE` ways.
const LOCAL_RATE: f64 = 3.75e9 / STREAMS_PER_NODE as f64;
/// One cross-rack burst: ~50 ms at the stream's max-min share of its source
/// NIC (it queues behind the `STREAMS_PER_NODE` local streams on `node_tx`,
/// so its share is ~`LOCAL_RATE`, not the single-stream cap). Keeping
/// bursts short keeps the spine-merged solver component intermittent.
const CROSS_BYTES: f64 = 1.875e6;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Deterministic pseudo-random fraction in `[0, 1)` from a seed.
fn frac(seed: u64) -> f64 {
    (lcg(seed) >> 40) as f64 / (1u64 << 24) as f64
}

/// The counters both workloads keep while draining events.
struct Tally {
    started: Instant,
    hash: u64,
    events: u64,
    completions: u64,
    peak_flows: usize,
}

impl Tally {
    fn new() -> Self {
        // FNV-1a offset basis.
        let hash = 0xcbf2_9ce4_8422_2325;
        Tally { started: Instant::now(), hash, events: 0, completions: 0, peak_flows: 0 }
    }

    /// Folds an event at `t` of `kind` (1 = completion, 2 = timer) for
    /// stream `s` into the FNV-1a hash.
    fn fold(&mut self, t: SimTime, kind: u64, s: usize) {
        for x in [t.as_nanos(), kind, s as u64] {
            for b in x.to_le_bytes() {
                self.hash ^= b as u64;
                self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    fn finish(self, sim: &mut Simulator, nodes: usize, racks: usize, sim_s: f64) -> CellResult {
        let stats = sim.net_mut().solver_stats();
        CellResult {
            nodes,
            racks,
            sim_s,
            peak_flows: self.peak_flows,
            events: self.events,
            completions: self.completions,
            hash: self.hash,
            recomputes: stats.recomputes,
            comps_solved: stats.comps_solved,
            comps_existing: stats.comps_existing,
            comp_parts_max: stats.comp_parts_max,
            par_solves: stats.par_solves,
            wall_s: self.started.elapsed().as_secs_f64(),
            breakdown: sim.net_mut().solve_breakdown(),
        }
    }
}

/// A simulator holding a `nodes`-node racked cluster (one V100 and one
/// 30 Gbps NIC per node), its network view, and its rack count.
fn racked_cell(
    nodes: usize,
    mode: SolveMode,
    solve_workers: Option<usize>,
) -> (Simulator, ClusterNet, usize) {
    let mut sim = Simulator::new();
    sim.net_mut().set_solve_mode(mode);
    sim.net_mut().set_solve_workers(solve_workers);
    let node = NodeSpec { gpus_per_node: 1, gpu: GpuSpec::v100(), nic: NicSpec::tcp_30gbps() };
    let spec = ClusterSpec::new(nodes, node)
        .with_rack_layer(RackSpec::oversubscribed_2to1(NODES_PER_RACK, &NicSpec::tcp_30gbps()));
    let cluster = ClusterNet::build(&spec, sim.net_mut());
    (sim, cluster, spec.nracks())
}

#[derive(Debug, Clone)]
struct Stream {
    src: usize,
    dst: usize,
    /// `true`: rack-crossing, timer-restarted at ~10 % duty.
    cross: bool,
    launches: u64,
}

/// What one cell run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Nodes in the cell.
    pub nodes: usize,
    /// Racks in the cell.
    pub racks: usize,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Most flows in flight at once.
    pub peak_flows: usize,
    /// Events delivered.
    pub events: u64,
    /// Flow completions delivered.
    pub completions: u64,
    /// FNV-1a hash of the event stream.
    pub hash: u64,
    /// Solver rate recomputations.
    pub recomputes: u64,
    /// Components the solver re-solved.
    pub comps_solved: u64,
    /// Components that existed at those recomputations.
    pub comps_existing: u64,
    /// Largest single component (participant flows) the solver ever saw.
    pub comp_parts_max: u64,
    /// Not compared: parallel fan-outs taken (differs across worker counts
    /// by design; every other solver counter is worker-independent).
    pub par_solves: u64,
    /// Not compared: wall time is machine- and load-dependent.
    pub wall_s: f64,
    /// Not compared: per-phase wall time (solve vs apply vs queue).
    pub breakdown: SolveBreakdown,
}

impl CellResult {
    /// Wall-clock seconds per simulated second.
    pub fn wall_per_sim_s(&self) -> f64 {
        self.wall_s / self.sim_s
    }

    /// Fraction of existing components the solver actually re-solved.
    pub fn solve_ratio(&self) -> f64 {
        if self.comps_existing == 0 {
            return 0.0;
        }
        self.comps_solved as f64 / self.comps_existing as f64
    }

    /// The mode-independent, machine-independent fields (what CI freshness
    /// and the jobs-sweep comparison look at).
    pub fn deterministic(&self) -> (usize, usize, u64, usize, u64, u64, u64) {
        (
            self.nodes,
            self.racks,
            self.sim_s.to_bits(),
            self.peak_flows,
            self.events,
            self.completions,
            self.hash,
        )
    }
}

fn local_bytes(stream: u64, launch: u64) -> f64 {
    // 50–200 ms of fair-share transfer, varied per stream and per launch so
    // completions de-synchronize.
    LOCAL_RATE * (0.05 + 0.15 * frac(stream * 31 + launch))
}

/// Runs the steady-state workload on a `nodes`-node cell for `horizon`
/// simulated time under solver `mode`.
pub fn run_cell(nodes: usize, horizon: SimDuration, mode: SolveMode) -> CellResult {
    let mut tally = Tally::new();
    let (mut sim, cluster, racks) = racked_cell(nodes, mode, None);

    // Streams 0..nodes*K are rack-local (node n ↔ its xor-pair n^1, always
    // inside the rack); the last `racks` streams hop rack r → rack r+1.
    let mut streams = Vec::with_capacity(nodes * STREAMS_PER_NODE + racks);
    for n in 0..nodes {
        for _ in 0..STREAMS_PER_NODE {
            streams.push(Stream { src: n, dst: n ^ 1, cross: false, launches: 0 });
        }
    }
    for r in 0..racks {
        let src = r * NODES_PER_RACK;
        let dst = ((r + 1) % racks) * NODES_PER_RACK;
        streams.push(Stream { src, dst, cross: true, launches: 0 });
    }

    let mut by_flow: HashMap<FlowId, usize> = HashMap::with_capacity(streams.len());
    let launch = |sim: &mut Simulator, st: &mut Stream, s: usize| -> FlowId {
        let bytes = if st.cross { CROSS_BYTES } else { local_bytes(s as u64, st.launches) };
        st.launches += 1;
        sim.start_flow(cluster.node_path(st.src, st.dst).flow(bytes))
    };
    for (s, stream) in streams.iter_mut().enumerate() {
        let id = launch(&mut sim, stream, s);
        by_flow.insert(id, s);
    }

    let end = SimTime::ZERO + horizon;
    while let Some((t, ev)) = sim.next_event() {
        if t > end {
            break;
        }
        tally.events += 1;
        tally.peak_flows = tally.peak_flows.max(sim.net_mut().flow_count());
        match ev {
            Event::FlowCompleted(id) => {
                let s = by_flow.remove(&id).expect("unknown flow completed");
                tally.completions += 1;
                tally.fold(t, 1, s);
                if t < end {
                    let st = &mut streams[s];
                    if st.cross {
                        // ~10 % duty: idle ≈ 9× the ~50 ms burst, jittered
                        // per rack so the cross flows de-synchronize.
                        let idle = 0.35 + 0.2 * frac(s as u64 * 977 + st.launches);
                        sim.schedule_at(
                            t + SimDuration::from_secs_f64(idle),
                            Token::new(1, s as u32, 0),
                        );
                    } else {
                        let id = launch(&mut sim, &mut streams[s], s);
                        by_flow.insert(id, s);
                    }
                }
            }
            Event::Timer(tok) => {
                let s = tok.a as usize;
                tally.fold(t, 2, s);
                if t < end {
                    let id = launch(&mut sim, &mut streams[s], s);
                    by_flow.insert(id, s);
                }
            }
            Event::Fault(_) => unreachable!("no fault plan installed"),
        }
    }
    tally.finish(&mut sim, nodes, racks, horizon.as_secs_f64())
}

/// Runs every `(nodes, simulated seconds)` cell, fanned out over
/// [`par::map`] workers.
pub fn run_curve(cells: &[(usize, f64)]) -> Vec<CellResult> {
    par::map(cells, |&(nodes, sim_s)| {
        run_cell(nodes, SimDuration::from_secs_f64(sim_s), SolveMode::Partitioned)
    })
}

/// Streams per node in the bulk-synchronous cell — same 102 400 concurrent
/// flows at 1024 nodes as the steady-state workload.
pub const SYNC_STREAMS_PER_NODE: usize = 100;
/// Per-stream rate-cap tiers as fractions of the equal-split fair share
/// (`0.0` = uncapped). Capped tiers finish a round's uniform transfer at
/// staggered instants, so each round produces four *simultaneous* bursts of
/// ~a quarter of all flows — the bulk-synchronous shape a synchronized
/// all-reduce round imposes, and the shape that exercises both parallel
/// seams at once (batched settles + many-dirty-component solves).
pub const SYNC_TIERS: [f64; 4] = [0.4, 0.6, 0.8, 0.0];

/// One bulk-synchronous cell: every node keeps `SYNC_STREAMS_PER_NODE`
/// streams to its xor-pair neighbour; all streams of a round move the same
/// byte count and the next round launches only when every stream of the
/// current one has completed (a driver-side barrier, like sync-SGD). Runs
/// with a *fixed* solver worker count so the multicore section can compare
/// worker counts on identical work.
pub fn run_sync_cell(
    nodes: usize,
    rounds: u64,
    mode: SolveMode,
    solve_workers: usize,
) -> CellResult {
    let mut tally = Tally::new();
    let (mut sim, cluster, racks) = racked_cell(nodes, mode, Some(solve_workers));

    let total = nodes * SYNC_STREAMS_PER_NODE;
    let fair = 3.75e9 / SYNC_STREAMS_PER_NODE as f64;
    let mut by_flow: HashMap<FlowId, usize> = HashMap::with_capacity(total);
    let launch_round = |sim: &mut Simulator, by_flow: &mut HashMap<FlowId, usize>, round: u64| {
        // Uniform bytes per round (varied across rounds): within a cap
        // tier every flow finishes at the same instant.
        let bytes = fair * (0.04 + 0.02 * frac(round));
        for s in 0..total {
            let (n, k) = (s / SYNC_STREAMS_PER_NODE, s % SYNC_STREAMS_PER_NODE);
            let mut fs = cluster.node_path(n, n ^ 1).flow(bytes);
            let tier = SYNC_TIERS[k % SYNC_TIERS.len()];
            if tier > 0.0 {
                fs = fs.with_rate_cap(fair * tier);
            }
            by_flow.insert(sim.start_flow(fs), s);
        }
    };

    let (mut round, mut live) = (0u64, total);
    let mut end = SimTime::ZERO;
    launch_round(&mut sim, &mut by_flow, round);
    // Sample concurrency at round start: completed flows free their slots
    // during the event drain, before the driver sees the completions.
    tally.peak_flows = sim.net_mut().flow_count();
    while let Some((t, ev)) = sim.next_event() {
        tally.events += 1;
        let Event::FlowCompleted(id) = ev else {
            unreachable!("sync cell schedules no timers or faults")
        };
        let s = by_flow.remove(&id).expect("unknown flow completed");
        tally.completions += 1;
        live -= 1;
        tally.fold(t, 1, s);
        if live == 0 {
            end = t;
            round += 1;
            if round < rounds {
                launch_round(&mut sim, &mut by_flow, round);
                live = total;
                tally.peak_flows = tally.peak_flows.max(sim.net_mut().flow_count());
            }
        }
    }
    tally.finish(&mut sim, nodes, racks, (end - SimTime::ZERO).as_secs_f64())
}
