//! `fabric_1024`: a rack/spine cell in the shape of `bench_scale`'s
//! continuous cell, driven through `Simulator`/`FlowNet` calls only — no
//! engine, no scheduler.
//!
//! Every node keeps [`STREAMS_PER_NODE`] rack-local streams to its xor-pair
//! neighbour (restarted the moment they complete), and each rack keeps one
//! cross-rack stream at ~10 % duty (restarted by timer). At 1024 nodes that
//! is ~102k concurrent flows in mostly independent per-pair components with
//! intermittent ToR/spine merges. Seed 0 reproduces `bench_scale`'s event
//! stream exactly; other seeds shift every flow size and idle gap.
//!
//! Host time is also reported per fixed simulated-time slice. Slices are
//! observed from event timestamps — no timer is inserted — so the event
//! stream, and with it the event hash, is the same as without slicing.
//! They start after a warm-up: every stream starts at time zero and the
//! shortest lasts 50 ms, so before then the cell does one giant solve and
//! delivers no event at all.

use crate::stats::Fnv;
use crate::trace::{Name, Probe};
use crate::{breakdown_delta, flownet_s, stats_delta, EventCounts, FlowNetUse, Run};
use aiacc_cluster::{ClusterNet, ClusterSpec, GpuSpec, NicSpec, NodeSpec, RackSpec};
use aiacc_simnet::{Event, FlowId, SimDuration, SimTime, Simulator, Token};
use std::collections::HashMap;
use std::time::Instant;

/// Seed of the recorded digest (the `bench_scale` event stream).
pub const DEFAULT_SEED: u64 = 0;
/// Nodes in the benchmark cell.
pub const NODES: usize = 1024;
/// Simulated horizon of one repeat, ns.
pub const HORIZON_NS: u64 = 150_000_000;
/// Simulated time before the first slice, ns (no event happens earlier).
pub const WARMUP_NS: u64 = 50_000_000;
/// Simulated length of one slice, ns.
pub const SLICE_NS: u64 = 2_000_000;

/// Rack-local streams each node keeps in flight.
pub const STREAMS_PER_NODE: usize = 100;
const NODES_PER_RACK: usize = 8;
/// Fair-share rate of one rack-local stream: the 3.75 GB/s NIC split
/// `STREAMS_PER_NODE` ways.
const LOCAL_RATE: f64 = 3.75e9 / STREAMS_PER_NODE as f64;
/// One cross-rack burst: ~50 ms at the stream's max-min share.
const CROSS_BYTES: f64 = 1.875e6;
/// Spreads seeds across the pseudo-random draws (any odd constant works).
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// One cell run.
#[derive(Debug, Clone, Copy)]
pub struct FabricCfg {
    /// Nodes (a multiple of 8; every 8 form a rack).
    pub nodes: usize,
    /// Simulated horizon, ns.
    pub horizon_ns: u64,
    /// Simulated time before the first slice, ns.
    pub warmup_ns: u64,
    /// Simulated slice length, ns; must divide `horizon_ns - warmup_ns`.
    pub slice_ns: u64,
    /// Seed for flow sizes and cross-rack idle gaps.
    pub seed: u64,
}

/// The benchmark cell for `seed`.
pub fn config(seed: u64) -> FabricCfg {
    FabricCfg {
        nodes: NODES,
        horizon_ns: HORIZON_NS,
        warmup_ns: WARMUP_NS,
        slice_ns: SLICE_NS,
        seed,
    }
}

/// `bench_scale`'s 16-node cell over 2 simulated seconds, the small check
/// every run makes: at seed 0 its event hash is `BENCH_scale.json`'s
/// `5ef703cb5b86cbb4`.
pub fn small_config(seed: u64) -> FabricCfg {
    FabricCfg {
        nodes: 16,
        horizon_ns: 2_000_000_000,
        warmup_ns: WARMUP_NS,
        slice_ns: 50_000_000,
        seed,
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Deterministic pseudo-random fraction in `[0, 1)`.
fn frac(x: u64) -> f64 {
    (lcg(x) >> 40) as f64 / (1u64 << 24) as f64
}

#[derive(Debug, Clone)]
struct Stream {
    src: usize,
    dst: usize,
    /// `true`: rack-crossing, timer-restarted at ~10 % duty.
    cross: bool,
    launches: u64,
}

/// Runs one cell: setup builds the cluster and launches every stream; the
/// measured run drains events up to the horizon. With `setup_only`,
/// returns right after setup.
pub fn run<P: Probe>(cfg: &FabricCfg, setup_only: bool, probe: &mut P) -> Result<Run, String> {
    let sliced = cfg.horizon_ns.saturating_sub(cfg.warmup_ns);
    if cfg.nodes == 0
        || !cfg.nodes.is_multiple_of(NODES_PER_RACK)
        || cfg.slice_ns == 0
        || sliced == 0
        || !sliced.is_multiple_of(cfg.slice_ns)
    {
        return Err("fabric cell needs whole racks and whole slices after warm-up".to_string());
    }
    let salt = cfg.seed.wrapping_mul(SEED_MIX);
    let setup_t0 = Instant::now();
    probe.enter(Name::Setup, || 0.0);
    let mut sim = Simulator::new();
    let node = NodeSpec { gpus_per_node: 1, gpu: GpuSpec::v100(), nic: NicSpec::tcp_30gbps() };
    let spec = ClusterSpec::new(cfg.nodes, node)
        .with_rack_layer(RackSpec::oversubscribed_2to1(NODES_PER_RACK, &NicSpec::tcp_30gbps()));
    let racks = spec.nracks();
    probe.enter(Name::ClusterBuild, || 0.0);
    let cluster = ClusterNet::build(&spec, sim.net_mut());
    probe.exit(|| 0.0);

    // Streams 0..nodes*K are rack-local (node n ↔ its xor-pair n^1, always
    // inside the rack); the last `racks` streams hop rack r → rack r+1.
    let mut streams = Vec::with_capacity(cfg.nodes * STREAMS_PER_NODE + racks);
    for n in 0..cfg.nodes {
        for _ in 0..STREAMS_PER_NODE {
            streams.push(Stream { src: n, dst: n ^ 1, cross: false, launches: 0 });
        }
    }
    for r in 0..racks {
        let src = r * NODES_PER_RACK;
        let dst = ((r + 1) % racks) * NODES_PER_RACK;
        streams.push(Stream { src, dst, cross: true, launches: 0 });
    }

    let mut counts = EventCounts::default();
    let mut by_flow: HashMap<FlowId, usize> = HashMap::with_capacity(streams.len());
    macro_rules! fnet {
        () => {
            || flownet_s(sim.net().solve_breakdown())
        };
    }
    macro_rules! launch {
        ($s:expr) => {{
            let s: usize = $s;
            let st = &mut streams[s];
            let bytes = if st.cross {
                CROSS_BYTES
            } else {
                // 50–200 ms of fair-share transfer, varied per stream and
                // per launch so completions de-synchronize.
                let x = (s as u64 * 31 + st.launches).wrapping_add(salt);
                LOCAL_RATE * (0.05 + 0.15 * frac(x))
            };
            st.launches += 1;
            let spec = cluster.node_path(st.src, st.dst).flow(bytes);
            probe.enter(Name::StartFlow, fnet!());
            let id = sim.start_flow(spec);
            probe.exit(fnet!());
            by_flow.insert(id, s);
        }};
    }
    for s in 0..streams.len() {
        launch!(s);
    }
    probe.exit(|| 0.0);
    let setup_s = setup_t0.elapsed().as_secs_f64();
    if setup_only {
        return Ok(Run { setup_s, ..Run::default() });
    }

    let run_t0 = Instant::now();
    let (bd0, st0) = (sim.net().solve_breakdown(), sim.net().solver_stats());
    let horizon = SimTime::from_nanos(cfg.horizon_ns);
    let nslices = (sliced / cfg.slice_ns) as usize;
    let mut steps_ms = Vec::with_capacity(nslices);
    // Boundary `k` sits at `warmup + k * slice`; crossing it closes slice
    // `k - 1` and opens slice `k`.
    let mut crossed = 0usize;
    let mut step_t0 = Instant::now();
    let mut hash = Fnv::default();
    loop {
        probe.enter(Name::NextEvent, fnet!());
        let next = sim.next_event();
        probe.exit(fnet!());
        let Some((t, ev)) = next else { break };
        while crossed <= nslices && t.as_nanos() >= cfg.warmup_ns + crossed as u64 * cfg.slice_ns {
            let now = Instant::now();
            if crossed > 0 {
                steps_ms.push((now - step_t0).as_secs_f64() * 1e3);
                probe.exit(fnet!());
            }
            if crossed < nslices {
                probe.enter(Name::Step, fnet!());
            }
            step_t0 = now;
            crossed += 1;
        }
        if t > horizon {
            break;
        }
        match ev {
            Event::FlowCompleted(id) => {
                counts.flow_completed += 1;
                let s = by_flow.remove(&id).ok_or("unknown flow completed")?;
                hash.u64(t.as_nanos());
                hash.u64(1);
                hash.u64(s as u64);
                if t < horizon {
                    let st = &streams[s];
                    if st.cross {
                        // ~10 % duty: idle ≈ 9× the ~50 ms burst, jittered
                        // per rack so the cross flows de-synchronize.
                        let x = (s as u64 * 977 + st.launches).wrapping_add(salt);
                        let idle = 0.35 + 0.2 * frac(x);
                        sim.schedule_at(
                            t + SimDuration::from_secs_f64(idle),
                            Token::new(1, s as u32, 0),
                        );
                    } else {
                        launch!(s);
                    }
                }
            }
            Event::Timer(tok) => {
                counts.timers += 1;
                let s = tok.a as usize;
                hash.u64(t.as_nanos());
                hash.u64(2);
                hash.u64(s as u64);
                if t < horizon {
                    launch!(s);
                }
            }
            Event::Fault(_) => return Err("fault event without a fault plan".to_string()),
        }
    }
    if crossed > 0 && crossed <= nslices {
        steps_ms.push(step_t0.elapsed().as_secs_f64() * 1e3);
        probe.exit(fnet!());
    }

    let flownet = FlowNetUse {
        breakdown: breakdown_delta(sim.net().solve_breakdown(), bd0),
        stats: stats_delta(sim.net().solver_stats(), st0),
    };
    Ok(Run {
        setup_s,
        run_s: run_t0.elapsed().as_secs_f64(),
        steps_ms,
        sim_s: cfg.horizon_ns as f64 * 1e-9,
        units: nslices as u64,
        events: counts.timers + counts.flow_completed,
        digest: hash.finish(),
        counts,
        flownet: Some(flownet),
        sched: None,
    })
}
