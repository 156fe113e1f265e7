//! Property-based bit-identity tests for the multi-core solver.
//!
//! The partitioned solver may fan dirty components across the persistent
//! worker pool; the contract is that the worker count changes *nothing*
//! observable — every rate bit, every remaining-bytes bit, every completion
//! instant and every worker-independent solver counter must match the
//! serial run exactly, for any interleaving of flow starts, completions
//! and capacity changes, on both flat and racked topologies.

use aiacc_simnet::{FlowId, FlowNet, FlowSpec, SimDuration, SolverStats};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The worker pool serves one fan-out at a time and runs any other inline,
/// so tests in this binary take turns: otherwise a concurrent test holding
/// the pool makes `dense_wave_takes_parallel_path` see zero parallel solves.
static POOL: Mutex<()> = Mutex::new(());

fn pool_turn() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Independent leaf links. Enough that a wave of starts dirties well over
/// `PAR_SOLVE_MIN_COMPS` components, so the pool path actually engages.
const LINKS: usize = 12;
/// Racked mode: every `LINKS_PER_UPLINK` consecutive leaves share an
/// uplink, merging them into one solver component.
const LINKS_PER_UPLINK: usize = 4;

#[derive(Debug, Clone)]
struct WaveFlow {
    link: usize,
    bytes: f64,
    cap: Option<f64>,
    latency_ns: u64,
}

#[derive(Debug, Clone)]
struct Wave {
    flows: Vec<WaveFlow>,
    /// Leaf whose capacity is rescaled before the wave advances.
    retune: usize,
    factor: f64,
    /// Bounded number of `next_change` steps taken inside the wave, so
    /// live flows and queued predictions survive into the next wave.
    steps: usize,
}

fn wave() -> impl Strategy<Value = Wave> {
    let flow = (0..LINKS, 1.0..1e5f64, prop::option::of(10.0..5e3f64), 0u64..500_000)
        .prop_map(|(link, bytes, cap, latency_ns)| WaveFlow { link, bytes, cap, latency_ns });
    (prop::collection::vec(flow, 1..16), 0..LINKS, 0.2..1.5f64, 0usize..3)
        .prop_map(|(flows, retune, factor, steps)| Wave { flows, retune, factor, steps })
}

/// Everything a run exposes, bit-exact. `PartialEq` on `f64` bits and ids.
#[derive(Debug, PartialEq)]
struct Trace {
    /// `(t_ns, completed ids)` per observed change point.
    completions: Vec<(u64, Vec<FlowId>)>,
    /// `(remaining, rate)` bits of every live flow, sampled after each wave.
    snapshots: Vec<(u64, u64)>,
}

/// Worker-independent slice of [`SolverStats`] (`par_*` legitimately
/// differs across worker counts — it records which path was taken).
fn deterministic_stats(s: &SolverStats) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        s.recomputes,
        s.comps_solved,
        s.comps_existing,
        s.parts_solved,
        s.fill_rounds,
        s.comp_parts_max,
        s.solve_parts_max,
    )
}

fn run_scenario(waves: &[Wave], workers: usize, racked: bool) -> (Trace, SolverStats) {
    let mut net = FlowNet::new();
    net.set_solve_workers(Some(workers));
    // One solver partition group per leaf (and per uplink): without
    // distinct groups everything folds into a single component and the
    // parallel fan-out has nothing to distribute.
    let leaves: Vec<_> =
        (0..LINKS).map(|i| net.add_resource_in_group(format!("leaf{i}"), 1e4, i as u32)).collect();
    let uplinks: Vec<_> = if racked {
        (0..LINKS / LINKS_PER_UPLINK)
            .map(|i| net.add_resource_in_group(format!("up{i}"), 2.5e4, (LINKS + i) as u32))
            .collect()
    } else {
        Vec::new()
    };
    let path = |link: usize| {
        if racked {
            vec![leaves[link], uplinks[link / LINKS_PER_UPLINK]]
        } else {
            vec![leaves[link]]
        }
    };

    let mut trace = Trace { completions: Vec::new(), snapshots: Vec::new() };
    let mut started: Vec<FlowId> = Vec::new();
    let step = |net: &mut FlowNet, trace: &mut Trace| {
        if let Some(t) = net.next_change() {
            net.advance_to(t);
            let mut done = net.take_completed();
            done.sort();
            trace.completions.push((t.as_nanos(), done));
        }
    };
    for w in waves {
        for f in &w.flows {
            let mut spec = FlowSpec::new(path(f.link), f.bytes)
                .with_latency(SimDuration::from_nanos(f.latency_ns));
            if let Some(c) = f.cap {
                spec = spec.with_rate_cap(c);
            }
            started.push(net.start_flow(spec));
        }
        net.set_capacity(leaves[w.retune], 1e4 * w.factor);
        for _ in 0..w.steps {
            step(&mut net, &mut trace);
        }
        for &id in &started {
            if let Some(f) = net.flow(id) {
                trace.snapshots.push((f.remaining.to_bits(), f.rate.to_bits()));
            }
        }
    }
    let mut guard = 0;
    while net.flow_count() > 0 {
        guard += 1;
        assert!(guard < 20_000, "drain did not terminate");
        step(&mut net, &mut trace);
    }
    (trace, net.solver_stats())
}

/// The scenarios above must actually exercise the pool path, not just the
/// serial fallback: one dense wave across all leaves dirties `LINKS`
/// components at once, which is well past the parallel threshold.
#[test]
fn dense_wave_takes_parallel_path() {
    let _turn = pool_turn();
    let waves = vec![Wave {
        flows: (0..LINKS)
            .map(|link| WaveFlow { link, bytes: 1e4, cap: None, latency_ns: 0 })
            .collect(),
        retune: 0,
        factor: 1.0,
        steps: 2,
    }];
    let (serial, stats1) = run_scenario(&waves, 1, false);
    let (par, stats8) = run_scenario(&waves, 8, false);
    assert_eq!(par, serial);
    assert_eq!(stats1.par_solves, 0, "serial run must never fan out");
    assert!(stats8.par_solves > 0, "8-worker run never took the parallel path");
    assert_eq!(deterministic_stats(&stats8), deterministic_stats(&stats1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flat topology (every leaf its own component): worker counts 1, 2
    /// and 8 produce bit-identical traces and solver counters.
    #[test]
    fn parallel_solve_is_bit_identical_flat(waves in prop::collection::vec(wave(), 2..6)) {
        let _turn = pool_turn();
        let (serial, stats1) = run_scenario(&waves, 1, false);
        for workers in [2usize, 8] {
            let (par, stats_n) = run_scenario(&waves, workers, false);
            prop_assert_eq!(&par, &serial, "trace diverged at {} workers", workers);
            prop_assert_eq!(
                deterministic_stats(&stats_n),
                deterministic_stats(&stats1),
                "solver counters diverged at {} workers", workers
            );
        }
    }

    /// Racked topology (leaves merged through shared uplinks): same
    /// contract with multi-resource components.
    #[test]
    fn parallel_solve_is_bit_identical_racked(waves in prop::collection::vec(wave(), 2..6)) {
        let _turn = pool_turn();
        let (serial, stats1) = run_scenario(&waves, 1, true);
        for workers in [2usize, 8] {
            let (par, stats_n) = run_scenario(&waves, workers, true);
            prop_assert_eq!(&par, &serial, "trace diverged at {} workers", workers);
            prop_assert_eq!(
                deterministic_stats(&stats_n),
                deterministic_stats(&stats1),
                "solver counters diverged at {} workers", workers
            );
        }
    }
}
