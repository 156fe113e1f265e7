//! Combined event loop: user timers interleaved with flow completions.

use crate::calq::CalendarQueue;
use crate::faults::{FaultInjector, FaultPlan, FaultRecord};
use crate::flow::{FlowId, FlowSpec};
use crate::flownet::FlowNet;
use crate::time::{SimDuration, SimTime};
use crate::trace::{track, TraceSink};
use serde::{Deserialize, Serialize};

/// An opaque, `Copy` event payload for simulator timers.
///
/// Higher layers encode their own meaning into the three fields. Keeping the
/// payload flat (instead of making [`Simulator`] generic) lets independent
/// crates (collectives, AIACC engine, baselines) share one simulator without
/// threading a common event enum through every signature.
///
/// # Example
/// ```
/// use aiacc_simnet::Token;
/// const KIND_GRAD_READY: u32 = 1;
/// let t = Token { kind: KIND_GRAD_READY, a: 3, b: 17 };
/// assert_eq!(t.a, 3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Token {
    /// Event family (defined by the scheduling layer).
    pub kind: u32,
    /// First argument (e.g. a worker rank).
    pub a: u32,
    /// Second argument (e.g. a gradient or operation id).
    pub b: u64,
}

impl Token {
    /// Convenience constructor.
    pub const fn new(kind: u32, a: u32, b: u64) -> Self {
        Token { kind, a, b }
    }

    /// The scope stamped into this token's high kind bits by
    /// [`Simulator::set_token_scope`] (`0` = unscoped).
    pub const fn scope(self) -> u32 {
        self.kind >> TOKEN_SCOPE_SHIFT
    }

    /// The token kind with any scope stamp removed.
    pub const fn base_kind(self) -> u32 {
        self.kind & TOKEN_KIND_MASK
    }
}

/// Bit position of the scope stamp inside [`Token::kind`].
pub const TOKEN_SCOPE_SHIFT: u32 = 16;
/// Mask selecting the scope-free base kind.
pub const TOKEN_KIND_MASK: u32 = (1 << TOKEN_SCOPE_SHIFT) - 1;

/// An event yielded by [`Simulator::next_event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A timer scheduled with [`Simulator::schedule`] has fired.
    Timer(Token),
    /// A network flow finished transferring all its bytes.
    FlowCompleted(FlowId),
    /// An installed fault was applied or lifted (see
    /// [`Simulator::install_faults`]). The capacity change has already been
    /// executed when this event is delivered.
    Fault(FaultRecord),
}

/// Checks a timer about to be queued at `at`, stamps the armed `scope`
/// into it and counts it in `counts` (indexed by scope).
fn admit(now: SimTime, scope: u32, counts: &mut Vec<u32>, at: SimTime, mut token: Token) -> Token {
    assert!(at >= now, "scheduling in the past: {at} < {now}");
    if scope != 0 {
        assert!(
            token.kind <= TOKEN_KIND_MASK,
            "token kind {} collides with the armed scope stamp",
            token.kind
        );
        token.kind |= scope << TOKEN_SCOPE_SHIFT;
    }
    let s = token.scope() as usize;
    if s != 0 {
        if s >= counts.len() {
            counts.resize(s + 1, 0);
        }
        counts[s] += 1;
    }
    token
}

/// Discrete-event simulator combining a timer wheel with a [`FlowNet`].
///
/// Events are delivered in time order; ties are broken deterministically
/// (timers before flow completions at the same instant, timers in scheduling
/// order, flows in start order). Timers live in the same indexed
/// [`CalendarQueue`] structure the network uses for completion predictions,
/// so the per-event cost stays O(1) amortized at any fleet size.
///
/// # Example
/// ```
/// use aiacc_simnet::{Event, SimDuration, Simulator, Token};
/// let mut sim = Simulator::new();
/// sim.schedule(SimDuration::from_micros(5), Token::new(7, 0, 0));
/// let (t, ev) = sim.next_event().unwrap();
/// assert_eq!(t.as_nanos(), 5_000);
/// assert_eq!(ev, Event::Timer(Token::new(7, 0, 0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    net: FlowNet,
    timers: CalendarQueue<Token>,
    /// Flow completions discovered together but not yet handed out.
    pending_flows: Vec<FlowId>,
    /// Compiled link-fault schedule (empty when no plan is installed).
    faults: FaultInjector,
    /// Every fault action executed so far, in order.
    fault_log: Vec<(SimTime, FaultRecord)>,
    /// Structured trace recorder (disabled — and free — by default).
    trace: TraceSink,
    /// Current token/flow scope (0 = unscoped). See
    /// [`Simulator::set_token_scope`].
    token_scope: u32,
    /// Queued timers per [`Token::scope`] (index = scope; 0 not counted).
    scoped_timers: Vec<u32>,
    /// Bits of the last `active_flows` counter sample, for dedup: the
    /// counter is re-emitted only on an actual flow-count transition.
    last_flow_counter: Option<u64>,
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The underlying network (e.g. to add resources or inspect utilization).
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    /// Mutable access to the underlying network.
    pub fn net_mut(&mut self) -> &mut FlowNet {
        &mut self.net
    }

    /// Schedules `token` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, token: Token) {
        self.schedule_at(self.now() + delay, token);
    }

    /// Schedules `token` at an absolute instant.
    ///
    /// While a token scope is armed ([`Self::set_token_scope`]) the scope is
    /// stamped into the token's high kind bits, so multiplexing drivers can
    /// route the timer back to the tenant that scheduled it.
    ///
    /// # Panics
    /// Panics if `at` is in the past, or if a scope is armed and the token's
    /// kind does not fit below [`TOKEN_SCOPE_SHIFT`].
    pub fn schedule_at(&mut self, at: SimTime, token: Token) {
        let token = admit(self.now(), self.token_scope, &mut self.scoped_timers, at, token);
        self.timers.push(at.as_nanos(), token);
    }

    /// Schedules a batch of timers at absolute instants, exactly as calling
    /// [`Self::schedule_at`] on each in order would: same firing order,
    /// same scope stamps and counts. A batch sorted by time is queued as one
    /// run (see [`CalendarQueue::push_run`]), which costs much less per
    /// timer than the wheel; unsorted input stays correct.
    ///
    /// # Panics
    /// As [`Self::schedule_at`], for any timer of the batch.
    pub fn schedule_run(&mut self, timers: impl IntoIterator<Item = (SimTime, Token)>) {
        let (now, scope) = (self.now(), self.token_scope);
        let counts = &mut self.scoped_timers;
        self.timers.push_run(
            timers
                .into_iter()
                .map(|(at, token)| (at.as_nanos(), admit(now, scope, counts, at, token))),
        );
    }

    /// Arms (or with `0` clears) the *token scope*: every timer scheduled and
    /// every flow started while the scope is armed is stamped with it —
    /// timers in the high bits of [`Token::kind`], flows as their telemetry
    /// tag. This is how the multi-job scheduler multiplexes several tenants'
    /// engines over one shared event loop without threading a job id through
    /// every engine signature; with the scope at its default `0`, behavior is
    /// bit-identical to an unscoped simulator.
    ///
    /// # Panics
    /// Panics if `scope` does not fit above [`TOKEN_SCOPE_SHIFT`].
    pub fn set_token_scope(&mut self, scope: u32) {
        assert!(scope <= TOKEN_KIND_MASK, "scope {scope} out of range");
        self.token_scope = scope;
    }

    /// The currently armed token scope (`0` = unscoped).
    pub fn token_scope(&self) -> u32 {
        self.token_scope
    }

    /// Timers stamped with `scope` that have not fired yet. A driver that
    /// recycles scopes reuses one only when this is `0`, so no timer of an
    /// earlier owner can be mistaken for the new owner's.
    pub fn timers_pending_in_scope(&self, scope: u32) -> u32 {
        self.scoped_timers.get(scope as usize).copied().unwrap_or(0)
    }

    /// Starts a network flow at the current time. While a token scope is
    /// armed ([`Self::set_token_scope`]), untagged specs inherit the scope as
    /// their telemetry tag.
    pub fn start_flow(&mut self, mut spec: FlowSpec) -> FlowId {
        if self.token_scope != 0 && spec.tag == 0 {
            spec.tag = self.token_scope;
        }
        let id = self.net.start_flow(spec);
        self.emit_flow_counter();
        id
    }

    /// Cancels a flow (see [`FlowNet::cancel_flow`]), recording the
    /// rate-change in the trace when tracing is armed. Returns `false` when
    /// the flow is unknown or already finished.
    pub fn cancel_flow(&mut self, id: FlowId) -> bool {
        let cancelled = self.net.cancel_flow(id);
        if cancelled {
            self.emit_flow_counter();
        }
        cancelled
    }

    /// Samples the `active_flows` trace counter if its value changed since
    /// the last sample. Called after every operation that can move the
    /// flow count — starts, cancellations, activations and completions — so
    /// Perfetto flow-count curves are exact between completions too.
    fn emit_flow_counter(&mut self) {
        if !self.trace.is_enabled() {
            return;
        }
        let n = self.net.active_flow_count() as f64;
        if self.last_flow_counter == Some(n.to_bits()) {
            return;
        }
        self.last_flow_counter = Some(n.to_bits());
        self.trace.counter(self.now(), track::NET, "active_flows", n);
    }

    /// Arms the structured trace sink; see [`crate::trace`]. Until this is
    /// called, every trace record is a no-op and simulation behavior is
    /// bit-identical to an un-instrumented run.
    pub fn enable_tracing(&mut self) {
        self.trace.enable();
    }

    /// Whether tracing is armed. Call sites that build event names with
    /// `format!` should check this first so the disabled path stays
    /// allocation-free.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// The trace sink (for export and summary analysis).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable access to the trace sink.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Opens a trace span on `(pid, tid)` at the current virtual time.
    pub fn trace_span_begin(&mut self, pid: u32, tid: u64, name: &str, cat: &'static str) {
        let t = self.now();
        self.trace.span_begin(t, pid, tid, name, cat);
    }

    /// Closes a trace span on `(pid, tid)` at the current virtual time.
    pub fn trace_span_end(&mut self, pid: u32, tid: u64, name: &str, cat: &'static str) {
        let t = self.now();
        self.trace.span_end(t, pid, tid, name, cat);
    }

    /// Records an instant trace event at the current virtual time.
    pub fn trace_instant(
        &mut self,
        pid: u32,
        tid: u64,
        name: &str,
        cat: &'static str,
        value: Option<f64>,
    ) {
        let t = self.now();
        self.trace.instant(t, pid, tid, name, cat, value);
    }

    /// Records a counter sample at the current virtual time.
    pub fn trace_counter(&mut self, pid: u32, name: &str, value: f64) {
        let t = self.now();
        self.trace.counter(t, pid, name, value);
    }

    /// Installs (replaces) the link-fault schedule of `plan`.
    ///
    /// Only resource-targeted degrade/flap events are executed by the
    /// simulator; node-scoped faults (stragglers, crashes) are data for
    /// higher layers — resolve node-targeted link faults with
    /// [`FaultPlan::resolve_links`] before installing. Fault actions are
    /// delivered as [`Event::Fault`] and take priority over timers and flow
    /// completions scheduled at the same instant, so handlers observe the
    /// post-fault capacities.
    ///
    /// # Panics
    /// Panics if any scheduled action is already in the past.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        let injector = FaultInjector::compile(plan);
        if let Some(first) = injector.next_at() {
            assert!(first >= self.now(), "fault scheduled in the past: {first} < {}", self.now());
        }
        self.faults = injector;
    }

    /// Every executed fault action so far, oldest first.
    pub fn fault_log(&self) -> &[(SimTime, FaultRecord)] {
        &self.fault_log
    }

    /// Whether the installed fault plan still has undelivered apply/restore
    /// actions. `false` means every fault has run to completion, so (for
    /// plans whose faults all carry durations) link capacities are back at
    /// their configured base values — one of the quiescence conditions the
    /// streaming scheduler requires before taking a snapshot.
    pub fn faults_pending(&self) -> bool {
        self.faults.next_at().is_some()
    }

    /// Returns the next event and advances virtual time to it, or `None` when
    /// neither timers, faults, nor flows remain.
    pub fn next_event(&mut self) -> Option<(SimTime, Event)> {
        if let Some(id) = self.pending_flows.pop() {
            return Some((self.now(), Event::FlowCompleted(id)));
        }
        // Iterative, not recursive: a network change can be an activation
        // with no completion to deliver, and arbitrarily long chains of
        // staggered flow latencies must not grow the stack.
        loop {
            let t_timer = self.timers.peek_time().map(SimTime::from_nanos);
            let t_flow = self.net.next_change();
            // Faults preempt both timers and flow events at the same instant
            // so that handlers always observe post-fault capacities.
            if let Some(tf) = self.faults.next_at() {
                let beats_timer = t_timer.is_none_or(|tt| tf <= tt);
                let beats_flow = t_flow.is_none_or(|tl| tf <= tl);
                if beats_timer && beats_flow {
                    self.net.advance_to(tf);
                    self.emit_flow_counter();
                    let rec = self.faults.apply_next(&mut self.net);
                    self.fault_log.push((tf, rec));
                    if self.trace.is_enabled() {
                        let name = format!("fault {:?} r{}", rec.phase, rec.resource.as_u32());
                        self.trace.instant(
                            tf,
                            track::NET,
                            0,
                            &name,
                            "fault",
                            Some(rec.capacity_after),
                        );
                    }
                    return Some((tf, Event::Fault(rec)));
                }
            }
            match (t_timer, t_flow) {
                (None, None) => return None,
                (Some(tt), tf) if tf.is_none_or(|tf| tt <= tf) => {
                    let (at_ns, token) = self.timers.pop().expect("peeked");
                    if token.scope() != 0 {
                        self.scoped_timers[token.scope() as usize] -= 1;
                    }
                    let at = SimTime::from_nanos(at_ns);
                    self.net.advance_to(at);
                    self.emit_flow_counter();
                    return Some((at, Event::Timer(token)));
                }
                (_, Some(tf)) => {
                    self.net.advance_to(tf);
                    let mut done = self.net.take_completed();
                    if done.is_empty() {
                        // The change was a flow activation, not a
                        // completion; sample the counter and keep looking.
                        self.emit_flow_counter();
                        continue;
                    }
                    // Deliver in start order: pop() takes from the back.
                    done.reverse();
                    self.pending_flows = done;
                    self.emit_flow_counter();
                    let id = self.pending_flows.pop().expect("nonempty");
                    return Some((self.now(), Event::FlowCompleted(id)));
                }
                // (Some, None) with a failed guard cannot happen: the guard
                // always passes when there is no flow event.
                (Some(_), None) => unreachable!(),
            }
        }
    }

    /// Runs the simulator until quiescent, invoking `handler` for every event.
    ///
    /// The handler receives the simulator itself so it can schedule follow-up
    /// timers and flows.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Simulator, SimTime, Event)) {
        while let Some((t, ev)) = self.next_event() {
            handler(self, t, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_timers_are_counted_until_they_fire() {
        let mut sim = Simulator::new();
        sim.set_token_scope(7);
        sim.schedule(SimDuration::from_nanos(10), Token::new(1, 0, 0));
        sim.schedule(SimDuration::from_nanos(20), Token::new(1, 0, 1));
        sim.set_token_scope(0);
        sim.schedule(SimDuration::from_nanos(5), Token::new(2, 0, 0));
        let pending =
            |sim: &Simulator| (sim.timers_pending_in_scope(7), sim.timers_pending_in_scope(8));
        assert_eq!(pending(&sim), (2, 0));
        sim.next_event(); // the unscoped timer
        assert_eq!(pending(&sim), (2, 0));
        sim.next_event();
        assert_eq!(pending(&sim), (1, 0));
        sim.next_event();
        assert_eq!(pending(&sim), (0, 0));
    }

    #[test]
    fn schedule_run_matches_one_by_one_scheduling() {
        // Per-worker batches: sorted stretches with equal-time ties, one
        // descent, plus an empty and a one-entry batch.
        let batches: Vec<Vec<(u64, Token)>> = (0..3u32)
            .map(|w| {
                [10, 20, 30, 30, 40, 35, 50]
                    .iter()
                    .enumerate()
                    .map(|(i, &at)| (at + u64::from(w), Token::new(1, w, i as u64)))
                    .collect()
            })
            .chain([vec![], vec![(30, Token::new(2, 9, 0))]])
            .collect();
        for scope in [0u32, 5] {
            let drive = |by_run: bool| {
                let mut sim = Simulator::new();
                // An unscoped timer at an instant the batches also use.
                sim.schedule_at(SimTime::from_nanos(30), Token::new(9, 0, 0));
                for (i, batch) in batches.iter().enumerate() {
                    sim.set_token_scope(scope);
                    let timers = batch.iter().map(|&(at, tok)| (SimTime::from_nanos(at), tok));
                    if by_run {
                        sim.schedule_run(timers);
                    } else {
                        timers.for_each(|(at, tok)| sim.schedule_at(at, tok));
                    }
                    sim.set_token_scope(0);
                    sim.schedule_at(SimTime::from_nanos(30), Token::new(8, 0, i as u64));
                }
                let mut log = vec![(SimTime::ZERO, None, sim.timers_pending_in_scope(scope))];
                while let Some((t, ev)) = sim.next_event() {
                    log.push((t, Some(ev), sim.timers_pending_in_scope(scope)));
                }
                log
            };
            let by_run = drive(true);
            assert_eq!(by_run.len(), 1 + 1 + 3 * 7 + 1 + 5);
            assert_eq!(by_run[0].2, if scope == 0 { 0 } else { 22 });
            assert_eq!(by_run, drive(false), "scope {scope}");
        }
    }

    #[test]
    fn timers_fire_in_order_with_fifo_ties() {
        let mut sim = Simulator::new();
        sim.schedule(SimDuration::from_nanos(10), Token::new(1, 0, 0));
        sim.schedule(SimDuration::from_nanos(5), Token::new(2, 0, 0));
        sim.schedule(SimDuration::from_nanos(10), Token::new(3, 0, 0));
        let kinds: Vec<u32> = std::iter::from_fn(|| sim.next_event())
            .map(|(_, ev)| match ev {
                Event::Timer(t) => t.kind,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kinds, vec![2, 1, 3]);
    }

    #[test]
    fn flows_and_timers_interleave() {
        let mut sim = Simulator::new();
        let r = sim.net_mut().add_resource("l", 10.0);
        sim.start_flow(FlowSpec::new(vec![r], 20.0)); // completes at t=2s
        sim.schedule(SimDuration::from_secs_f64(1.0), Token::new(9, 0, 0));
        let (t1, e1) = sim.next_event().unwrap();
        assert_eq!(e1, Event::Timer(Token::new(9, 0, 0)));
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-9);
        let (t2, e2) = sim.next_event().unwrap();
        assert!(matches!(e2, Event::FlowCompleted(_)));
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn simultaneous_flow_completions_delivered_in_id_order() {
        let mut sim = Simulator::new();
        let r = sim.net_mut().add_resource("l", 10.0);
        let a = sim.start_flow(FlowSpec::new(vec![r], 20.0));
        let b = sim.start_flow(FlowSpec::new(vec![r], 20.0));
        let mut ids = Vec::new();
        while let Some((_, ev)) = sim.next_event() {
            if let Event::FlowCompleted(id) = ev {
                ids.push(id);
            }
        }
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn handler_can_chain_work() {
        let mut sim = Simulator::new();
        let r = sim.net_mut().add_resource("l", 100.0);
        sim.schedule(SimDuration::from_nanos(1), Token::new(1, 0, 0));
        let mut completions = 0;
        sim.run(|s, _, ev| match ev {
            Event::Timer(tok) if tok.kind == 1 => {
                s.start_flow(FlowSpec::new(vec![r], 50.0));
            }
            Event::FlowCompleted(_) => completions += 1,
            _ => {}
        });
        assert_eq!(completions, 1);
    }

    #[test]
    fn schedule_at_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule(SimDuration::from_nanos(100), Token::default());
        let _ = sim.next_event();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.schedule_at(SimTime::from_nanos(5), Token::default());
        }));
        assert!(result.is_err());
    }

    #[test]
    fn empty_sim_yields_none() {
        assert!(Simulator::new().next_event().is_none());
    }

    #[test]
    fn activation_only_chains_do_not_overflow_stack() {
        // Regression: next_event used to recurse on activation-only network
        // changes, so thousands of consecutive staggered flow latencies
        // overflowed the stack. Each flow sits on its own resource in its
        // own solver group, so each activation re-solves a one-flow
        // component and the chain cost stays O(1) per event.
        let mut sim = Simulator::new();
        let n: u64 = 20_000;
        for i in 0..n {
            let r = sim.net_mut().add_resource_in_group(format!("r{i}"), 1.0, i as u32);
            // All flows transfer for ~1s; activations are staggered 1ns
            // apart, so the first completion comes after every activation.
            sim.start_flow(
                FlowSpec::new(vec![r], 1.0).with_latency(SimDuration::from_nanos(i + 1)),
            );
        }
        // One next_event call must chew through all n activation-only
        // changes iteratively before yielding the first completion.
        let (t, ev) = sim.next_event().unwrap();
        assert!(matches!(ev, Event::FlowCompleted(_)));
        assert!(t.as_secs_f64() > 1.0);
        let mut completions = 1;
        while let Some((_, ev)) = sim.next_event() {
            assert!(matches!(ev, Event::FlowCompleted(_)));
            completions += 1;
        }
        assert_eq!(completions, n);
    }

    #[test]
    fn flow_counter_emitted_on_every_transition() {
        let mut sim = Simulator::new();
        sim.enable_tracing();
        let r = sim.net_mut().add_resource("l", 10.0);
        // One immediate flow, one delayed: the counter must step on the
        // start (1), the activation (2), and each completion (1, then 0).
        sim.start_flow(FlowSpec::new(vec![r], 10.0));
        sim.start_flow(FlowSpec::new(vec![r], 40.0).with_latency(SimDuration::from_millis(1)));
        while sim.next_event().is_some() {}
        let counters: Vec<f64> = sim
            .trace()
            .events()
            .iter()
            .filter(|e| e.phase == crate::trace::TracePhase::Counter && e.name == "active_flows")
            .filter_map(|e| e.value)
            .collect();
        assert_eq!(counters, vec![1.0, 2.0, 1.0, 0.0], "got {counters:?}");
    }
}
