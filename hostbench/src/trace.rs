//! Outside-in span tracer.
//!
//! Spans are recorded from the benchmark's own drivers, around calls into
//! the public functions of each layer; the program itself is never edited
//! or instrumented. Drivers are generic over [`Probe`]: the untraced runs
//! use [`Off`], whose methods compile to nothing, so end-to-end numbers
//! carry no tracing cost. Wall time is read only here.

use std::fmt::Write as _;
use std::time::Instant;

/// A named span boundary. Layer spans wrap one public call into a layer of
/// the program; group spans ([`Name::Setup`], [`Name::Step`]) only give the
/// layer spans a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Building one simulation, before its first simulated event.
    Setup,
    /// One simulated iteration or one fixed simulated-time slice.
    Step,
    /// `ClusterNet::build`.
    ClusterBuild,
    /// `EngineKind::build`.
    EngineBuild,
    /// `Simulator::start_flow`.
    StartFlow,
    /// `Simulator::next_event`.
    NextEvent,
    /// `schedule_worker_compute`.
    ScheduleWorkerCompute,
    /// `DdlEngine::begin_iteration`.
    BeginIteration,
    /// `DdlEngine::on_grad_ready`.
    OnGradReady,
    /// `DdlEngine::on_backward_done`.
    OnBackwardDone,
    /// `DdlEngine::on_timer`.
    OnTimer,
    /// `DdlEngine::on_collective_done`.
    OnCollectiveDone,
    /// `CollectiveEngine::on_flow_completed`.
    OnFlowCompleted,
    /// `StreamSim::try_new`.
    SchedSetup,
    /// `StreamSim::run`.
    SchedRun,
}

impl Name {
    /// Every name, in report order.
    pub const ALL: [Name; 15] = [
        Name::Setup,
        Name::Step,
        Name::ClusterBuild,
        Name::EngineBuild,
        Name::StartFlow,
        Name::NextEvent,
        Name::ScheduleWorkerCompute,
        Name::BeginIteration,
        Name::OnGradReady,
        Name::OnBackwardDone,
        Name::OnTimer,
        Name::OnCollectiveDone,
        Name::OnFlowCompleted,
        Name::SchedSetup,
        Name::SchedRun,
    ];

    /// The metric stem: `<layer>.<function>`.
    pub fn label(self) -> &'static str {
        match self {
            Name::Setup => "bench.setup",
            Name::Step => "bench.step",
            Name::ClusterBuild => "cluster.build",
            Name::EngineBuild => "core.engine_build",
            Name::StartFlow => "simnet.start_flow",
            Name::NextEvent => "simnet.next_event",
            Name::ScheduleWorkerCompute => "trainer.schedule_worker_compute",
            Name::BeginIteration => "core.begin_iteration",
            Name::OnGradReady => "core.on_grad_ready",
            Name::OnBackwardDone => "core.on_backward_done",
            Name::OnTimer => "core.on_timer",
            Name::OnCollectiveDone => "core.on_collective_done",
            Name::OnFlowCompleted => "collectives.on_flow_completed",
            Name::SchedSetup => "sched.setup",
            Name::SchedRun => "sched.run",
        }
    }

    /// Whether the span wraps a call into the program (not a group).
    pub fn is_layer(self) -> bool {
        !matches!(self, Name::Setup | Name::Step)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The span hooks a driver calls around each layer call. `flownet_s`
/// returns the FlowNet solve+apply+queue seconds accrued so far on the
/// network the call may touch (`0.0` where the benchmark cannot see one);
/// it is evaluated only when tracing is on.
pub trait Probe {
    /// Opens a span.
    fn enter(&mut self, name: Name, flownet_s: impl FnOnce() -> f64);
    /// Closes the innermost open span.
    fn exit(&mut self, flownet_s: impl FnOnce() -> f64);
    /// Closes the innermost open span and opens `name` in its place at the
    /// same instant, for back-to-back calls at one depth: one clock read per
    /// boundary instead of two, and no unattributed gap between them.
    fn switch(&mut self, name: Name, flownet_s: impl FnOnce() -> f64);
}

/// The untraced probe: every hook is empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn enter(&mut self, _: Name, _: impl FnOnce() -> f64) {}
    #[inline(always)]
    fn exit(&mut self, _: impl FnOnce() -> f64) {}
    #[inline(always)]
    fn switch(&mut self, _: Name, _: impl FnOnce() -> f64) {}
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span wraps.
    pub name: Name,
    /// Index of the enclosing recorded span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Parent index of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// Raw spans kept in memory per tracer; aggregates keep counting beyond it.
pub const SPAN_CAP: usize = 200_000;

/// Per-name totals over every span, recorded or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStat {
    /// Closed spans.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds: duration minus child spans and minus the
    /// FlowNet time accrued inside the span but outside its children.
    pub self_s: f64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    name: Name,
    span: u32,
    start_ns: u64,
    flownet0: f64,
    child_ns: u64,
    child_flownet: f64,
}

/// The recording probe.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    open_layers: u32,
    stats: [NameStat; Name::ALL.len()],
    covered_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            open_layers: 0,
            stats: [NameStat::default(); Name::ALL.len()],
            covered_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Seconds since the tracer was created.
    pub fn elapsed_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Totals for one name.
    pub fn stat(&self, name: Name) -> NameStat {
        self.stats[name.index()]
    }

    /// Seconds covered by outermost layer spans.
    pub fn covered_s(&self) -> f64 {
        self.covered_ns as f64 * 1e-9
    }

    /// The recorded spans (at most [`SPAN_CAP`]).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans as Chrome trace JSON (open in Perfetto or
    /// `chrome://tracing`); the parent index rides in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name.label(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

impl Tracer {
    fn open(&mut self, name: Name, start_ns: u64, flownet0: f64) {
        let span = if self.spans.len() < SPAN_CAP {
            let parent = self.stack.last().map_or(NO_PARENT, |f| f.span);
            self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        if name.is_layer() {
            self.open_layers += 1;
        }
        self.stack.push(Frame { name, span, start_ns, flownet0, child_ns: 0, child_flownet: 0.0 });
    }

    fn close(&mut self, end_ns: u64, flownet_now: f64) {
        let f = self.stack.pop().expect("span exit without a matching enter");
        let flownet = flownet_now - f.flownet0;
        let dur_ns = end_ns - f.start_ns;
        if f.span != NO_PARENT {
            self.spans[f.span as usize].end_ns = end_ns;
        }
        let st = &mut self.stats[f.name.index()];
        st.calls += 1;
        st.total_s += dur_ns as f64 * 1e-9;
        st.self_s += (dur_ns - f.child_ns) as f64 * 1e-9 - (flownet - f.child_flownet);
        if f.name.is_layer() {
            self.open_layers -= 1;
            if self.open_layers == 0 {
                self.covered_ns += dur_ns;
            }
        }
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur_ns;
            p.child_flownet += flownet;
        }
    }
}

impl Probe for Tracer {
    fn enter(&mut self, name: Name, flownet_s: impl FnOnce() -> f64) {
        let flownet0 = flownet_s();
        let now = self.now_ns();
        self.open(name, now, flownet0);
    }

    fn exit(&mut self, flownet_s: impl FnOnce() -> f64) {
        let now = self.now_ns();
        self.close(now, flownet_s());
    }

    fn switch(&mut self, name: Name, flownet_s: impl FnOnce() -> f64) {
        let now = self.now_ns();
        let flownet = flownet_s();
        self.close(now, flownet);
        self.open(name, now, flownet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_flownet() {
        let mut t = Tracer::new();
        t.enter(Name::Step, || 1.0);
        t.enter(Name::NextEvent, || 1.0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(|| 1.0005);
        t.exit(|| 1.0005);
        let ne = t.stat(Name::NextEvent);
        let step = t.stat(Name::Step);
        assert_eq!(ne.calls, 1);
        assert!((ne.total_s - ne.self_s - 0.0005).abs() < 1e-9);
        // The parent's self time excludes the child's span, including the
        // FlowNet time the child accrued.
        assert!(step.self_s < step.total_s - ne.total_s + 1e-9);
        assert!(step.self_s >= -1e-9);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert!((t.covered_s() - ne.total_s).abs() < 1e-9);
    }

    #[test]
    fn switch_shares_one_boundary() {
        let mut t = Tracer::new();
        t.enter(Name::NextEvent, || 0.0);
        t.switch(Name::OnGradReady, || 0.0);
        t.switch(Name::NextEvent, || 0.0);
        t.exit(|| 0.0);
        assert_eq!(t.stat(Name::NextEvent).calls, 2);
        assert_eq!(t.stat(Name::OnGradReady).calls, 1);
        let s = t.spans();
        assert_eq!((s[0].end_ns, s[1].end_ns), (s[1].start_ns, s[2].start_ns));
        assert!(s.iter().all(|x| x.parent == NO_PARENT));
    }
}
