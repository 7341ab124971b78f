//! Tracing from outside the program: spans around the benchmark's calls
//! into each layer, a per-event [`Observer`] that times the engine loop
//! and logs every change of the live flow set, and a replay of that log
//! on a fresh [`FlowNet`] that times the network layer call by call.

use lsm_core::{Engine, Observer, RunControl};
use lsm_netsim::{FlowId, FlowNet, FlowView, Topology};
use lsm_simcore::time::SimTime;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
struct Span {
    name: &'static str,
    /// The workload repetition the span belongs to.
    run: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, written out once at exit.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Spans::close`] and children.
    pub fn open(&mut self, name: &'static str, run: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed over spans of that name.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e9;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(e) => e.1 += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.run, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// The live flow set changed across one event.
#[derive(Clone, Debug)]
pub struct Change {
    pub at: SimTime,
    /// Engine flow ids that left the set, ascending.
    pub ended: Vec<u64>,
    /// Flows that joined the set, as first seen: at their start
    /// instant, before any byte moved.
    pub started: Vec<FlowView>,
}

/// Per-event observer: times the gap between successive `on_tick`
/// calls (the engine's work on one event, excluding this observer's
/// own) and diffs the live flow set after every event.
pub struct TickObserver {
    /// Sharded runs: gaps that span a window barrier are dropped.
    window_ns: Option<u64>,
    last_window: u64,
    last_exit: Option<Instant>,
    last_entry: Option<Instant>,
    pub gaps_ns: Vec<u32>,
    pub events: u64,
    pub net_events: u64,
    pub loop_ns: u64,
    pub net_loop_ns: u64,
    /// Sum over events of the live-flow count after the event.
    pub live_sum: u64,
    pub peak_live: usize,
    prev: Vec<FlowView>,
    cur: Vec<FlowView>,
    pub log: Vec<Change>,
    max_id: Option<u64>,
    seen: u64,
}

impl TickObserver {
    /// An observer whose first gap starts now. `window_secs`: the
    /// sharded runner's window length, if it runs the engine.
    pub fn new(window_secs: Option<f64>) -> Self {
        TickObserver {
            window_ns: window_secs.map(|w| (w * 1e9).round() as u64),
            last_window: 0,
            last_exit: Some(Instant::now()),
            last_entry: None,
            gaps_ns: Vec::new(),
            events: 0,
            net_events: 0,
            loop_ns: 0,
            net_loop_ns: 0,
            live_sum: 0,
            peak_live: 0,
            prev: Vec::new(),
            cur: Vec::new(),
            log: Vec::new(),
            max_id: None,
            seen: 0,
        }
    }

    /// When the last event was observed.
    pub fn last_tick(&self) -> Option<Instant> {
        self.last_entry
    }

    /// Flows started and ended within one event, which the diff cannot
    /// see (gaps in the engine's sequential flow ids).
    pub fn unseen_flows(&self) -> u64 {
        self.max_id.map_or(0, |m| m + 1 - self.seen)
    }

    fn window_of(&self, at: SimTime) -> u64 {
        match self.window_ns {
            Some(w) => at.as_nanos().div_ceil(w).max(1),
            None => 0,
        }
    }

    /// Diff `prev` against `cur`; log and report whether the set changed.
    fn diff(&mut self, at: SimTime) -> bool {
        let mut ended = Vec::new();
        let mut started = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.prev.len() || j < self.cur.len() {
            match (self.prev.get(i), self.cur.get(j)) {
                (Some(p), Some(c)) if p.id == c.id => {
                    i += 1;
                    j += 1;
                }
                (Some(p), Some(c)) if c.id < p.id => {
                    started.push(*c);
                    j += 1;
                }
                (Some(p), _) => {
                    ended.push(p.id.0);
                    i += 1;
                }
                (None, Some(c)) => {
                    started.push(*c);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        if ended.is_empty() && started.is_empty() {
            return false;
        }
        for s in &started {
            self.seen += 1;
            self.max_id = Some(self.max_id.map_or(s.id.0, |m| m.max(s.id.0)));
        }
        self.log.push(Change { at, ended, started });
        true
    }
}

impl Observer for TickObserver {
    fn on_tick(&mut self, eng: &Engine) -> RunControl {
        let entry = Instant::now();
        let at = eng.now();
        let window = self.window_of(at);
        let gap = match self.last_exit {
            Some(t) if window == self.last_window || self.window_ns.is_none() => {
                Some(entry.duration_since(t).as_nanos() as u64)
            }
            _ => None,
        };
        self.last_window = window;
        self.cur.clear();
        self.cur.extend(eng.network().flow_views());
        let changed = self.diff(at);
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.events += 1;
        self.live_sum += self.prev.len() as u64;
        self.peak_live = self.peak_live.max(self.prev.len());
        if changed {
            self.net_events += 1;
        }
        if let Some(g) = gap {
            self.gaps_ns.push(g.min(u32::MAX as u64) as u32);
            self.loop_ns += g;
            if changed {
                self.net_loop_ns += g;
            }
        }
        self.last_entry = Some(entry);
        self.last_exit = Some(Instant::now());
        RunControl::Continue
    }
}

/// Per-call timings of a [`FlowNet`] re-driven from a flow log.
#[derive(Default)]
pub struct Replay {
    pub starts: u64,
    pub completions: u64,
    /// Observed completions the replay did not reproduce at the same
    /// instant, plus completions it predicted that the engine did not
    /// make.
    pub mismatches: u64,
    pub start_ns: Vec<u32>,
    pub complete_ns: Vec<u32>,
    pub next_completion_ns: Vec<u32>,
    /// Time inside timed `FlowNet` calls.
    pub self_ns: u64,
}

impl Replay {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, u32) {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.self_ns += ns;
        (out, ns.min(u32::MAX as u64) as u32)
    }

    fn mismatch(&mut self, what: String) {
        if self.mismatches < 5 {
            eprintln!("lsmbench: replay mismatch: {what}");
        }
        self.mismatches += 1;
    }

    /// Re-drive a fresh network on `topo` through `log`: at each change,
    /// first complete the flows the network itself reports due that the
    /// engine ended in this event (a due flow the engine ends in a later
    /// event of the same instant waits for that event; one due earlier
    /// is a mismatch), then start the new flows. The benchmark's
    /// workloads schedule no faults or cancellations, so the engine ends
    /// flows only by completing them.
    pub fn run(&mut self, topo: Topology, log: &[Change]) {
        let mut net = FlowNet::new(topo);
        let mut to_replay: HashMap<u64, FlowId> = HashMap::new();
        let mut to_engine: HashMap<FlowId, u64> = HashMap::new();
        for change in log {
            let mut pending = change.ended.clone();
            loop {
                let (next, ns) = self.time(|| net.next_completion());
                self.next_completion_ns.push(ns);
                let Some((t, rid)) = next else { break };
                if t > change.at {
                    break;
                }
                let eid = to_engine[&rid];
                match pending.binary_search(&eid) {
                    // Due now, but the engine completes it in a later
                    // event at this same instant.
                    Err(_) if t == change.at => break,
                    Ok(pos) if t == change.at => {
                        pending.remove(pos);
                        let ((), ns) = self.time(|| net.complete(change.at, rid));
                        self.complete_ns.push(ns);
                        self.completions += 1;
                        to_engine.remove(&rid);
                        to_replay.remove(&eid);
                    }
                    _ => {
                        self.mismatch(format!(
                            "flow {eid} due at {} ns, engine ended {:?} at {} ns",
                            t.as_nanos(),
                            pending,
                            change.at.as_nanos()
                        ));
                        break;
                    }
                }
            }
            // Ends the replay did not predict: count, then drop them so
            // the flow sets stay aligned.
            for eid in pending {
                let due = to_replay.remove(&eid).map(|rid| {
                    to_engine.remove(&rid);
                    let rate = net.rate_of(rid);
                    let left = net.cancel_flow(change.at, rid);
                    (rate, left)
                });
                self.mismatch(format!(
                    "engine ended flow {eid} at {} ns; replay had (rate, bytes left) {due:?}",
                    change.at.as_nanos()
                ));
            }
            for s in &change.started {
                let bytes = s.remaining.round() as u64;
                let (rid, ns) =
                    self.time(|| net.start_flow(change.at, s.src, s.dst, bytes, s.cap, s.tag));
                self.start_ns.push(ns);
                self.starts += 1;
                to_replay.insert(s.id.0, rid);
                to_engine.insert(rid, s.id.0);
            }
        }
    }
}
