//! The harness's in-memory span recorder.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer's public functions. A recorder that is off never reads the clock,
//! so the untraced run pays one predictable branch per call site.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span is charged to. `Rep` is the root of one repetition;
/// its self time is the harness's own glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    Rep,
    SwitchUpdate,
    SwitchTrigger,
    SwitchCr,
    NetsimChannel,
    WireEncode,
    WireDecode,
    BlockBuild,
    ControllerSend,
    ControllerReadyWait,
    ControllerFlowsOver,
    ControllerSnapshot,
    ControllerDrain,
}

impl Layer {
    /// Every layer, in declaration order, `Rep` first.
    pub const ALL: [Layer; 13] = [
        Layer::Rep,
        Layer::SwitchUpdate,
        Layer::SwitchTrigger,
        Layer::SwitchCr,
        Layer::NetsimChannel,
        Layer::WireEncode,
        Layer::WireDecode,
        Layer::BlockBuild,
        Layer::ControllerSend,
        Layer::ControllerReadyWait,
        Layer::ControllerFlowsOver,
        Layer::ControllerSnapshot,
        Layer::ControllerDrain,
    ];

    /// The span name written to `out/trace_<workload>.json`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rep => "rep",
            Layer::SwitchUpdate => "switch.update",
            Layer::SwitchTrigger => "switch.trigger",
            Layer::SwitchCr => "switch.cr",
            Layer::NetsimChannel => "netsim.channel",
            Layer::WireEncode => "wire.encode",
            Layer::WireDecode => "wire.decode",
            Layer::BlockBuild => "block.build",
            Layer::ControllerSend => "controller.send",
            Layer::ControllerReadyWait => "controller.ready_wait",
            Layer::ControllerFlowsOver => "controller.flows_over",
            Layer::ControllerSnapshot => "controller.snapshot",
            Layer::ControllerDrain => "controller.drain",
        }
    }
}

/// One recorded interval. `units` is the work it covered (packets for
/// `switch.update`, records for the C&R, wire, block and send spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a rep root.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one repetition.
    pub rep: u32,
    pub units: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans for the traced run; inert when off.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    rep: u32,
    root: usize,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            rep: 0,
            root: 0,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The clock, read only when recording.
    pub fn now(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Open the root span of repetition `rep` at `at`.
    pub fn begin_rep(&mut self, rep: u32, at: Instant) {
        if !self.on {
            return;
        }
        self.rep = rep;
        self.root = self.spans.len();
        let start_ns = self.ns(at);
        self.spans.push(Span {
            layer: Layer::Rep,
            start_ns,
            end_ns: start_ns,
            parent: None,
            rep,
            units: 0,
        });
    }

    /// Close the current repetition's root span at `at`.
    pub fn end_rep(&mut self, at: Instant, packets: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(at);
        let root = &mut self.spans[self.root];
        root.end_ns = end_ns;
        root.units = packets;
    }

    /// Record `[start, end]` under the current repetition.
    pub fn span(&mut self, layer: Layer, start: Instant, end: Instant, units: u64) {
        if !self.on {
            return;
        }
        let span = Span {
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: Some(self.root),
            rep: self.rep,
            units,
        };
        self.spans.push(span);
    }

    /// Record a span that began at `start` (from [`Recorder::now`]) and ends
    /// now; returns the end so that back-to-back spans share one clock read.
    pub fn close(&mut self, layer: Layer, start: Option<Instant>, units: u64) -> Option<Instant> {
        let start = start?;
        let end = Instant::now();
        self.span(layer, start, end, units);
        Some(end)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover. Overlapping children are counted once.
pub fn self_time_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    span.duration_ns() - covered
}

/// One repetition's wall time split into per-layer self times.
#[derive(Debug, Clone)]
pub struct RepLedger {
    pub rep: u32,
    pub wall_ns: u64,
    /// Indexed by `Layer as usize`.
    self_ns: [u64; Layer::ALL.len()],
    units: [u64; Layer::ALL.len()],
}

impl RepLedger {
    /// Total self time charged to `layer` (`Layer::Rep` is harness glue).
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Work units covered by `layer`'s spans.
    pub fn units(&self, layer: Layer) -> u64 {
        self.units[layer as usize]
    }

    /// `layer`'s self time per unit of its work; 0 when it did none.
    pub fn ns_per_unit(&self, layer: Layer) -> f64 {
        match self.units(layer) {
            0 => 0.0,
            n => self.self_ns(layer) as f64 / n as f64,
        }
    }

    /// `layer`'s share of the repetition's wall time.
    pub fn share(&self, layer: Layer) -> f64 {
        self.self_ns(layer) as f64 / self.wall_ns as f64
    }

    /// Sum of all shares; 1.0 when the spans tile the repetition.
    pub fn share_sum(&self) -> f64 {
        Layer::ALL.iter().map(|&l| self.share(l)).sum()
    }
}

/// Per-repetition ledgers, in the order the repetitions were recorded.
pub fn ledgers(spans: &[Span]) -> Vec<RepLedger> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: Vec<RepLedger> = Vec::new();
    let mut index_of_rep: HashMap<u32, usize> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            index_of_rep.insert(s.rep, out.len());
            out.push(RepLedger {
                rep: s.rep,
                wall_ns: s.duration_ns(),
                self_ns: [0; Layer::ALL.len()],
                units: [0; Layer::ALL.len()],
            });
        }
        let own = match children.get_mut(&i) {
            Some(c) => self_time_ns(s, c),
            None => s.duration_ns(),
        };
        let ledger = &mut out[index_of_rep[&s.rep]];
        ledger.self_ns[s.layer as usize] += own;
        ledger.units[s.layer as usize] += s.units;
    }
    out
}

/// Render the spans as the JSON document written to `out/`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut s = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (id, sp) in spans.iter().enumerate() {
        if id > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "\n{{\"id\":{id},\"name\":\"{}\",\"rep\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"units\":{}}}",
            sp.layer.name(),
            sp.rep,
            sp.start_ns,
            sp.end_ns,
            sp.units
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            rep: 7,
            units: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let root = span(Layer::Rep, 100, 200, None);
        // [110,130] and [120,150] overlap; [190,260] sticks out of the parent.
        let mut kids = vec![(120, 150), (110, 130), (190, 260)];
        assert_eq!(self_time_ns(&root, &mut kids), 100 - 40 - 10);
        assert_eq!(self_time_ns(&root, &mut []), 100);
    }

    #[test]
    fn ledger_shares_tile_the_rep() {
        let spans = vec![
            span(Layer::Rep, 0, 1_000, None),
            span(Layer::SwitchUpdate, 0, 600, Some(0)),
            span(Layer::SwitchCr, 600, 700, Some(0)),
            span(Layer::WireEncode, 720, 900, Some(0)),
        ];
        let l = &ledgers(&spans)[0];
        assert_eq!(l.rep, 7);
        assert_eq!(l.self_ns(Layer::SwitchUpdate), 600);
        assert_eq!(l.self_ns(Layer::Rep), 120);
        assert_eq!(l.ns_per_unit(Layer::WireDecode), 0.0);
        assert!((l.share_sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn an_off_recorder_records_nothing_and_reads_no_clock() {
        let mut r = Recorder::new(false);
        assert!(r.now().is_none());
        r.begin_rep(0, Instant::now());
        assert_eq!(r.close(Layer::WireEncode, None, 1), None);
        r.span(Layer::WireDecode, Instant::now(), Instant::now(), 1);
        assert!(r.spans().is_empty());
    }
}
