//! One workload in one process: set-up, warm-ups, timed repetitions, the
//! check of every output, and the metrics.

use std::time::Instant;

use ow_common::metrics::ReliabilityMetrics;
use ow_common::packet::Packet;
use ow_trace::Trace;

use crate::metrics::{Measured, END_TO_END, PER_LAYER};
use crate::oracle::{digest, Accuracy, Oracle};
use crate::pipeline::{discover, run_rep, Plan, RepOutput};
use crate::probes::{self, ProbeResults};
use crate::spans::{self, Layer, Recorder, RepLedger, Span};
use crate::stats::{highest_supported_percentile, median, percentile, quartiles};
use crate::workload::Workload;

/// Times the set-up is repeated; the report is the median round.
const SETUP_ROUNDS: usize = 3;
/// Timed repetitions a run makes even when `--seconds` is too short.
const MIN_REPS: usize = 3;
/// Share of `--seconds` the traced run spends on repetitions; probes
/// take the rest.
const TRACED_REP_SHARE: f64 = 0.6;
/// The per-repetition ledger must tile the wall time this closely.
const LEDGER_TOLERANCE: f64 = 0.01;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

#[derive(Debug)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Human-readable lines that are not metrics (ledgers, sample counts).
    pub notes: Vec<String>,
    /// The spans of the traced run, for `out/trace_<workload>.json`.
    pub spans: Vec<Span>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The median set-up, with the pieces the per-layer report quotes.
struct Setup {
    trace: Trace,
    plan: Plan,
    oracle: Oracle,
    setup_s: f64,
    trace_build_ns: f64,
}

fn seconds_of(work: impl FnOnce()) -> f64 {
    let t = Instant::now();
    work();
    t.elapsed().as_secs_f64()
}

/// Generate the inputs and everything derived from them. The trace, the
/// switch, the controller and the oracle are each built [`SETUP_ROUNDS`]
/// times; the discovery warm-up in between is not set-up.
fn set_up(w: &Workload, seed: u64) -> Setup {
    let mut trace = None;
    let mut trace_s = Vec::new();
    let mut system_s = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        // Drop the previous round's trace first so rounds do not stack up
        // in the peak resident set.
        trace = None;
        trace_s.push(seconds_of(|| trace = Some(w.build_trace(seed))));
        // A repetition over no packets verifies and builds the switch,
        // spawns the controller and joins it.
        system_s.push(seconds_of(|| {
            std::hint::black_box(run_rep(w, seed, &[], &[], &mut Recorder::new(false), 0));
        }));
    }
    let trace = trace.expect("SETUP_ROUNDS > 0");
    let plan = discover(w, seed, &trace.packets);
    let mut oracle = None;
    let mut oracle_s = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        oracle_s.push(seconds_of(|| {
            oracle = Some(Oracle::build(w, &plan.batches))
        }));
    }
    let rounds: Vec<f64> = (0..SETUP_ROUNDS)
        .map(|r| trace_s[r] + system_s[r] + oracle_s[r])
        .collect();
    Setup {
        trace,
        plan,
        oracle: oracle.expect("SETUP_ROUNDS > 0"),
        setup_s: median(&rounds),
        trace_build_ns: median(&trace_s) * 1e9,
    }
}

/// Tally of checked operations over all repetitions.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    accuracy: Accuracy,
}

impl Verdict {
    /// Check one repetition's outputs against the oracle, then drop them:
    /// only the measurements are kept. Attempts are sub-windows shipped,
    /// windows queried and one fold check; a window that was not ready in
    /// time has missed its latency and fails too.
    fn check(&mut self, w: &Workload, setup: &Setup, mut out: RepOutput) -> RepOutput {
        let expected_subwindows = setup.plan.batches.len() as u64;
        self.attempted += expected_subwindows + setup.oracle.answers.len() as u64 + 1;
        let mut failed = expected_subwindows.abs_diff(u64::from(out.subwindows_shipped))
            + out.ready_timeouts
            + out.stray_boundaries
            + (setup.oracle.answers.len() as u64).saturating_sub(out.answers.len() as u64);
        for (subwindow, answer) in &out.answers {
            if setup.oracle.answers.get(subwindow) != Some(answer) {
                failed += 1;
            }
            if let Some(truth) = setup.plan.truth.get(subwindow) {
                self.accuracy.score(answer, truth);
            }
        }
        for (subwindow, flows) in &out.snapshot_flows {
            if setup.oracle.merged_flows.get(subwindow) != Some(flows) {
                failed += 1;
            }
        }
        if digest(&out.final_fold) != setup.oracle.final_digest {
            failed += 1;
        }
        if failed > 0 {
            eprintln!(
                "{}: repetition failed {failed} checks ({} ready time-outs, {} stray boundaries, fold {} flows, expected {})",
                w.name,
                out.ready_timeouts,
                out.stray_boundaries,
                out.final_fold.len(),
                setup.oracle.final_flows
            );
        }
        self.failed += failed;
        out.answers = Vec::new();
        out.final_fold = Vec::new();
        out
    }
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// `VmHWM` of this process in MB; 0 where `/proc` does not say.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<Measured>);

impl Metrics {
    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("{name} is not in the metric tables"))
    }

    fn push(&mut self, name: &'static str, value: f64, spread: Option<(f64, f64, usize)>) {
        self.0.push(Measured {
            name,
            unit: Metrics::unit_of(name),
            value: if value.is_finite() { value } else { 0.0 },
            spread,
        });
    }

    /// An exact count or a single measurement.
    fn value(&mut self, name: &'static str, value: f64) {
        self.push(name, value, None);
    }

    /// The median of `samples`, with its quartiles and count.
    fn median_of(&mut self, name: &'static str, samples: &[f64]) {
        let (q1, med, q3) = quartiles(samples);
        self.push(name, med, Some((q1, q3, samples.len())));
    }

    /// Percentile `p` of `samples`, with the quartiles and count.
    fn percentile_of(&mut self, name: &'static str, samples: &[f64], p: f64) {
        let (q1, _, q3) = quartiles(samples);
        self.push(name, percentile(samples, p), Some((q1, q3, samples.len())));
    }
}

/// Every repetition's samples of one kind, pooled.
fn pooled(reps: &[RepOutput], samples: fn(&RepOutput) -> &Vec<u64>) -> Vec<u64> {
    reps.iter()
        .flat_map(|r| samples(r).iter().copied())
        .collect()
}

fn end_to_end_metrics(setup: &Setup, reps: &[RepOutput], verdict: &Verdict) -> Vec<Measured> {
    let rate: Vec<f64> = reps
        .iter()
        .map(|r| r.packets as f64 / (r.wall_ns as f64 / 1e9))
        .collect();
    let mut m = Metrics(Vec::new());
    m.median_of("pkts_per_s", &rate);
    m.percentile_of(
        "window_ready_ms_p50",
        &ms(&pooled(reps, |r| &r.ready_ns)),
        50.0,
    );
    m.percentile_of("query_us_p50", &us(&pooled(reps, |r| &r.query_ns)), 50.0);
    m.percentile_of(
        "snapshot_ms_p50",
        &ms(&pooled(reps, |r| &r.snapshot_ns)),
        50.0,
    );
    m.value("peak_rss_mb", peak_rss_mb());
    m.value("hh_f1_permille", verdict.accuracy.f1_permille());
    m.value("setup_s", setup.setup_s);
    m.0
}

/// Durations in ns of every `layer` span in `spans`.
fn durations(spans: &[Span], layer: Layer) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(Span::duration_ns)
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[allow(clippy::too_many_lines)]
fn per_layer_metrics(
    setup: &Setup,
    traced: &[RepOutput],
    untraced: &[RepOutput],
    spans: &[Span],
    ledgers: &[RepLedger],
    probes: &ProbeResults,
) -> Vec<Measured> {
    let per_rep = |f: &dyn Fn(&RepLedger) -> f64| -> Vec<f64> { ledgers.iter().map(f).collect() };
    let packets = setup.trace.packets.len() as u64;
    let last = traced.last().expect("at least one traced repetition");
    let rel: ReliabilityMetrics = last.reliability;
    let obs = last.obs.unwrap_or_default();
    let builds: Vec<f64> = traced
        .iter()
        .chain(untraced)
        .map(|r| r.build_switch_ns as f64 / 1e6)
        .collect();
    let wall = |reps: &[RepOutput]| -> f64 {
        median(&reps.iter().map(|r| r.wall_ns as f64).collect::<Vec<_>>())
    };

    let mut m = Metrics(Vec::new());
    m.value(
        "trace.build_ns_per_pkt",
        setup.trace_build_ns / packets as f64,
    );
    m.median_of("verify.build_switch_ms", &builds);
    m.median_of(
        "switch.update_ns_per_pkt",
        &per_rep(&|l| l.ns_per_unit(Layer::SwitchUpdate)),
    );
    m.median_of(
        "switch.update_share",
        &per_rep(&|l| l.share(Layer::SwitchUpdate)),
    );
    m.value(
        "switch.allocs_per_pkt",
        ratio(last.update_allocs, last.update_packets),
    );
    m.value(
        "switch.alloc_bytes_per_pkt",
        ratio(last.update_alloc_bytes, last.update_packets),
    );
    m.median_of(
        "switch.cr_ns_per_record",
        &per_rep(&|l| l.ns_per_unit(Layer::SwitchCr)),
    );
    m.median_of("switch.cr_ms_p50", &ms(&durations(spans, Layer::SwitchCr)));
    m.median_of("switch.cr_share", &per_rep(&|l| l.share(Layer::SwitchCr)));
    m.median_of(
        "switch.trigger_us_p50",
        &us(&durations(spans, Layer::SwitchTrigger)),
    );
    m.value("switch.records_per_pkt", ratio(last.records, packets));
    m.value("switch.overflow_share", ratio(last.overflow_keys, packets));
    m.value("switch.latency_spikes", last.latency_spikes as f64);
    m.value("switch.track_ns_per_key", probes.track_ns_per_key);
    m.value("sketch.cm_update_ns", probes.cm_update_ns);
    m.value("sketch.cm_query_ns", probes.cm_query_ns);
    m.value("sketch.mv_update_ns", probes.mv_update_ns);
    m.median_of(
        "wire.encode_ns_per_record",
        &per_rep(&|l| l.ns_per_unit(Layer::WireEncode)),
    );
    m.median_of(
        "wire.decode_ns_per_record",
        &per_rep(&|l| l.ns_per_unit(Layer::WireDecode)),
    );
    m.value(
        "wire.bytes_per_record",
        ratio(
            last.wire_bytes,
            ledgers.last().map_or(0, |l| l.units(Layer::WireEncode)),
        ),
    );
    m.median_of(
        "wire.share",
        &per_rep(&|l| l.share(Layer::WireEncode) + l.share(Layer::WireDecode)),
    );
    m.median_of(
        "block.build_ns_per_record",
        &per_rep(&|l| l.ns_per_unit(Layer::BlockBuild)),
    );
    m.value("block.scatter_ns_per_record", probes.scatter_ns_per_record);
    m.median_of(
        "controller.send_wait_ns_per_record",
        &per_rep(&|l| l.ns_per_unit(Layer::ControllerSend)),
    );
    m.median_of(
        "controller.send_wait_share",
        &per_rep(&|l| l.share(Layer::ControllerSend)),
    );
    m.median_of(
        "controller.drain_ms",
        &ms(&durations(spans, Layer::ControllerDrain)),
    );
    m.median_of(
        "controller.ready_wait_ms_p50",
        &ms(&durations(spans, Layer::ControllerReadyWait)),
    );
    m.value("controller.fold_ns_per_record", probes.fold_ns_per_record);
    m.value("controller.evict_us_p50", probes.evict_us_p50);
    m.median_of(
        "controller.flows_over_us_p50",
        &us(&durations(spans, Layer::ControllerFlowsOver)),
    );
    m.median_of(
        "controller.snapshot_ms_p50",
        &ms(&durations(spans, Layer::ControllerSnapshot)),
    );
    m.value("controller.merged_flows", last.final_flows as f64);
    m.value("controller.queue_depth_peak", obs.queue_depth_peak as f64);
    m.value(
        "controller.queue_records_peak",
        obs.queue_records_peak as f64,
    );
    m.value("controller.blocks_routed", obs.blocks_routed as f64);
    m.value(
        "controller.backpressure_dropped",
        obs.backpressure_dropped as f64,
    );
    m.value(
        "reliability.first_pass_share",
        ratio(rel.first_pass, rel.announced),
    );
    m.value("reliability.recovered_records", rel.recovered as f64);
    m.value(
        "reliability.retransmit_rounds",
        rel.retransmit_rounds as f64,
    );
    m.value(
        "reliability.retransmit_requests",
        rel.retransmit_requests as f64,
    );
    m.value("reliability.escalations", rel.escalations as f64);
    m.value("reliability.duplicates", rel.duplicates as f64);
    m.value(
        "reliability.collect_ns_per_record",
        probes.collect_ns_per_record,
    );
    m.median_of(
        "netsim.channel_ns_per_record",
        &per_rep(&|l| l.ns_per_unit(Layer::NetsimChannel)),
    );
    m.value(
        "core.run_omniwindow_ns_per_pkt",
        probes.run_omniwindow_ns_per_pkt,
    );
    // The tails of the end-to-end latencies, from the untraced repetitions:
    // too unsteady on this box to carry a bound.
    m.percentile_of(
        "window_ready_ms_p95",
        &ms(&pooled(untraced, |r| &r.ready_ns)),
        95.0,
    );
    m.percentile_of(
        "query_us_p95",
        &us(&pooled(untraced, |r| &r.query_ns)),
        95.0,
    );
    m.median_of("harness.glue_share", &per_rep(&|l| l.share(Layer::Rep)));
    m.value(
        "harness.trace_overhead_pct",
        (wall(traced) / wall(untraced) - 1.0) * 100.0,
    );
    m.0
}

/// Counts the issue requires to repeat exactly across repetitions.
fn exact_counts(o: &RepOutput) -> (u64, u64, u64, u64, ReliabilityMetrics) {
    (
        o.update_allocs,
        o.update_alloc_bytes,
        o.wire_bytes,
        o.records,
        o.reliability,
    )
}

fn ledger_note(l: &RepLedger) -> String {
    let mut s = format!(
        "# ledger rep {} wall_ms {:.3}",
        l.rep,
        l.wall_ns as f64 / 1e6
    );
    for layer in Layer::ALL {
        if l.self_ns(layer) > 0 {
            s.push_str(&format!(" {} {:.2}%", layer.name(), l.share(layer) * 100.0));
        }
    }
    s.push_str(&format!(" sum {:.2}%", l.share_sum() * 100.0));
    s
}

/// Repeat `rep(i)` until `seconds` have passed, [`MIN_REPS`] times at least.
fn repeat_for(seconds: f64, mut rep: impl FnMut(u32)) {
    let start = Instant::now();
    let mut done = 0u32;
    let mut longest = 0.0f64;
    while (done as usize) < MIN_REPS || start.elapsed().as_secs_f64() + longest <= seconds {
        let t = Instant::now();
        rep(done);
        longest = longest.max(t.elapsed().as_secs_f64());
        done += 1;
    }
}

pub fn run(args: &RunArgs) -> RunReport {
    let w = &args.workload;
    let setup = set_up(w, args.seed);
    let packets: &[Packet] = &setup.trace.packets;
    let boundaries = &setup.plan.boundaries;
    let mut verdict = Verdict::default();
    let mut notes = vec![format!(
        "# workload {} seed {} trace {} packets {} subwindows {} records {}",
        w.name,
        args.seed,
        u8::from(args.traced),
        packets.len(),
        setup.plan.batches.len(),
        setup.plan.batches.iter().map(Vec::len).sum::<usize>(),
    )];

    let truth: usize = setup.plan.truth.values().map(|t| t.len()).sum();
    notes.push(format!(
        "# queried_windows {} true_heavy_flows_per_window {:.1}",
        setup.plan.truth.len(),
        truth as f64 / setup.plan.truth.len().max(1) as f64
    ));

    // Second warm-up (discovery was the first): the heap reaches its
    // steady size before anything is timed.
    let mut off = Recorder::new(false);
    let warm = run_rep(w, args.seed, packets, boundaries, &mut off, 0);
    verdict.check(w, &setup, warm);

    let mut untraced: Vec<RepOutput> = Vec::new();
    let (metrics, spans) = if args.traced {
        // Traced and untraced repetitions alternate, so the overhead of
        // tracing is a same-process comparison.
        let mut on = Recorder::new(true);
        let mut traced: Vec<RepOutput> = Vec::new();
        repeat_for(args.seconds * TRACED_REP_SHARE, |i| {
            let out = run_rep(w, args.seed, packets, boundaries, &mut off, i);
            untraced.push(verdict.check(w, &setup, out));
            let out = run_rep(w, args.seed, packets, boundaries, &mut on, i);
            traced.push(verdict.check(w, &setup, out));
        });
        let ledgers = spans::ledgers(on.spans());
        verdict.attempted += ledgers.len() as u64 + 1;
        for l in &ledgers {
            notes.push(ledger_note(l));
            if (l.share_sum() - 1.0).abs() > LEDGER_TOLERANCE {
                verdict.failed += 1;
            }
        }
        if traced
            .windows(2)
            .any(|p| exact_counts(&p[0]) != exact_counts(&p[1]))
        {
            eprintln!(
                "{}: exact counts differ between repetitions: {:?}",
                w.name,
                traced.iter().map(exact_counts).collect::<Vec<_>>()
            );
            verdict.failed += 1;
        }
        let probes = probes::run(w, args.seed, packets, &setup.plan);
        let metrics = per_layer_metrics(&setup, &traced, &untraced, on.spans(), &ledgers, &probes);
        (metrics, on.into_spans())
    } else {
        repeat_for(args.seconds, |i| {
            let out = run_rep(w, args.seed, packets, boundaries, &mut off, i);
            untraced.push(verdict.check(w, &setup, out));
        });
        let samples = untraced.iter().map(|r| r.ready_ns.len()).sum::<usize>();
        notes.push(format!(
            "# rep_wall_ms {}",
            untraced
                .iter()
                .map(|r| format!("{:.1}", r.wall_ns as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        notes.push(format!(
            "# reps {} query_samples {samples} highest_supported_percentile {}",
            untraced.len(),
            highest_supported_percentile(samples).map_or("none".to_string(), |p| p.to_string()),
        ));
        (end_to_end_metrics(&setup, &untraced, &verdict), Vec::new())
    };
    RunReport {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        notes,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// The driver reads exactly the table's metrics from each kind of run.
    #[test]
    fn each_run_reports_exactly_its_table() {
        let mut args = RunArgs {
            workload: WORKLOADS[3].scaled_down(200),
            seed: 1,
            seconds: 0.0,
            traced: false,
        };
        let names = |r: &RunReport| r.metrics.iter().map(|m| m.name).collect::<Vec<_>>();
        let untraced = run(&args);
        assert!(untraced.correct());
        assert_eq!(
            names(&untraced),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        args.traced = true;
        let traced = run(&args);
        assert!(traced.correct());
        assert_eq!(
            names(&traced),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!(!traced.spans.is_empty());
    }
}
