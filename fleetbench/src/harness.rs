//! The closed-loop runner every workload shares: repeated set-up, a
//! timed op loop with one caller, and the assembly of end-to-end and
//! per-layer metrics.

use crate::machine::{peak_rss_mb, stamp_json, OUT_DIR};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::fmt::Display;
use std::path::Path;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Timed ops a run needs at least, so that ten samples lie beyond p90.
const MIN_OPS: usize = 100;

/// A run stops adding ops past this many seconds of timing, whatever
/// [`MIN_OPS`] asks for, so it always ends well within three minutes.
const MAX_LOOP_SECONDS: f64 = 120.0;

/// The end-to-end metrics, printed by an untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("user_slots_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ops_ratio", "ratio"),
];

/// The per-layer metrics, printed by a traced run. Every workload
/// reports every one of them; see `README.md` for what each measures on
/// each workload.
const PER_LAYER: [(&str, &str); 33] = [
    ("markov.step_ns", "ns"),
    ("core.chaff_next_ns.im", "ns"),
    ("core.chaff_next_ns.cml", "ns"),
    ("core.chaff_next_ns.mo", "ns"),
    ("sim.run_chaffed_ms", "ms"),
    ("sim.draw_ms", "ms"),
    ("sim.chaff_ms", "ms"),
    ("sim.anonymize_ms", "ms"),
    ("sim.step_ms", "ms"),
    ("sim.placement_ms", "ms"),
    ("sim.spills_per_slot", "count"),
    ("sim.migrations_per_user_slot", "ratio"),
    ("core.detect_ms", "ms"),
    ("core.detect_ns_per_service_slot", "ns"),
    ("core.push_slot_ms", "ms"),
    ("core.accuracy_ms", "ms"),
    ("core.tie_set_mean", "count"),
    ("core.pool_threads", "count"),
    ("store.write_ms", "ms"),
    ("store.write_mb_per_s", "MiB/s"),
    ("store.read_ms", "ms"),
    ("store.read_mb_per_s", "MiB/s"),
    ("markov.errors", "count"),
    ("core.errors", "count"),
    ("sim.errors", "count"),
    ("store.errors", "count"),
    ("trace.untraced_user_slots_per_s", "1/s"),
    ("trace.traced_user_slots_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.spans", "count"),
];

/// `Err` returns per layer, the `<layer>.errors` metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerErrors {
    pub markov: u64,
    pub core: u64,
    pub sim: u64,
    pub store: u64,
}

/// Converts a layer's `Err` into the op's failure message, counting it
/// against that layer.
pub fn counted<T, E: Display>(
    result: Result<T, E>,
    counter: &mut u64,
    what: &str,
) -> Result<T, String> {
    result.map_err(|e| {
        *counter += 1;
        format!("{what}: {e}")
    })
}

/// Named metric values in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// Checks that exactly the metrics of `spec` are present, each with
    /// its unit and a finite value.
    fn check(&self, spec: &[(&str, &str)]) -> Result<(), String> {
        for (name, unit) in spec {
            match self.0.iter().find(|(n, _, _)| n == name) {
                None => return Err(format!("metric {name} was not measured")),
                Some((_, v, u)) if u != unit || !v.is_finite() => {
                    return Err(format!(
                        "metric {name} = {v} {u} (expected a finite value in {unit})"
                    ))
                }
                _ => {}
            }
        }
        if let Some((extra, _, _)) = self
            .0
            .iter()
            .find(|(n, _, _)| !spec.iter().any(|s| s.0 == n))
        {
            return Err(format!(
                "metric {extra} is not in the benchmark's metric list"
            ));
        }
        Ok(())
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// One benchmark workload: a fixture plus an op the loop repeats.
pub trait Workload: Sized {
    /// Builds the fixture and runs the warm-up: everything `setup_s`
    /// times.
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String>;

    /// One-off output checks that are neither set-up nor timed.
    fn verify(&mut self, tracer: &mut Tracer) -> Result<(), String>;

    /// User-slots one op completes (`N ×` slots per op).
    fn user_slots_per_op(&self) -> usize;

    /// Untimed preparation for op `i`.
    fn before_op(&mut self, _i: u64) -> Result<(), String> {
        Ok(())
    }

    /// Runs op `i` and checks its outputs.
    fn op(&mut self, i: u64, tracer: &mut Tracer) -> Result<(), String>;

    /// Untimed work after op `i` (traced runs feed their twins here).
    fn after_op(&mut self, _i: u64, _tracer: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// After the traced loop: fills the workload-specific per-layer
    /// metrics, running whatever probes they need.
    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) -> Result<(), String>;

    /// `Err` counts per layer so far.
    fn errors(&self) -> LayerErrors;

    /// Fixture shape for the stamp: table and grid bytes and the like.
    fn shape(&self) -> Vec<(&'static str, u64)>;
}

/// What one timed loop measured.
#[derive(Debug, Default)]
struct LoopStats {
    op_ms: Vec<f64>,
    failed: usize,
    user_slots: usize,
}

impl LoopStats {
    fn user_slots_per_s(&self) -> f64 {
        self.user_slots as f64 / (self.op_ms.iter().sum::<f64>() / 1e3)
    }
}

fn run_loop<W: Workload>(
    w: &mut W,
    tracer: &mut Tracer,
    seconds: f64,
    min_ops: usize,
    next_op: &mut u64,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= seconds && stats.op_ms.len() >= min_ops;
        if enough || elapsed >= MAX_LOOP_SECONDS {
            break;
        }
        let i = *next_op;
        *next_op += 1;
        let prepared = w.before_op(i);
        tracer.set_op(Some(i));
        let began = Instant::now();
        let span = tracer.enter("op");
        let outcome = prepared.and_then(|()| w.op(i, tracer));
        tracer.exit(span);
        let ms = began.elapsed().as_secs_f64() * 1e3;
        let outcome = outcome.and_then(|()| w.after_op(i, tracer));
        tracer.set_op(None);
        stats.op_ms.push(ms);
        match outcome {
            Ok(()) => stats.user_slots += w.user_slots_per_op(),
            Err(e) => {
                stats.failed += 1;
                eprintln!("op {i} failed: {e}");
            }
        }
    }
    stats
}

/// Command-line settings of one run.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result line's fields.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }

    /// Human-readable lines printed before the result line.
    pub fn summary(&self) -> String {
        let mut lines = vec![format!(
            "# attempted {} failed {} failed_ops_ratio {} correct {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct
        )];
        for (name, value, unit) in &self.metrics.0 {
            lines.push(format!("# {name:<34} {value:>16.6} {unit}"));
        }
        lines.join("\n")
    }
}

/// Runs workload `W` as `args` asks and returns its result.
pub fn run<W: Workload>(args: &RunArgs) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(args.trace);
    // Set up several times and keep the last fixture; each earlier one
    // is dropped first, so peak memory holds one fixture.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        drop(fixture.take());
        let began = Instant::now();
        let span = tracer.enter("setup");
        let built = W::setup(args.seed, &mut tracer);
        tracer.exit(span);
        fixture = Some(built?);
        setup_s.push(began.elapsed().as_secs_f64());
    }
    let mut w = fixture.expect("SETUP_REPS > 0");
    let span = tracer.enter("verify");
    let verified = w.verify(&mut tracer);
    tracer.exit(span);
    if let Err(e) = &verified {
        eprintln!("verification failed: {e}");
    }
    println!("{}", stamp_json(&args.workload, args.seed, &w.shape()));

    let mut next_op = 0u64;
    let mut metrics = Metrics::default();
    let (attempted, failed) = if !args.trace {
        let stats = run_loop(
            &mut w,
            &mut Tracer::new(false),
            args.seconds,
            MIN_OPS,
            &mut next_op,
        );
        let p50 = percentile(&stats.op_ms, 50.0);
        let p90 = percentile(&stats.op_ms, 90.0);
        let (Some(p50), Some(p90)) = (p50, p90) else {
            return Err(format!(
                "{} ops are too few to support op_ms_p90; the op is too slow for this run length",
                stats.op_ms.len()
            ));
        };
        let attempted = stats.op_ms.len();
        metrics.set("setup_s", median(&setup_s).expect("SETUP_REPS > 0"), "s");
        metrics.set("user_slots_per_s", stats.user_slots_per_s(), "1/s");
        metrics.set("op_ms_p50", p50, "ms");
        metrics.set("op_ms_p90", p90, "ms");
        metrics.set(
            "peak_rss_mb",
            peak_rss_mb().ok_or("VmHWM unreadable")?,
            "MiB",
        );
        let ok = 1.0 - stats.failed as f64 / attempted as f64;
        metrics.set("ok_ops_ratio", ok, "ratio");
        metrics.check(&END_TO_END)?;
        (attempted, stats.failed)
    } else {
        // Half the run untraced, half traced: the gap between the two
        // throughputs is what tracing costs.
        let half = args.seconds / 2.0;
        let plain = run_loop(&mut w, &mut Tracer::new(false), half, 1, &mut next_op);
        let traced = run_loop(&mut w, &mut tracer, half, 1, &mut next_op);
        let span = tracer.enter("layers");
        let probed = w.layers(&mut tracer, &mut metrics);
        tracer.exit(span);
        probed?;
        let errors = w.errors();
        metrics.set("markov.errors", errors.markov as f64, "count");
        metrics.set("core.errors", errors.core as f64, "count");
        metrics.set("sim.errors", errors.sim as f64, "count");
        metrics.set("store.errors", errors.store as f64, "count");
        metrics.set(
            "core.pool_threads",
            chaff_core::pool::global().threads() as f64,
            "count",
        );
        let (untraced_rate, traced_rate) = (plain.user_slots_per_s(), traced.user_slots_per_s());
        metrics.set("trace.untraced_user_slots_per_s", untraced_rate, "1/s");
        metrics.set("trace.traced_user_slots_per_s", traced_rate, "1/s");
        metrics.set(
            "trace.overhead_pct",
            (untraced_rate / traced_rate - 1.0) * 100.0,
            "%",
        );
        // The op span's self time is what no layer span accounts for.
        let op_ms = tracer.op_median_ms("op")?;
        let unattributed = median(&tracer.self_ms("op")).ok_or("no traced op")?;
        metrics.set("trace.op_ms", op_ms, "ms");
        metrics.set("trace.unattributed_ms", unattributed, "ms");
        metrics.set("trace.unattributed_pct", unattributed / op_ms * 100.0, "%");
        metrics.set("trace.spans", tracer.spans().len() as f64, "count");
        metrics.check(&PER_LAYER)?;
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
        let attempted = plain.op_ms.len() + traced.op_ms.len();
        (attempted, plain.failed + traced.failed)
    };
    Ok(Outcome {
        correct: verified.is_ok() && failed == 0,
        attempted,
        failed,
        metrics,
    })
}
