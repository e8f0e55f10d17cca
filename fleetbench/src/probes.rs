//! Layer probes the workloads share: timed calls into one layer's public
//! functions on the workload's own fixture, each under a span named
//! `probe.*`.

use crate::harness::{counted, LayerErrors, Metrics};
use crate::machine::ScratchFile;
use crate::stats::median;
use crate::trace::Tracer;
use chaff_core::detector::Detection;
use chaff_core::metrics::{mean_detection_accuracy, mean_tracking_accuracy_columnar};
use chaff_core::strategy::OnlineChaffController;
use chaff_markov::{CellGrid, CellId, MarkovChain};
use chaff_sim::fleet::{
    FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetOutcome, FleetSimulation,
};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_store::FleetStoreReader;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Draws per `markov.step_ns` probe.
const MARKOV_DRAWS: usize = 2_000_000;

/// Controller calls per `core.chaff_next_ns.*` probe.
const CHAFF_CALLS: usize = 200_000;

/// Repetitions of each timed probe; the metric is their median.
const PROBE_REPS: usize = 5;

fn time_ns(f: impl FnOnce()) -> f64 {
    let began = Instant::now();
    f();
    began.elapsed().as_nanos() as f64
}

/// `markov.step_ns`: one `MarkovChain::step` draw, round-robin over the
/// workload's chains.
pub fn markov_step_ns(chains: &[&MarkovChain], seed: u64, tracer: &mut Tracer) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells: Vec<CellId> = chains
        .iter()
        .map(|c| c.initial().sample(&mut rng))
        .collect();
    let per_rep = MARKOV_DRAWS / PROBE_REPS;
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            tracer.span("probe.markov_step", || {
                time_ns(|| {
                    for k in 0..per_rep {
                        let i = k % chains.len();
                        cells[i] = chains[i].step(cells[i], &mut rng);
                    }
                }) / per_rep as f64
            })
        })
        .collect();
    black_box(&cells);
    median(&samples).expect("PROBE_REPS > 0")
}

/// `core.chaff_next_ns.{im,cml,mo}`: one `OnlineChaffController::next`
/// call of each strategy's controller, following a user that walks
/// `user_chain`. `controller(s)` builds the controller the workload
/// would give strategy `s`.
pub fn chaff_next_ns<'a>(
    controller: impl Fn(FleetChaffStrategy) -> Box<dyn OnlineChaffController + 'a>,
    user_chain: &MarkovChain,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut user = user_chain.initial().sample(&mut rng);
    let path: Vec<CellId> = (0..CHAFF_CALLS)
        .map(|_| {
            user = user_chain.step(user, &mut rng);
            user
        })
        .collect();
    let per_rep = CHAFF_CALLS / PROBE_REPS;
    for (strategy, name) in [
        (FleetChaffStrategy::Im, "core.chaff_next_ns.im"),
        (FleetChaffStrategy::Cml, "core.chaff_next_ns.cml"),
        (FleetChaffStrategy::Mo, "core.chaff_next_ns.mo"),
    ] {
        let mut c = controller(strategy);
        // The launch slot takes a different branch; keep it untimed.
        black_box(c.next(path[0], &[], &mut rng));
        let samples: Vec<f64> = path
            .chunks(per_rep)
            .map(|chunk| {
                tracer.span("probe.chaff_next", || {
                    time_ns(|| {
                        for &cell in chunk {
                            black_box(c.next(cell, &[], &mut rng));
                        }
                    }) / chunk.len() as f64
                })
            })
            .collect();
        out.set(name, median(&samples).expect("CHAFF_CALLS > 0"), "ns");
    }
}

/// `sim.draw_ms`, `sim.chaff_ms` and `sim.anonymize_ms`: three batch
/// runs of the workload's fleet that differ in one stage each, run
/// interleaved. Returns the best full `run_chaffed` time (ms).
pub fn sim_split<'a>(
    make: impl Fn(FleetConfig) -> FleetSimulation<'a>,
    config: &FleetConfig,
    policy: &FleetChaffPolicy,
    reps: usize,
    tracer: &mut Tracer,
    errors: &mut LayerErrors,
    out: &mut Metrics,
) -> Result<f64, String> {
    let plain = config.clone().without_anonymization();
    for _ in 0..reps {
        let id = tracer.enter("probe.run_natural_plain");
        let natural = make(plain.clone()).run_natural();
        tracer.exit(id);
        counted(natural, &mut errors.sim, "run_natural")?;
        let id = tracer.enter("probe.run_chaffed_plain");
        let chaffed = make(plain.clone()).run_chaffed(policy);
        tracer.exit(id);
        counted(chaffed, &mut errors.sim, "run_chaffed (plain)")?;
        let id = tracer.enter("probe.run_chaffed");
        let full = make(config.clone()).run_chaffed(policy);
        tracer.exit(id);
        counted(full, &mut errors.sim, "run_chaffed")?;
    }
    // Best of the reps: a run's time swings with allocator and
    // page-fault state far more than the stage being isolated costs, so
    // a difference of medians can come out negative.
    let best = |name| {
        let ms = tracer.durations_ms(name);
        ms.into_iter()
            .reduce(f64::min)
            .ok_or_else(|| format!("no span named {name}"))
    };
    let draw = best("probe.run_natural_plain")?;
    let chaffed = best("probe.run_chaffed_plain")?;
    let full = best("probe.run_chaffed")?;
    out.set("sim.draw_ms", draw, "ms");
    out.set("sim.chaff_ms", chaffed - draw, "ms");
    out.set("sim.anonymize_ms", full - chaffed, "ms");
    Ok(full)
}

/// Steps `engine` `steps` times, each under a span named `name`.
pub fn step_engine(
    engine: &mut StreamingFleetEngine<'_>,
    steps: usize,
    name: &'static str,
    tracer: &mut Tracer,
    errors: &mut LayerErrors,
) -> Result<(), String> {
    for _ in 0..steps {
        let id = tracer.enter(name);
        let step = engine.step();
        tracer.exit(id);
        counted(step, &mut errors.sim, "step")?.ok_or("engine horizon exhausted")?;
    }
    Ok(())
}

/// The two accuracy calls of the batch pipeline, under `name`.
pub fn accuracy(
    grid: &CellGrid,
    users: &[usize],
    detections: &[Detection],
    num_cells: usize,
    name: &'static str,
    tracer: &mut Tracer,
) -> (f64, f64) {
    tracer.span(name, || {
        (
            mean_tracking_accuracy_columnar(grid, users, detections, num_cells),
            mean_detection_accuracy(grid.num_trajectories(), users, detections),
        )
    })
}

/// `store.write_ms`/`store.read_ms` and their MiB/s: checkpoint
/// `outcome` to a fresh store file, then open it and drain every slot
/// row without detecting. Sets the read metrics, and the write metrics
/// unless `write_from_ops` names op spans that time the write instead.
pub fn store_roundtrip(
    outcome: &FleetOutcome,
    reps: usize,
    write_from_ops: Option<&str>,
    tracer: &mut Tracer,
    errors: &mut LayerErrors,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut bytes = 0u64;
    for _ in 0..reps {
        let file = ScratchFile::new("probe").map_err(|e| format!("scratch file: {e}"))?;
        let id = tracer.enter("probe.store_write");
        let written = outcome.checkpoint(file.path());
        tracer.exit(id);
        counted(written, &mut errors.store, "checkpoint")?;
        bytes = std::fs::metadata(file.path())
            .map_err(|e| e.to_string())?
            .len();
        let id = tracer.enter("probe.store_read");
        let read = drain(file.path());
        tracer.exit(id);
        let rows = counted(read, &mut errors.store, "read back")?;
        if rows != outcome.observed.horizon() {
            return Err(format!(
                "read {rows} rows of {}",
                outcome.observed.horizon()
            ));
        }
    }
    let write_ms = match write_from_ops {
        Some(name) => tracer.op_median_ms(name),
        None => tracer.median_ms("probe.store_write"),
    }?;
    let read_ms = tracer.median_ms("probe.store_read")?;
    let mib = bytes as f64 / (1024.0 * 1024.0);
    out.set("store.write_ms", write_ms, "ms");
    out.set("store.write_mb_per_s", mib / (write_ms / 1e3), "MiB/s");
    out.set("store.read_ms", read_ms, "ms");
    out.set("store.read_mb_per_s", mib / (read_ms / 1e3), "MiB/s");
    Ok(())
}

/// Opens a store file and drains its slot rows; returns the row count.
fn drain(path: &std::path::Path) -> chaff_store::Result<usize> {
    let mut reader = FleetStoreReader::open(path)?;
    let mut stream = reader.stream_slots();
    let mut rows = 0;
    while let Some(row) = stream.next_row()? {
        black_box(row);
        rows += 1;
    }
    Ok(rows)
}

/// Checks that an accuracy is a probability.
pub fn check_probability(what: &str, value: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{what} = {value} lies outside [0, 1]"))
    }
}
