//! One pass of a workload: set-up, every cell once, aggregation and
//! rendering. The untraced pass is what a user runs; the stepwise pass
//! replays the same cells through the simulator's stepwise API, with spans
//! (traced) or without (plain, the tracing overhead's baseline).

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lbica_lab::{Aggregator, CsvSink, JsonSink, SweepExecutor};
use lbica_sim::SimulationReport;

use crate::spans::{NoSpans, Recorder, Spans};
use crate::stepwise::{probe_cache, trace_cell, LayerCounts};
use crate::workload::{setup, split_at, Inputs, Prepared, Workload};

/// A cell's report, or why the cell produced none.
pub type CellReport = Result<SimulationReport, String>;

/// Host times of one untraced pass, split into consecutive stages:
/// set-up, one stage per cell, then aggregation and rendering.
#[derive(Debug, Clone)]
pub struct PassTimes {
    /// Set-up through rendered CSV/JSON, s.
    pub wall_s: f64,
    /// The set-up stage, s.
    pub setup_s: f64,
    /// One stage per cell, in the order the cells reported: from the end
    /// of set-up (or the previous cell's report) to this cell's report, s.
    pub cells_s: Vec<f64>,
    /// From the last cell's report through the rendered CSV/JSON, s.
    pub tail_s: f64,
    /// Simulator events processed by the pass's cells.
    pub events: u64,
}

/// The untraced pass.
#[derive(Debug)]
pub struct Untraced {
    /// Host times.
    pub times: PassTimes,
    /// Reports in cell order.
    pub reports: Vec<CellReport>,
}

/// Runs `inputs` the way a user would: `SweepExecutor` → `Aggregator` →
/// `CsvSink`/`JsonSink`, one worker thread. `replay-ckpt` cells run through
/// `Scenario::run_checkpointed` instead, split at half their intervals.
/// Either way cells are built one at a time from the matrix as they run.
pub fn untraced(inputs: &Inputs) -> Untraced {
    let start = Instant::now();
    let Prepared { matrix, arena } = setup(inputs, &mut NoSpans);
    let setup_end = Instant::now();
    let setup_s = setup_end.duration_since(start).as_secs_f64();
    // The executor allocates its own systems; see `setup`.
    drop(arena);

    let aggregator = Mutex::new(Aggregator::new());
    let slots: Mutex<Vec<Option<CellReport>>> = Mutex::new(vec![None; matrix.len()]);
    let reported = Mutex::new(Vec::with_capacity(matrix.len()));
    let store = |index: usize, report: CellReport| {
        reported.lock().expect("no cell handler panics").push(Instant::now());
        slots.lock().expect("no cell handler panics")[index] = Some(report);
    };
    if inputs.workload == Workload::ReplayCkpt {
        for index in 0..matrix.len() {
            let scenario = matrix.cell(index).expect("index within the matrix");
            let report = scenario.run_checkpointed(split_at(&scenario)).map_err(|e| e.to_string());
            if let Ok(report) = &report {
                aggregator.lock().expect("no cell handler panics").observe(&scenario, report);
            }
            store(index, report);
        }
    } else {
        SweepExecutor::serial().for_each(&matrix, |index, scenario, report| {
            aggregator.lock().expect("no cell handler panics").observe(scenario, &report);
            store(index, Ok(report));
        });
    }
    let reported = reported.into_inner().expect("no cell handler panics");
    let run_end = reported.last().copied().unwrap_or(setup_end);

    let summary = aggregator.into_inner().expect("no cell handler panics").summary();
    black_box((CsvSink::render(&summary), JsonSink::render(&summary)));
    let end = Instant::now();
    let wall_s = end.duration_since(start).as_secs_f64();

    let reports: Vec<CellReport> = slots
        .into_inner()
        .expect("no cell handler panics")
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err("the executor skipped the cell".to_string())))
        .collect();
    let events = reports.iter().flatten().map(|r| r.perf.events_processed).sum();
    let cells_s = std::iter::once(setup_end)
        .chain(reported.iter().copied())
        .zip(&reported)
        .map(|(from, to)| to.duration_since(from).as_secs_f64())
        .collect();
    let tail_s = end.duration_since(run_end).as_secs_f64();
    Untraced { times: PassTimes { wall_s, setup_s, cells_s, tail_s, events }, reports }
}

/// A stepwise pass.
#[derive(Debug)]
pub struct Stepwise<S> {
    /// The pass's spans; with a [`Recorder`], the root is `pass`.
    pub spans: S,
    /// Work counts read from the simulated systems.
    pub counts: LayerCounts,
    /// Reports in cell order.
    pub reports: Vec<CellReport>,
    /// Records generated (or replayed) per cell, in cell order.
    pub records: Vec<u64>,
    /// Host time of the pass, cache probes excluded, s.
    pub wall_s: f64,
}

/// The traced pass: stepwise, under spans, with cache probes.
pub type Traced = Stepwise<Recorder>;

/// Replays the cells of `inputs` stepwise under spans, then aggregates and
/// renders like the untraced pass. The first cell of each (workload,
/// config, seed) group, whose records its other controllers share, is
/// followed by a cache probe (see [`probe_cache`]) that is kept out of the
/// pass's wall time.
pub fn traced(inputs: &Inputs) -> Traced {
    stepwise(inputs, Recorder::new(), true)
}

/// The same stepwise pass as [`traced`] without spans or probes: the
/// baseline its tracing overhead is measured against.
pub fn plain(inputs: &Inputs) -> Stepwise<NoSpans> {
    stepwise(inputs, NoSpans, false)
}

fn stepwise<S: Spans>(inputs: &Inputs, mut spans: S, probe: bool) -> Stepwise<S> {
    let start = Instant::now();
    let mut probe_time = Duration::ZERO;
    let mut counts = LayerCounts::default();
    spans.enter("pass");
    let Prepared { matrix, mut arena } = setup(inputs, &mut spans);
    let mut aggregator = Aggregator::new();
    let mut reports = Vec::with_capacity(matrix.len());
    let mut records = Vec::with_capacity(matrix.len());
    let mut probed = HashSet::new();
    for index in 0..matrix.len() {
        spans.enter("lab.expand");
        let scenario = matrix.cell(index).expect("index within the matrix");
        spans.exit();
        let split = (inputs.workload == Workload::ReplayCkpt).then(|| split_at(&scenario));
        match trace_cell(&scenario, &mut arena, split, &mut spans, &mut counts) {
            Ok(cell) => {
                spans.enter("lab.aggregate");
                aggregator.observe(&scenario, &cell.report);
                spans.exit();
                let group = (
                    scenario.workload().name().to_string(),
                    scenario.config_label().to_string(),
                    scenario.seed(),
                );
                if probe && probed.insert(group) {
                    let probe_start = Instant::now();
                    probe_cache(&scenario, &mut spans, &mut counts);
                    probe_time += probe_start.elapsed();
                }
                records.push(cell.records);
                reports.push(Ok(cell.report));
            }
            Err(e) => {
                records.push(0);
                reports.push(Err(e));
            }
        }
    }
    spans.enter("lab.aggregate");
    let summary = aggregator.summary();
    spans.exit();
    spans.enter("lab.render");
    black_box((CsvSink::render(&summary), JsonSink::render(&summary)));
    spans.exit();
    spans.exit();
    let wall_s = (start.elapsed() - probe_time).as_secs_f64();
    Stepwise { spans, counts, reports, records, wall_s }
}
