//! Checks of the benchmark itself, at tiny scale.

use lbica_perfbench::metrics::{per_layer_sample, MetricDef, END_TO_END, PER_LAYER};
use lbica_perfbench::pass;
use lbica_perfbench::spans::{NoSpans, Recorder};
use lbica_perfbench::stepwise::{trace_cell, LayerCounts};
use lbica_perfbench::workload::{setup, split_at, Inputs, Scale, Workload};
use lbica_perfbench::{run, RunConfig, MIN_SPAN_COVERAGE_PCT};
use lbica_sim::{SimArena, Simulation};

fn inputs(workload: Workload) -> Inputs {
    Inputs::generate(workload, Scale::tiny(), 7)
}

/// The `"name"`, `"unit"` and `"better"` fields of the entries of one array
/// of `BENCHMARK.json`, in order.
fn listed(array: &str) -> Vec<[Option<String>; 3]> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{array}\": [")).expect("array present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closed")];
    let field = |obj: &str, key: &str| {
        let k = format!("\"{key}\": \"");
        obj.find(&k).map(|i| {
            let rest = &obj[i + k.len()..];
            rest[..rest.find('"').expect("closed string")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|obj| [field(obj, "name"), field(obj, "unit"), field(obj, "better")])
        .collect()
}

fn assert_listed(array: &str, defs: &[MetricDef]) {
    let listed = listed(array);
    let printed: Vec<[Option<String>; 3]> = defs
        .iter()
        .map(|d| [d.name, d.unit, d.better.label()].map(|f| Some(f.to_string())))
        .collect();
    assert_eq!(listed, printed, "`{array}` of BENCHMARK.json and the printed metrics differ");
}

#[test]
fn printed_metric_names_and_units_match_benchmark_json() {
    assert_listed("end_to_end", &END_TO_END);
    assert_listed("per_layer", &PER_LAYER);
    let workloads: Vec<Option<String>> =
        listed("workloads").into_iter().map(|[name, ..]| name).collect();
    let ours: Vec<Option<String>> =
        Workload::LISTED.iter().map(|w| Some(w.name().to_string())).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn traced_replay_equals_run_in_on_flat_and_tiered_cells() {
    for workload in [Workload::Paper, Workload::ZipfTier2] {
        let cells: Vec<_> = setup(&inputs(workload), &mut NoSpans).matrix.cells().collect();
        let mut traced_arena = SimArena::new();
        let mut arena = SimArena::new();
        for scenario in &cells {
            let mut controller = scenario.controller().build();
            let expected = Simulation::new(
                *scenario.config(),
                scenario.workload().clone(),
                scenario.stream_seed(),
            )
            .run_in(controller.as_mut(), &mut arena);
            let mut recorder = Recorder::new();
            let traced = trace_cell(
                scenario,
                &mut traced_arena,
                None,
                &mut recorder,
                &mut LayerCounts::default(),
            )
            .expect("unsplit cells cannot fail");
            assert_eq!(traced.report, expected, "{}", scenario.id());
            assert_eq!(traced.records, expected.app_completed, "{}", scenario.id());
        }
    }
}

#[test]
fn traced_checkpointed_replay_equals_the_unsplit_run() {
    let cells: Vec<_> = setup(&inputs(Workload::ReplayCkpt), &mut NoSpans).matrix.cells().collect();
    for scenario in &cells {
        let traced = trace_cell(
            scenario,
            &mut SimArena::new(),
            Some(split_at(scenario)),
            &mut NoSpans,
            &mut LayerCounts::default(),
        )
        .expect("the checkpoint round-trips");
        assert_eq!(traced.report, scenario.run(), "{}", scenario.id());
    }
}

#[test]
fn setup_span_holds_expansion_allocation_and_import() {
    for workload in Workload::ALL {
        let inputs = inputs(workload);
        let traced = pass::traced(&inputs);
        let spans = traced.spans.spans();
        let setup_id = spans.iter().position(|s| s.name == "setup").expect("a setup span") as u32;
        let children: Vec<&str> =
            spans.iter().filter(|s| s.parent == Some(setup_id)).map(|s| s.name).collect();
        let count = |name: &str| children.iter().filter(|&&n| n == name).count();
        assert_eq!(count("lab.expand"), 1, "{}", workload.name());
        // One config, one allocation; split `replay-ckpt` cells allocate
        // their own systems.
        let allocs = usize::from(workload != Workload::ReplayCkpt);
        assert_eq!(count("sim.alloc"), allocs, "{}", workload.name());
        let captures = inputs.captures.len();
        assert_eq!(count("trace.import"), captures, "{}", workload.name());
        assert_eq!(count("trace.decode"), captures, "{}", workload.name());
        assert_eq!(captures > 0, workload == Workload::ReplayCkpt);
        // Set-up ends before the first cell simulates anything.
        let setup_end = spans[setup_id as usize].end_ns;
        let first_cell = spans.iter().find(|s| s.name == "cell").expect("cells ran");
        assert!(first_cell.start_ns >= setup_end, "{}", workload.name());
    }
}

#[test]
fn plain_stepwise_pass_does_the_traced_pass_work_without_probes() {
    for workload in Workload::ALL {
        let inputs = inputs(workload);
        let traced = pass::traced(&inputs);
        let plain = pass::plain(&inputs);
        assert_eq!(plain.reports, traced.reports, "{}", workload.name());
        assert_eq!(plain.records, traced.records, "{}", workload.name());
        let probes =
            LayerCounts { probe_cache_accesses: 0, probe_tier_accesses: 0, ..traced.counts };
        assert_eq!(plain.counts, probes, "{}", workload.name());
        assert!(traced.counts.probe_cache_accesses + traced.counts.probe_tier_accesses > 0);
    }
}

#[test]
fn span_coverage_stays_within_the_bound() {
    for workload in Workload::ALL {
        let inputs = inputs(workload);
        let traced = pass::traced(&inputs);
        let sample = per_layer_sample(&inputs, &traced, 1.0);
        let at = |name: &str| sample[PER_LAYER.iter().position(|d| d.name == name).unwrap()];
        let coverage = at("bench.span_coverage_pct");
        assert!(
            (MIN_SPAN_COVERAGE_PCT..=100.0).contains(&coverage),
            "{}: spans cover {coverage:.2}% of the traced pass",
            workload.name()
        );
    }
}

#[test]
fn tiny_runs_pass_the_gate_and_confirm_the_layer_predictions() {
    for workload in Workload::ALL {
        let outcome = run(&RunConfig {
            workload,
            scale: Scale::tiny(),
            seed: 3,
            seconds: 0.05,
            trace: true,
            out_dir: None,
        })
        .expect("no output directory to write");
        assert_eq!(outcome.gate.failed, 0, "{}: {:?}", workload.name(), outcome.gate.failures);
        assert!(outcome.gate.attempted > 0);
        let at = |name: &str| outcome.value(name).expect("metric reported");
        let tier_work = at("tier.promotions") + at("tier.demotions") + at("tier.l1_hits");
        assert_eq!(tier_work > 0.0, workload == Workload::ZipfTier2, "{}", workload.name());
        assert_eq!(at("tier.access_ns") > 0.0, workload == Workload::ZipfTier2);
        assert_eq!(at("cache.accesses") > 0.0, workload != Workload::ZipfTier2);
        assert_eq!(at("trace.import_s") > 0.0, workload == Workload::ReplayCkpt);
        assert_eq!(at("sim.ckpt_bytes") > 0.0, workload == Workload::ReplayCkpt);
        assert_eq!(at("sim.events"), at("sim.events").round());
    }
}

#[test]
fn end_to_end_run_reports_every_metric_nonzero() {
    let outcome = run(&RunConfig {
        workload: Workload::Paper,
        scale: Scale::tiny(),
        seed: 3,
        seconds: 0.05,
        trace: false,
        out_dir: None,
    })
    .expect("no output directory to write");
    assert_eq!(outcome.gate.failed, 0, "{:?}", outcome.gate.failures);
    for (def, value) in outcome.defs.iter().zip(&outcome.values) {
        assert!(value.is_finite() && *value != 0.0, "{} = {value}", def.name);
    }
}

#[test]
fn untraced_pass_stages_cover_its_wall_time() {
    for workload in Workload::ALL {
        let times = pass::untraced(&inputs(workload)).times;
        let keys = setup(&inputs(workload), &mut NoSpans).matrix.len();
        assert_eq!(times.cells_s.len(), keys, "{}", workload.name());
        let stages = times.setup_s + times.cells_s.iter().sum::<f64>() + times.tail_s;
        assert!(
            (stages - times.wall_s).abs() < 1e-6,
            "{}: {stages} vs {}",
            workload.name(),
            times.wall_s
        );
    }
}
