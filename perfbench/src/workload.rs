//! The three workloads, their seed-derived inputs and their set-up stage.

use lbica_lab::{ControllerKind, Scenario, ScenarioMatrix};
use lbica_sim::{SimArena, SimulationConfig};
use lbica_trace::io::{import_text_to_binary, write_text_trace};
use lbica_trace::workload::{WorkloadScale, WorkloadSpec};

use crate::spans::Spans;

/// The canonical workload seed; `paper` cells at this seed must reproduce
/// the flat cells of the committed `BENCH_sim.json`.
pub const CANONICAL_SEED: u64 = 0x1b1c_a000;

/// Which benchmark workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TPC-C / mail-server / web-server × WB/SIB/LBICA on the flat cache.
    Paper,
    /// Zipfian heavy-tail bursts × WB/LBICA/LBICA-T on a two-level cache.
    ZipfTier2,
    /// Imported write-heavy and mixed captures, every cell split by a
    /// replay checkpoint, × WB/SIB/LBICA on the flat cache.
    ReplayCkpt,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::ZipfTier2, Workload::ReplayCkpt];

    /// The workloads `BENCHMARK.json` lists, in its order. `replay-ckpt` is
    /// left out of it so the listed ones fit longer runs into the time the
    /// benchmark's runs may take together; it runs by hand (see `README.md`).
    pub const LISTED: [Workload; 2] = [Workload::Paper, Workload::ZipfTier2];

    /// The workload's command-line name.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::ZipfTier2 => "zipf-tier2",
            Workload::ReplayCkpt => "replay-ckpt",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    const fn controllers(self) -> &'static [ControllerKind] {
        match self {
            Workload::Paper | Workload::ReplayCkpt => &ControllerKind::ALL,
            Workload::ZipfTier2 => {
                &[ControllerKind::Wb, ControllerKind::Lbica, ControllerKind::LbicaTier]
            }
        }
    }
}

/// Workload and simulator sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Arrival rates, interval lengths and footprints.
    pub workload: WorkloadScale,
    /// The flat configuration.
    pub flat: SimulationConfig,
    /// The two-level configuration.
    pub tiered: SimulationConfig,
    /// Seed replicates per pass on `paper`: every pass runs each cell once
    /// per replicate, so the simulated metrics average over several streams.
    pub paper_replicates: u64,
    /// Seed replicates per pass on `zipf-tier2`, whose cells cost about
    /// three times as much host time.
    pub zipf_replicates: u64,
    /// Seed replicates per pass on `replay-ckpt`, one pair of captures
    /// each. Its captures arrive just above the cache's service rate, where
    /// the backlog, and with it the p99, depends strongly on the arrivals,
    /// so it averages over more of them.
    pub replay_replicates: u64,
}

impl Scale {
    /// The benchmark's scale: the reproduction harness.
    pub fn harness() -> Self {
        Scale {
            workload: WorkloadScale::harness(),
            flat: SimulationConfig::harness(),
            tiered: SimulationConfig::harness_two_tier(),
            paper_replicates: 6,
            zipf_replicates: 3,
            replay_replicates: 12,
        }
    }

    /// A scale small enough for unit tests.
    pub fn tiny() -> Self {
        Scale {
            workload: WorkloadScale::tiny(),
            flat: SimulationConfig::tiny(),
            tiered: SimulationConfig::tiny_two_tier(),
            paper_replicates: 2,
            zipf_replicates: 3,
            replay_replicates: 2,
        }
    }
}

/// A captured trace in text form, as a user would hand it to the importer.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Workload name of the replay.
    pub name: String,
    /// Monitoring-interval length the replay runs with.
    pub interval_us: u64,
    /// The text trace.
    pub text: Vec<u8>,
}

/// Everything a pass needs, generated from the workload seed before
/// anything is timed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Its sizes.
    pub scale: Scale,
    /// The seed axis, one per replicate: `seed`, then hashes of it.
    pub seeds: Vec<u64>,
    /// The text captures (`replay-ckpt` only).
    pub captures: Vec<Capture>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Self {
        let replicates = match workload {
            Workload::Paper => scale.paper_replicates,
            Workload::ZipfTier2 => scale.zipf_replicates,
            Workload::ReplayCkpt => scale.replay_replicates,
        };
        let seeds: Vec<u64> = (0..replicates).map(|r| replicate_seed(seed, r)).collect();
        let mut captures = Vec::new();
        if workload == Workload::ReplayCkpt {
            for (r, &s) in seeds.iter().enumerate() {
                for (label, read_fraction) in [("replay-writes", 0.1), ("replay-mixed", 0.5)] {
                    let source =
                        WorkloadSpec::synthetic_scaled(label, scale.workload, read_fraction);
                    let mut text = Vec::new();
                    write_text_trace(&mut text, &source.generate_all(s))
                        .expect("writing to memory cannot fail");
                    captures.push(Capture {
                        name: format!("{label}-r{r}"),
                        interval_us: source.interval_us(),
                        text,
                    });
                }
            }
        }
        Inputs { workload, scale, seeds, captures }
    }

    /// Bytes of text trace the set-up stage imports.
    pub fn import_bytes(&self) -> u64 {
        self.captures.iter().map(|c| c.text.len() as u64).sum()
    }
}

/// Replicate `r`'s seed: `seed` itself for the first, so the canonical seed
/// reproduces the ledger's cells, and a splitmix64 hash of `(seed, r)` for the
/// rest, so that nearby workload seeds share no inputs.
fn replicate_seed(seed: u64, r: u64) -> u64 {
    if r == 0 {
        return seed;
    }
    let mut h = seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The product of the set-up stage.
#[derive(Debug)]
pub struct Prepared {
    /// The matrix; its cells are built one at a time as they run, as the
    /// sweep executor builds them.
    pub matrix: ScenarioMatrix,
    /// Systems built (allocated and prewarmed) for each distinct config;
    /// empty on `replay-ckpt`, whose split cells build their own.
    pub arena: SimArena,
}

/// The set-up stage: imports and decodes the captures (`replay-ckpt`),
/// builds the matrix, and allocates and prewarms one system per distinct
/// configuration. Everything before the first simulated event.
///
/// The sweep executor allocates its worker's systems inside its first
/// cell, out of reach of a caller, so the allocation here is a stand-in of
/// the same cost for that one (the traced pass does use it). `replay-ckpt`
/// allocates nothing here: `Scenario::run_checkpointed` builds two fresh
/// systems inside every cell, which is run time, not set-up.
///
/// # Panics
///
/// Panics if a capture fails to import or decode: the benchmark generated
/// it, so that is a defect of the program under test.
pub fn setup<S: Spans>(inputs: &Inputs, spans: &mut S) -> Prepared {
    spans.enter("setup");
    let mut replays = Vec::with_capacity(inputs.captures.len());
    for capture in &inputs.captures {
        spans.enter("trace.import");
        let binary = import_text_to_binary(capture.text.as_slice())
            .unwrap_or_else(|e| panic!("import of `{}` failed: {e}", capture.name));
        spans.exit();
        spans.enter("trace.decode");
        let spec =
            WorkloadSpec::replay_from_binary(capture.name.clone(), capture.interval_us, binary)
                .unwrap_or_else(|e| panic!("decode of `{}` failed: {e}", capture.name));
        spans.exit();
        replays.push(spec);
    }

    spans.enter("lab.expand");
    let matrix = matrix(inputs, replays);
    spans.exit();

    let mut arena = SimArena::new();
    let configs = if inputs.workload == Workload::ReplayCkpt { &[][..] } else { matrix.configs() };
    for axis in configs {
        spans.enter("sim.alloc");
        if axis.config.is_tiered() {
            let system = arena.take_tiered(&axis.config);
            arena.store_tiered(axis.config, system);
        } else {
            let system = arena.take_flat(&axis.config);
            arena.store_flat(axis.config, system);
        }
        spans.exit();
    }
    spans.exit();
    Prepared { matrix, arena }
}

fn matrix(inputs: &Inputs, replays: Vec<WorkloadSpec>) -> ScenarioMatrix {
    let scale = inputs.scale;
    let seeds = inputs.seeds.clone();
    let first = seeds[0];
    let matrix = match inputs.workload {
        Workload::Paper => ScenarioMatrix::paper(scale.workload, scale.flat, first),
        Workload::ZipfTier2 => {
            let specs = [600u32, 900, 1200]
                .iter()
                .map(|&skew| {
                    WorkloadSpec::zipfian_scaled(format!("zipf-{skew}"), scale.workload, skew)
                })
                .collect();
            ScenarioMatrix::new()
                .with_workloads(specs)
                .push_config("tier2", scale.tiered)
                .with_literal_seed(first)
        }
        // A replay ignores the stream seed; its replicates are the captures.
        Workload::ReplayCkpt => {
            return ScenarioMatrix::replay(replays, scale.flat)
                .with_literal_seed(first)
                .with_controllers(inputs.workload.controllers());
        }
    };
    matrix.with_controllers(inputs.workload.controllers()).with_seeds(seeds)
}

/// What the gate and the modelled metrics need of a cell, kept across
/// passes instead of the cell itself, which owns a copy of its workload
/// (on `replay-ckpt`, the whole decoded trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// `Scenario::id`.
    pub id: String,
    /// Workload name.
    pub workload: String,
    /// Config-axis label.
    pub config: String,
    /// Seed-axis value.
    pub seed: u64,
    /// Controller.
    pub controller: ControllerKind,
}

impl CellKey {
    /// The key of `scenario`.
    pub fn of(scenario: &Scenario) -> Self {
        CellKey {
            id: scenario.id(),
            workload: scenario.workload().name().to_string(),
            config: scenario.config_label().to_string(),
            seed: scenario.seed(),
            controller: scenario.controller(),
        }
    }

    /// The keys of every cell of `matrix`, in enumeration order.
    pub fn all(matrix: &ScenarioMatrix) -> Vec<CellKey> {
        matrix.cells().map(|s| CellKey::of(&s)).collect()
    }

    /// Whether `other` is the same cell under another controller.
    pub fn matches(&self, other: &CellKey) -> bool {
        (&self.workload, &self.config, self.seed) == (&other.workload, &other.config, other.seed)
    }
}

/// The interval at which `replay-ckpt` cells are split.
pub fn split_at(scenario: &Scenario) -> u32 {
    scenario.workload().total_intervals() / 2
}
