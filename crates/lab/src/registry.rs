//! The named scenario matrices of the command-line tools.
//!
//! `sweep` and `bench_throughput` both take `--matrix NAME`; their usage
//! text, `--list` output and name validation all render from
//! [`MATRICES`], so the tools cannot drift apart from each other or from
//! their own help.

use lbica_sim::SimulationConfig;
use lbica_trace::workload::WorkloadScale;

use crate::matrix::ScenarioMatrix;

/// One row of the matrix registry: the CLI name, the `--list` blurb and
/// the builder.
#[derive(Debug, Clone, Copy)]
pub struct MatrixDef {
    /// The name `--matrix` accepts.
    pub name: &'static str,
    /// One-line description for `--list`.
    pub desc: &'static str,
    /// Builds the matrix.
    pub build: fn() -> ScenarioMatrix,
}

impl MatrixDef {
    /// The registered matrix called `name`.
    pub fn find(name: &str) -> Option<&'static MatrixDef> {
        MATRICES.iter().find(|def| def.name == name)
    }

    /// The registered names joined by `|`, for usage text.
    pub fn names() -> String {
        MATRICES.iter().map(|def| def.name).collect::<Vec<_>>().join("|")
    }
}

/// Seed of the published-scale matrices (the figure harness's seed).
const HARNESS_SEED: u64 = 0x1b1c_a000;

fn paper() -> ScenarioMatrix {
    ScenarioMatrix::paper(WorkloadScale::harness(), SimulationConfig::harness(), HARNESS_SEED)
}

fn paper_tiered() -> ScenarioMatrix {
    ScenarioMatrix::paper_tiered(
        WorkloadScale::harness(),
        SimulationConfig::harness(),
        HARNESS_SEED,
    )
}

/// Every named matrix, in `--list` order.
pub const MATRICES: [MatrixDef; 14] = [
    MatrixDef {
        name: "tiny",
        desc: "4 workloads x 3 controllers x 3 seeds, tiny scale (36 cells)",
        build: ScenarioMatrix::tiny,
    },
    MatrixDef {
        name: "geometry",
        desc: "cache-size sweep: 64/128/256 sets (27 cells)",
        build: ScenarioMatrix::geometry,
    },
    MatrixDef {
        name: "devices",
        desc: "mid-range-SSD vs 7.2K-HDD disk subsystem (18 cells)",
        build: ScenarioMatrix::devices,
    },
    MatrixDef {
        name: "tiered",
        desc: "flat vs 2-level vs 3-level cache hierarchy (27 cells)",
        build: ScenarioMatrix::tiered,
    },
    MatrixDef {
        name: "tier-policy",
        desc: "per-tier write policies under WB/LBICA/LBICA-T (27 cells)",
        build: ScenarioMatrix::tier_policy,
    },
    MatrixDef {
        name: "inclusion",
        desc: "exclusive vs inclusive two-level hierarchy (18 cells)",
        build: ScenarioMatrix::inclusion,
    },
    MatrixDef {
        name: "replacement",
        desc: "LRU vs FIFO victim selection (18 cells)",
        build: ScenarioMatrix::replacement,
    },
    MatrixDef {
        name: "replay",
        desc: "codec-round-tripped trace-replay cells (6 cells)",
        build: ScenarioMatrix::replay_demo,
    },
    MatrixDef {
        name: "zipf",
        desc: "Zipfian block-popularity skew sweep: s=0.0/0.6/0.9/1.2 (12 cells)",
        build: ScenarioMatrix::zipf,
    },
    MatrixDef {
        name: "diurnal",
        desc: "paper workloads flat vs day/night diurnal modulation (18 cells)",
        build: ScenarioMatrix::diurnal,
    },
    MatrixDef {
        name: "multi-tenant",
        desc: "1/2/4-tenant interleaves of identical templates (9 cells)",
        build: ScenarioMatrix::multi_tenant,
    },
    MatrixDef {
        name: "paper-mt",
        desc: "six-tenant paper mix, flat + two-tier (6 cells)",
        build: ScenarioMatrix::paper_mt,
    },
    MatrixDef {
        name: "paper",
        desc: "the canonical figure matrix at published scale (9 cells, slow)",
        build: paper,
    },
    MatrixDef {
        name: "paper-tiered",
        desc: "the paper matrix plus its two-level twins at published scale (18 cells, slow)",
        build: paper_tiered,
    },
];
