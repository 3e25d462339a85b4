//! Experiment harness reproducing every table and figure of the paper.
//!
//! The paper's tables and figures run in two layers:
//!
//! * [`experiments`] — a declarative registry with one entry per table and
//!   figure of the paper (Table 1 through Table 7, Figure 1 through
//!   Figure 4b), each mapping to a workload from `kcenter-data` and a sweep
//!   over `k`, `n`, or φ.  Every sweep coordinate runs as a [`scenario`]
//!   spec, so the solver configuration lives in the scenario runner alone;
//!   cells read the paper's two metrics from its report: the *solution
//!   value* (covering radius) and the *runtime* (for the parallel
//!   algorithms, the per-round maximum simulated machine time; for GON,
//!   the wall clock of its solve);
//! * [`report`] — plain-text / markdown rendering of experiment results so
//!   the `repro` binary can print rows directly comparable with the paper.
//!
//! The `repro` binary (`cargo run --release -p kcenter-bench --bin repro`)
//! regenerates any experiment.  Beside it, [`scenario`] with the
//! `scenario_run` / `report_diff` binaries is the declarative regression
//! gate, and `flat_report` ([`flatbench`], [`execbench`], [`sweepbench`])
//! writes `BENCH_flat.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod execbench;
pub mod experiments;
pub mod flatbench;
pub mod report;
pub mod scenario;
pub mod sweepbench;

pub use experiments::{all_experiments, Experiment, ExperimentKind, ExperimentResult};
pub use report::render_result;
