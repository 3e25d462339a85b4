//! The experiment registry: one entry per table and figure in the paper.
//!
//! | id | paper content | workload |
//! |----|---------------|----------|
//! | `table1`  | theoretical comparison | analytic |
//! | `table2`  | solution value vs k | GAU n=1M, k'=25 |
//! | `table3`  | solution value vs k | UNIF n=100k |
//! | `table4`  | solution value vs k | UNB n=200k, k'=25 |
//! | `table5`  | solution value vs k | Poker Hand (simulated) |
//! | `table6`  | EIM value vs φ | GAU n=200k, k'=25 |
//! | `table7`  | EIM runtime vs φ | GAU n=200k, k'=25 |
//! | `figure1` | solution value vs k | KDD Cup 1999 (simulated) |
//! | `figure2a`| runtime vs k | GAU n=1M, k'=25 |
//! | `figure2b`| runtime vs k | UNIF n=100k |
//! | `figure3a`| runtime vs k | GAU n=1M, k'=50 |
//! | `figure3b`| runtime vs k | GAU n=50k, k'=50 |
//! | `figure4a`| runtime vs n (10k–1M) | UNIF, k=10 |
//! | `figure4b`| runtime vs n (10k–1M) | UNIF, k=100 |
//!
//! Every experiment accepts a *scale factor* so the paper-sized workloads
//! (up to a million points) can be shrunk proportionally for CI runs while
//! keeping the same shape; `scale = 1.0` reproduces the published sizes.

use crate::scenario::{
    invalid, run_scenario, CellResult, DistanceKind, FaultSpec, ScenarioError, ScenarioSpec,
    SolverKind,
};
use kcenter_core::cost_model::{self, RoundCount};
use kcenter_data::DatasetSpec;
use kcenter_mapreduce::{host_parallelism, ExecutorChoice};
use kcenter_metric::{AssignChoice, KernelChoice, Precision, ASSIGN_ENV, KERNEL_ENV};

/// The values of `k` used by the paper's tables (Tables 2–7).
pub const TABLE_KS: [usize; 6] = [2, 5, 10, 25, 50, 100];

/// The values of `k` sampled for the runtime figures (the paper plots a
/// dense range from 0 to 100; these are the sampled grid points).
pub const FIGURE_KS: [usize; 6] = [2, 5, 10, 25, 50, 100];

/// The φ values of Tables 6 and 7.
pub const PHIS: [f64; 4] = [1.0, 4.0, 6.0, 8.0];

/// The n sweep of Figure 4 (10,000 through 1,000,000).
pub const FIGURE4_NS: [usize; 5] = [10_000, 50_000, 100_000, 500_000, 1_000_000];

/// The three algorithms compared in Tables 2–5 and Figures 1–4, in column
/// order.
const PAPER_TRIO: [SolverKind; 3] = [SolverKind::Mrg, SolverKind::Eim, SolverKind::Gon];

/// EIM's ε throughout the paper's evaluation.
const EPSILON: f64 = 0.1;

/// What an experiment measures.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentKind {
    /// Print the theoretical comparison (Table 1).
    Theory,
    /// Sweep k and report the solution value of MRG / EIM / GON.
    SolutionValueVsK {
        /// The workload.
        spec: DatasetSpec,
        /// The k values to sweep.
        ks: Vec<usize>,
    },
    /// Sweep k and report the runtime of MRG / EIM / GON.
    RuntimeVsK {
        /// The workload.
        spec: DatasetSpec,
        /// The k values to sweep.
        ks: Vec<usize>,
    },
    /// Sweep n at fixed k and report runtimes (Figure 4).
    RuntimeVsN {
        /// The workloads, one per n.
        specs: Vec<DatasetSpec>,
        /// The fixed k.
        k: usize,
    },
    /// Sweep φ (and k) for EIM only, reporting the solution value (Table 6)
    /// or the runtime (Table 7).
    PhiSweep {
        /// The workload.
        spec: DatasetSpec,
        /// The k values to sweep.
        ks: Vec<usize>,
        /// The φ values to sweep.
        phis: Vec<f64>,
        /// `true` to report runtimes, `false` to report solution values.
        report_runtime: bool,
    },
}

impl ExperimentKind {
    /// Column headers: the algorithm labels, the φ values of a φ sweep, or
    /// Table 1's three analytic columns.
    fn columns(&self) -> Vec<String> {
        match self {
            ExperimentKind::Theory => vec![
                "alpha".to_string(),
                "rounds".to_string(),
                "predicted ops".to_string(),
            ],
            ExperimentKind::PhiSweep { phis, .. } => {
                phis.iter().map(|p| format!("phi={p}")).collect()
            }
            _ => PAPER_TRIO
                .iter()
                .map(|s| s.name().to_ascii_uppercase())
                .collect(),
        }
    }

    /// What the cells hold.
    fn metric(&self) -> Metric {
        match self {
            ExperimentKind::Theory => Metric::Theory,
            ExperimentKind::SolutionValueVsK { .. } => Metric::Value,
            ExperimentKind::RuntimeVsK { .. } | ExperimentKind::RuntimeVsN { .. } => {
                Metric::Runtime
            }
            ExperimentKind::PhiSweep { report_runtime, .. } => {
                if *report_runtime {
                    Metric::Runtime
                } else {
                    Metric::Value
                }
            }
        }
    }
}

/// What the cells of an experiment result hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// The paper's solution value: the certified covering radius.
    Value,
    /// The paper's runtime in seconds: for MRG and EIM the simulated time
    /// (the slowest machine of each round, summed over rounds), for GON the
    /// wall clock of the sequential solve.
    Runtime,
    /// Table 1's analytic columns: approximation factor, MapReduce rounds
    /// and predicted operation count.
    Theory,
}

impl Metric {
    /// The metric line printed above a table.
    pub fn describe(self) -> &'static str {
        match self {
            Metric::Value => "solution value (covering radius)",
            Metric::Runtime => {
                "runtime in seconds (MRG/EIM: max simulated machine time per round; \
                 GON: wall clock of the sequential solve)"
            }
            Metric::Theory => {
                "theoretical at n = 1,000,000, k = 25, eps = 0.1 and m machines: \
                 approximation factor, MapReduce rounds (EIM: O(1/eps) at unit constant), \
                 dominant-term operation count"
            }
        }
    }

    /// The cell value this metric reads from one scenario cell.
    fn read(self, cell: &CellResult) -> f64 {
        match self {
            Metric::Runtime if cell.solver == SolverKind::Gon.name() => cell.wall_ns as f64 / 1e9,
            Metric::Runtime => cell.simulated_ns as f64 / 1e9,
            Metric::Value | Metric::Theory => cell.radius,
        }
    }
}

/// One experiment of the paper's evaluation section.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Identifier used on the `repro` command line (e.g. `"table2"`).
    pub id: &'static str,
    /// Human-readable description, quoting the paper's caption.
    pub title: &'static str,
    /// What to run.
    pub kind: ExperimentKind,
}

/// A single row of an experiment result (one k / n / φ configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// The sweep coordinate (`k`, `n`, or `φ` rendered as text).
    pub coordinate: String,
    /// One value per column, averaged over the repeats.
    pub cells: Vec<f64>,
}

/// The outcome of running one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The experiment id.
    pub id: String,
    /// The experiment title.
    pub title: String,
    /// Column headers (algorithm labels, or φ values for the φ sweeps).
    pub columns: Vec<String>,
    /// What the cells hold.
    pub metric: Metric,
    /// The rows, in sweep order.
    pub rows: Vec<ResultRow>,
    /// The scale factor the workloads were shrunk by (1.0 = paper size).
    pub scale: f64,
}

/// Execution options for the experiment runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Workload scale factor (1.0 reproduces the paper's sizes).
    pub scale: f64,
    /// Number of simulated machines (the paper uses 50).
    pub machines: usize,
    /// Number of runs to average per configuration; repeat `r` uses seed
    /// `seed + r` for both the data and the algorithms.
    pub repeats: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            machines: 50,
            repeats: 1,
            seed: 1,
        }
    }
}

/// All experiments of the paper's evaluation, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1: theoretical comparison of the algorithms",
            kind: ExperimentKind::Theory,
        },
        Experiment {
            id: "table2",
            title: "Table 2: solution value over k for GAU (n = 1,000,000, k' = 25)",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::Gau {
                    n: 1_000_000,
                    k_prime: 25,
                },
                ks: TABLE_KS.to_vec(),
            },
        },
        Experiment {
            id: "table3",
            title: "Table 3: solution value over k for UNIF (n = 100,000)",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::Unif { n: 100_000 },
                ks: TABLE_KS.to_vec(),
            },
        },
        Experiment {
            id: "table4",
            title: "Table 4: solution value over k for UNB (n = 200,000, k' = 25)",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::Unb {
                    n: 200_000,
                    k_prime: 25,
                },
                ks: TABLE_KS.to_vec(),
            },
        },
        Experiment {
            id: "table5",
            title: "Table 5: solution value over k for the POKER HAND data set",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::PokerHand { n: 25_010 },
                ks: TABLE_KS.to_vec(),
            },
        },
        Experiment {
            id: "table6",
            title: "Table 6: average EIM solution value over phi for GAU (n = 200,000, k' = 25)",
            kind: ExperimentKind::PhiSweep {
                spec: DatasetSpec::Gau {
                    n: 200_000,
                    k_prime: 25,
                },
                ks: TABLE_KS.to_vec(),
                phis: PHIS.to_vec(),
                report_runtime: false,
            },
        },
        Experiment {
            id: "table7",
            title: "Table 7: average EIM runtime over phi for GAU (n = 200,000, k' = 25)",
            kind: ExperimentKind::PhiSweep {
                spec: DatasetSpec::Gau {
                    n: 200_000,
                    k_prime: 25,
                },
                ks: TABLE_KS.to_vec(),
                phis: PHIS.to_vec(),
                report_runtime: true,
            },
        },
        Experiment {
            id: "figure1",
            title: "Figure 1: solution values over k on KDD CUP 1999 (10% sample)",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::KddCup { n: 494_021 },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure2a",
            title: "Figure 2a: runtimes over k, GAU (n = 1,000,000, k' = 25)",
            kind: ExperimentKind::RuntimeVsK {
                spec: DatasetSpec::Gau {
                    n: 1_000_000,
                    k_prime: 25,
                },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure2b",
            title: "Figure 2b: runtimes over k, UNIF (n = 100,000)",
            kind: ExperimentKind::RuntimeVsK {
                spec: DatasetSpec::Unif { n: 100_000 },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure3a",
            title: "Figure 3a: runtimes over k, GAU (n = 1,000,000, k' = 50)",
            kind: ExperimentKind::RuntimeVsK {
                spec: DatasetSpec::Gau {
                    n: 1_000_000,
                    k_prime: 50,
                },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure3b",
            title: "Figure 3b: runtimes over k, GAU (n = 50,000, k' = 50)",
            kind: ExperimentKind::RuntimeVsK {
                spec: DatasetSpec::Gau {
                    n: 50_000,
                    k_prime: 50,
                },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure4a",
            title: "Figure 4a: runtimes over n (10k to 1M), k = 10, UNIF",
            kind: ExperimentKind::RuntimeVsN {
                specs: FIGURE4_NS
                    .iter()
                    .map(|&n| DatasetSpec::Unif { n })
                    .collect(),
                k: 10,
            },
        },
        Experiment {
            id: "figure4b",
            title: "Figure 4b: runtimes over n (10k to 1M), k = 100, UNIF",
            kind: ExperimentKind::RuntimeVsN {
                specs: FIGURE4_NS
                    .iter()
                    .map(|&n| DatasetSpec::Unif { n })
                    .collect(),
                k: 100,
            },
        },
    ]
}

/// Looks an experiment up by id.
pub fn find_experiment(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == id)
}

/// Runs one experiment and collects its result rows.
///
/// Every sweep coordinate is one [`ScenarioSpec`] built here and run by
/// [`run_scenario`], so the solver configuration lives in the scenario
/// runner alone.  The kernel backend and assignment arm come from
/// `KCENTER_KERNEL` / `KCENTER_ASSIGN` (unset means `auto`); a bad value
/// is a named error.
///
/// # Panics
///
/// Panics if `options.scale` is not a finite positive number or
/// `options.repeats` is 0 (the `repro` binary rejects both up front).
pub fn run_experiment(
    experiment: &Experiment,
    options: RunOptions,
) -> Result<ExperimentResult, ScenarioError> {
    assert!(
        options.scale > 0.0 && options.scale.is_finite(),
        "scale must be positive"
    );
    assert!(options.repeats > 0, "at least one repeat is required");
    let kind = &experiment.kind;
    let metric = kind.metric();
    let run = |spec: ScenarioSpec| averaged(spec, metric, options.repeats);
    let rows = match kind {
        ExperimentKind::Theory => theory_rows(options.machines),
        ExperimentKind::SolutionValueVsK { spec, ks } | ExperimentKind::RuntimeVsK { spec, ks } => {
            let base = paper_spec(experiment.id, vec![spec.scaled(options.scale)], options)?;
            ks.iter()
                .map(|&k| {
                    Ok(ResultRow {
                        coordinate: format!("k={k}"),
                        cells: run(ScenarioSpec { k, ..base.clone() })?,
                    })
                })
                .collect::<Result<_, ScenarioError>>()?
        }
        ExperimentKind::RuntimeVsN { specs, k } => {
            let datasets = specs.iter().map(|s| s.scaled(options.scale)).collect();
            let base = paper_spec(experiment.id, datasets, options)?;
            let cells = run(ScenarioSpec {
                k: *k,
                ..base.clone()
            })?;
            base.datasets
                .iter()
                .zip(cells.chunks(PAPER_TRIO.len()))
                .map(|(dataset, cells)| ResultRow {
                    coordinate: format!("n={}", dataset.n()),
                    cells: cells.to_vec(),
                })
                .collect()
        }
        ExperimentKind::PhiSweep { spec, ks, phis, .. } => {
            let base = ScenarioSpec {
                solvers: vec![SolverKind::Eim],
                ..paper_spec(experiment.id, vec![spec.scaled(options.scale)], options)?
            };
            ks.iter()
                .map(|&k| {
                    let cells = phis
                        .iter()
                        .map(|&phi| {
                            Ok(run(ScenarioSpec {
                                k,
                                phi,
                                ..base.clone()
                            })?[0])
                        })
                        .collect::<Result<_, ScenarioError>>()?;
                    Ok(ResultRow {
                        coordinate: format!("k={k}"),
                        cells,
                    })
                })
                .collect::<Result<_, ScenarioError>>()?
        }
    };
    Ok(ExperimentResult {
        id: experiment.id.to_string(),
        title: experiment.title.to_string(),
        columns: kind.columns(),
        metric,
        rows,
        scale: options.scale,
    })
}

/// The scenario the paper's cells run in (`k` is set per sweep coordinate):
/// the three algorithms on `datasets` at f64 storage on the simulated
/// executor, with the paper's machine count and ε, the host's cores as the
/// kernel thread budget, and the kernel backend and assignment arm taken
/// from the environment.
fn paper_spec(
    id: &str,
    datasets: Vec<DatasetSpec>,
    options: RunOptions,
) -> Result<ScenarioSpec, ScenarioError> {
    let env = |name: &str| std::env::var(name).unwrap_or_default();
    let kernel = KernelChoice::from_env().map_err(|_| {
        invalid(
            KERNEL_ENV,
            env(KERNEL_ENV),
            "auto | scalar | portable | avx2",
        )
    })?;
    let assign = AssignChoice::from_env()
        .map_err(|_| invalid(ASSIGN_ENV, env(ASSIGN_ENV), "auto | dense | grid"))?;
    Ok(ScenarioSpec {
        name: id.to_string(),
        seed: options.seed,
        k: 1,
        machines: options.machines,
        threads: host_parallelism(),
        epsilon: EPSILON,
        phi: 8.0,
        max_attempts: 1,
        solvers: PAPER_TRIO.to_vec(),
        precisions: vec![Precision::F64],
        kernels: vec![kernel],
        assigns: vec![assign],
        executors: vec![ExecutorChoice::Simulated],
        distances: vec![DistanceKind::Euclidean],
        outliers: vec![0],
        faults: vec![FaultSpec::None],
        datasets,
        ingest: None,
    })
}

/// Runs `spec` once per repeat `r` with seed `spec.seed + r` (so each
/// repeat regenerates the data) and returns every cell's `metric`
/// averaged over the repeats, in cell order.
fn averaged(spec: ScenarioSpec, metric: Metric, repeats: usize) -> Result<Vec<f64>, ScenarioError> {
    let mut sums = vec![0.0; spec.cells().len()];
    for r in 0..repeats {
        let report = run_scenario(&ScenarioSpec {
            seed: spec.seed.wrapping_add(r as u64),
            ..spec.clone()
        })?;
        for (sum, cell) in sums.iter_mut().zip(&report.cells) {
            *sum += metric.read(cell);
        }
    }
    Ok(sums.into_iter().map(|s| s / repeats as f64).collect())
}

/// Table 1 evaluated at the paper's headline configuration (n = 1,000,000,
/// k = 25, ε = 0.1) for `machines` machines: approximation factor, MapReduce
/// rounds (0 for the sequential GON; EIM's O(1/ε) bound at unit constant,
/// like the operation counts) and the dominant-term operation count.
fn theory_rows(machines: usize) -> Vec<ResultRow> {
    cost_model::table1(1_000_000, 25, machines, EPSILON)
        .into_iter()
        .map(|profile| ResultRow {
            coordinate: profile.name.to_string(),
            cells: vec![
                profile.approximation,
                match profile.rounds {
                    RoundCount::NotApplicable => 0.0,
                    RoundCount::Constant(c) => f64::from(c),
                    RoundCount::Order(_) => 1.0 / EPSILON,
                },
                profile.predicted_operations,
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for expected in [
            "table1", "table2", "table3", "table4", "table5", "table6", "table7", "figure1",
            "figure2a", "figure2b", "figure3a", "figure3b", "figure4a", "figure4b",
        ] {
            assert!(ids.contains(&expected), "missing experiment {expected}");
        }
        assert_eq!(ids.len(), 14);
    }

    #[test]
    fn find_experiment_by_id() {
        assert!(find_experiment("table4").is_some());
        assert!(find_experiment("nonexistent").is_none());
    }

    #[test]
    fn paper_parameters_match_the_evaluation_section() {
        let t2 = find_experiment("table2").unwrap();
        match t2.kind {
            ExperimentKind::SolutionValueVsK { spec, ks } => {
                assert_eq!(
                    spec,
                    DatasetSpec::Gau {
                        n: 1_000_000,
                        k_prime: 25
                    }
                );
                assert_eq!(ks, TABLE_KS.to_vec());
            }
            _ => panic!("table2 must be a solution-value sweep"),
        }
        let t7 = find_experiment("table7").unwrap();
        match t7.kind {
            ExperimentKind::PhiSweep {
                phis,
                report_runtime,
                ..
            } => {
                assert_eq!(phis, PHIS.to_vec());
                assert!(report_runtime);
            }
            _ => panic!("table7 must be a phi sweep"),
        }
        let f4b = find_experiment("figure4b").unwrap();
        match f4b.kind {
            ExperimentKind::RuntimeVsN { specs, k } => {
                assert_eq!(k, 100);
                assert_eq!(specs.len(), FIGURE4_NS.len());
            }
            _ => panic!("figure4b must be an n sweep"),
        }
    }

    #[test]
    fn labels_match_the_paper() {
        let trio = vec!["MRG", "EIM", "GON"];
        for id in ["table2", "figure1", "figure2a", "figure4b"] {
            assert_eq!(find_experiment(id).unwrap().kind.columns(), trio, "{id}");
        }
        let phis = vec!["phi=1", "phi=4", "phi=6", "phi=8"];
        assert_eq!(find_experiment("table6").unwrap().kind.columns(), phis);
        assert_eq!(find_experiment("table7").unwrap().kind.columns(), phis);
        assert_eq!(
            find_experiment("table1").unwrap().kind.columns(),
            vec!["alpha", "rounds", "predicted ops"]
        );
    }

    #[test]
    fn theory_experiment_reproduces_table1_rows() {
        let exp = find_experiment("table1").unwrap();
        let result = run_experiment(&exp, RunOptions::default()).unwrap();
        assert_eq!(result.metric, Metric::Theory);
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.rows[0].coordinate, "GON");
        assert_eq!(result.rows[1].coordinate, "MRG");
        assert_eq!(result.rows[2].coordinate, "EIM");
        let m = RunOptions::default().machines;
        let ops = |p: &cost_model::AlgorithmProfile| p.predicted_operations;
        let table1 = cost_model::table1(1_000_000, 25, m, EPSILON);
        assert_eq!(result.rows[0].cells, vec![2.0, 0.0, ops(&table1[0])]);
        assert_eq!(result.rows[1].cells, vec![4.0, 2.0, ops(&table1[1])]);
        assert_eq!(result.rows[2].cells, vec![10.0, 10.0, ops(&table1[2])]);
    }

    #[test]
    fn tiny_scale_solution_value_sweep_runs_end_to_end() {
        let exp = find_experiment("table3").unwrap();
        let options = RunOptions {
            scale: 0.005,
            machines: 8,
            repeats: 1,
            seed: 2,
        };
        let result = run_experiment(&exp, options).unwrap();
        assert_eq!(result.columns, vec!["MRG", "EIM", "GON"]);
        assert_eq!(result.rows.len(), TABLE_KS.len());
        for row in &result.rows {
            assert_eq!(row.cells.len(), 3);
            for &v in &row.cells {
                assert!(v.is_finite());
                assert!(v >= 0.0);
            }
        }
        // Values decrease (weakly) as k grows, as in every paper table.
        let mrg_values: Vec<f64> = result.rows.iter().map(|r| r.cells[0]).collect();
        for w in mrg_values.windows(2) {
            assert!(
                w[1] <= w[0] * 1.5 + 1e-9,
                "values should broadly decrease with k"
            );
        }
    }

    #[test]
    fn tiny_scale_phi_sweep_runs_end_to_end() {
        let exp = find_experiment("table6").unwrap();
        let options = RunOptions {
            scale: 0.004,
            machines: 8,
            repeats: 1,
            seed: 3,
        };
        let result = run_experiment(&exp, options).unwrap();
        assert_eq!(result.columns.len(), PHIS.len());
        assert_eq!(result.rows.len(), TABLE_KS.len());
        assert_eq!(result.metric, Metric::Value);
        for row in &result.rows {
            assert_eq!(row.cells.len(), PHIS.len());
            assert!(row.cells.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }

    #[test]
    fn tiny_scale_runtime_vs_n_sweep_runs_end_to_end() {
        let exp = find_experiment("figure4a").unwrap();
        let options = RunOptions {
            scale: 0.002,
            machines: 8,
            repeats: 1,
            seed: 4,
        };
        let result = run_experiment(&exp, options).unwrap();
        assert_eq!(result.metric, Metric::Runtime);
        assert_eq!(result.rows.len(), FIGURE4_NS.len());
        // The sweep coordinate is n, scaled, in sweep order.
        let coordinates: Vec<&str> = result.rows.iter().map(|r| r.coordinate.as_str()).collect();
        assert_eq!(
            coordinates,
            vec!["n=20", "n=100", "n=200", "n=1000", "n=2000"]
        );
        for row in &result.rows {
            assert_eq!(row.cells.len(), 3);
            assert!(row.cells.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn run_experiment_rejects_bad_scale() {
        let exp = find_experiment("table2").unwrap();
        let _ = run_experiment(
            &exp,
            RunOptions {
                scale: 0.0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn zero_repeats_is_rejected() {
        let exp = find_experiment("table3").unwrap();
        let _ = run_experiment(
            &exp,
            RunOptions {
                repeats: 0,
                ..Default::default()
            },
        );
    }
}
