//! Scenario-harness round trips (ISSUE 9 satellites): parse → run →
//! serialize → re-parse → self-diff clean; deliberate perturbation fails
//! the gate; running the same spec twice produces bit-identical
//! deterministic metrics.
//!
//! The runner installs process-global dispatch state (kernel backend,
//! assignment arm, thread budget), so every test that runs a scenario —
//! the `repro` experiments included — takes the shared lock.

use std::sync::Mutex;

use kcenter_bench::experiments::{find_experiment, run_experiment, RunOptions, TABLE_KS};
use kcenter_bench::scenario::{
    diff_reports, run_scenario, DiffTolerances, ScenarioError, ScenarioReport, ScenarioSpec,
};
use kcenter_core::prelude::*;
use kcenter_data::DatasetSpec;
use kcenter_metric::VecSpace;

static RUN_LOCK: Mutex<()> = Mutex::new(());

/// A small but representative spec: two dataset families (one adversarial,
/// one with planted outliers), two solvers, both precisions, both
/// executors, a non-zero z arm, and one fault-seeded arm — every report
/// column exercised.
const SPEC: &str = r#"
name = "roundtrip"
seed = 11
k = 4
machines = 4
threads = 2
max_attempts = 64

[grid]
solvers = ["gon", "mrg"]
precisions = ["f64", "f32"]
kernels = ["scalar"]
executors = ["simulated", "threads"]
outliers = [0, 5]
faults = ["none", "seed=3"]

[[dataset]]
family = "exp"
n = 300
k_prime = 4

[[dataset]]
family = "gau+out"
n = 300
k_prime = 4
planted = 6
"#;

#[test]
fn parse_run_serialize_reparse_selfdiff_is_clean() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = ScenarioSpec::parse(SPEC).unwrap();
    // 2 datasets × (gon: 1 fault arm | mrg: 2) × 2 precisions × 2 executors × 2 z.
    assert_eq!(spec.cells().len(), 2 * 3 * 2 * 2 * 2);

    let report = run_scenario(&spec).unwrap();
    assert_eq!(report.cells.len(), spec.cells().len());

    // Serialize → parse back: structurally identical, radii bit-exact.
    let json = report.to_json();
    let reparsed = ScenarioReport::from_json(&json).unwrap();
    assert_eq!(reparsed, report);

    // Self-diff under the default (exact) tolerances: clean.
    let regressions = diff_reports(&report, &reparsed, &DiffTolerances::default());
    assert!(regressions.is_empty(), "self-diff found: {regressions:?}");

    // Sanity over the columns: z>0 cells improve or hold; coverage is 1.0
    // everywhere (the retry budget drains the injected faults); parallel
    // cells record rounds and simulated time.
    for cell in &report.cells {
        assert!(cell.kept_radius <= cell.radius);
        if cell.z > 0 {
            assert!(cell.kept_radius < cell.radius || cell.radius == 0.0);
        }
        assert_eq!(cell.coverage, 1.0);
        if cell.solver == "mrg" {
            assert!(cell.rounds >= 2);
            assert!(cell.simulated_ns > 0);
        } else {
            assert_eq!(cell.rounds, 0);
        }
        assert_eq!(cell.digest.len(), 16);
    }
}

#[test]
fn same_seed_twice_has_zero_drift() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = ScenarioSpec::parse(SPEC).unwrap();
    let first = run_scenario(&spec).unwrap();
    let second = run_scenario(&spec).unwrap();
    // The full diff gate (exact radii, digests, rounds, coverage) passes
    // between two independent runs: zero drift.
    let regressions = diff_reports(&first, &second, &DiffTolerances::default());
    assert!(
        regressions.is_empty(),
        "drift between runs: {regressions:?}"
    );
    // And the deterministic columns are bit-identical cell by cell.
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.radius.to_bits(), b.radius.to_bits());
        assert_eq!(a.kept_radius.to_bits(), b.kept_radius.to_bits());
    }
}

#[test]
fn fault_seeded_cells_match_their_fault_free_twins() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = ScenarioSpec::parse(SPEC).unwrap();
    let report = run_scenario(&spec).unwrap();
    // With a generous retry budget, a fault-seeded mrg cell must land on
    // the same digest as its fault-free twin (same id apart from the
    // fault suffix).
    let mut checked = 0;
    for cell in report.cells.iter().filter(|c| c.fault != "none") {
        let twin_id = cell.id.replace("/seed=3", "/none");
        let twin = report
            .cells
            .iter()
            .find(|c| c.id == twin_id)
            .expect("fault-free twin exists");
        assert_eq!(cell.digest, twin.digest, "{}", cell.id);
        assert_eq!(cell.radius.to_bits(), twin.radius.to_bits());
        checked += 1;
    }
    assert!(checked >= 8, "expected fault-seeded cells, got {checked}");
}

#[test]
fn perturbed_report_fails_the_gate() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A tiny single-cell scenario keeps this fast.
    let spec = ScenarioSpec::parse(
        "name = \"tiny\"\nseed = 5\nk = 3\n[[dataset]]\nfamily = \"gau\"\nn = 150\nk_prime = 3\n",
    )
    .unwrap();
    let baseline = run_scenario(&spec).unwrap();

    // Radius drift beyond tolerance.
    let mut perturbed = baseline.clone();
    perturbed.cells[0].radius += 1e-9;
    let regressions = diff_reports(&baseline, &perturbed, &DiffTolerances::default());
    assert!(
        regressions.iter().any(|r| r.contains("radius drifted")),
        "{regressions:?}"
    );
    // ...but an explicit tolerance admits it.
    let tol = DiffTolerances {
        radius: 1e-6,
        ..DiffTolerances::default()
    };
    let lenient: Vec<String> = diff_reports(&baseline, &perturbed, &tol);
    assert!(lenient.is_empty(), "{lenient:?}");

    // Digest drift is never tolerated.
    let mut perturbed = baseline.clone();
    perturbed.cells[0].digest = "0000000000000000".to_string();
    assert!(diff_reports(&baseline, &perturbed, &tol)
        .iter()
        .any(|r| r.contains("digest")));

    // A disappeared cell fails both directions.
    let mut emptied = baseline.clone();
    emptied.cells.clear();
    assert!(diff_reports(&baseline, &emptied, &tol)
        .iter()
        .any(|r| r.contains("disappeared")));
    assert!(diff_reports(&emptied, &baseline, &tol)
        .iter()
        .any(|r| r.contains("not in baseline")));

    // Timing regressions only fire when a tolerance is requested.
    let mut slower = baseline.clone();
    slower.cells[0].wall_ns = baseline.cells[0].wall_ns * 100 + 1;
    assert!(diff_reports(&baseline, &slower, &DiffTolerances::default()).is_empty());
    let wall_gated = DiffTolerances {
        wall_frac: Some(0.5),
        ..DiffTolerances::default()
    };
    assert!(diff_reports(&baseline, &slower, &wall_gated)
        .iter()
        .any(|r| r.contains("wall time regressed")));
}

#[test]
fn json_spec_runs_identically_to_toml() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let toml = "name = \"mini\"\nseed = 9\nk = 2\n[grid]\nkernels = [\"scalar\"]\n[[dataset]]\nfamily = \"dup\"\nn = 100\ndistinct = 4\n";
    let json = r#"{"name": "mini", "seed": 9, "k": 2,
        "grid": {"kernels": ["scalar"]},
        "datasets": [{"family": "dup", "n": 100, "distinct": 4}]}"#;
    let a = run_scenario(&ScenarioSpec::parse(toml).unwrap()).unwrap();
    let b = run_scenario(&ScenarioSpec::parse(json).unwrap()).unwrap();
    assert_eq!(a.cells[0].digest, b.cells[0].digest);
    assert_eq!(a.cells[0].radius.to_bits(), b.cells[0].radius.to_bits());
}

#[test]
fn manhattan_cells_run_and_are_distinct_from_euclidean() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The non-Euclidean arm end to end: both distances through the same
    // grid; the L1 geometry must change the certified radius (and is
    // itself deterministic — equal-id cells in one report are one run,
    // so assert across the axis instead).
    let spec = ScenarioSpec::parse(
        "name = \"l1\"\nseed = 21\nk = 4\n[grid]\nkernels = [\"scalar\"]\ndistances = [\"euclidean\", \"manhattan\"]\n[[dataset]]\nfamily = \"gau\"\nn = 400\nk_prime = 4\n",
    )
    .unwrap();
    let report = run_scenario(&spec).unwrap();
    assert_eq!(report.cells.len(), 2);
    let l2 = &report.cells[0];
    let l1 = &report.cells[1];
    assert!(l2.id.contains("/euclidean/") && l1.id.contains("/manhattan/"));
    assert!(
        l1.radius >= l2.radius,
        "L1 ≥ L2 pointwise, so the certified radius cannot shrink"
    );
    assert_ne!(l1.radius.to_bits(), l2.radius.to_bits());
}

#[test]
fn malformed_specs_and_reports_name_their_errors() {
    // Spec side: missing name.
    let err = ScenarioSpec::parse("k = 2\n[[dataset]]\nfamily = \"gau\"\nn = 10\n").unwrap_err();
    assert!(matches!(err, ScenarioError::Missing { ref what } if what == "name"));

    // Report side: truncated JSON carries the byte offset.
    let err = ScenarioReport::from_json("{\"scenario\": \"x\", ").unwrap_err();
    assert!(matches!(err, ScenarioError::Json { .. }), "{err}");

    // Report side: structurally valid JSON missing the cells array.
    let err =
        ScenarioReport::from_json("{\"scenario\": \"x\", \"seed\": 1, \"k\": 2}").unwrap_err();
    assert!(matches!(err, ScenarioError::Missing { ref what } if what == "cells"));

    // Display is informative.
    assert!(format!("{err}").contains("cells"));
}

#[test]
fn repro_cells_match_the_solvers_run_directly() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The paper's configuration of each algorithm, spelled out once here:
    // the `repro` value tables must report exactly these radii.
    let (machines, seed) = (8, 2);
    let options = RunOptions {
        scale: 0.005,
        machines,
        repeats: 1,
        seed,
    };
    let result = run_experiment(&find_experiment("table3").unwrap(), options).unwrap();
    let space = VecSpace::from_flat(DatasetSpec::Unif { n: 500 }.generate_flat(seed));
    assert_eq!(result.rows.len(), TABLE_KS.len());
    for (row, &k) in result.rows.iter().zip(&TABLE_KS) {
        let mrg = MrgConfig::new(k)
            .with_machines(machines)
            .with_unchecked_capacity()
            .with_first_center(FirstCenter::Seeded(seed))
            .run(&space)
            .unwrap();
        let eim = EimConfig::new(k)
            .with_machines(machines)
            .with_epsilon(0.1)
            .with_phi(8.0)
            .with_seed(seed)
            .with_first_center(FirstCenter::Seeded(seed))
            .run(&space)
            .unwrap();
        let gon = GonzalezConfig::new(k).solve(&space).unwrap();
        let direct = [mrg.solution.radius, eim.solution.radius, gon.radius];
        assert_eq!(row.cells, direct, "{}", row.coordinate);
    }
}

#[test]
fn repro_values_of_all_three_algorithms_are_comparable() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let options = RunOptions {
        scale: 0.0005,
        machines: 8,
        repeats: 1,
        seed: 5,
    };
    let result = run_experiment(&find_experiment("table2").unwrap(), options).unwrap();
    assert_eq!(result.columns.len(), 3);
    assert_eq!(result.rows.len(), TABLE_KS.len());
    for row in &result.rows {
        assert_eq!(row.cells.len(), 3, "{}", row.coordinate);
        assert!(
            row.cells.iter().all(|v| v.is_finite() && *v > 0.0),
            "{}: {:?}",
            row.coordinate,
            row.cells
        );
        // All three approximate the same optimum within their factors.
        let (min, max) = (
            row.cells.iter().copied().fold(f64::INFINITY, f64::min),
            row.cells.iter().copied().fold(0.0, f64::max),
        );
        assert!(
            max / min < 10.0,
            "values diverge implausibly at {}: {min} vs {max}",
            row.coordinate
        );
    }
}

#[test]
fn repeats_average_over_consecutive_seeds() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let table6 = find_experiment("table6").unwrap();
    let options = |seed, repeats| RunOptions {
        scale: 0.002,
        machines: 4,
        repeats,
        seed,
    };
    let run = |seed, repeats| run_experiment(&table6, options(seed, repeats)).unwrap();
    let (first, second, averaged) = (run(7, 1), run(8, 1), run(7, 2));
    for ((a, b), avg) in first.rows.iter().zip(&second.rows).zip(&averaged.rows) {
        for ((x, y), z) in a.cells.iter().zip(&b.cells).zip(&avg.cells) {
            assert_eq!(*z, (x + y) / 2.0, "{}", avg.coordinate);
        }
    }
    // Repeat 1 regenerates the data, so the runs do differ.
    assert_ne!(first.rows, second.rows);
}
