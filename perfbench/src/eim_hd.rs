//! `eim-hd`: the paper's slow constant-round baseline, EIM, on
//! 16-dimensional Gaussian clusters with two worker threads.

use crate::measure::{measure, timed, RoundTotals};
use crate::verify::{check_solution, Reported};
use crate::{end_to_end, per_layer, repeat_for, repeated_setup, Args, Outcome, Tally, K, THREADS};
use kcenter_core::evaluate::covering_radius;
use kcenter_core::{EimConfig, EimResult, GonzalezConfig};
use kcenter_data::DatasetSpec;
use kcenter_mapreduce::Executor;
use kcenter_metric::{grid, PointId, VecSpace};
use std::collections::BTreeMap;

const N: usize = 30_000;
const DIM: usize = 16;
const PHI: f64 = 4.0;
const MACHINES: usize = 50;
/// Data sets per run, each from its own seed derived from `--seed`; jobs
/// cycle through them, so one run's medians do not hang on one draw.
const DATASETS: usize = 8;

struct Dataset {
    space: VecSpace,
    gon_radius: f64,
    gon_centers: Vec<PointId>,
}

struct Setup {
    sets: Vec<Dataset>,
    generate_s: f64,
}

fn setup(args: &Args) -> Setup {
    let spec = DatasetSpec::HighDim {
        n: N,
        k_prime: K,
        dim: DIM,
    };
    let seeds = (0..DATASETS as u64).map(|i| args.seed.wrapping_add(i.wrapping_mul(0x9e37_79b9)));
    let (flats, generate_s) = timed(|| {
        seeds
            .map(|seed| spec.generate_flat(seed))
            .collect::<Vec<_>>()
    });
    let sets: Vec<Dataset> = flats
        .into_iter()
        .map(|flat| {
            let space = VecSpace::from_flat(flat);
            let gon = GonzalezConfig::new(K)
                .solve(&space)
                .expect("GON reference on GAU-HD data");
            Dataset {
                space,
                gon_radius: gon.radius,
                gon_centers: gon.centers,
            }
        })
        .collect();
    Setup { sets, generate_s }
}

fn eim(space: &VecSpace) -> EimResult {
    EimConfig::new(K)
        .with_phi(PHI)
        .with_machines(MACHINES)
        .with_executor(Executor::threads(THREADS))
        .run(space)
        .expect("EIM on GAU-HD data")
}

/// Checks one EIM result; a run that fell back to sequential GON measured
/// the wrong algorithm and counts as a failure.
fn check(set: &Dataset, r: &EimResult, digest: Option<u64>) -> Result<(f64, u64), String> {
    if r.fell_back_to_sequential || r.iterations == 0 {
        return Err(format!(
            "EIM fell back to sequential GON ({} sampling iterations)",
            r.iterations
        ));
    }
    check_solution(
        &set.space,
        K,
        &r.solution.centers,
        Reported::Value(r.solution.radius),
        digest,
    )
}

pub fn run(args: &Args) -> Outcome {
    let (s, setup_s) = repeated_setup(|| setup(args));
    let first = &s.sets[0];
    let mut tally = Tally::default();
    let mut digests = [None; DATASETS];
    let mut centers = first.gon_centers.clone();
    let mut rows = Vec::new();
    let mut layer_rows = Vec::new();
    let mut iterations = Vec::new();
    let mut job = 0;
    repeat_for(args.seconds, || {
        let i = job % DATASETS;
        job += 1;
        let set = &s.sets[i];
        let (result, times) = measure(|| eim(&set.space));
        iterations.push(result.iterations);
        match check(set, &result, digests[i]) {
            Ok((radius, d)) => {
                tally.check("solve", Ok(()));
                digests[i] = Some(d);
                if i == 0 {
                    centers = result.solution.centers.clone();
                }
                rows.push(BTreeMap::from([
                    ("job_s", times.wall_s),
                    ("job_cpu_s", times.cpu_s),
                    ("peak_rss_mib", times.peak_rss_mib),
                    ("radius_ratio", radius / set.gon_radius),
                ]));
            }
            Err(e) => {
                tally.check("solve", Err(e));
            }
        }
        if args.trace {
            let job_s = times.wall_s;
            grid::reset_scan_counts();
            let (r, solve_s) = timed(|| eim(&set.space));
            let (grid_scans, dense_scans) = grid::scan_counts();
            tally.check("replay", check(set, &r, digests[i]).map(drop));
            let (_, certify_s) = timed(|| covering_radius(&set.space, &r.solution.centers));
            let mut rounds = RoundTotals::default();
            rounds.add(&r.stats);
            let mut m = BTreeMap::from([
                ("metric.grid_scans", grid_scans as f64),
                ("metric.dense_scans", dense_scans as f64),
                ("core.solve_s", solve_s),
                ("core.unattributed_s", solve_s - rounds.wall_s),
                ("core.certify_s", certify_s),
                ("core.eim_iterations", r.iterations as f64),
                ("core.eim_sample_size", r.sample_size as f64),
                ("trace.job_s", solve_s),
                ("trace.overhead_s", solve_s - job_s),
                ("trace.unattributed_s", job_s - solve_s),
            ]);
            m.extend(rounds.metrics(THREADS));
            layer_rows.push(m);
        }
    });

    let mut metrics = if args.trace {
        per_layer(&layer_rows, (first.space.flat(), &centers), s.generate_s)
    } else {
        end_to_end(&rows, setup_s)
    };
    metrics.retain(|_, v| v.is_finite());
    let job_times: Vec<String> = rows.iter().map(|r| format!("{:.3}", r["job_s"])).collect();
    Outcome {
        tally,
        metrics,
        executor: Executor::threads(THREADS).to_string(),
        reader: None,
        notes: vec![
            format!(
                "{job} jobs over {DATASETS} data sets; n = {N}, d = {DIM}, k = {K}, \
                 phi = {PHI}, {MACHINES} machines; EIM sampling iterations per job \
                 {iterations:?} (a fallback to sequential GON counts as an error)"
            ),
            format!("job_s per job: {}", job_times.join(" ")),
        ],
    }
}
