//! `csv-mrg`: the paper's headline algorithm on the user's path — the CLI's
//! `solve mrg` on a one-million-point GAU CSV file, two worker threads.

use crate::measure::{measure, timed, RoundTotals};
use crate::verify::{check_solution, digest_ids, Reported};
use crate::{end_to_end, per_layer, repeat_for, repeated_setup, Args, Outcome, Tally, K, THREADS};
use kcenter_cli::Cli;
use kcenter_core::evaluate::covering_radius;
use kcenter_core::{FirstCenter, GonzalezConfig, MrgConfig};
use kcenter_data::csv::{load_points, save_points, CsvOptions};
use kcenter_data::DatasetSpec;
use kcenter_mapreduce::Executor;
use kcenter_metric::{grid, FlatPoints, PointId, VecSpace};
use std::collections::BTreeMap;
use std::path::PathBuf;

const N: usize = 1_000_000;
const MACHINES: usize = 50;

struct Setup {
    csv: PathBuf,
    csv_bytes: f64,
    space: VecSpace,
    gon_radius: f64,
    generate_s: f64,
}

fn setup(args: &Args) -> Setup {
    let (points, generate_s) = timed(|| DatasetSpec::Gau { n: N, k_prime: K }.generate(args.seed));
    let csv = args.work_dir.join("gau.csv");
    save_points(&csv, &points).expect("write the CSV input");
    // Flush it now: left to background writeback, the 55 MB would reach
    // the disk in the middle of the timed jobs.
    std::fs::File::open(&csv)
        .and_then(|f| f.sync_all())
        .expect("flush the CSV input");
    let csv_bytes = std::fs::metadata(&csv).expect("stat the CSV input").len() as f64;
    let space = VecSpace::from_flat(FlatPoints::from_points(&points));
    drop(points);
    let gon = GonzalezConfig::new(K)
        .solve(&space)
        .expect("GON reference on GAU data");
    Setup {
        csv,
        csv_bytes,
        space,
        gon_radius: gon.radius,
        generate_s,
    }
}

/// The library call the CLI makes for the parsed command line.
fn mrg_config() -> MrgConfig {
    MrgConfig::new(K)
        .with_machines(MACHINES)
        .with_unchecked_capacity()
        .with_first_center(FirstCenter::Seeded(0))
        .with_executor(Executor::threads(THREADS))
}

fn command_line(csv: &str) -> Cli {
    let threads = THREADS.to_string();
    let (k, machines) = (K.to_string(), MACHINES.to_string());
    let argv: Vec<String> = [
        "solve",
        "mrg",
        "--input",
        csv,
        "--k",
        &k,
        "--machines",
        &machines,
        "--executor",
        "threads",
        "--threads",
        &threads,
        "--kernel",
        "auto",
        "--assign",
        "auto",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    kcenter_cli::args::parse(&argv).expect("the benchmark's command line parses")
}

/// The printed radius and center ids of a `solve` run.
fn parse_output(out: &[u8]) -> Result<(String, Vec<PointId>), String> {
    let text = std::str::from_utf8(out).map_err(|e| e.to_string())?;
    let field = |prefix: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(prefix))
            .ok_or(format!("no {prefix:?} line in the output"))
    };
    let radius = field("covering radius (solution value): ")?
        .trim()
        .to_string();
    let centers = field("centers (point indices): ")?
        .trim()
        .trim_start_matches('[')
        .trim_end_matches(']')
        .split(',')
        .map(|s| s.trim().parse::<PointId>().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((radius, centers))
}

pub fn run(args: &Args) -> Outcome {
    let (s, setup_s) = repeated_setup(|| setup(args));
    let cli = command_line(s.csv.to_str().expect("UTF-8 work dir"));
    let mut tally = Tally::default();

    // The library path with the CLI's settings: its radius must be the
    // covering radius bit for bit, and every CLI job must print its
    // centers.
    let direct = mrg_config().run(&s.space).expect("MRG on GAU data");
    let centers = direct.solution.centers.clone();
    let digest = tally
        .check(
            "library solve",
            check_solution(
                &s.space,
                K,
                &centers,
                Reported::Value(direct.solution.radius),
                None,
            )
            .map(drop),
        )
        .then(|| digest_ids(&centers));

    let mut rows = Vec::new();
    let mut layer_rows = Vec::new();
    let mut jobs = 0;
    repeat_for(args.seconds, || {
        jobs += 1;
        let ((result, out), times) = measure(|| {
            let mut out = Vec::new();
            let result = kcenter_cli::run(&cli, &mut out);
            (result, out)
        });
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|()| parse_output(&out))
            .and_then(|(radius, ids)| {
                let (r, _) = check_solution(&s.space, K, &ids, Reported::Text(&radius), digest)?;
                let ratio = r / s.gon_radius;
                if ratio > 4.0 {
                    return Err(format!(
                        "radius ratio {ratio} exceeds the two-round factor 4"
                    ));
                }
                Ok(ratio)
            });
        let job_s = times.wall_s;
        match checked {
            Ok(ratio) => {
                tally.check("solve", Ok(()));
                rows.push(BTreeMap::from([
                    ("job_s", job_s),
                    ("job_cpu_s", times.cpu_s),
                    ("peak_rss_mib", times.peak_rss_mib),
                    ("radius_ratio", ratio),
                ]));
            }
            Err(e) => {
                tally.check("solve", Err(e));
            }
        }
        if args.trace {
            layer_rows.push(replay(&s, job_s, digest, &mut tally));
        }
    });

    let mut metrics = if args.trace {
        per_layer(&layer_rows, (s.space.flat(), &centers), s.generate_s)
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
                "{jobs} jobs; n = {N}, k = {K}, {MACHINES} machines, CSV {:.1} MB",
                s.csv_bytes / 1e6
            ),
            format!("job_s per job: {}", job_times.join(" ")),
        ],
    }
}

/// The job again, as the calls the CLI makes, each timed.
fn replay(
    s: &Setup,
    job_s: f64,
    digest: Option<u64>,
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    grid::reset_scan_counts();
    let (((space, result), [load_s, layout_s, solve_s]), wall_s) = timed(|| {
        let (points, load_s) = timed(|| load_points(&s.csv, &CsvOptions::default()));
        let points = points.expect("the CSV the CLI just read");
        let (space, layout_s) = timed(|| {
            let space: VecSpace = VecSpace::from_flat(FlatPoints::from_points(&points));
            drop(points);
            space
        });
        let (result, solve_s) = timed(|| mrg_config().run(&space));
        ((space, result), [load_s, layout_s, solve_s])
    });
    let (grid_scans, dense_scans) = grid::scan_counts();
    let result = result.expect("MRG on GAU data");
    let centers = &result.solution.centers;
    let (radius, certify_s) = timed(|| covering_radius(&space, centers));
    tally.check(
        "replay",
        check_solution(&space, K, centers, Reported::Value(radius), digest).map(drop),
    );
    let mut rounds = RoundTotals::default();
    rounds.add(&result.stats);
    let spans = load_s + layout_s + solve_s;
    let mut m = BTreeMap::from([
        ("cli.overhead_s", job_s - spans),
        ("data.csv_load_s", load_s),
        ("data.csv_mb_per_s", s.csv_bytes / load_s / 1e6),
        ("metric.layout_s", layout_s),
        ("metric.grid_scans", grid_scans as f64),
        ("metric.dense_scans", dense_scans as f64),
        ("core.solve_s", solve_s),
        ("core.unattributed_s", solve_s - rounds.wall_s),
        ("core.certify_s", certify_s),
        ("trace.job_s", wall_s),
        ("trace.overhead_s", wall_s - job_s),
        ("trace.unattributed_s", job_s - spans),
    ]);
    m.extend(rounds.metrics(THREADS));
    m
}
