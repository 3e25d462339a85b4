//! End-to-end and per-layer benchmark of the kcenter workspace.
//!
//! ```text
//! kcenter-perfbench --workload <csv-mrg|eim-hd|ingest-query> --seed N
//!                   --seconds S --trace <0|1> --work-dir DIR
//! ```
//!
//! One process runs one workload: it generates the inputs from `--seed`
//! (set-up, repeated [`SETUP_REPS`] times), runs the workload's job
//! repeatedly for `--seconds`, checks every output, and prints one
//! `name = value unit` line per metric followed by a JSON result line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates the
//! untraced job with a replay of it that times each layer's public calls
//! and reports the per-layer metrics.  See `perfbench/README.md`.

mod csv_mrg;
mod eim_hd;
mod host;
mod ingest_query;
mod measure;
mod verify;

use kcenter_mapreduce::install_thread_budget;
use kcenter_metric::grid;
use kcenter_metric::kernel::{relax_max_rows_coords, simd};
use kcenter_metric::{AssignChoice, FlatPoints, KernelChoice, PointId};
use measure::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Centers every workload asks for (the GAU data has `k' = 25`).
pub const K: usize = 25;
/// Worker threads any workload may use.
pub const THREADS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Fewest jobs a run measures, however long they take.
pub const MIN_JOBS: usize = 3;
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20160816;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_cpu_s", "s"),
    ("radius_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.  A layer a workload does
/// not call reports 0; so do the query metrics on the batch workloads,
/// which run no reader.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.overhead_s", "s"),
    ("data.csv_load_s", "s"),
    ("data.csv_mb_per_s", "MB/s"),
    ("data.generate_s", "s"),
    ("metric.layout_s", "s"),
    ("metric.relax_ns_per_dist", "ns"),
    ("metric.relax_gb_per_s_computed", "GB/s"),
    ("metric.grid_scans", "count"),
    ("metric.dense_scans", "count"),
    ("mapreduce.rounds", "count"),
    ("mapreduce.round_wall_s", "s"),
    ("mapreduce.work_s", "s"),
    ("mapreduce.depth_s", "s"),
    ("mapreduce.bound_ratio", "ratio"),
    ("mapreduce.items_shuffled", "count"),
    ("mapreduce.max_machine_items", "count"),
    ("mapreduce.attempts_per_machine", "ratio"),
    ("core.solve_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.certify_s", "s"),
    ("core.eim_iterations", "count"),
    ("core.eim_sample_size", "count"),
    ("core.coreset_build_s", "s"),
    ("core.merge_s", "s"),
    ("core.recompress_s", "s"),
    ("core.coreset_rows", "count"),
    ("serve.batch_space_s", "s"),
    ("serve.checkpoint_encode_s", "s"),
    ("serve.checkpoint_save_s", "s"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.publish_s", "s"),
    ("serve.query_idle_us", "us"),
    ("serve.snapshot_lag_batches", "count"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("reader.late_p99_us", "us"),
    ("trace.job_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

/// Counts operations and the ones that failed or answered wrongly.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; an `Err` counts it as failed.
    pub fn check(&mut self, what: &str, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.fail(what, e);
                false
            }
        }
    }

    fn fail(&mut self, what: &str, e: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// Counts the reader's queries: unanswered ones and sampled answers
    /// that `check` rejects are failures.
    pub fn queries<A>(
        &mut self,
        log: &measure::ReaderLog<A>,
        queries: &[Vec<f64>],
        check: impl Fn(&[f64], &A) -> Result<(), String>,
    ) {
        self.attempted += log.sent();
        for _ in 0..log.unanswered {
            self.fail("query", "no answer".into());
        }
        for (q, a) in &log.samples {
            if let Err(e) = check(&queries[*q], a) {
                self.fail("query", e);
            }
        }
    }
}

/// What a workload run measured.
pub struct Outcome {
    pub tally: Tally,
    /// Metric values by name; names must come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Executor the program ran on, as it prints it.
    pub executor: String,
    /// How the query reader ran, when the workload has one.
    pub reader: Option<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Field-wise medians over per-job metric maps.
pub fn medians(rows: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut cols: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for row in rows {
        for (&k, &v) in row {
            cols.entry(k).or_default().push(v);
        }
    }
    cols.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Runs set-up [`SETUP_REPS`] times; returns the last result and the
/// median seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Calls `job` until `seconds` have passed and at least [`MIN_JOBS`] ran.
pub fn repeat_for(seconds: f64, mut job: impl FnMut()) {
    let t0 = Instant::now();
    let mut jobs = 0;
    while jobs < MIN_JOBS || t0.elapsed().as_secs_f64() < seconds {
        job();
        jobs += 1;
    }
}

/// Times the dispatched relax kernel over all of `flat` against each of
/// `centers`' rows.  Returns ns per distance and the computed bytes per
/// second (rows read, nearest slots read and written), median of 3.
pub fn relax_probe(flat: &FlatPoints, centers: &[PointId]) -> (f64, f64) {
    let (n, dim) = (flat.len(), flat.dim());
    let dists = (n * centers.len()) as f64;
    let bytes = dists * ((dim + 2) * std::mem::size_of::<f64>()) as f64;
    let mut secs = Vec::new();
    for _ in 0..3 {
        let mut nearest = vec![f64::INFINITY; n];
        let t0 = Instant::now();
        for &c in centers {
            black_box(relax_max_rows_coords(
                flat.coords(),
                dim,
                flat.row(c),
                &mut nearest,
            ));
        }
        secs.push(t0.elapsed().as_secs_f64());
        black_box(&nearest);
    }
    let s = median(&secs);
    (s * 1e9 / dists, bytes / s / 1e9)
}

/// The end-to-end metrics of a run: medians of the per-job rows and the
/// set-up time.
pub fn end_to_end(
    rows: &[BTreeMap<&'static str, f64>],
    setup_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = medians(rows);
    m.insert("setup_s", setup_s);
    m
}

/// The per-layer metrics of a run: medians of the per-job replay rows,
/// plus the kernel probe over the workload's store and the generation
/// time.
pub fn per_layer(
    rows: &[BTreeMap<&'static str, f64>],
    probe: (&FlatPoints, &[PointId]),
    generate_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = medians(rows);
    let (ns, gbs) = relax_probe(probe.0, probe.1);
    m.insert("metric.relax_ns_per_dist", ns);
    m.insert("metric.relax_gb_per_s_computed", gbs);
    m.insert("data.generate_s", generate_s);
    m
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        work_dir: PathBuf::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("invalid {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.work_dir.as_os_str().is_empty() {
        return Err("--work-dir is required".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kcenter-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin every dispatch setting through the setters the CLI uses, so no
    // exported KCENTER_* variable changes what is measured.
    let kernel = KernelChoice::Auto
        .resolve()
        .expect("auto always resolves to an available kernel");
    simd::set_active(kernel).expect("a resolved kernel is available");
    grid::set_choice(AssignChoice::Auto);
    install_thread_budget(THREADS);

    let self_test = verify::self_test();
    let outcome = match args.workload.as_str() {
        "csv-mrg" => csv_mrg::run(&args),
        "eim-hd" => eim_hd::run(&args),
        "ingest-query" => ingest_query::run(&args),
        other => {
            eprintln!("kcenter-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let (avx2, avx512f) = host::cpu_flags();
    println!(
        "# settings {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"avx2\": {avx2}, \"avx512f\": {avx512f}, \"kernel\": {}, \
         \"assign\": {}, \"executor\": {}, \"threads\": {THREADS}, \"precision\": \"f64\", \
         \"features\": \"simd\", \"reader\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        json_str(simd::active().name()),
        json_str(grid::active_choice().name()),
        json_str(&outcome.executor),
        outcome.reader.as_deref().map_or("null".into(), json_str),
    );
    match &self_test {
        Ok(s) => println!("# self-test: {s}"),
        Err(e) => println!("# {e}"),
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for e in &outcome.tally.errors {
        println!("# error: {e}");
    }
    let tally = &outcome.tally;
    println!(
        "# error_rate = {} ({} of {} operations failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    debug_assert!(outcome
        .metrics
        .keys()
        .all(|k| table.iter().any(|(n, _)| n == k)));
    let correct = self_test.is_ok() && tally.failed == 0 && tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
