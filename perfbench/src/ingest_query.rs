//! `ingest-query`: the streaming service — a checkpointed fold of twenty
//! GAU batches on the simulated executor, with the open-loop reader
//! querying the published snapshot while the fold runs.

use crate::measure::{measure_with_reader, percentile, timed, ReaderLog, RoundTotals};
use crate::measure::{QUERY_RATE_HZ, REALTIME_DENIED};
use crate::verify::{check_answer, check_snapshot, fnv64};
use crate::{end_to_end, per_layer, repeat_for, repeated_setup, Args, Outcome, Tally, K};
use kcenter_core::evaluate::covering_radius;
use kcenter_core::WeightedCoreset;
use kcenter_core::{FirstCenter, GonzalezConfig, GonzalezCoresetConfig, SequentialSolver};
use kcenter_data::DatasetSpec;
use kcenter_mapreduce::Executor;
use kcenter_metric::{grid, Euclidean, MetricSpace, VecSpace};
use kcenter_serve::checkpoint;
use kcenter_serve::{CenterSnapshot, CheckpointMeta, IngestConfig, Ingestor, SnapshotAnswer};
use kcenter_serve::{SnapshotCell, StreamConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N: usize = 1_000_000;
const BATCHES: usize = 20;
const T: usize = 500;
const BUDGET: usize = 2000;
const MACHINES: usize = 8;

/// Query points the reader cycles through.
const QUERIES: usize = 4096;

type Snapshot = CenterSnapshot<Euclidean>;
type Answer = (SnapshotAnswer, Arc<Snapshot>);

struct Setup {
    ingestor: Ingestor<Euclidean>,
    checkpoint: PathBuf,
    full: VecSpace,
    gon_radius: f64,
    queries: Vec<Vec<f64>>,
    generate_s: f64,
}

fn setup(args: &Args) -> Setup {
    let config = IngestConfig {
        stream: StreamConfig {
            spec: DatasetSpec::Gau { n: N, k_prime: K },
            seed: args.seed,
            batches: BATCHES,
        },
        t: T,
        budget: BUDGET,
        machines: MACHINES,
        faults: None,
        executor: Executor::Simulated,
        solve_k: K,
        kill: None,
    };
    let checkpoint = args.work_dir.join("ingest.ckpt");
    // `Ingestor::new` opens the stream, which generates its rows.
    let (ingestor, generate_s) = timed(|| Ingestor::new(config, &checkpoint));
    let ingestor = ingestor.expect("open the GAU batch stream");
    let full = ingestor.stream().full_space();
    let gon = GonzalezConfig::new(K)
        .solve(&full)
        .expect("GON reference on GAU data");
    let queries = query_pool(&full, args.seed);
    Setup {
        ingestor,
        checkpoint,
        full,
        gon_radius: gon.radius,
        queries,
        generate_s,
    }
}

/// Query points: rows of `space` picked by a seeded generator, moved by
/// up to ±0.5 in every coordinate.
fn query_pool(space: &VecSpace, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed ^ 0x005e_ed0f_9e37_79b9;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..QUERIES)
        .map(|_| {
            let row = space.row(next() as usize % space.len());
            row.iter()
                .map(|&c| c + (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
                .collect()
        })
        .collect()
}

/// Removes the checkpoint, so the next fold starts from an empty state as
/// a fresh checkpoint path would.
fn fresh_start(path: &Path) {
    for p in [path.to_path_buf(), checkpoint::tmp_path(path)] {
        match std::fs::remove_file(&p) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                panic!("remove {}: {e}", p.display())
            }
            _ => {}
        }
    }
}

/// Answers one query point from the latest published snapshot, and keeps
/// the snapshot that answered for verification.
fn answer(cell: &SnapshotCell<Euclidean>, q: &[f64]) -> Option<Answer> {
    let snap = cell.load();
    Some((snap.query(q)?, snap))
}

/// Checks a finished fold and returns its radius ratio and the digests
/// of its final coreset bytes and snapshot.
fn check_fold(
    s: &Setup,
    coreset: &WeightedCoreset<Euclidean>,
    snap: &Snapshot,
    expected: Option<(u64, u64)>,
) -> Result<(f64, (u64, u64)), String> {
    if coreset.is_partial() || snap.version() != BATCHES as u64 {
        return Err(format!(
            "fold ended at snapshot v{} (partial coreset: {})",
            snap.version(),
            coreset.is_partial()
        ));
    }
    check_snapshot(snap, K, N)?;
    let radius = covering_radius(&s.full, snap.center_ids());
    if radius > snap.radius_bound() {
        return Err(format!(
            "centers cover at {radius:e}, above the certified bound {:e}",
            snap.radius_bound()
        ));
    }
    let digests = (fnv64(&coreset.to_bytes()), snap.digest());
    match expected {
        Some(e) if e != digests => Err(format!(
            "final state digests {digests:x?} differ from the workload's {e:x?}"
        )),
        _ => Ok((snap.radius_bound() / s.gon_radius, digests)),
    }
}

pub fn run(args: &Args) -> Outcome {
    let (s, setup_s) = repeated_setup(|| setup(args));
    let mut tally = Tally::default();
    let mut expected = None;
    let mut rows = Vec::new();
    let mut layer_rows = Vec::new();
    let mut logs = Vec::new();
    let mut last = Arc::new(Snapshot::empty());
    repeat_for(args.seconds, || {
        fresh_start(&s.checkpoint);
        let cell = SnapshotCell::new();
        let (outcome, times, log) = measure_with_reader(
            &s.queries,
            || cell.load().version() >= 1,
            |q| answer(&cell, q),
            || s.ingestor.run_with_cell(Some(&cell)),
        );
        let snap = cell.load();
        let checked = outcome
            .map_err(|e| e.to_string())
            .and_then(|o| check_fold(&s, &o.coreset, &snap, expected));
        match checked {
            Ok((ratio, digests)) => {
                tally.check("ingest", Ok(()));
                expected = Some(digests);
                rows.push(BTreeMap::from([
                    ("job_s", times.wall_s),
                    ("job_cpu_s", times.cpu_s),
                    ("peak_rss_mib", times.peak_rss_mib),
                    ("radius_ratio", ratio),
                ]));
            }
            Err(e) => {
                tally.check("ingest", Err(e));
            }
        }
        tally.queries(&log, &s.queries, |q, (a, snap)| {
            check_snapshot(snap, K, N)?;
            check_answer(snap, &s.full, q, a)
        });
        logs.push(log);
        last = snap;
        if args.trace {
            match replay(&s, times.wall_s, expected) {
                Ok(m) => {
                    tally.check("replay", Ok(()));
                    layer_rows.push(m);
                }
                Err(e) => {
                    tally.check("replay", Err(e));
                }
            }
        }
    });

    let mut metrics = if args.trace {
        let probe_centers = last.center_ids().to_vec();
        let mut m = per_layer(&layer_rows, (s.full.flat(), &probe_centers), s.generate_s);
        m.extend(reader_metrics(&logs, &s.queries, &last));
        m
    } else {
        end_to_end(&rows, setup_s)
    };
    metrics.retain(|_, v| v.is_finite());
    fresh_start(&s.checkpoint);
    let queries: u64 = logs.iter().map(|l| l.sent()).sum();
    let job_times: Vec<String> = rows.iter().map(|r| format!("{:.3}", r["job_s"])).collect();
    Outcome {
        tally,
        metrics,
        executor: Executor::Simulated.to_string(),
        reader: Some(format!(
            "open loop, one point per SnapshotCell::load().query, {QUERY_RATE_HZ}/s (assumed \
             rate), {} scheduling",
            if REALTIME_DENIED.load(Ordering::Relaxed) {
                "default"
            } else {
                "SCHED_FIFO 1"
            }
        )),
        notes: vec![
            format!(
                "{} jobs, {queries} queries; n = {N} in {BATCHES} batches, t = {T}, \
             budget = {BUDGET}, {MACHINES} machines, k = {K}",
                logs.len()
            ),
            format!("job_s per job: {}", job_times.join(" ")),
        ],
    }
}

/// Query latency under ingest (every untraced job), how late the reader
/// sent, and query latency with no job running, against `last`.
fn reader_metrics(
    logs: &[ReaderLog<Answer>],
    queries: &[Vec<f64>],
    last: &Snapshot,
) -> [(&'static str, f64); 4] {
    let all = |f: fn(&ReaderLog<Answer>) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let latency = all(|l| &l.latency_us);
    let idle = || std::thread::sleep(std::time::Duration::from_millis(500));
    let (_, _, idle_log) = measure_with_reader(queries, || true, |q| last.query(q), idle);
    [
        ("query_p50_us", percentile(&latency, 50.0)),
        ("query_p99_us", percentile(&latency, 99.0)),
        ("reader.late_p99_us", percentile(&all(|l| &l.late_us), 99.0)),
        (
            "serve.query_idle_us",
            percentile(&idle_log.latency_us, 50.0),
        ),
    ]
}

/// The fold loop of `Ingestor::run_with_cell`, replayed from its public
/// pieces with each call timed, beside the same open-loop reader.  Its
/// final coreset bytes and snapshot must equal the untraced job's.
fn replay(
    s: &Setup,
    job_s: f64,
    expected: Option<(u64, u64)>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    fresh_start(&s.checkpoint);
    let cell = SnapshotCell::new();
    let durable = AtomicU64::new(0);
    let max_lag = AtomicU64::new(0);
    let (folded, _, _) = measure_with_reader(
        &s.queries,
        || cell.load().version() >= 1,
        |q| {
            let done = durable.load(Ordering::SeqCst);
            let a = answer(&cell, q)?;
            max_lag.fetch_max(done.saturating_sub(a.1.version()), Ordering::SeqCst);
            Some(a)
        },
        || timed(|| fold(s, &cell, &durable)),
    );
    let (folded, total) = folded;
    let (mut m, coreset, meta) = folded?;
    check_fold(s, &coreset, &cell.load(), expected)?;
    // `save_atomic` encodes inside itself, so the fold has no separate
    // encode call; time one encode of the final state here, outside the
    // fold, and check it is the file the last save wrote.
    let (encoded, encode_s) = timed(|| checkpoint::encode(&meta, &coreset));
    let saved = std::fs::read(&s.checkpoint).map_err(|e| format!("read the checkpoint: {e}"))?;
    if saved != encoded {
        return Err("the last checkpoint differs from an encode of the final state".into());
    }
    m.insert("serve.checkpoint_encode_s", encode_s);
    m.insert("serve.checkpoint_bytes", saved.len() as f64);
    let traced: f64 = [
        "serve.batch_space_s",
        "core.coreset_build_s",
        "core.merge_s",
        "core.recompress_s",
        "serve.checkpoint_save_s",
        "serve.publish_s",
    ]
    .iter()
    .map(|k| m.get(k).copied().unwrap_or(0.0))
    .sum();
    m.insert("trace.job_s", total);
    m.insert(
        "serve.snapshot_lag_batches",
        max_lag.load(Ordering::SeqCst) as f64,
    );
    m.insert("trace.overhead_s", total - job_s);
    m.insert("trace.unattributed_s", job_s - traced);
    Ok(m)
}

type Folded = (
    BTreeMap<&'static str, f64>,
    WeightedCoreset<Euclidean>,
    CheckpointMeta,
);

/// One fault-free fold of the whole stream, call for call as
/// `Ingestor::run_with_cell` makes it, each call timed.
fn fold(s: &Setup, cell: &SnapshotCell<Euclidean>, durable: &AtomicU64) -> Result<Folded, String> {
    let stream = s.ingestor.stream();
    let mut meta = CheckpointMeta {
        config_digest: s.ingestor.config_digest(),
        batches_done: 0,
        total_batches: stream.num_batches() as u64,
        rounds: 0,
        simulated_ns: 0,
        reingested_points: 0,
        reingested_shards: 0,
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *m.entry(k).or_insert(0.0) += v;
    let mut rounds = RoundTotals::default();
    let mut acc: Option<WeightedCoreset<Euclidean>> = None;
    grid::reset_scan_counts();
    let err = |e: &dyn std::fmt::Display| e.to_string();
    for b in 0..stream.num_batches() {
        let (space, dt) = timed(|| stream.batch_space(b));
        add("serve.batch_space_s", dt);
        let config = GonzalezCoresetConfig::new(T)
            .with_machines(MACHINES)
            .with_executor(Executor::Simulated);
        let (built, dt) = timed(|| config.build(&space));
        add("core.coreset_build_s", dt);
        let built = built.map_err(|e| err(&e))?;
        if built.is_partial() {
            return Err(format!("batch {b} summary is partial without faults"));
        }
        rounds.add(built.stats());
        meta.rounds += built.stats().num_rounds() as u64;
        meta.simulated_ns += built.stats().simulated_time().as_nanos();
        let mut next = match acc.take() {
            None => built,
            Some(a) => {
                let (merged, dt) = timed(|| a.merge(&built));
                add("core.merge_s", dt);
                merged.map_err(|e| err(&e))?
            }
        };
        if next.len() > BUDGET {
            let (small, dt) = timed(|| next.recompress(BUDGET));
            add("core.recompress_s", dt);
            next = small.map_err(|e| err(&e))?;
        }
        meta.batches_done = (b + 1) as u64;
        let (saved, dt) = timed(|| checkpoint::save_atomic(&s.checkpoint, &meta, &next));
        add("serve.checkpoint_save_s", dt);
        saved.map_err(|e| err(&e))?;
        durable.store(meta.batches_done, Ordering::SeqCst);
        let (published, dt) = timed(|| -> Result<(), String> {
            let solution = next
                .solve(
                    K.min(next.len()),
                    SequentialSolver::Gonzalez,
                    FirstCenter::default(),
                )
                .map_err(|e| err(&e))?;
            cell.publish(CenterSnapshot::from_solution(
                meta.batches_done,
                meta.batches_done,
                &next,
                &solution,
            ));
            Ok(())
        });
        add("serve.publish_s", dt);
        published?;
        acc = Some(next);
    }
    let coreset = acc.ok_or("the stream has no batches")?;
    let (grid_scans, dense_scans) = grid::scan_counts();
    let build = m["core.coreset_build_s"];
    m.extend([
        ("metric.grid_scans", grid_scans as f64),
        ("metric.dense_scans", dense_scans as f64),
        ("core.unattributed_s", build - rounds.wall_s),
        ("core.coreset_rows", coreset.len() as f64),
    ]);
    // The simulated executor runs one reducer at a time.
    m.extend(rounds.metrics(1));
    Ok((m, coreset, meta))
}
