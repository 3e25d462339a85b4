//! Per-job measurement: wall and CPU time, peak memory, and the open-loop
//! query reader that runs beside the `ingest-query` job.
//!
//! The reader is one thread on a fixed schedule of [`QUERY_RATE_HZ`]
//! queries per second (an open loop: it never waits for the system before
//! sending the next query).  Each query is one point, the program's own
//! query unit.  Each query is timed from the moment it was due, so a stall
//! also charges the queries queued behind it, and the reader separately
//! records how late it sent each query.  It runs at the lowest real-time
//! priority where the kernel allows, so its latency shows the program's
//! query path rather than the scheduler's time slice.

use crate::host;
use kcenter_mapreduce::JobStats;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Queries per second the reader sends.  No caller in the repository
/// sets a query rate; this one is assumed, so the query metrics carry no
/// bound.
pub const QUERY_RATE_HZ: u32 = 1000;

/// Log entries the reader reserves, and touches, before it starts: a
/// buffer grown mid-run faults in fresh pages, which waits behind the
/// job's own `munmap`s for the process's memory-map lock.
const RESERVED: usize = 1 << 15;

/// How long before a query's due time the reader stops sleeping and
/// spins.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(50);

/// Set when the kernel refused the reader real-time priority; its
/// latencies then include waiting for other threads' time slices.
pub static REALTIME_DENIED: AtomicBool = AtomicBool::new(false);

/// Every this-many answers, the reader keeps one for verification after
/// the job.
pub const SAMPLE_EVERY: usize = 16;

/// What the reader saw during one job.
pub struct ReaderLog<A> {
    /// Due time to answer, per query, in µs.
    pub latency_us: Vec<f64>,
    /// Due time to send, per query, in µs (how late the generator ran).
    pub late_us: Vec<f64>,
    /// Queries that got no answer.
    pub unanswered: u64,
    /// Sampled answers, with the index of the query point they answer.
    pub samples: Vec<(usize, A)>,
    /// CPU seconds the reader thread itself used.
    pub cpu_s: f64,
}

impl<A> ReaderLog<A> {
    /// Queries sent.
    pub fn sent(&self) -> u64 {
        self.latency_us.len() as u64
    }
}

/// Wall time, CPU time and peak memory of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    /// Wall seconds of the job call.
    pub wall_s: f64,
    /// Process user+sys CPU seconds during the job, minus the reader's.
    pub cpu_s: f64,
    /// Peak resident memory during the job, in MiB.
    pub peak_rss_mib: f64,
}

/// The start of a measured job: the heap trimmed, the memory high-water
/// mark reset, and the clocks read.
struct Window {
    cpu0: f64,
    t0: Instant,
}

impl Window {
    fn open() -> Self {
        host::trim_heap();
        host::reset_peak_rss();
        Self {
            cpu0: host::process_cpu_s(),
            t0: Instant::now(),
        }
    }

    /// The job's times; `wall_s` is the wall time up to `end`.
    fn close(self, end: Instant) -> JobTimes {
        JobTimes {
            wall_s: (end - self.t0).as_secs_f64(),
            cpu_s: host::process_cpu_s() - self.cpu0,
            peak_rss_mib: host::peak_rss_mib(),
        }
    }
}

/// Runs `job` and returns its result with its wall time, CPU time and
/// peak memory.
pub fn measure<R>(job: impl FnOnce() -> R) -> (R, JobTimes) {
    let window = Window::open();
    let result = black_box(job());
    let times = window.close(Instant::now());
    (result, times)
}

/// [`measure`], while a reader thread sends `answer(point)` on the
/// open-loop schedule, cycling through `queries`.  The schedule starts
/// once `ready()` holds (a service answers nothing before its first
/// publish).  The reader's own CPU time is left out of the job's.
pub fn measure_with_reader<R, A: Send>(
    queries: &[Vec<f64>],
    ready: impl Fn() -> bool + Sync,
    answer: impl Fn(&[f64]) -> Option<A> + Sync,
    job: impl FnOnce() -> R,
) -> (R, JobTimes, ReaderLog<A>) {
    let stop = AtomicBool::new(false);
    let window = Window::open();
    let (result, end, log) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_open_loop(queries, &stop, &ready, &answer));
        let result = black_box(job());
        let end = Instant::now();
        stop.store(true, Ordering::SeqCst);
        (result, end, reader.join().expect("reader thread panicked"))
    });
    let mut times = window.close(end);
    times.cpu_s -= log.cpu_s;
    (result, times, log)
}

fn read_open_loop<A>(
    queries: &[Vec<f64>],
    stop: &AtomicBool,
    ready: &(impl Fn() -> bool + Sync),
    answer: &(impl Fn(&[f64]) -> Option<A> + Sync),
) -> ReaderLog<A> {
    host::tighten_timer_slack();
    if !host::realtime_priority() {
        REALTIME_DENIED.store(true, Ordering::Relaxed);
    }
    let cpu0 = host::thread_cpu_s();
    let touched = || {
        let mut v = Vec::with_capacity(RESERVED);
        v.resize(RESERVED, 0.0);
        v.clear();
        v
    };
    let mut log = ReaderLog {
        latency_us: touched(),
        late_us: touched(),
        unanswered: 0,
        samples: Vec::with_capacity(RESERVED / SAMPLE_EVERY + 1),
        cpu_s: 0.0,
    };
    while !ready() {
        if stop.load(Ordering::SeqCst) {
            log.cpu_s = host::thread_cpu_s() - cpu0;
            return log;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let period = Duration::from_secs(1) / QUERY_RATE_HZ;
    let start = Instant::now();
    for i in 0u32.. {
        let due = start + period * i;
        // Sleep to just before the due time, then spin, so queries leave
        // on time and the wake-up delay does not count as query latency.
        let wake = due.checked_sub(SPIN_BEFORE_DUE).unwrap_or(due);
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let sent = Instant::now();
        let q = i as usize % queries.len();
        let a = answer(&queries[q]);
        let done = Instant::now();
        log.latency_us.push((done - due).as_secs_f64() * 1e6);
        log.late_us.push((sent - due).as_secs_f64() * 1e6);
        match a {
            None => log.unanswered += 1,
            Some(a) if (i as usize).is_multiple_of(SAMPLE_EVERY) => log.samples.push((q, a)),
            Some(_) => {}
        }
    }
    log.cpu_s = host::thread_cpu_s() - cpu0;
    log
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Runs `f` and returns its result with its wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = black_box(f());
    (r, t0.elapsed().as_secs_f64())
}

/// The MapReduce accounting of one job, summed over its rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTotals {
    /// Rounds run.
    pub rounds: f64,
    /// Σ round wall time.
    pub wall_s: f64,
    /// Σ per-machine processing time (`sequential_time`).
    pub work_s: f64,
    /// Σ slowest-machine time per round (`simulated_time`, the paper's
    /// charged time).
    pub depth_s: f64,
    /// Σ items handed to reducers.
    pub items_in: f64,
    /// Largest reducer input of any round.
    pub max_machine_items: f64,
    /// Σ reducer executions, retries included.
    pub attempts: f64,
    /// Σ reducers that received input.
    pub machines: f64,
}

impl RoundTotals {
    /// Adds every round of `stats`.
    pub fn add(&mut self, stats: &JobStats) {
        for r in stats.rounds() {
            self.rounds += 1.0;
            self.wall_s += r.wall_time.as_secs_f64();
            self.work_s += r.sequential_time.as_secs_f64();
            self.depth_s += r.simulated_time.as_secs_f64();
            self.items_in += r.items_in as f64;
            self.max_machine_items = self.max_machine_items.max(r.max_machine_items as f64);
            self.attempts += r.attempts as f64;
            self.machines += r.machines_used as f64;
        }
    }

    /// Round wall time over the work/depth bound `max(depth, work / p)`
    /// for `p` workers: 1 means the rounds ran as fast as the bound allows.
    fn bound_ratio(&self, p: usize) -> f64 {
        let bound = self.depth_s.max(self.work_s / p as f64);
        if bound > 0.0 {
            self.wall_s / bound
        } else {
            0.0
        }
    }

    /// The `mapreduce.*` per-layer metrics, for `p` workers.
    pub fn metrics(&self, p: usize) -> [(&'static str, f64); 8] {
        [
            ("mapreduce.rounds", self.rounds),
            ("mapreduce.round_wall_s", self.wall_s),
            ("mapreduce.work_s", self.work_s),
            ("mapreduce.depth_s", self.depth_s),
            ("mapreduce.bound_ratio", self.bound_ratio(p)),
            ("mapreduce.items_shuffled", self.items_in),
            ("mapreduce.max_machine_items", self.max_machine_items),
            (
                "mapreduce.attempts_per_machine",
                self.attempts_per_machine(),
            ),
        ]
    }

    /// Reducer executions per reducer that received input.
    fn attempts_per_machine(&self) -> f64 {
        if self.machines > 0.0 {
            self.attempts / self.machines
        } else {
            0.0
        }
    }
}
