//! The three workloads. Each runs whole traces on caches that start
//! empty, as the paper does; nothing is sampled.
//!
//! * `study_replay` — the Section 5 matrix at paper size for ocean, lu,
//!   mp3d and fft through `StudySpec` at one job, storing each fresh
//!   cell the way `paper_run --cache` does, then reading the cells back
//!   over loopback TCP. Replay dominates its wall time.
//! * `cold_start` — a fresh server answers one paper-size cell for each
//!   of fmm, volrend, raytrace and lu; each request generates its trace
//!   first, so generation dominates.
//! * `serve_mixed` — a seeded closed-loop stream of writes (first touch
//!   of a small-size cell: simulate, append, fsync) and store-hit reads
//!   over the 144-cell small matrix of all nine apps.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

use cluster_serve::{ResultStore, ServeClient};
use cluster_study::manifest::Manifest;
use cluster_study::study::{CellOutcome, StudySpec};
use cluster_study::JournalEntry;
use coherence::config::CacheSpec;
use simcore::ops::Trace;
use simcore::stats::RunStats;
use simcore::{Json, Rng64};
use splash::ProblemSize;

use crate::gates::{self, Expected};
use crate::probes;
use crate::spans::Tracer;
use crate::stack::{self, app_spec, matrix, timed_run, Cell, Server, Shape};
use crate::util::{
    interquartile_mean, median, ms, peak_rss_mb, per_position_medians, percentile, reset_peak_rss,
    WorkDir,
};

/// Applications of `study_replay`.
pub const STUDY_APPS: [&str; 4] = ["ocean", "lu", "mp3d", "fft"];
/// Rounds of reads over the study's 64 cells after it finishes.
const STUDY_READ_ROUNDS: usize = 4;
/// Applications of `cold_start`.
pub const COLD_APPS: [&str; 4] = ["fmm", "volrend", "raytrace", "lu"];
/// Reads of the cold cells after they were written.
const COLD_READ_ROUNDS: usize = 16;
/// Applications of `serve_mixed`: the whole suite.
pub const ALL_APPS: [&str; 9] = [
    "barnes", "fmm", "fft", "lu", "mp3d", "ocean", "radix", "raytrace", "volrend",
];
/// Reads in one `serve_mixed` stream (besides its 144 writes).
const MIXED_READS: usize = 1000;
/// Every this many `serve_mixed` reads, one fetches a whole app's 16 cells.
const WHOLE_APP_EVERY: usize = 8;
/// Cold bring-ups of the serving stack timed before each pass, for
/// `setup_s`. One takes well under a millisecond and its scheduling
/// varies, so many are needed for a steady median.
const SETUP_REPS_PER_PASS: usize = 100;
/// Passes a run makes at least, whatever `--seconds` says. A pass runs
/// 10–30% slow whenever a slow stretch of a shared host covers it, so a
/// median over passes needs enough of them that such passes stay a
/// minority: five `cold_start` passes take ~45 s.
const MIN_PASSES: usize = 5;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cells_per_s", "1/s"),
    ("sim_mops_per_s", "Mop/s"),
    ("read_p50_ms", "ms"),
    ("write_iqm_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("splash.gen_s", "s"),
    ("splash.ops", "count"),
    ("splash.ns_per_op", "ns"),
    ("tango.replay_s", "s"),
    ("tango.ops", "count"),
    ("tango.ns_per_op", "ns"),
    ("coherence.accesses", "count"),
    ("coherence.ns_per_access", "ns"),
    ("coherence.read_hit_ratio", "ratio"),
    ("cache.ops", "count"),
    ("cache.ns_per_op", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("core.executor_s", "s"),
    ("core.manifest_ms", "ms"),
    ("core.manifest_bytes", "bytes"),
    ("serve.read_p99_ms", "ms"),
    ("serve.write_p99_ms", "ms"),
    ("serve.read_samples", "count"),
    ("serve.write_samples", "count"),
    ("serve.handler_read_us", "us"),
    ("serve.loop_wait_ms", "ms"),
    ("serve.store_hit_us", "us"),
    ("serve.append_ms", "ms"),
    ("serve.store_open_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.sims_run", "count"),
    ("serve.trace_gens", "count"),
    ("serve.hit_ratio", "ratio"),
    ("check.certify_overhead_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Workload names, as `--workload` takes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StudyReplay,
    ColdStart,
    ServeMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "study_replay" => Some(Workload::StudyReplay),
            "cold_start" => Some(Workload::ColdStart),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyReplay => "study_replay",
            Workload::ColdStart => "cold_start",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Records a correctness or set-up failure that is not an operation.
    pub fn error(&mut self, e: String) {
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    /// Counts one operation; a failed one is counted and its reason kept.
    pub fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.error(e);
                None
            }
        }
    }

    /// Keeps the reason of a failed check.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.error(e);
        }
    }
}

/// What a run prints.
pub struct Outcome {
    pub tally: Tally,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra report lines (sample counts, tails, self times).
    pub notes: Vec<String>,
}

// ---------------------------------------------------------------- passes

/// One pass of a workload's measured work.
#[derive(Default)]
struct Pass {
    /// Seconds of the measured work.
    wall: f64,
    /// Cells completed (simulated or served).
    cells: u64,
    /// Trace operations replayed.
    ops: u64,
    /// Client-side latency of each write, ms.
    write_ms: Vec<f64>,
    /// Client-side latency of each read, ms.
    read_ms: Vec<f64>,
    /// The server's `stats` reply at the end of the pass.
    stats: Option<Json>,
    /// Peak resident memory over the span `wall` covers, MiB.
    peak_rss_mb: f64,
    /// Directory of the store the pass left behind.
    store_dir: Option<std::path::PathBuf>,
    /// Served stats per cell, for cross-checks.
    served: HashMap<String, String>,
}

/// Sends `reads`, checks each against the stats the cell was written
/// with, and returns the cells served.
fn send_reads(
    client: &mut ServeClient,
    reads: &[(u64, Read)],
    shape: Shape,
    pass: &mut Pass,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> u64 {
    let mut cells = 0;
    for &(req, read) in reads {
        let (spec, want): (Json, Vec<Cell>) = match read {
            Read::Cell(c) => (c.spec(shape), vec![c]),
            Read::App(app) => (app_spec(app, shape), matrix(app)),
        };
        let t = match tracer.as_deref_mut() {
            Some(tr) => tr.span("serve.read", req, |_| timed_run(client, spec)),
            None => timed_run(client, spec),
        };
        let Some(got) = tally.op(t.reply.and_then(|r| stack::reply_cells(&r))) else {
            continue;
        };
        pass.read_ms.push(t.ms);
        if got.len() != want.len() {
            tally.error(format!("read of {read:?} returned {} cells", got.len()));
            continue;
        }
        for (cell, served) in want.iter().zip(&got) {
            match pass.served.get(&cell.id()) {
                Some(w) => tally.check(gates::check_cell(&format!("read {cell:?}"), served, w)),
                None => tally.error(format!("read of unwritten {cell:?}")),
            }
        }
        cells += got.len() as u64;
    }
    cells
}

fn stats_op(client: &mut ServeClient, want: Expected, pass: &mut Pass, tally: &mut Tally) {
    if let Some(stats) = tally.op(client.stats().map_err(|e| format!("stats op: {e}"))) {
        tally.check(gates::check_counters(&stats, want));
        pass.stats = Some(stats);
    }
}

#[derive(Debug, Clone, Copy)]
enum Read {
    Cell(Cell),
    App(&'static str),
}

/// `rounds` rounds over `cells`, each in a seeded order, numbered as
/// requests from 1000 on.
fn seeded_reads(cells: &[Cell], rounds: usize, rng: &mut Rng64) -> Vec<(u64, Read)> {
    let mut out = Vec::with_capacity(cells.len() * rounds);
    for _ in 0..rounds {
        let mut round: Vec<Read> = cells.iter().map(|&c| Read::Cell(c)).collect();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    (1_000..).zip(out).collect()
}

// ---------------------------------------------------------- study_replay

struct Study {
    reads: Vec<(u64, Read)>,
    /// Trace operations one pass replays, for `sim_mops_per_s`.
    sim_ops: u64,
}

impl Study {
    fn new(seed: u64) -> Study {
        let mut rng = Rng64::new(seed);
        let cells: Vec<Cell> = STUDY_APPS.iter().flat_map(|&a| matrix(a)).collect();
        let reads = seeded_reads(&cells, STUDY_READ_ROUNDS, &mut rng);
        Study {
            reads,
            sim_ops: 16 * trace_ops(&STUDY_APPS, Shape::PAPER),
        }
    }

    /// Records the 64 cells in canonical order and checks the digest.
    fn check_digest(
        &self,
        stats: &HashMap<String, simcore::stats::RunStats>,
        tally: &mut Tally,
    ) -> Option<Manifest> {
        let mut m = Manifest::new("paper_run", Shape::PAPER.label(), Shape::PAPER.procs, 1);
        for app in STUDY_APPS {
            for cell in matrix(app) {
                match stats.get(&cell.id()) {
                    Some(s) => m.record_run(app, &cell.cache.label(), cell.cluster, s, None),
                    None => {
                        tally.error(format!("study lost {cell:?}"));
                        return None;
                    }
                }
            }
        }
        let digest = gates::stats_digest(&m);
        tally.check(gates::pinned_study_digest().and_then(|p| gates::check_digest(&digest, &p)));
        Some(m)
    }

    /// The reads epilogue: a server reopens the store a pass left
    /// behind and serves its cells back over TCP.
    fn serve_back(&self, pass: &mut Pass, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        let Some(dir) = pass.store_dir.clone() else {
            tally.error("study pass left no store".to_string());
            return;
        };
        let Some(server) = tally.op(Server::start(&dir)) else {
            return;
        };
        let Some(mut client) = tally.op(server.connect()) else {
            return;
        };
        let hits = send_reads(&mut client, &self.reads, Shape::PAPER, pass, tally, tracer);
        // A read of a stored cell still generates its app's trace on
        // first touch, so each app counts one generation.
        let want = Expected {
            sims_run: 0,
            cache_hits: hits,
            trace_gens: STUDY_APPS.len() as u64,
        };
        stats_op(&mut client, want, pass, tally);
        drop(client);
        tally.check(server.stop());
    }

    /// `StudySpec` at one job, each fresh cell stored by the
    /// `on_complete` hook; a write is the time between two stored cells.
    /// The reads are not part of a pass: [`Study::serve_back`] makes
    /// them once per run.
    fn pass(&self, work: &WorkDir, tally: &mut Tally) -> Pass {
        let mut pass = Pass::default();
        let Some(store) =
            tally.op(ResultStore::open(&work.fresh("study")).map_err(|e| e.to_string()))
        else {
            return pass;
        };
        pass.store_dir = Some(store.dir().to_path_buf());
        let gaps = Mutex::new((Instant::now(), Vec::new(), Vec::new()));
        let sink = |e: &JournalEntry| {
            let (size, procs) = (Shape::PAPER.label(), Shape::PAPER.procs);
            let key = store.key(&e.app, size, procs, &e.cache, e.cluster);
            let recorded = store.record(&key, size, procs, e);
            let mut g = gaps.lock().unwrap_or_else(|p| p.into_inner());
            let now = Instant::now();
            let gap = ms(now - g.0);
            g.0 = now;
            g.1.push(gap);
            if let Err(err) = recorded {
                g.2.push(format!(
                    "storing {}/{}/{}: {err}",
                    e.app, e.cache, e.cluster
                ));
            }
        };
        reset_peak_rss();
        let t0 = Instant::now();
        gaps.lock().unwrap_or_else(|p| p.into_inner()).0 = t0;
        let run = StudySpec::generate(&STUDY_APPS, ProblemSize::Paper, Shape::PAPER.procs)
            .jobs(1)
            .on_complete(&sink)
            .run_with(|_| {});
        pass.wall = t0.elapsed().as_secs_f64();
        pass.peak_rss_mb = peak_rss_mb();
        let (_, write_ms, store_errors) = gaps.into_inner().unwrap_or_else(|p| p.into_inner());
        pass.write_ms = write_ms;
        for e in store_errors {
            tally.error(e);
        }

        let mut stats = HashMap::new();
        for c in &run.cells {
            let app = STUDY_APPS
                .iter()
                .copied()
                .find(|a| *a == run.names[c.trace])
                .unwrap_or("?");
            let cell = Cell {
                app,
                cache: c.cache,
                cluster: c.cluster,
            };
            let outcome = match &c.outcome {
                CellOutcome::Done { stats, .. } => Ok(stats.clone()),
                CellOutcome::Failed { error, .. } => Err(format!("{cell:?}: {error}")),
            };
            if let Some(s) = tally.op(outcome) {
                pass.served.insert(
                    cell.id(),
                    gates::cell_stats_json(app, &c.cache.label(), c.cluster, &s),
                );
                stats.insert(cell.id(), s);
            }
        }
        pass.cells = stats.len() as u64;
        pass.ops = self.sim_ops;
        self.check_digest(&stats, tally);
        pass
    }

    /// The same work decomposed into layer calls, each inside a span of
    /// `tracer`. Run once with [`Tracer::off`] and once with a live
    /// tracer, its two walls give the cost of the spans alone.
    fn traced_pass(
        &self,
        work: &WorkDir,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> (Pass, Vec<(&'static str, Trace)>, Option<Manifest>) {
        let mut pass = Pass::default();
        let mut traces = Vec::new();
        let Some(store) =
            tally.op(ResultStore::open(&work.fresh("study-traced")).map_err(|e| e.to_string()))
        else {
            return (pass, traces, None);
        };
        pass.store_dir = Some(store.dir().to_path_buf());
        let mut stats = HashMap::new();
        let t0 = Instant::now();
        for (ai, app) in STUDY_APPS.into_iter().enumerate() {
            let trace = tracer.span("splash.generate", ai as u64, |_| Shape::PAPER.trace(app));
            for (ci, cell) in matrix(app).into_iter().enumerate() {
                let req = (ai * 16 + ci) as u64;
                let label = cell.cache.label();
                let recorded = tracer.span("cell.write", req, |t| {
                    let s = t.span("tango.replay", req, |_| {
                        cluster_study::run_config(&trace, cell.cluster, cell.cache)
                    });
                    t.span("store.append", req, |_| {
                        store_cell(&store, Shape::PAPER, cell, &s)
                    })
                    .map(|_| s)
                });
                if let Some(s) = tally.op(recorded) {
                    pass.served.insert(
                        cell.id(),
                        gates::cell_stats_json(app, &label, cell.cluster, &s),
                    );
                    stats.insert(cell.id(), s);
                }
            }
            traces.push((app, trace));
        }
        pass.wall = t0.elapsed().as_secs_f64();
        pass.write_ms = tracer
            .durations("cell.write")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        pass.cells = stats.len() as u64;
        let manifest = self.check_digest(&stats, tally);
        (pass, traces, manifest)
    }
}

/// Stores one simulated cell the way `paper_run --cache` does.
fn store_cell(
    store: &ResultStore,
    shape: Shape,
    cell: Cell,
    stats: &RunStats,
) -> Result<(), String> {
    let entry = JournalEntry {
        app: cell.app.to_string(),
        cache: cell.cache.label(),
        cluster: cell.cluster,
        stats: stats.clone(),
        wall: None,
        status: cluster_study::RunStatus::Ok,
        attempts: 1,
        sampling: None,
    };
    let key = store.key(
        cell.app,
        shape.label(),
        shape.procs,
        &entry.cache,
        cell.cluster,
    );
    store
        .record(&key, shape.label(), shape.procs, &entry)
        .map(|_| ())
        .map_err(|e| format!("storing {cell:?}: {e}"))
}

// ------------------------------------------------------------ cold_start

struct Cold {
    reads: Vec<(u64, Read)>,
}

fn cold_cell(app: &'static str) -> Cell {
    Cell {
        app,
        cache: CacheSpec::PerProcBytes(4096),
        cluster: 8,
    }
}

impl Cold {
    fn new(seed: u64) -> Cold {
        let mut rng = Rng64::new(seed);
        let cells: Vec<Cell> = COLD_APPS.iter().map(|&a| cold_cell(a)).collect();
        let reads = seeded_reads(&cells, COLD_READ_ROUNDS, &mut rng);
        Cold { reads }
    }

    /// A fresh server; one single-cell write per app, then the reads.
    fn pass(&self, work: &WorkDir, tally: &mut Tally, mut tracer: Option<&mut Tracer>) -> Pass {
        let mut pass = Pass::default();
        let dir = work.fresh("cold");
        let Some(server) = tally.op(Server::start(&dir)) else {
            return pass;
        };
        let Some(mut client) = tally.op(server.connect()) else {
            return pass;
        };
        reset_peak_rss();
        let t0 = Instant::now();
        for (i, app) in COLD_APPS.into_iter().enumerate() {
            let cell = cold_cell(app);
            let spec = cell.spec(Shape::PAPER);
            let t = match tracer.as_deref_mut() {
                Some(tr) => tr.span("serve.write", i as u64, |_| timed_run(&mut client, spec)),
                None => timed_run(&mut client, spec),
            };
            if let Some(cells) = tally.op(t.reply.and_then(|r| stack::reply_cells(&r))) {
                pass.write_ms.push(t.ms);
                if let Some(s) = cells.into_iter().next() {
                    pass.served.insert(cell.id(), s);
                }
            }
        }
        let hits = send_reads(
            &mut client,
            &self.reads,
            Shape::PAPER,
            &mut pass,
            tally,
            tracer,
        );
        pass.wall = t0.elapsed().as_secs_f64();
        pass.peak_rss_mb = peak_rss_mb();
        pass.cells = pass.served.len() as u64 + hits;
        let want = Expected {
            sims_run: COLD_APPS.len() as u64,
            cache_hits: hits,
            trace_gens: COLD_APPS.len() as u64,
        };
        stats_op(&mut client, want, &mut pass, tally);
        drop(client);
        tally.check(server.stop());
        pass.store_dir = Some(dir);
        pass
    }
}

// ----------------------------------------------------------- serve_mixed

#[derive(Debug, Clone, Copy)]
enum Req {
    Write(Cell),
    Read(Read),
}

/// The seeded request stream. Apps are written one after another in a
/// seeded order, each app's 16 cells in a seeded order, at evenly
/// spaced slots; the slots between are reads of written cells, and
/// every eighth read fetches the whole matrix of a completed app. The
/// seed changes the order only: every stream holds the same requests.
fn mixed_stream(seed: u64) -> Vec<Req> {
    let mut rng = Rng64::new(seed);
    let mut apps = ALL_APPS.to_vec();
    rng.shuffle(&mut apps);
    let mut order = Vec::new();
    for app in apps {
        let mut cells = matrix(app);
        rng.shuffle(&mut cells);
        order.extend(cells);
    }
    let writes = order.len();
    let total = writes + MIXED_READS;
    let mut touched: Vec<Cell> = Vec::new();
    let mut complete: Vec<&'static str> = Vec::new();
    let mut out = Vec::with_capacity(total);
    let (mut next, mut reads) = (0, 0);
    for slot in 0..total {
        if next < writes && slot >= next * total / writes {
            let c = order[next];
            next += 1;
            touched.push(c);
            if next % 16 == 0 {
                complete.push(c.app);
            }
            out.push(Req::Write(c));
        } else {
            reads += 1;
            let read = if reads % WHOLE_APP_EVERY == 0 && !complete.is_empty() {
                Read::App(complete[rng.bounded_u64(complete.len() as u64) as usize])
            } else {
                Read::Cell(touched[rng.bounded_u64(touched.len() as u64) as usize])
            };
            out.push(Req::Read(read));
        }
    }
    out
}

/// One pass of the stream against a fresh store.
fn mixed_pass(
    stream: &[Req],
    work: &WorkDir,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let dir = work.fresh("mixed");
    let Some(server) = tally.op(Server::start(&dir)) else {
        return pass;
    };
    let Some(mut client) = tally.op(server.connect()) else {
        return pass;
    };
    let mut hits = 0;
    reset_peak_rss();
    let t0 = Instant::now();
    for (i, req) in stream.iter().enumerate() {
        match *req {
            Req::Write(cell) => {
                let spec = cell.spec(Shape::SMALL);
                let t = match tracer.as_deref_mut() {
                    Some(tr) => tr.span("serve.write", i as u64, |_| timed_run(&mut client, spec)),
                    None => timed_run(&mut client, spec),
                };
                if let Some(cells) = tally.op(t.reply.and_then(|r| stack::reply_cells(&r))) {
                    pass.write_ms.push(t.ms);
                    if let Some(s) = cells.into_iter().next() {
                        pass.served.insert(cell.id(), s);
                    }
                }
            }
            Req::Read(read) => {
                hits += send_reads(
                    &mut client,
                    &[(i as u64, read)],
                    Shape::SMALL,
                    &mut pass,
                    tally,
                    tracer.as_deref_mut(),
                );
            }
        }
    }
    pass.wall = t0.elapsed().as_secs_f64();
    pass.peak_rss_mb = peak_rss_mb();
    pass.cells = pass.served.len() as u64 + hits;
    let want = Expected {
        sims_run: pass.served.len() as u64,
        cache_hits: hits,
        trace_gens: ALL_APPS.len() as u64,
    };
    stats_op(&mut client, want, &mut pass, tally);
    drop(client);
    tally.check(server.stop());
    pass.store_dir = Some(dir);
    pass
}

// ------------------------------------------------------------- reference

/// Generation and replay of the cells a serving workload answered,
/// each inside a span, checked against what the server sent.
struct Reference {
    traces: Vec<(&'static str, Trace)>,
    manifest: Manifest,
    /// Every cell with the stats `run_config` gave it.
    cells: Vec<(Cell, RunStats)>,
}

fn reference(
    apps: &[&'static str],
    cells_of: impl Fn(&'static str) -> Vec<Cell>,
    shape: Shape,
    served: &HashMap<String, String>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Reference {
    let mut traces = Vec::new();
    let mut cells = Vec::new();
    let mut manifest = Manifest::new("clusterbench", shape.label(), shape.procs, 1);
    for (ai, &app) in apps.iter().enumerate() {
        let trace = tracer.span("splash.generate", ai as u64, |_| shape.trace(app));
        for (ci, cell) in cells_of(app).into_iter().enumerate() {
            let req = (ai * 16 + ci) as u64;
            let stats = tracer.span("tango.replay", req, |_| {
                cluster_study::run_config(&trace, cell.cluster, cell.cache)
            });
            let label = cell.cache.label();
            let want = gates::cell_stats_json(app, &label, cell.cluster, &stats);
            match served.get(&cell.id()) {
                Some(s) => tally.check(gates::check_cell(
                    &format!("{cell:?} vs run_config"),
                    s,
                    &want,
                )),
                None => tally.error(format!("{cell:?} was never served")),
            }
            manifest.record_run(app, &label, cell.cluster, &stats, None);
            cells.push((cell, stats));
        }
        traces.push((app, trace));
    }
    Reference {
        traces,
        manifest,
        cells,
    }
}

/// Total operations of the traces of `apps`.
fn trace_ops(apps: &[&'static str], shape: Shape) -> u64 {
    apps.iter().map(|&a| shape.trace(a).total_ops()).sum()
}

// ------------------------------------------------------------------ runs

/// The measured passes of a run and the set-up times taken between them.
struct Passes {
    passes: Vec<Pass>,
    /// Seconds of each cold bring-up of the serving stack.
    setups: Vec<f64>,
}

/// Runs passes until `seconds` have elapsed and at least [`MIN_PASSES`]
/// were made. Before each pass the serving stack is brought up cold
/// [`SETUP_REPS_PER_PASS`] times, so set-up is sampled across the whole
/// run, under the same host conditions as the passes.
///
/// The bring-ups share one empty store whose shard files were created
/// before the first: creating them costs four `fsync`s, whose latency
/// on a shared VM disk follows the host's disk load (0.5–4 ms per store
/// within an hour), which would swamp the set-up work itself.
fn repeat(
    seconds: f64,
    work: &WorkDir,
    tally: &mut Tally,
    mut pass: impl FnMut(&mut Tally) -> Pass,
) -> Passes {
    let setup_dir = work.fresh("setup");
    if let Err(e) = ResultStore::open(&setup_dir) {
        tally.error(format!("creating the set-up store: {e}"));
    }
    let t0 = Instant::now();
    let mut out = Passes {
        passes: Vec::new(),
        setups: Vec::new(),
    };
    while out.passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        for _ in 0..SETUP_REPS_PER_PASS {
            if let Some(t) = tally.op(stack::bring_up(&setup_dir)) {
                out.setups.push(t);
            }
        }
        out.passes.push(pass(tally));
    }
    out
}

/// The untraced run: every end-to-end metric.
pub fn measured(workload: Workload, seed: u64, seconds: f64, work: &WorkDir) -> Outcome {
    let mut tally = Tally::default();
    let Passes { passes, setups } = match workload {
        Workload::StudyReplay => {
            let study = Study::new(seed);
            let mut run = repeat(seconds, work, &mut tally, |t| study.pass(work, t));
            if let Some(last) = run.passes.last_mut() {
                study.serve_back(last, &mut tally, None);
            }
            run
        }
        Workload::ColdStart => {
            let cold = Cold::new(seed);
            let mut run = repeat(seconds, work, &mut tally, |t| cold.pass(work, t, None));
            let mut tracer = Tracer::default();
            let served = run.passes[0].served.clone();
            for p in &run.passes[1..] {
                for (cell, s) in &p.served {
                    if served.get(cell) != Some(s) {
                        tally.error(format!("{cell:?} served differently across passes"));
                    }
                }
            }
            let r = reference(
                &COLD_APPS,
                |a| vec![cold_cell(a)],
                Shape::PAPER,
                &served,
                &mut tracer,
                &mut tally,
            );
            let ops: u64 = r.traces.iter().map(|(_, t)| t.total_ops()).sum();
            for p in &mut run.passes {
                p.ops = ops;
            }
            run
        }
        Workload::ServeMixed => {
            let stream = mixed_stream(seed);
            let sim_ops = 16 * trace_ops(&ALL_APPS, Shape::SMALL);
            let mut run = repeat(seconds, work, &mut tally, |t| {
                mixed_pass(&stream, work, t, None)
            });
            for p in &mut run.passes {
                p.ops = sim_ops;
            }
            run
        }
    };
    let setup_s = median(&setups);
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Every pass sends the same requests in the same order, so the i-th
    // latency of each pass is the same request. Study reads are made
    // once per run, so passes without samples do not count.
    let per_request = |f: &dyn Fn(&Pass) -> &[f64]| {
        let sampled: Vec<&[f64]> = passes.iter().map(f).filter(|v| !v.is_empty()).collect();
        per_position_medians(&sampled)
    };
    let reads: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.read_ms.iter().copied())
        .collect();
    let writes: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.write_ms.iter().copied())
        .collect();
    let wall_s = per(&|p| p.wall);
    let notes = vec![
        format!(
            "passes: {} (walls {:?} s)",
            passes.len(),
            passes.iter().map(|p| p.wall).collect::<Vec<_>>()
        ),
        format!(
            "reads: {} samples, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
            reads.len(),
            percentile(&reads, 0.5),
            percentile(&reads, 0.9),
            percentile(&reads, 0.99)
        ),
        format!(
            "writes: {} samples, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
            writes.len(),
            percentile(&writes, 0.5),
            percentile(&writes, 0.9),
            percentile(&writes, 0.99)
        ),
    ];
    Outcome {
        tally,
        metrics: vec![
            ("wall_s", wall_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", per(&|p| p.peak_rss_mb), "MiB"),
            ("cells_per_s", per(&|p| p.cells as f64 / p.wall), "1/s"),
            (
                "sim_mops_per_s",
                per(&|p| p.ops as f64 / p.wall / 1e6),
                "Mop/s",
            ),
            ("read_p50_ms", median(&per_request(&|p| &p.read_ms)), "ms"),
            (
                "write_iqm_ms",
                interquartile_mean(&per_request(&|p| &p.write_ms)),
                "ms",
            ),
        ],
        notes,
    }
}

/// Layer metrics gathered by one traced run.
struct Layers {
    gen_s: f64,
    gen_ops: u64,
    replay_s: f64,
    replay_ops: u64,
    /// Wall of the untraced pass `core.executor_s` is taken from.
    executor_wall: f64,
    /// Wall of the traced pass's code path run without spans.
    untraced_wall: f64,
    traced_wall: f64,
    manifest: Option<Manifest>,
    traced: Pass,
    /// Store and protocol share of each write, ms.
    append_ms: Vec<f64>,
    traces: Vec<(&'static str, Trace)>,
    certify_trace: Trace,
    /// The cell the in-process serving probe reads.
    read_line_cell: (Cell, Shape),
}

/// The traced run: an untraced pass, the same code path without and
/// then inside spans, then the layer probes. Reports every per-layer
/// metric.
pub fn traced(
    workload: Workload,
    seed: u64,
    work: &WorkDir,
    spans_path: &std::path::Path,
) -> Outcome {
    let mut tally = Tally::default();
    let mut tracer = Tracer::default();
    let layers = match workload {
        Workload::StudyReplay => {
            let study = Study::new(seed);
            // The `StudySpec` pass gives the executor's share; the hand
            // loop the spans wrap is timed once without them, so the
            // overhead ratio compares one code path with itself.
            let executor = study.pass(work, &mut tally);
            let (plain, _, _) = study.traced_pass(work, &mut Tracer::off(), &mut tally);
            let (mut traced, traces, manifest) = study.traced_pass(work, &mut tracer, &mut tally);
            study.serve_back(&mut traced, &mut tally, Some(&mut tracer));
            let gen_ops = traces.iter().map(|(_, t)| t.total_ops()).sum();
            Layers {
                gen_s: tracer.total("splash.generate"),
                gen_ops,
                replay_s: tracer.total("tango.replay"),
                replay_ops: gen_ops * 16,
                executor_wall: executor.wall,
                untraced_wall: plain.wall,
                traced_wall: traced.wall,
                manifest,
                append_ms: tracer
                    .durations("store.append")
                    .iter()
                    .map(|s| s * 1e3)
                    .collect(),
                traced,
                traces,
                certify_trace: Shape::PAPER.trace("ocean"),
                read_line_cell: (matrix("ocean")[0], Shape::PAPER),
            }
        }
        Workload::ColdStart => {
            let cold = Cold::new(seed);
            let untraced = cold.pass(work, &mut tally, None);
            let traced = cold.pass(work, &mut tally, Some(&mut tracer));
            let r = reference(
                &COLD_APPS,
                |a| vec![cold_cell(a)],
                Shape::PAPER,
                &traced.served,
                &mut tracer,
                &mut tally,
            );
            // A paper cell's generation and replay vary by more than a
            // whole append from one run to the next, so a write minus
            // the benchmark's own replay of it says nothing; the appends
            // are timed directly, as `study_replay` times them.
            match ResultStore::open(&work.fresh("cold-append")) {
                Ok(store) => {
                    for (i, (cell, stats)) in r.cells.iter().enumerate() {
                        let stored = tracer.span("store.append", i as u64, |_| {
                            store_cell(&store, Shape::PAPER, *cell, stats)
                        });
                        tally.check(stored);
                    }
                }
                Err(e) => tally.error(format!("opening the append store: {e}")),
            }
            let append_ms = tracer
                .durations("store.append")
                .iter()
                .map(|s| s * 1e3)
                .collect();
            let ops: u64 = r.traces.iter().map(|(_, t)| t.total_ops()).sum();
            Layers {
                gen_s: tracer.total("splash.generate"),
                gen_ops: ops,
                replay_s: tracer.total("tango.replay"),
                replay_ops: ops,
                executor_wall: untraced.wall,
                untraced_wall: untraced.wall,
                traced_wall: traced.wall,
                manifest: Some(r.manifest),
                traced,
                append_ms,
                traces: r.traces,
                certify_trace: Shape::PAPER.trace("ocean"),
                read_line_cell: (cold_cell("lu"), Shape::PAPER),
            }
        }
        Workload::ServeMixed => {
            let stream = mixed_stream(seed);
            let untraced = mixed_pass(&stream, work, &mut tally, None);
            let traced = mixed_pass(&stream, work, &mut tally, Some(&mut tracer));
            let r = reference(
                &ALL_APPS,
                matrix,
                Shape::SMALL,
                &traced.served,
                &mut tracer,
                &mut tally,
            );
            let mut append_ms = Vec::new();
            let mut generated: HashSet<&str> = HashSet::new();
            for (i, req) in stream.iter().enumerate() {
                let Req::Write(cell) = *req else { continue };
                let ai = ALL_APPS.iter().position(|a| *a == cell.app).unwrap_or(0);
                let ci = matrix(cell.app)
                    .iter()
                    .position(|c| *c == cell)
                    .unwrap_or(0);
                let gen = if generated.insert(cell.app) {
                    tracer.of("splash.generate", ai as u64).unwrap_or(0.0)
                } else {
                    0.0
                };
                if let (Some(w), Some(rp)) = (
                    tracer.of("serve.write", i as u64),
                    tracer.of("tango.replay", (ai * 16 + ci) as u64),
                ) {
                    append_ms.push((w - gen - rp) * 1e3);
                }
            }
            let gen_ops: u64 = r.traces.iter().map(|(_, t)| t.total_ops()).sum();
            Layers {
                gen_s: tracer.total("splash.generate"),
                gen_ops,
                replay_s: tracer.total("tango.replay"),
                replay_ops: gen_ops * 16,
                executor_wall: untraced.wall,
                untraced_wall: untraced.wall,
                traced_wall: traced.wall,
                manifest: Some(r.manifest),
                traced,
                append_ms,
                traces: r.traces,
                certify_trace: Shape::SMALL.trace("ocean"),
                read_line_cell: (matrix("ocean")[0], Shape::SMALL),
            }
        }
    };
    finish_traced(layers, tracer, tally, spans_path)
}

fn finish_traced(
    l: Layers,
    tracer: Tracer,
    mut tally: Tally,
    spans_path: &std::path::Path,
) -> Outcome {
    let trace_refs: Vec<&Trace> = l.traces.iter().map(|(_, t)| t).collect();
    let mem = probes::memory(&trace_refs);
    if mem.coherence_errors > 0 {
        tally.error(format!(
            "coherence probe: {} accesses failed",
            mem.coherence_errors
        ));
    }
    let certify = tally
        .op(probes::certify_overhead(&l.certify_trace, 1.0))
        .unwrap_or(0.0);
    let (manifest_ms, manifest_bytes) = l.manifest.as_ref().map_or((0.0, 0), probes::manifest);

    let mut serve = None;
    if let Some(dir) = &l.traced.store_dir {
        let (cell, shape) = l.read_line_cell;
        let line = Json::obj()
            .with("op", "run")
            .with("spec", cell.spec(shape))
            .to_string();
        serve = tally.op(probes::serve(dir, &line, cell, shape));
    }
    let (store_open_ms, handler_read_us, store_hit_us, parse_us) =
        serve.as_ref().map_or((0.0, 0.0, 0.0, 0.0), |s| {
            (
                s.store_open_ms,
                s.handler_read_us,
                s.store_hit_us,
                s.parse_us,
            )
        });

    let counter = |k: &str| {
        l.traced
            .stats
            .as_ref()
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let (hits, sims) = (counter("cache_hits"), counter("sims_run"));
    let reads = &l.traced.read_ms;
    let writes = &l.traced.write_ms;

    let mut notes: Vec<String> = tracer
        .self_times()
        .into_iter()
        .map(|(name, s)| format!("self time {name}: {s:.4} s"))
        .collect();
    notes.push(format!(
        "spans: {} written to {}",
        tracer.spans().len(),
        spans_path.display()
    ));
    if let Err(e) = tracer.write_jsonl(spans_path) {
        tally.error(format!("writing spans: {e}"));
    }
    Outcome {
        tally,
        metrics: vec![
            ("splash.gen_s", l.gen_s, "s"),
            ("splash.ops", l.gen_ops as f64, "count"),
            (
                "splash.ns_per_op",
                l.gen_s * 1e9 / l.gen_ops.max(1) as f64,
                "ns",
            ),
            ("tango.replay_s", l.replay_s, "s"),
            ("tango.ops", l.replay_ops as f64, "count"),
            (
                "tango.ns_per_op",
                l.replay_s * 1e9 / l.replay_ops.max(1) as f64,
                "ns",
            ),
            ("coherence.accesses", mem.coherence_accesses as f64, "count"),
            ("coherence.ns_per_access", mem.coherence_ns, "ns"),
            (
                "coherence.read_hit_ratio",
                mem.coherence_read_hit_ratio,
                "ratio",
            ),
            ("cache.ops", mem.cache_ops as f64, "count"),
            ("cache.ns_per_op", mem.cache_ns, "ns"),
            ("cache.hit_ratio", mem.cache_hit_ratio, "ratio"),
            ("cache.evictions", mem.cache_evictions as f64, "count"),
            (
                "core.executor_s",
                l.executor_wall - l.gen_s - l.replay_s,
                "s",
            ),
            ("core.manifest_ms", manifest_ms, "ms"),
            ("core.manifest_bytes", manifest_bytes as f64, "bytes"),
            ("serve.read_p99_ms", percentile(reads, 0.99), "ms"),
            ("serve.write_p99_ms", percentile(writes, 0.99), "ms"),
            ("serve.read_samples", reads.len() as f64, "count"),
            ("serve.write_samples", writes.len() as f64, "count"),
            ("serve.handler_read_us", handler_read_us, "us"),
            (
                "serve.loop_wait_ms",
                median(reads) - handler_read_us / 1e3,
                "ms",
            ),
            ("serve.store_hit_us", store_hit_us, "us"),
            ("serve.append_ms", median(&l.append_ms), "ms"),
            ("serve.store_open_ms", store_open_ms, "ms"),
            ("serve.parse_us", parse_us, "us"),
            ("serve.cache_hits", hits as f64, "count"),
            ("serve.sims_run", sims as f64, "count"),
            ("serve.trace_gens", counter("trace_gens") as f64, "count"),
            (
                "serve.hit_ratio",
                hits as f64 / (hits + sims).max(1) as f64,
                "ratio",
            ),
            ("check.certify_overhead_ratio", certify, "ratio"),
            (
                "bench.trace_overhead_ratio",
                l.traced_wall / l.untraced_wall.max(1e-9),
                "ratio",
            ),
        ],
        notes,
    }
}
