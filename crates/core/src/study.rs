//! Experiment sweeps over cluster and cache sizes, behind the
//! [`StudySpec`] builder.
//!
//! The paper's core experiment: fix the machine at 64 processors and a
//! given total cache per processor, vary the number of processors per
//! cluster over {1, 2, 4, 8}, and report execution time (decomposed
//! into CPU / load / merge / sync) normalized to the
//! 1-processor-per-cluster run.
//!
//! [`StudySpec`] is the single entry point for every sweep shape:
//!
//! ```ignore
//! // One app, one cache, the paper's cluster sizes:
//! let sweep = StudySpec::for_trace(&trace)
//!     .caches([CacheSpec::Infinite])
//!     .run_sweep();
//! // The full Section 5 capacity matrix for one app:
//! let caps = StudySpec::for_trace(&trace).jobs(8).run_one();
//! // The whole paper matrix, generation pipelined with simulation:
//! let run = StudySpec::generate(&["lu", "fft"], ProblemSize::Small, 64)
//!     .jobs(8)
//!     .run_with(|e| eprintln!("{e:?}"));
//! ```
//!
//! Under the hood every run goes through the pipelined two-phase
//! executor ([`crate::parallel::run_pipeline_guarded`]): trace
//! generation is scheduled on the same worker pool as the simulations
//! that consume the traces, so generation overlaps simulation, and
//! results are bit-identical across any `jobs` value.
//!
//! Fault tolerance: a [`crate::parallel::RunPolicy`] (panic
//! isolation, bounded retries, soft timeouts — see
//! [`StudySpec::policy`]) turns a crashing work item into a recorded
//! [`StudyCell`] failure instead of a lost study; a checkpoint
//! [`Journal`] ([`StudySpec::checkpoint`] / [`StudySpec::prefill`])
//! makes an interrupted study resumable, re-executing only the cells
//! the journal does not already hold.

use std::collections::HashMap;
use std::time::Duration;

use coherence::config::CacheSpec;
use coherence::{LatencyTable, MachineConfig};
use simcore::ops::Trace;
use simcore::stats::RunStats;
use splash::ProblemSize;

use crate::checkpoint::{Journal, JournalEntry};
use crate::manifest::RunError;
use crate::parallel::{self, FanoutTiming, GuardedEvent, Phase, RunPolicy, RunStatus};

/// The cluster sizes the paper studies.
pub const CLUSTER_SIZES: [u32; 4] = [1, 2, 4, 8];

/// The finite per-processor cache sizes of Section 5, in bytes.
pub const FINITE_CACHES: [u64; 3] = [4096, 16384, 32768];

/// The Section 5 cache points in figure order: 4K, 16K, 32K, infinite.
pub fn section5_caches() -> Vec<CacheSpec> {
    FINITE_CACHES
        .iter()
        .map(|&b| CacheSpec::PerProcBytes(b))
        .chain([CacheSpec::Infinite])
        .collect()
}

/// Replays `trace` on a 64-processor machine (or however many
/// processors the trace has) with the given cluster size and cache
/// specification.
pub fn run_config(trace: &Trace, per_cluster: u32, cache: CacheSpec) -> RunStats {
    let machine = MachineConfig {
        n_procs: trace.n_procs() as u32,
        per_cluster,
        cache,
        lat: LatencyTable::paper(),
    };
    tango::run(trace, machine)
}

/// Results of one cache size across all cluster sizes.
#[derive(Debug, Clone)]
pub struct ClusterSweep {
    /// The cache specification swept.
    pub cache: CacheSpec,
    /// `(processors per cluster, stats)` in ascending cluster size;
    /// the first entry is the normalization baseline.
    pub runs: Vec<(u32, RunStats)>,
}

impl ClusterSweep {
    /// Execution time of the 1-processor-per-cluster baseline.
    pub fn baseline_time(&self) -> u64 {
        self.runs[0].1.exec_time
    }

    /// Normalized total execution time (percent of baseline) per
    /// cluster size.
    pub fn normalized_totals(&self) -> Vec<(u32, f64)> {
        let base = self.baseline_time();
        self.runs
            .iter()
            .map(|(c, s)| (*c, s.percent_total_of(base)))
            .collect()
    }

    /// Normalized breakdown `[cpu, load, merge, sync]` in percent of
    /// the baseline execution time, per cluster size.
    pub fn normalized_breakdowns(&self) -> Vec<(u32, [f64; 4])> {
        let base = self.baseline_time();
        self.runs
            .iter()
            .map(|(c, s)| (*c, s.percent_of(base)))
            .collect()
    }
}

/// Results across several cache specifications, each swept over all
/// cluster sizes (one paper figure). By default the Section 5 set:
/// 4K, 16K, 32K, infinite.
#[derive(Debug, Clone)]
pub struct CapacitySweep {
    /// Sweeps in cache order.
    pub sweeps: Vec<ClusterSweep>,
}

/// One completed work item of a study run, delivered to the
/// [`StudySpec::run_with`] progress callback as it finishes —
/// generation and simulation events interleave, which is how a driver
/// log shows the pipeline overlapping the phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StudyEvent<'a> {
    /// A trace finished generating.
    GenDone {
        /// Index of the trace within the spec.
        trace: usize,
        /// Application (or synthetic) name.
        name: &'a str,
        /// Wall-clock of the generation alone.
        wall: Duration,
    },
    /// One simulation finished.
    SimDone {
        /// Index of the trace within the spec.
        trace: usize,
        /// Application (or synthetic) name.
        name: &'a str,
        /// Cache specification simulated.
        cache: CacheSpec,
        /// Processors per cluster simulated.
        cluster: u32,
        /// Wall-clock of the simulation alone.
        wall: Duration,
    },
    /// A trace generation failed permanently (all retries exhausted);
    /// its simulations will be reported as skipped [`SimFailed`]
    /// events with `attempts == 0`.
    ///
    /// [`SimFailed`]: StudyEvent::SimFailed
    GenFailed {
        /// Index of the trace within the spec.
        trace: usize,
        /// Application (or synthetic) name.
        name: &'a str,
        /// Attempts made.
        attempts: u32,
        /// The failure (usually a panic payload).
        error: &'a str,
    },
    /// One simulation failed permanently, or was skipped because its
    /// generator failed (`attempts == 0`).
    SimFailed {
        /// Index of the trace within the spec.
        trace: usize,
        /// Application (or synthetic) name.
        name: &'a str,
        /// Cache specification.
        cache: CacheSpec,
        /// Processors per cluster.
        cluster: u32,
        /// Attempts made (0 = skipped).
        attempts: u32,
        /// The failure (usually a panic payload).
        error: &'a str,
    },
}

/// How one `(trace, cache, cluster)` cell of the study matrix ended.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The simulation completed (possibly after retries, possibly
    /// restored from a checkpoint journal).
    Done {
        /// The simulation result.
        stats: RunStats,
        /// Wall-clock, when measured (journaled walls survive resume).
        wall: Option<Duration>,
        /// How the execution went.
        status: RunStatus,
        /// Attempts it took.
        attempts: u32,
        /// Restored from a checkpoint journal instead of executed.
        resumed: bool,
        /// Served from a content-addressed result cache
        /// ([`StudySpec::cache_prefill`]) instead of executed.
        cached: bool,
    },
    /// Failed permanently; `attempts == 0` means it was skipped
    /// because its trace's generation failed.
    Failed {
        /// The failure (usually a panic payload).
        error: String,
        /// Attempts made.
        attempts: u32,
    },
}

/// One cell of the study matrix, in canonical
/// (trace, cache, cluster) order.
#[derive(Debug, Clone)]
pub struct StudyCell {
    /// Index of the trace within the spec.
    pub trace: usize,
    /// Cache specification.
    pub cache: CacheSpec,
    /// Processors per cluster.
    pub cluster: u32,
    /// What happened.
    pub outcome: CellOutcome,
}

/// How one trace's generation ended.
#[derive(Debug, Clone)]
pub enum GenOutcome {
    /// Generated (possibly after retries).
    Done {
        /// Wall-clock of the generation alone.
        wall: Duration,
        /// How the execution went.
        status: RunStatus,
        /// Attempts it took.
        attempts: u32,
    },
    /// Not needed: every cell of this trace came from the checkpoint
    /// journal.
    Skipped,
    /// Failed permanently; every not-yet-journaled cell of this trace
    /// is a skipped [`CellOutcome::Failed`].
    Failed {
        /// The failure (usually a panic payload).
        error: String,
        /// Attempts made.
        attempts: u32,
    },
}

/// Everything a study run produced: the full outcome matrix (every
/// cell, completed or failed), per-trace generation outcomes, and the
/// aggregate two-phase timing the manifest layer persists.
///
/// A study under a fault-injection or retry policy can be *partial*:
/// check [`StudyRun::is_complete`] / [`StudyRun::errors`], or call
/// [`StudyRun::expect_complete`] to fail fast. The sweep views
/// ([`StudyRun::per_trace`] and friends) require the cells they touch
/// to be complete.
#[derive(Debug)]
pub struct StudyRun {
    /// One label per trace: the app name for generated sources,
    /// `trace<N>` for pre-built ones.
    pub names: Vec<String>,
    /// Per-trace generation outcomes.
    pub gens: Vec<GenOutcome>,
    /// The full matrix in (trace, cache, cluster) order.
    pub cells: Vec<StudyCell>,
    /// Aggregate two-phase timing of the whole run (executed items
    /// only — resumed cells cost no new work).
    pub timing: FanoutTiming,
    /// Cluster sizes per sweep (cell index arithmetic).
    sizes_per_sweep: usize,
    /// Sweeps per trace (cell index arithmetic).
    sweeps_per_trace: usize,
}

impl StudyRun {
    fn cell(&self, trace: usize, cache_idx: usize, size_idx: usize) -> &StudyCell {
        &self.cells[(trace * self.sweeps_per_trace + cache_idx) * self.sizes_per_sweep + size_idx]
    }

    /// Whether every generation succeeded and every cell completed.
    pub fn is_complete(&self) -> bool {
        self.gens
            .iter()
            .all(|g| !matches!(g, GenOutcome::Failed { .. }))
            && self
                .cells
                .iter()
                .all(|c| matches!(c.outcome, CellOutcome::Done { .. }))
    }

    /// Every permanent failure, in (generations, then cells) order —
    /// ready for [`crate::manifest::Manifest`]'s `errors[]` section.
    pub fn errors(&self) -> Vec<RunError> {
        let mut out = Vec::new();
        for (t, g) in self.gens.iter().enumerate() {
            if let GenOutcome::Failed { error, attempts } = g {
                out.push(RunError {
                    app: self.names[t].clone(),
                    cache: None,
                    cluster: None,
                    phase: Phase::Gen,
                    attempts: *attempts,
                    error: error.clone(),
                });
            }
        }
        for c in &self.cells {
            if let CellOutcome::Failed { error, attempts } = &c.outcome {
                out.push(RunError {
                    app: self.names[c.trace].clone(),
                    cache: Some(c.cache.label()),
                    cluster: Some(c.cluster),
                    phase: Phase::Sim,
                    attempts: *attempts,
                    error: error.clone(),
                });
            }
        }
        out
    }

    /// Panics with a list of every failed item unless the study is
    /// complete. The figure-shaped views below call this implicitly.
    pub fn expect_complete(&self) -> &StudyRun {
        let errs = self.errors();
        if !errs.is_empty() {
            let list: Vec<String> = errs
                .iter()
                .map(|e| {
                    format!(
                        "{} {}/{}/{}: {} ({} attempts)",
                        e.phase.label(),
                        e.app,
                        e.cache.as_deref().unwrap_or("-"),
                        e.cluster.map_or_else(|| "-".to_string(), |c| c.to_string()),
                        e.error,
                        e.attempts
                    )
                })
                .collect();
            panic!(
                "study incomplete: {} failed item(s):\n  {}",
                errs.len(),
                list.join("\n  ")
            );
        }
        self
    }

    /// Whether every cell of one trace completed.
    pub fn trace_complete(&self, trace: usize) -> bool {
        !matches!(self.gens[trace], GenOutcome::Failed { .. })
            && self
                .cells
                .iter()
                .filter(|c| c.trace == trace)
                .all(|c| matches!(c.outcome, CellOutcome::Done { .. }))
    }

    /// One trace's capacity sweep. Panics if any of its cells failed
    /// (check [`StudyRun::trace_complete`] first under a fault
    /// policy).
    pub fn sweeps_for(&self, trace: usize) -> CapacitySweep {
        CapacitySweep {
            sweeps: (0..self.sweeps_per_trace)
                .map(|i| ClusterSweep {
                    cache: self.cell(trace, i, 0).cache,
                    runs: (0..self.sizes_per_sweep)
                        .map(|s| {
                            let c = self.cell(trace, i, s);
                            match &c.outcome {
                                CellOutcome::Done { stats, .. } => (c.cluster, stats.clone()),
                                CellOutcome::Failed { error, .. } => panic!(
                                    "cell {}/{}/{} failed: {error}",
                                    self.names[c.trace],
                                    c.cache.label(),
                                    c.cluster
                                ),
                            }
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Every trace's capacity sweep; panics on an incomplete study.
    pub fn per_trace(&self) -> Vec<CapacitySweep> {
        self.expect_complete();
        (0..self.names.len()).map(|t| self.sweeps_for(t)).collect()
    }

    /// Generation wall-clock of one trace (zero if skipped or failed).
    pub fn gen_wall(&self, trace: usize) -> Duration {
        match self.gens[trace] {
            GenOutcome::Done { wall, .. } => wall,
            _ => Duration::ZERO,
        }
    }

    /// The per-simulation walls of one trace's one cache sweep,
    /// parallel to that [`ClusterSweep::runs`] (zero for failed or
    /// wall-less resumed cells).
    pub fn sim_walls_for(&self, trace: usize, cache_idx: usize) -> Vec<Duration> {
        (0..self.sizes_per_sweep)
            .map(|s| match &self.cell(trace, cache_idx, s).outcome {
                CellOutcome::Done { wall, .. } => wall.unwrap_or(Duration::ZERO),
                CellOutcome::Failed { .. } => Duration::ZERO,
            })
            .collect()
    }

    /// How many cells were restored from the checkpoint journal
    /// instead of executed.
    pub fn resumed_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Done { resumed: true, .. }))
            .count()
    }

    /// How many cells were served from the content-addressed result
    /// cache ([`StudySpec::cache_prefill`]) instead of executed.
    pub fn cached_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Done { cached: true, .. }))
            .count()
    }
}

/// Where a study's traces come from.
enum Source<'a> {
    /// Pre-built traces; the pipeline's generation phase is a no-op
    /// reference hand-off.
    Ready(&'a [Trace]),
    /// Named applications generated inside the pipeline, overlapped
    /// with simulation.
    Named {
        apps: Vec<String>,
        size: ProblemSize,
        procs: usize,
    },
}

/// Builder for every study shape: which traces, which caches, which
/// cluster sizes, how many worker threads, and how failures are
/// handled. See the module docs for the three canonical invocations.
pub struct StudySpec<'a> {
    source: Source<'a>,
    caches: Vec<CacheSpec>,
    sizes: Vec<u32>,
    jobs: Option<usize>,
    chunk: Option<usize>,
    policy: RunPolicy,
    journal: Option<&'a Journal>,
    prefill: Vec<JournalEntry>,
    cache_prefill: Vec<JournalEntry>,
    on_complete: Option<&'a (dyn Fn(&JournalEntry) + Sync)>,
}

impl<'a> StudySpec<'a> {
    /// A study over pre-built traces (defaults: Section 5 caches, the
    /// paper's cluster sizes, `STUDY_JOBS`-or-all-cores workers).
    pub fn new(traces: &'a [Trace]) -> StudySpec<'a> {
        StudySpec {
            source: Source::Ready(traces),
            caches: section5_caches(),
            sizes: CLUSTER_SIZES.to_vec(),
            jobs: None,
            chunk: None,
            policy: RunPolicy::none(),
            journal: None,
            prefill: Vec::new(),
            cache_prefill: Vec::new(),
            on_complete: None,
        }
    }

    /// A study over one pre-built trace.
    pub fn for_trace(trace: &'a Trace) -> StudySpec<'a> {
        StudySpec::new(std::slice::from_ref(trace))
    }

    /// A study over named applications (see
    /// [`crate::apps::trace_for`]); trace generation becomes pipeline
    /// work items that overlap with simulation.
    pub fn generate(apps: &[&str], size: ProblemSize, procs: usize) -> StudySpec<'static> {
        StudySpec {
            source: Source::Named {
                apps: apps.iter().map(|a| a.to_string()).collect(),
                size,
                procs,
            },
            caches: section5_caches(),
            sizes: CLUSTER_SIZES.to_vec(),
            jobs: None,
            chunk: None,
            policy: RunPolicy::none(),
            journal: None,
            prefill: Vec::new(),
            cache_prefill: Vec::new(),
            on_complete: None,
        }
    }

    /// Replaces the cache specifications (default: Section 5's 4K,
    /// 16K, 32K, infinite).
    pub fn caches(mut self, caches: impl IntoIterator<Item = CacheSpec>) -> StudySpec<'a> {
        self.caches = caches.into_iter().collect();
        assert!(!self.caches.is_empty(), "a study needs at least one cache");
        self
    }

    /// Replaces the cluster sizes (default: the paper's {1, 2, 4, 8};
    /// the first entry is the normalization baseline).
    pub fn cluster_sizes(mut self, sizes: &[u32]) -> StudySpec<'a> {
        assert!(!sizes.is_empty(), "a study needs at least one cluster size");
        self.sizes = sizes.to_vec();
        self
    }

    /// Worker threads (default: `STUDY_JOBS` env var or all cores;
    /// `1` forces the exact serial path).
    pub fn jobs(mut self, jobs: usize) -> StudySpec<'a> {
        self.jobs = Some(jobs);
        self
    }

    /// Steal-chunk size: how many simulations a worker claims per
    /// atomic operation (default: one cluster-size row).
    pub fn chunk(mut self, chunk: usize) -> StudySpec<'a> {
        self.chunk = Some(chunk.max(1));
        self
    }

    /// Fault-tolerance policy: panic isolation with bounded retries,
    /// a soft timeout, and (for testing) deterministic fault
    /// injection. Default: no retries, no timeout, no injection —
    /// but panics are still isolated into [`CellOutcome::Failed`]
    /// rather than poisoning the pool.
    pub fn policy(mut self, policy: RunPolicy) -> StudySpec<'a> {
        self.policy = policy;
        self
    }

    /// Journals every completed simulation to `journal` as it
    /// finishes (atomic whole-file rewrites; see
    /// [`crate::checkpoint`]).
    pub fn checkpoint(mut self, journal: &'a Journal) -> StudySpec<'a> {
        self.journal = Some(journal);
        self
    }

    /// Restores already-completed runs: any `(app, cache, cluster)`
    /// cell matching an entry is taken from it instead of executed —
    /// the `--resume` half of checkpoint/resume.
    pub fn prefill(mut self, entries: Vec<JournalEntry>) -> StudySpec<'a> {
        self.prefill = entries;
        self
    }

    /// Serves already-simulated cells from a content-addressed result
    /// cache: any `(app, cache, cluster)` cell matching an entry is
    /// restored from it and flagged `cached` (a `cache_hit` in the
    /// manifest) instead of executed. Checkpoint prefill wins when a
    /// cell appears in both — a journal belongs to *this* study, the
    /// cache is shared.
    pub fn cache_prefill(mut self, entries: Vec<JournalEntry>) -> StudySpec<'a> {
        self.cache_prefill = entries;
        self
    }

    /// Calls `sink(entry)` for every *freshly executed* cell as it
    /// completes (cache-served and journal-restored cells are not
    /// re-reported) — the hook a result store uses to absorb new
    /// simulations. Runs on worker threads; must be `Sync`.
    pub fn on_complete(mut self, sink: &'a (dyn Fn(&JournalEntry) + Sync)) -> StudySpec<'a> {
        self.on_complete = Some(sink);
        self
    }

    /// Runs the study, discarding timing: one [`CapacitySweep`] per
    /// trace, in input order, bit-identical across any job count.
    /// Panics if any item failed permanently (under the default
    /// policy, i.e. the first panic resurfaces after the study
    /// drains).
    pub fn run(self) -> Vec<CapacitySweep> {
        let run = self.run_with(|_| {});
        run.expect_complete();
        run.per_trace()
    }

    /// [`StudySpec::run`] for a single-trace spec.
    pub fn run_one(self) -> CapacitySweep {
        let mut all = self.run();
        assert_eq!(all.len(), 1, "run_one needs exactly one trace");
        all.pop().unwrap()
    }

    /// [`StudySpec::run`] for a single-trace, single-cache spec: the
    /// plain cluster-size sweep.
    pub fn run_sweep(self) -> ClusterSweep {
        assert_eq!(
            self.caches.len(),
            1,
            "run_sweep needs exactly one cache (got {})",
            self.caches.len()
        );
        let mut one = self.run_one();
        one.sweeps.pop().unwrap()
    }

    /// Runs the study through the guarded pipelined executor,
    /// reporting every settled item to `progress` as it finishes
    /// (successes *and* failures) and returning the full [`StudyRun`]
    /// outcome matrix.
    pub fn run_with(self, progress: impl Fn(&StudyEvent) + Sync) -> StudyRun {
        let jobs = parallel::resolve_jobs(self.jobs);
        match &self.source {
            Source::Ready(traces) => {
                let names: Vec<String> = (0..traces.len()).map(|i| format!("trace{i}")).collect();
                // Generation is a no-op reference hand-off here, so
                // the pipeline degenerates to the flat sim fan-out.
                let refs: Vec<&Trace> = traces.iter().collect();
                self.execute(
                    &names,
                    &refs,
                    jobs,
                    |t: &&Trace| *t,
                    |t: &&Trace| *t,
                    progress,
                )
            }
            Source::Named { apps, size, procs } => {
                let (size, procs) = (*size, *procs);
                self.execute(
                    apps,
                    apps,
                    jobs,
                    move |name: &String| crate::apps::trace_for(name, size, procs),
                    |t: &Trace| t,
                    progress,
                )
            }
        }
    }

    /// The shared pipelined core: `gen_f` turns a generator input
    /// into a `T`, `as_trace` views a `T` as the trace to simulate.
    fn execute<GI, T>(
        &self,
        names: &[String],
        gen_inputs: &[GI],
        jobs: usize,
        gen_f: impl Fn(&GI) -> T + Sync,
        as_trace: impl for<'t> Fn(&'t T) -> &'t Trace + Sync,
        progress: impl Fn(&StudyEvent) + Sync,
    ) -> StudyRun
    where
        GI: Sync,
        T: Send + Sync,
    {
        // The canonical full matrix, in (trace, cache, cluster) order.
        let full: Vec<(usize, (CacheSpec, u32))> = (0..gen_inputs.len())
            .flat_map(|t| {
                self.caches
                    .iter()
                    .flat_map(move |&cache| self.sizes.iter().map(move |&c| (t, (cache, c))))
            })
            .collect();

        // Cells already present in a prefill are restored, not
        // executed; the rest form the sub-problem handed to the
        // pipeline. Traces whose every cell was restored are not
        // generated at all. Checkpoint-journal entries shadow
        // result-cache entries for the same key (a journal is this
        // study's own history; the cache is shared). An entry written
        // by the removed sampled-replay mode carries a `sampling`
        // block and is never a full-trace result, so it is re-executed
        // instead of restored.
        let full_trace = |e: &&JournalEntry| e.sampling.is_none();
        let pre: HashMap<(&str, String, u32), (&JournalEntry, bool)> = self
            .cache_prefill
            .iter()
            .filter(full_trace)
            .map(|e| ((e.app.as_str(), e.cache.clone(), e.cluster), (e, true)))
            .chain(
                self.prefill
                    .iter()
                    .filter(full_trace)
                    .map(|e| ((e.app.as_str(), e.cache.clone(), e.cluster), (e, false))),
            )
            .collect();
        let mut outcomes: Vec<Option<CellOutcome>> = full
            .iter()
            .map(|&(t, (cache, c))| {
                pre.get(&(names[t].as_str(), cache.label(), c))
                    .map(|&(e, cached)| CellOutcome::Done {
                        stats: e.stats.clone(),
                        wall: e.wall,
                        status: e.status,
                        attempts: e.attempts,
                        resumed: !cached,
                        cached,
                    })
            })
            .collect();
        let missing: Vec<usize> = (0..full.len()).filter(|&i| outcomes[i].is_none()).collect();
        let mut gen_sub: Vec<usize> = Vec::new();
        for &i in &missing {
            if gen_sub.last() != Some(&full[i].0) && !gen_sub.contains(&full[i].0) {
                gen_sub.push(full[i].0);
            }
        }
        let sub_index: HashMap<usize, usize> =
            gen_sub.iter().enumerate().map(|(s, &t)| (t, s)).collect();
        let sub_inputs: Vec<&GI> = gen_sub.iter().map(|&t| &gen_inputs[t]).collect();
        let items: Vec<(usize, (CacheSpec, u32))> = missing
            .iter()
            .map(|&i| (sub_index[&full[i].0], full[i].1))
            .collect();

        let chunk = self.chunk.unwrap_or(self.sizes.len());
        let report = |ev: GuardedEvent<'_, (u32, RunStats)>| match ev.report.phase {
            Phase::Gen => {
                let t = gen_sub[ev.report.index];
                let event = match &ev.report.error {
                    Some(err) => StudyEvent::GenFailed {
                        trace: t,
                        name: &names[t],
                        attempts: ev.report.attempts,
                        error: err,
                    },
                    None => StudyEvent::GenDone {
                        trace: t,
                        name: &names[t],
                        wall: ev.report.wall,
                    },
                };
                progress(&event);
            }
            Phase::Sim => {
                let (t, (cache, cluster)) = full[missing[ev.report.index]];
                match &ev.report.error {
                    Some(err) => progress(&StudyEvent::SimFailed {
                        trace: t,
                        name: &names[t],
                        cache,
                        cluster,
                        attempts: ev.report.attempts,
                        error: err,
                    }),
                    None => {
                        progress(&StudyEvent::SimDone {
                            trace: t,
                            name: &names[t],
                            cache,
                            cluster,
                            wall: ev.report.wall,
                        });
                        if let Some((_, stats)) = ev.value {
                            if self.journal.is_some() || self.on_complete.is_some() {
                                let entry = JournalEntry {
                                    app: names[t].clone(),
                                    cache: cache.label(),
                                    cluster,
                                    stats: stats.clone(),
                                    wall: Some(ev.report.wall),
                                    status: ev
                                        .report
                                        .status()
                                        .expect("successful sim has a status"),
                                    attempts: ev.report.attempts,
                                    sampling: None,
                                };
                                if let Some(journal) = self.journal {
                                    journal.append(entry.clone());
                                }
                                if let Some(sink) = self.on_complete {
                                    sink(&entry);
                                }
                            }
                        }
                    }
                }
            }
        };
        let run = parallel::run_pipeline_guarded(
            &sub_inputs,
            &items,
            jobs,
            chunk,
            &self.policy,
            |gi: &&GI| gen_f(gi),
            |t, &(cache, c)| (c, run_config(as_trace(t), c, cache)),
            report,
        );

        // Reassemble the full canonical matrix around the restored
        // cells.
        let mut sub_sims = run.sims;
        for (sub_i, &orig) in missing.iter().enumerate() {
            let rep = &run.sim_reports[sub_i];
            outcomes[orig] = Some(match sub_sims[sub_i].take() {
                Some(((_, stats), wall)) => CellOutcome::Done {
                    stats,
                    wall: Some(wall),
                    status: rep.status().expect("successful sim has a status"),
                    attempts: rep.attempts,
                    resumed: false,
                    cached: false,
                },
                None => CellOutcome::Failed {
                    error: rep
                        .error
                        .clone()
                        .unwrap_or_else(|| "unknown failure".to_string()),
                    attempts: rep.attempts,
                },
            });
        }
        let gens: Vec<GenOutcome> = (0..gen_inputs.len())
            .map(|t| match sub_index.get(&t) {
                None => GenOutcome::Skipped,
                Some(&s) => {
                    let rep = &run.gen_reports[s];
                    match &rep.error {
                        Some(err) => GenOutcome::Failed {
                            error: err.clone(),
                            attempts: rep.attempts,
                        },
                        None => GenOutcome::Done {
                            wall: rep.wall,
                            status: rep.status().expect("successful gen has a status"),
                            attempts: rep.attempts,
                        },
                    }
                }
            })
            .collect();
        let cells: Vec<StudyCell> = full
            .iter()
            .zip(outcomes)
            .map(|(&(t, (cache, cluster)), o)| StudyCell {
                trace: t,
                cache,
                cluster,
                outcome: o.expect("every cell settled"),
            })
            .collect();
        StudyRun {
            names: names.to_vec(),
            gens,
            cells,
            timing: run.timing,
            sizes_per_sweep: self.sizes.len(),
            sweeps_per_trace: self.caches.len(),
        }
    }
}

/// Sweeps the paper's cluster sizes at one cache specification.
#[deprecated(
    since = "0.2.0",
    note = "use StudySpec::for_trace(trace).caches([cache]).run_sweep()"
)]
pub fn sweep_clusters(trace: &Trace, cache: CacheSpec) -> ClusterSweep {
    StudySpec::for_trace(trace).caches([cache]).run_sweep()
}

/// Runs the full Section 5 capacity experiment for one application
/// trace.
#[deprecated(since = "0.2.0", note = "use StudySpec::for_trace(trace).run_one()")]
pub fn sweep_capacities(trace: &Trace) -> CapacitySweep {
    StudySpec::for_trace(trace).run_one()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::fault::FaultPlan;
    use simcore::ops::TraceBuilder;

    /// A toy trace where 8 processors stream over a shared read-only
    /// region — clustering should monotonically help.
    fn shared_readers(n_procs: usize, lines: u64) -> Trace {
        let mut b = TraceBuilder::new(n_procs);
        let base = b.space_mut().alloc_shared(lines * 64);
        for p in 0..n_procs as u32 {
            b.compute(p, p as u64 * 500);
            for l in 0..lines {
                b.read(p, base + l * 64);
                b.compute(p, 20);
            }
        }
        b.finish()
    }

    #[test]
    fn sweep_normalizes_to_first_entry() {
        let t = shared_readers(8, 64);
        let sweep = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2, 4, 8])
            .run_sweep();
        let totals = sweep.normalized_totals();
        assert_eq!(totals[0].1, 100.0);
        // Clustering shared readers helps.
        assert!(totals[3].1 < totals[0].1);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let t = shared_readers(8, 32);
        let sweep = StudySpec::for_trace(&t)
            .caches([CacheSpec::PerProcBytes(4096)])
            .cluster_sizes(&[1, 2])
            .run_sweep();
        for ((_, parts), (_, total)) in sweep
            .normalized_breakdowns()
            .iter()
            .zip(sweep.normalized_totals())
        {
            let sum: f64 = parts.iter().sum();
            assert!(
                (sum - total).abs() < 0.5,
                "breakdown sums to {sum}, total {total}"
            );
        }
    }

    #[test]
    fn capacity_sweep_has_four_cache_points() {
        let t = shared_readers(8, 16);
        let cs = StudySpec::for_trace(&t).run_one();
        assert_eq!(cs.sweeps.len(), 4);
        assert_eq!(cs.sweeps[3].cache, CacheSpec::Infinite);
    }

    #[test]
    fn infinite_cache_never_slower_than_finite() {
        let t = shared_readers(8, 256); // bigger than 4KB/proc worth of lines
        let spec = |cache| {
            StudySpec::for_trace(&t)
                .caches([cache])
                .cluster_sizes(&[1])
                .run_sweep()
        };
        let fin = spec(CacheSpec::PerProcBytes(4096));
        let inf = spec(CacheSpec::Infinite);
        assert!(inf.runs[0].1.exec_time <= fin.runs[0].1.exec_time);
    }

    #[test]
    fn run_with_reports_gen_and_sim_events() {
        use std::sync::Mutex;
        let t = shared_readers(8, 16);
        let events = Mutex::new((0usize, 0usize));
        let run = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2])
            .jobs(2)
            .run_with(|e| {
                let mut ev = events.lock().unwrap();
                match e {
                    StudyEvent::GenDone { .. } => ev.0 += 1,
                    StudyEvent::SimDone { .. } => ev.1 += 1,
                    StudyEvent::GenFailed { .. } | StudyEvent::SimFailed { .. } => {
                        panic!("no failures expected")
                    }
                }
            });
        assert_eq!(*events.lock().unwrap(), (1, 2));
        assert_eq!(run.names, vec!["trace0"]);
        assert_eq!(run.timing.items, 2);
        assert!(run.is_complete());
        assert_eq!(run.sim_walls_for(0, 0).len(), 2);
    }

    #[test]
    fn generated_source_matches_ready_source() {
        let trace = crate::apps::trace_for("lu", ProblemSize::Small, 8);
        let ready = StudySpec::for_trace(&trace)
            .caches([CacheSpec::PerProcBytes(4096)])
            .cluster_sizes(&[1, 2])
            .jobs(2)
            .run_one();
        let named = StudySpec::generate(&["lu"], ProblemSize::Small, 8)
            .caches([CacheSpec::PerProcBytes(4096)])
            .cluster_sizes(&[1, 2])
            .jobs(2)
            .run_with(|_| {});
        assert_eq!(named.names, vec!["lu"]);
        assert_eq!(
            ready.sweeps[0].runs,
            named.per_trace()[0].sweeps[0].runs,
            "generated and pre-built sources must agree"
        );
    }

    /// Injected faults with enough retries: same stats as fault-free,
    /// statuses flip to retried.
    #[test]
    fn injected_faults_with_retries_match_fault_free_run() {
        let t = shared_readers(8, 16);
        let clean = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2])
            .jobs(1)
            .run_one();
        let faulted = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2])
            .jobs(2)
            .policy(RunPolicy {
                retries: 1,
                timeout: None,
                fault: FaultPlan::new(1.0, 7),
            })
            .run_with(|_| {});
        assert!(faulted.is_complete());
        assert_eq!(
            clean.sweeps[0].runs,
            faulted.per_trace()[0].sweeps[0].runs,
            "recovered runs must be bit-identical"
        );
        for c in &faulted.cells {
            match &c.outcome {
                CellOutcome::Done {
                    status, attempts, ..
                } => {
                    assert_eq!(*status, RunStatus::Retried);
                    assert_eq!(*attempts, 2);
                }
                CellOutcome::Failed { .. } => panic!("no failures expected"),
            }
        }
    }

    /// Without retries, every injected fault lands in errors() and
    /// the sweep views refuse to serve the incomplete trace.
    #[test]
    fn unrecovered_faults_are_recorded_not_fatal() {
        let t = shared_readers(8, 16);
        let run = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2])
            .jobs(1)
            .policy(RunPolicy {
                retries: 0,
                timeout: None,
                fault: FaultPlan::new(1.0, 7),
            })
            .run_with(|_| {});
        assert!(!run.is_complete());
        let errs = run.errors();
        assert!(!errs.is_empty());
        assert!(!run.trace_complete(0));
    }

    /// Cache prefill + on_complete round-trip: the sink captures
    /// every fresh simulation, and feeding those entries back serves
    /// the whole study from cache — bit-identical, zero re-execution.
    #[test]
    fn cache_prefill_serves_cells_without_reexecution() {
        use std::sync::Mutex;
        let t = shared_readers(8, 16);
        let sink_entries: Mutex<Vec<JournalEntry>> = Mutex::new(Vec::new());
        let sink = |e: &JournalEntry| sink_entries.lock().unwrap().push(e.clone());
        let first = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2])
            .jobs(2)
            .on_complete(&sink)
            .run_with(|_| {});
        let entries = sink_entries.into_inner().unwrap();
        assert_eq!(entries.len(), 2, "every fresh sim reaches the sink");
        assert_eq!(first.cached_cells(), 0);

        let served = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2])
            .jobs(2)
            .cache_prefill(entries.clone())
            .run_with(|_| panic!("nothing should execute on a full cache prefill"));
        assert_eq!(served.cached_cells(), 2);
        assert_eq!(served.resumed_cells(), 0);
        assert_eq!(served.timing.items, 0);
        assert_eq!(
            first.per_trace()[0].sweeps[0].runs,
            served.per_trace()[0].sweeps[0].runs,
            "cache-served cells must be bit-identical"
        );

        // Journal prefill shadows the cache for overlapping keys.
        let mixed = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2])
            .jobs(2)
            .prefill(vec![entries[0].clone()])
            .cache_prefill(entries)
            .run_with(|_| panic!("fully prefilled"));
        assert_eq!(mixed.resumed_cells(), 1);
        assert_eq!(mixed.cached_cells(), 1);
    }

    /// Checkpoint + prefill round-trip: the resumed study re-executes
    /// nothing and reproduces the same sweep.
    #[test]
    fn checkpoint_prefill_restores_without_reexecution() {
        let dir = std::env::temp_dir().join("clustered-smp-study-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let t = shared_readers(8, 16);
        let journal = Journal::create(&path, "test", "small", 8).unwrap();
        let first = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2])
            .jobs(2)
            .checkpoint(&journal)
            .run_with(|_| {});
        assert_eq!(journal.entries().len(), 2);
        let reopened = Journal::resume(&path, "test", "small", 8).unwrap();
        let resumed = StudySpec::for_trace(&t)
            .caches([CacheSpec::Infinite])
            .cluster_sizes(&[1, 2])
            .jobs(2)
            .prefill(reopened.entries())
            .run_with(|_| panic!("nothing should execute on a full prefill"));
        assert_eq!(resumed.resumed_cells(), 2);
        assert_eq!(resumed.timing.items, 0);
        assert_eq!(
            first.per_trace()[0].sweeps[0].runs,
            resumed.per_trace()[0].sweeps[0].runs,
            "restored cells must be bit-identical"
        );
        assert!(matches!(resumed.gens[0], GenOutcome::Skipped));
        std::fs::remove_dir_all(&dir).ok();
    }
}
