//! Layer probes: single layers driven through their public functions
//! with inputs built from a workload's own traces, timed outside the
//! end-to-end runs.

use std::path::Path;
use std::time::Instant;

use cluster_serve::protocol::parse_request;
use cluster_serve::{ResultStore, ServeOptions, ServeState, Session};
use cluster_study::manifest::Manifest;
use coherence::config::CacheSpec;
use coherence::protocol::{MemorySystem, Outcome};
use coherence::{LatencyTable, MachineConfig};
use simcore::ops::{Op, Trace};
use simcore::{line_of, FullLruCache};

use crate::stack::{Cell, Shape};
use crate::util::median;

/// Accesses taken from each trace at most, so a probe stays bounded.
const MAX_ACCESSES_PER_TRACE: usize = 2_000_000;

/// One memory access of the interleave.
#[derive(Clone, Copy)]
struct Access {
    proc: u32,
    addr: u64,
    write: bool,
}

/// The reads and writes of `trace`, one per processor in turn.
fn interleave(trace: &Trace) -> Vec<Access> {
    let mut pos = vec![0usize; trace.n_procs()];
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        for (p, ops) in trace.per_proc.iter().enumerate() {
            while pos[p] < ops.len() {
                let op = ops[pos[p]].unpack();
                pos[p] += 1;
                let (addr, write) = match op {
                    Op::Read(a) => (a, false),
                    Op::Write(a) => (a, true),
                    _ => continue,
                };
                out.push(Access {
                    proc: u32::try_from(p).unwrap_or(u32::MAX),
                    addr,
                    write,
                });
                progressed = true;
                break;
            }
            if out.len() >= MAX_ACCESSES_PER_TRACE {
                return out;
            }
        }
        if !progressed {
            return out;
        }
    }
}

/// `coherence` and `simcore::cache` probe results.
pub struct MemoryProbe {
    /// Accesses driven through `MemorySystem`.
    pub coherence_accesses: u64,
    /// Nanoseconds per `try_read`/`try_write`.
    pub coherence_ns: f64,
    /// Reads that hit, over reads.
    pub coherence_read_hit_ratio: f64,
    /// Accesses that returned an error.
    pub coherence_errors: u64,
    /// Lookups driven through `FullLruCache`.
    pub cache_ops: u64,
    /// Nanoseconds per lookup (plus fill on a miss).
    pub cache_ns: f64,
    /// Lookups that hit.
    pub cache_hit_ratio: f64,
    /// Lines evicted.
    pub cache_evictions: u64,
}

/// Drives the round-robin interleave of `traces` through the
/// directory protocol (4 KB at 1 per cluster and infinite at 8 per
/// cluster) and, per 8-processor cluster, through a 4 KB-per-processor
/// fully associative LRU cache.
pub fn memory(traces: &[&Trace]) -> MemoryProbe {
    let mut coh_ns = 0.0;
    let (mut accesses, mut reads, mut read_hits, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let (mut cache_ns, mut cache_ops, mut cache_hits, mut evictions) = (0.0, 0u64, 0u64, 0u64);
    for trace in traces {
        let stream = interleave(trace);
        let n_procs = u32::try_from(trace.n_procs()).unwrap_or(u32::MAX);
        for (per_cluster, cache) in [(1, CacheSpec::PerProcBytes(4096)), (8, CacheSpec::Infinite)] {
            let cfg = MachineConfig {
                n_procs,
                per_cluster,
                cache,
                lat: LatencyTable::paper(),
            };
            let Ok(mut mem) = MemorySystem::try_new(cfg, &trace.space) else {
                errors += 1;
                continue;
            };
            let t0 = Instant::now();
            for (i, a) in stream.iter().enumerate() {
                // Each access is issued well after the previous fill
                // completed, so no access waits on a pending line.
                let now = (i as u64 + 1) * 1_000;
                let out = if a.write {
                    mem.try_write(a.proc, a.addr, now)
                } else {
                    mem.try_read(a.proc, a.addr, now)
                };
                match out {
                    Ok(o) => {
                        if !a.write {
                            reads += 1;
                            read_hits += u64::from(o == Outcome::ReadHit);
                        }
                    }
                    Err(_) => errors += 1,
                }
            }
            coh_ns += t0.elapsed().as_nanos() as f64;
            accesses += stream.len() as u64;
        }

        let clusters = trace.n_procs().div_ceil(8);
        let mut caches: Vec<FullLruCache<()>> = (0..clusters)
            .map(|_| FullLruCache::new(8 * 4096 / 64))
            .collect();
        let t0 = Instant::now();
        for a in &stream {
            let c = &mut caches[a.proc as usize / 8];
            let line = line_of(a.addr);
            if c.get_mut(line).is_some() {
                cache_hits += 1;
            } else if c.insert(line, ()).is_some() {
                evictions += 1;
            }
        }
        cache_ns += t0.elapsed().as_nanos() as f64;
        cache_ops += stream.len() as u64;
    }
    MemoryProbe {
        coherence_accesses: accesses,
        coherence_ns: coh_ns / accesses.max(1) as f64,
        coherence_read_hit_ratio: read_hits as f64 / reads.max(1) as f64,
        coherence_errors: errors,
        cache_ops,
        cache_ns: cache_ns / cache_ops.max(1) as f64,
        cache_hit_ratio: cache_hits as f64 / cache_ops.max(1) as f64,
        cache_evictions: evictions,
    }
}

/// Certified replay over plain replay of `trace` at 4 KB, 1 per
/// cluster: the median of alternating timed pairs, repeated for at
/// least `min_secs` and three pairs.
pub fn certify_overhead(trace: &Trace, min_secs: f64) -> Result<f64, String> {
    let machine = MachineConfig {
        n_procs: u32::try_from(trace.n_procs()).unwrap_or(u32::MAX),
        per_cluster: 1,
        cache: CacheSpec::PerProcBytes(4096),
        lat: LatencyTable::paper(),
    };
    let (mut plain, mut certified) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 3 || start.elapsed().as_secs_f64() < min_secs {
        let t0 = Instant::now();
        let stats = tango::run(std::hint::black_box(trace), machine);
        plain.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let (cstats, cert) = cluster_check::certify::certify_trace(trace, machine)?;
        certified.push(t0.elapsed().as_secs_f64());
        if !cert.certified || cstats.exec_time != stats.exec_time {
            return Err(format!(
                "certify: certified={} with {} violations",
                cert.certified, cert.violation_count
            ));
        }
    }
    Ok(median(&certified) / median(&plain))
}

/// Milliseconds for `Manifest::stats_json` plus `to_json`, and the
/// size of the full document.
pub fn manifest(m: &Manifest) -> (f64, usize) {
    let mut times = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        let stats = std::hint::black_box(m.stats_json());
        let full = std::hint::black_box(m.to_json());
        times.push(crate::util::ms(t0.elapsed()));
        drop(stats);
        bytes = full.to_string().len();
    }
    (median(&times), bytes)
}

/// In-process serving-layer probe results.
pub struct ServeProbe {
    /// `ResultStore::open` on the final store, milliseconds.
    pub store_open_ms: f64,
    /// One read through `ServeState::handle_line_session`, microseconds.
    pub handler_read_us: f64,
    /// `ResultStore::serve_cell` on a hit, microseconds.
    pub store_hit_us: f64,
    /// `parse_request` of the read line, microseconds.
    pub parse_us: f64,
}

const PROBE_REPS: usize = 200;

/// Times the serving layer's in-process paths on the store a workload
/// left in `dir`, reading `cell` (which must be stored) with the
/// request line `read_line`.
pub fn serve(dir: &Path, read_line: &str, cell: Cell, shape: Shape) -> Result<ServeProbe, String> {
    let mut opens = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let store = ResultStore::open(dir).map_err(|e| format!("reopen: {e}"))?;
        opens.push(crate::util::ms(t0.elapsed()));
        drop(store);
    }
    let store = ResultStore::open(dir).map_err(|e| format!("reopen: {e}"))?;
    let key = &store.key(
        cell.app,
        shape.label(),
        shape.procs,
        &cell.cache.label(),
        cell.cluster,
    );
    let entry = store
        .peek(key)
        .ok_or_else(|| format!("store lacks key {key}"))?;
    let state = ServeState::new(
        store,
        ServeOptions {
            jobs: 1,
            ..ServeOptions::default()
        },
    );
    let mut sess = Session::with_version(cluster_serve::ProtoVersion::V2);
    let mut handler = Vec::with_capacity(PROBE_REPS);
    let mut hits = Vec::with_capacity(PROBE_REPS);
    let mut parses = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let mut ok = false;
        let t0 = Instant::now();
        state.handle_line_session(&mut sess, read_line, &mut |j| {
            ok = j.get("ok").and_then(simcore::Json::as_bool) == Some(true);
        });
        handler.push(t0.elapsed().as_secs_f64() * 1e6);
        if !ok {
            return Err("in-process read was not ok".to_string());
        }

        let t0 = Instant::now();
        let served = state
            .store()
            .serve_cell(key, &entry.size, entry.procs, || entry.cell.clone())
            .map_err(|e| format!("serve_cell: {e}"))?;
        hits.push(t0.elapsed().as_secs_f64() * 1e6);
        if !served.1 {
            return Err("serve_cell missed a stored key".to_string());
        }

        let t0 = Instant::now();
        let parsed = parse_request(std::hint::black_box(read_line));
        parses.push(t0.elapsed().as_secs_f64() * 1e6);
        parsed.map_err(|e| format!("parse_request: {e:?}"))?;
    }
    Ok(ServeProbe {
        store_open_ms: median(&opens),
        handler_read_us: median(&handler),
        store_hit_us: median(&hits),
        parse_us: median(&parses),
    })
}
