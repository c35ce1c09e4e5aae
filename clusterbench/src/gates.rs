//! Correctness gates. A run whose gate fails reports `correct: false`.

use cluster_study::manifest::{Manifest, RunRecord, ServedBy};
use cluster_study::RunStatus;
use simcore::stats::RunStats;
use simcore::Json;

/// The `study_replay` digest pinned for this commit's simulator.
pub const PINNED: &str = include_str!("../pinned.json");

/// The pinned digest of the `study_replay` deterministic view.
pub fn pinned_study_digest() -> Result<String, String> {
    let doc = simcore::json::parse(PINNED).map_err(|e| format!("pinned.json: {e}"))?;
    doc.get("study_replay_stats_digest")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "pinned.json has no study_replay_stats_digest".to_string())
}

/// The run record the serving layer reports for a freshly simulated
/// cell, rendered the way a `run` reply carries it.
pub fn cell_stats_json(app: &str, cache: &str, cluster: u32, stats: &RunStats) -> String {
    RunRecord {
        app: app.to_string(),
        cache: cache.to_string(),
        cluster,
        stats: stats.clone(),
        wall: None,
        status: RunStatus::Ok,
        attempts: 1,
        served_by: ServedBy::Sim,
        sampling: None,
    }
    .to_json(false)
    .to_string()
}

/// 128-bit digest of a manifest's deterministic `stats_json` view.
pub fn stats_digest(manifest: &Manifest) -> String {
    let text = manifest.stats_json().to_string();
    simcore::hash::hex128(simcore::fnv1a128(text.as_bytes()))
}

/// Fails unless `actual` equals the pinned digest.
pub fn check_digest(actual: &str, pinned: &str) -> Result<(), String> {
    if actual == pinned {
        Ok(())
    } else {
        Err(format!(
            "study_replay stats digest {actual} differs from the pinned {pinned}: a simulated statistic changed"
        ))
    }
}

/// Fails unless a served cell equals its reference.
pub fn check_cell(what: &str, served: &str, reference: &str) -> Result<(), String> {
    if served == reference {
        Ok(())
    } else {
        Err(format!("{what}: served stats differ from the reference"))
    }
}

/// Expected counters of a server's `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Distinct cells simulated.
    pub sims_run: u64,
    /// Cells served from the store.
    pub cache_hits: u64,
    /// Traces generated.
    pub trace_gens: u64,
}

/// Fails unless the `stats` reply reconciles with the traffic sent.
pub fn check_counters(stats: &Json, want: Expected) -> Result<(), String> {
    let get = |k: &str| stats.get(k).and_then(Json::as_u64);
    let got = Expected {
        sims_run: get("sims_run").unwrap_or(u64::MAX),
        cache_hits: get("cache_hits").unwrap_or(u64::MAX),
        trace_gens: get("trace_gens").unwrap_or(u64::MAX),
    };
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "stats op {got:?} does not reconcile with the traffic sent {want:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coherence::config::CacheSpec;

    fn small_manifest() -> (Manifest, Vec<(String, RunStats)>) {
        let trace = crate::stack::Shape::SMALL.trace("lu");
        let mut m = Manifest::new("paper_run", "small", 16, 1);
        let mut cells = Vec::new();
        for cluster in [1, 8] {
            let stats = cluster_study::run_config(&trace, cluster, CacheSpec::PerProcBytes(4096));
            m.record_run("lu", "4k", cluster, &stats, None);
            cells.push((format!("4k/{cluster}"), stats));
        }
        (m, cells)
    }

    #[test]
    fn pinned_digest_is_well_formed() {
        let d = pinned_study_digest().expect("pinned digest");
        assert_eq!(d.len(), 32);
        assert!(d.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn flipped_digest_fails_the_gate() {
        let (m, _) = small_manifest();
        let digest = stats_digest(&m);
        assert!(check_digest(&digest, &digest).is_ok());
        let mut flipped = digest.clone().into_bytes();
        flipped[0] = if flipped[0] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(flipped).expect("hex");
        assert!(check_digest(&digest, &flipped).is_err());
    }

    #[test]
    fn changed_statistic_changes_the_digest() {
        let (mut m, cells) = small_manifest();
        let before = stats_digest(&m);
        let mut stats = cells[0].1.clone();
        stats.mem.read_misses += 1;
        m.record_run("lu", "4k", 2, &stats, None);
        assert_ne!(stats_digest(&m), before);
    }

    #[test]
    fn corrupted_served_cell_fails_the_gate() {
        // Serve one real cell through the in-process stack, then
        // corrupt one counter of the reply.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("gate-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = crate::stack::Server::start(&dir).expect("server");
        let mut client = server.connect().expect("client");
        let cell = crate::stack::Cell {
            app: "lu",
            cache: CacheSpec::PerProcBytes(4096),
            cluster: 8,
        };
        let reply = client
            .run(cell.spec(crate::stack::Shape::SMALL))
            .expect("run reply");
        let served = crate::stack::reply_cells(&reply).expect("cells");
        drop(client);
        server.stop().expect("stop");
        let _ = std::fs::remove_dir_all(&dir);

        let trace = crate::stack::Shape::SMALL.trace("lu");
        let stats = cluster_study::run_config(&trace, 8, cell.cache);
        let reference = cell_stats_json("lu", "4k", 8, &stats);
        assert!(check_cell("lu/4k/8", &served[0], &reference).is_ok());

        let mut corrupt = stats.clone();
        corrupt.exec_time += 1;
        let corrupted = cell_stats_json("lu", "4k", 8, &corrupt);
        assert!(check_cell("lu/4k/8", &corrupted, &reference).is_err());
    }

    #[test]
    fn counters_must_reconcile() {
        let want = Expected {
            sims_run: 3,
            cache_hits: 5,
            trace_gens: 1,
        };
        let ok = Json::obj()
            .with("sims_run", 3u64)
            .with("cache_hits", 5u64)
            .with("trace_gens", 1u64);
        assert!(check_counters(&ok, want).is_ok());
        let off = Json::obj()
            .with("sims_run", 4u64)
            .with("cache_hits", 5u64)
            .with("trace_gens", 1u64);
        assert!(check_counters(&off, want).is_err());
    }
}
