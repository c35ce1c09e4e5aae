//! Checkpoint-resume contract, end to end: a study killed after *any*
//! prefix of its journal appends can be resumed to a final manifest
//! whose deterministic stats view is byte-identical to an
//! uninterrupted run's — re-executing only the missing cells. Plus
//! property coverage of the journal text format itself, including a
//! planted-bug shrink test showing the harness pins a journal-parser
//! bug to its minimal counterexample.

use std::time::Duration;

use cluster_study::checkpoint::{
    parse_journal, recover_journal, render_journal, Journal, JournalEntry, JournalHeader,
};
use cluster_study::manifest::Manifest;
use cluster_study::parallel::RunStatus;
use cluster_study::study::{StudyRun, StudySpec};
use coherence::config::CacheSpec;
use simcore::propcheck::{self, halves_and_each, shrink_to_minimal, shrink_u64, Gen};
use simcore::stats::{Breakdown, MissStats, RunStats};
use simcore::{prop_ensure, prop_ensure_eq};
use splash::ProblemSize;

const APPS: [&str; 2] = ["lu", "fft"];
const CACHES: [CacheSpec; 2] = [CacheSpec::PerProcBytes(4096), CacheSpec::Infinite];
const SIZES: [u32; 3] = [1, 2, 8];
const PROCS: usize = 8;
const TOTAL_SIMS: usize = APPS.len() * CACHES.len() * SIZES.len();
const TOOL: &str = "checkpoint_resume";

fn spec() -> StudySpec<'static> {
    StudySpec::generate(&APPS, ProblemSize::Small, PROCS)
        .caches(CACHES)
        .cluster_sizes(&SIZES)
        .jobs(1)
}

fn manifest_of(run: &StudyRun) -> Manifest {
    let mut m = Manifest::new(TOOL, "small", PROCS, 1);
    for (name, cap) in run.names.iter().zip(run.per_trace()) {
        for sweep in &cap.sweeps {
            m.record_sweep(name, sweep, None);
        }
    }
    m
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("clustered-smp-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The headline property: for **every** journal prefix length k —
/// i.e. a kill at any instant between appends — resuming re-executes
/// exactly the missing `TOTAL_SIMS - k` cells and reconstructs a
/// byte-identical stats view, and the journal ends up complete again.
#[test]
fn resume_from_any_journal_prefix_reconstructs_identical_manifest() {
    let dir = temp_dir("resume-prop");

    // The uninterrupted, journaled reference run.
    let full_path = dir.join("full.jsonl");
    let journal = Journal::create(&full_path, TOOL, "small", PROCS).unwrap();
    let run = spec().checkpoint(&journal).run_with(|_| {});
    let reference = manifest_of(&run).stats_json().to_string();
    let entries = journal.entries();
    assert_eq!(entries.len(), TOTAL_SIMS, "every sim is journaled");

    let header = JournalHeader {
        tool: TOOL.to_string(),
        size: "small".to_string(),
        procs: PROCS,
    };
    // 16 cases cover a meaningful sample of the 13 distinct prefixes
    // (shrinking walks toward the smallest failing prefix on a bug).
    propcheck::check_cases(
        16,
        "resume-from-any-journal-prefix",
        |g: &mut Gen| g.usize_in(0..TOTAL_SIMS + 1),
        |&k| {
            shrink_u64(k as u64)
                .into_iter()
                .map(|v| v as usize)
                .collect()
        },
        |&k| {
            let path = dir.join(format!("prefix_{k}.jsonl"));
            std::fs::write(&path, render_journal(&header, &entries[..k])).unwrap();
            let journal = Journal::resume(&path, TOOL, "small", PROCS)
                .map_err(|e| format!("prefix {k} must resume: {e}"))?;
            let prefill = journal.entries();
            prop_ensure_eq!(prefill.len(), k);
            let resumed = spec()
                .checkpoint(&journal)
                .prefill(prefill)
                .run_with(|_| {});
            prop_ensure!(resumed.is_complete(), "prefix {k}: resume incomplete");
            prop_ensure_eq!(resumed.resumed_cells(), k, "prefix {k}: restored cells");
            prop_ensure_eq!(
                resumed.timing.items,
                TOTAL_SIMS - k,
                "prefix {k}: only missing cells re-execute"
            );
            prop_ensure_eq!(
                manifest_of(&resumed).stats_json().to_string(),
                reference,
                "prefix {k}: stats view diverged from the uninterrupted run"
            );
            // The journal is whole again: every cell present once.
            let text = std::fs::read_to_string(&path).unwrap();
            let (_, after) = parse_journal(&text).map_err(|e| e.to_string())?;
            prop_ensure_eq!(after.len(), TOTAL_SIMS, "prefix {k}: journal completeness");
            let mut keys: Vec<_> = after.iter().map(JournalEntry::key).collect();
            keys.sort();
            keys.dedup();
            prop_ensure_eq!(
                after.len(),
                keys.len(),
                "prefix {k}: duplicate journal keys"
            );
            Ok(())
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A resumed-from-complete-journal run re-executes *nothing* — not
/// even trace generation — and still reproduces the reference bytes.
#[test]
fn resume_from_complete_journal_executes_nothing() {
    let dir = temp_dir("resume-full");
    let path = dir.join("j.jsonl");
    let journal = Journal::create(&path, TOOL, "small", PROCS).unwrap();
    let run = spec().checkpoint(&journal).run_with(|_| {});
    let reference = manifest_of(&run).stats_json().to_string();

    let journal = Journal::resume(&path, TOOL, "small", PROCS).unwrap();
    let prefill = journal.entries();
    let resumed = spec()
        .checkpoint(&journal)
        .prefill(prefill)
        .run_with(|_| {});
    assert_eq!(resumed.resumed_cells(), TOTAL_SIMS);
    assert_eq!(resumed.timing.items, 0, "no simulation re-executed");
    assert_eq!(manifest_of(&resumed).stats_json().to_string(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal line written by the removed sampled-replay mode, verbatim:
/// `lu`/`inf`/cluster 2 at 8 processors under the default periodic
/// spec. Its statistics count only the measured intervals.
const LEGACY_SAMPLED_ENTRY: &str = concat!(
    "{\"app\":\"lu\",\"cache\":\"inf\",\"cluster\":2,\"status\":\"ok\",\"attempts\":1",
    ",\"wall_seconds\":0.000759686,\"sampling\":{\"mode\":\"periodic\",\"rate\":0.25",
    ",\"warmup_ops\":2048,\"interval_ops\":256,\"seed\":6501816801244897005",
    ",\"ops_total\":6356,\"ops_measured\":2091,\"ops_warm\":4265,\"ops_simulated\":6356",
    ",\"weight_total\":740064,\"weight_measured\":243440,\"weight_warm\":496624",
    ",\"warm_read_hits\":2443,\"warm_read_misses\":400,\"warm_write_hits\":1093",
    ",\"warm_write_misses\":0,\"warm_upgrade_misses\":24,\"warm_cpu_cycles\":496624",
    ",\"warm_load_cycles\":39790,\"warm_merge_cycles\":19700},\"exec_time\":188729",
    ",\"per_proc\":[[27615,2720,0,121768],[30349,2320,0,101504],[30348,4220,1200,81608],[30348,3120,2300,70784],[28300,3520,0,109344],[30288,3490,0,84808],[30288,5090,1600,59744],[36104,5490,1600,43848]]",
    ",\"mem\":{\"read_hits\":821,\"write_hits\":27,\"read_misses\":656,\"write_misses\":0",
    ",\"upgrade_misses\":488,\"merge_stalls\":67,\"by_latency\":[509,0,147,0]",
    ",\"invalidations\":0,\"evictions\":0,\"writebacks\":0,\"local_satisfied\":509",
    ",\"bus_transfers\":0,\"bus_invalidations\":0}}",
);

/// A journal holding a legacy sampled entry resumes: every full-trace
/// entry is restored, the sampled cell alone is re-executed, and the
/// result equals the uninterrupted full run's.
#[test]
fn resume_reexecutes_a_legacy_sampled_entry() {
    let dir = temp_dir("resume-legacy");
    let path = dir.join("j.jsonl");
    let journal = Journal::create(&path, TOOL, "small", PROCS).unwrap();
    let run = spec().checkpoint(&journal).run_with(|_| {});
    let reference = manifest_of(&run).stats_json().to_string();
    let legacy_key = ("lu".to_string(), "inf".to_string(), 2);
    let (legacy, full): (Vec<JournalEntry>, Vec<JournalEntry>) = journal
        .entries()
        .into_iter()
        .partition(|e| e.key() == legacy_key);
    assert_eq!(legacy.len(), 1);

    let header = JournalHeader {
        tool: TOOL.to_string(),
        size: "small".to_string(),
        procs: PROCS,
    };
    let mut text = render_journal(&header, &full);
    text.push_str(LEGACY_SAMPLED_ENTRY);
    text.push('\n');
    std::fs::write(&path, text).unwrap();

    let journal = Journal::resume(&path, TOOL, "small", PROCS).unwrap();
    let prefill = journal.entries();
    assert_eq!(prefill.len(), TOTAL_SIMS, "the legacy line still parses");
    let sampled = prefill.iter().find(|e| e.sampling.is_some()).unwrap();
    assert_eq!(sampled.key(), legacy_key);
    assert_ne!(sampled.stats, legacy[0].stats);
    let resumed = spec()
        .checkpoint(&journal)
        .prefill(prefill)
        .run_with(|_| {});
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed_cells(), TOTAL_SIMS - 1);
    assert_eq!(resumed.timing.items, 1, "only the sampled cell re-executes");
    assert_eq!(manifest_of(&resumed).stats_json().to_string(), reference);
    let rerun = journal.entries();
    let fresh = rerun.iter().rev().find(|e| e.key() == legacy_key).unwrap();
    assert_eq!(fresh.sampling, None);
    assert_eq!(fresh.stats, legacy[0].stats);
    std::fs::remove_dir_all(&dir).ok();
}

fn entry_with(app: &str, cache: &str, cluster: u32, salt: u64) -> JournalEntry {
    JournalEntry {
        app: app.to_string(),
        cache: cache.to_string(),
        cluster,
        stats: RunStats {
            per_proc: vec![Breakdown {
                cpu: salt,
                load: salt / 3,
                merge: 1,
                sync: 2,
            }],
            mem: MissStats {
                read_hits: salt,
                write_hits: 1,
                read_misses: 2,
                write_misses: 3,
                upgrade_misses: 4,
                merge_stalls: 5,
                by_latency: [salt, 1, 2, 3],
                invalidations: 6,
                evictions: 7,
                writebacks: 8,
                local_satisfied: 9,
                bus_transfers: 10,
                bus_invalidations: 11,
            },
            exec_time: salt + 1,
        },
        // Multiples of 1/4 s are exact in binary, so the f64
        // wall_seconds round-trips bit-exactly through the JSON text.
        wall: salt
            .is_multiple_of(2)
            .then(|| Duration::from_millis((salt % 64) * 250)),
        status: match salt % 3 {
            0 => RunStatus::Ok,
            1 => RunStatus::Retried,
            _ => RunStatus::Timeout,
        },
        attempts: (salt % 4) as u32 + 1,
        sampling: None,
    }
}

/// The real journal text format round-trips arbitrary entries
/// exactly, whatever the statuses, walls and counter values.
#[test]
fn prop_journal_text_roundtrips_arbitrary_entries() {
    let header = JournalHeader {
        tool: "prop".to_string(),
        size: "small".to_string(),
        procs: 8,
    };
    propcheck::check(
        "journal-text-roundtrip",
        |g: &mut Gen| {
            g.vec_of(0..20, |g| {
                let app = g.pick(&["lu", "fft", "ocean", "mp3d"]);
                let cache = g.pick(&["4k", "16k", "32k", "inf"]);
                let cluster = g.pick(&[1u32, 2, 4, 8]);
                entry_with(app, cache, cluster, g.u64_in(0..1_000_000))
            })
        },
        |v| simcore::propcheck::halves(v.as_slice()),
        |entries| {
            let text = render_journal(&header, entries);
            let (h, back) = parse_journal(&text).map_err(|e| e.to_string())?;
            prop_ensure_eq!(h, header);
            prop_ensure_eq!(&back, entries);
            Ok(())
        },
    );
}

/// Torn-tail property: the append+fsync journal can be killed
/// mid-`write(2)`, leaving any byte-prefix of the final line. For
/// arbitrary entries and an arbitrary cut point, `recover_journal`
/// returns exactly the clean prefix and `Journal::resume` heals the
/// file so strict parsing and appending both work again.
#[test]
fn prop_resume_recovers_any_torn_final_line() {
    let dir = temp_dir("torn-prop");
    let header = JournalHeader {
        tool: TOOL.to_string(),
        size: "small".to_string(),
        procs: PROCS,
    };
    propcheck::check(
        "torn-final-line-recovery",
        |g: &mut Gen| {
            let entries = g.vec_of(0..8, |g| {
                let app = g.pick(&["lu", "fft", "ocean"]);
                entry_with(app, "4k", g.pick(&[1u32, 4, 8]), g.u64_in(0..1000))
            });
            let cut = g.u64_in(0..200) as usize;
            (entries, cut)
        },
        |(entries, cut)| {
            let mut out: Vec<(Vec<JournalEntry>, usize)> = shrink_u64(*cut as u64)
                .into_iter()
                .map(|c| (entries.clone(), c as usize))
                .collect();
            out.extend(
                simcore::propcheck::halves(entries.as_slice())
                    .into_iter()
                    .map(|e| (e, *cut)),
            );
            out
        },
        |(entries, cut)| {
            let clean = render_journal(&header, entries);
            // Tear the next append at byte offset `cut`.
            let extra = entry_with("mp3d", "16k", 2, 999).to_json().to_string();
            let frag = &extra[..(*cut).min(extra.len().saturating_sub(1))];
            let torn_text = format!("{clean}{frag}");
            let torn_expected = !frag.trim().is_empty();
            let (h, back, dropped) = recover_journal(&torn_text).map_err(|e| e.to_string())?;
            prop_ensure_eq!(h, header);
            prop_ensure_eq!(&back, entries, "clean prefix must survive");
            prop_ensure_eq!(
                dropped.is_some(),
                torn_expected,
                "torn-line report (frag {frag:?})"
            );

            // Resume over the torn file heals it.
            let path = dir.join(format!("torn_{}_{cut}.jsonl", entries.len()));
            std::fs::write(&path, &torn_text).unwrap();
            let j = Journal::resume(&path, TOOL, "small", PROCS)
                .map_err(|e| format!("torn resume: {e}"))?;
            prop_ensure_eq!(j.entries().len(), entries.len());
            j.append(entry_with("water", "inf", 8, 7));
            let text = std::fs::read_to_string(&path).unwrap();
            let (_, healed) = parse_journal(&text).map_err(|e| e.to_string())?;
            prop_ensure_eq!(
                healed.len(),
                entries.len() + 1,
                "healed journal strict-parses with the new append"
            );
            Ok(())
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Planted-bug shrink test: a journal parser that silently drops
/// every `cluster >= 8` entry (a plausible off-by-one against the
/// paper's largest cluster size). The property harness must (a) find
/// the bug and (b) shrink each counterexample to the minimal shape —
/// a single entry sitting exactly on the `cluster == 8` boundary.
#[test]
fn planted_journal_parser_bug_shrinks_to_boundary_cluster() {
    let header = JournalHeader {
        tool: "planted".to_string(),
        size: "small".to_string(),
        procs: 8,
    };
    let buggy_parse = |text: &str| {
        parse_journal(text).map(|(h, entries)| {
            (
                h,
                entries
                    .into_iter()
                    .filter(|e| e.cluster < 8) // the planted bug
                    .collect::<Vec<_>>(),
            )
        })
    };
    // Case = the cluster column alone; everything else is fixed, so
    // the minimal counterexample is fully determined by it.
    let prop = |clusters: &Vec<u64>| -> Result<(), String> {
        let entries: Vec<JournalEntry> = clusters
            .iter()
            .enumerate()
            .map(|(i, &c)| entry_with("lu", "4k", c as u32, i as u64))
            .collect();
        let text = render_journal(&header, &entries);
        let (_, back) = buggy_parse(&text).map_err(|e| e.to_string())?;
        prop_ensure_eq!(back.len(), entries.len(), "parser dropped entries");
        Ok(())
    };
    let gen = |g: &mut Gen| g.vec_of(0..12, |g| g.u64_in(1..33));
    let mut found = 0;
    for seed in 0..40u64 {
        let case = gen(&mut Gen::from_seed(seed));
        if prop(&case).is_ok() {
            continue;
        }
        found += 1;
        let (minimal, _, _) = shrink_to_minimal(
            case.clone(),
            "planted".into(),
            |v| halves_and_each(v, |&x| shrink_u64(x)),
            prop,
            10_000,
        );
        assert_eq!(
            minimal,
            vec![8],
            "seed {seed}: case {case:?} did not shrink to the cluster-8 boundary"
        );
    }
    assert!(found >= 10, "generator produced too few failing cases");
}
