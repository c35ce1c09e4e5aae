//! Checkpoint journals: crash-safe progress for long studies.
//!
//! A full paper run is 144 simulations over several minutes; losing
//! all of them to a crash at simulation 143 is unacceptable on shared
//! or preemptible hardware. This module journals every completed run
//! to a JSONL file as it finishes, so an interrupted study can be
//! resumed with `--resume`, re-executing only the missing runs and
//! producing a final manifest whose deterministic view is
//! bit-identical to an uninterrupted run's.
//!
//! Format (`clustered-smp/journal/v1`): line 1 is a header object
//! binding the journal to a `(tool, size, procs)` shape — resuming
//! under a different shape is an error, not a silent mix — and every
//! further line is one [`JournalEntry`] holding the *complete*
//! [`RunStats`] (every per-processor breakdown and memory counter),
//! because a resumed manifest must serialize byte-identically to a
//! fresh one.
//!
//! Durability: the header is written through [`write_atomic`] (tmp
//! file, fsync, rename) and every entry is then *appended* as one
//! JSONL line followed by `fdatasync` — O(1) per append instead of
//! the old whole-file-rewrite-per-append (O(n²) over a study). The
//! price is that a kill can now land mid-`write(2)` and leave a torn
//! *final* line; [`recover_journal`] therefore tolerates exactly
//! that — a malformed last line is dropped, anything malformed
//! earlier is still a hard error — and [`Journal::resume`] heals the
//! file back to a clean prefix before reopening it for append. Every
//! prefix of completed work still survives a kill at any instant.
//! The `kill_after` hook (driven by `STUDY_KILL_AFTER_RECORDS` in
//! `paper_run`) exits the process with code 42 after the Nth append —
//! the crash-injection lever the CI resume round-trip and the
//! checkpoint property tests use.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use simcore::stats::{Breakdown, MissStats, RunStats};
use simcore::Json;

use crate::manifest::write_atomic;
use crate::parallel::RunStatus;

/// Schema identifier on the journal's header line.
pub const JOURNAL_SCHEMA: &str = "clustered-smp/journal/v1";

/// Process exit code used by the `kill_after` crash-injection hook,
/// chosen to be distinguishable from both success and a panic.
pub const KILL_EXIT_CODE: i32 = 42;

/// A journal operation that failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// A line that does not parse as the schema demands.
    Malformed {
        /// 1-based line number in the journal file.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The header exists but belongs to a different study shape.
    Mismatch {
        /// What the header disagreed about.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Malformed { line, reason } => {
                write!(f, "journal line {line} malformed: {reason}")
            }
            JournalError::Mismatch { reason } => write!(f, "journal mismatch: {reason}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// The journal's first line: what study this is a checkpoint of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Emitting tool (`"paper_run"`, ...).
    pub tool: String,
    /// Problem-size label (`"paper"` / `"small"`).
    pub size: String,
    /// Simulated processors.
    pub procs: usize,
}

impl JournalHeader {
    /// Header line JSON.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schema", JOURNAL_SCHEMA)
            .with("tool", self.tool.as_str())
            .with("size", self.size.as_str())
            .with("procs", self.procs)
    }

    fn from_json(j: &Json) -> Result<JournalHeader, String> {
        let schema = str_field(j, "schema")?;
        if schema != JOURNAL_SCHEMA {
            return Err(format!(
                "schema {schema:?} is not the supported {JOURNAL_SCHEMA:?}"
            ));
        }
        Ok(JournalHeader {
            tool: str_field(j, "tool")?.to_string(),
            size: str_field(j, "size")?.to_string(),
            procs: u64_field(j, "procs")? as usize,
        })
    }
}

/// One journaled simulation: identity, complete stats, and how the
/// execution went. The `(app, cache, cluster)` triple is the resume
/// key — the study's seeding is a pure function of it, so a journaled
/// result is interchangeable with a re-executed one.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Application name.
    pub app: String,
    /// Cache label (`"inf"`, `"4k"`, ...).
    pub cache: String,
    /// Processors per cluster.
    pub cluster: u32,
    /// The complete simulation result.
    pub stats: RunStats,
    /// Wall-clock of the original execution, when measured.
    pub wall: Option<Duration>,
    /// How the original execution completed.
    pub status: RunStatus,
    /// Attempts the original execution took.
    pub attempts: u32,
    /// The verbatim `sampling` block of an entry written by the
    /// removed sampled-replay mode, kept so such a line is written
    /// back unchanged. Nothing sets it any more; an entry that carries
    /// one is not a full-trace result, so resume and cache prefill
    /// re-execute its cell instead of restoring it.
    pub sampling: Option<Json>,
}

impl JournalEntry {
    /// The resume key: a run already journaled under this key is
    /// skipped by `--resume`.
    pub fn key(&self) -> (String, String, u32) {
        (self.app.clone(), self.cache.clone(), self.cluster)
    }

    /// One JSONL line's worth of JSON.
    pub fn to_json(&self) -> Json {
        let mem = &self.stats.mem;
        let mut e = Json::obj()
            .with("app", self.app.as_str())
            .with("cache", self.cache.as_str())
            .with("cluster", self.cluster)
            .with("status", self.status.label())
            .with("attempts", self.attempts);
        if let Some(w) = self.wall {
            e.push("wall_seconds", w.as_secs_f64());
        }
        if let Some(s) = &self.sampling {
            e.push("sampling", s.clone());
        }
        e.push("exec_time", self.stats.exec_time);
        e.push(
            "per_proc",
            Json::Arr(
                self.stats
                    .per_proc
                    .iter()
                    .map(|b| {
                        Json::Arr(vec![
                            Json::UInt(b.cpu),
                            Json::UInt(b.load),
                            Json::UInt(b.merge),
                            Json::UInt(b.sync),
                        ])
                    })
                    .collect(),
            ),
        );
        e.push(
            "mem",
            Json::obj()
                .with("read_hits", mem.read_hits)
                .with("write_hits", mem.write_hits)
                .with("read_misses", mem.read_misses)
                .with("write_misses", mem.write_misses)
                .with("upgrade_misses", mem.upgrade_misses)
                .with("merge_stalls", mem.merge_stalls)
                .with(
                    "by_latency",
                    Json::Arr(mem.by_latency.iter().map(|&x| Json::UInt(x)).collect()),
                )
                .with("invalidations", mem.invalidations)
                .with("evictions", mem.evictions)
                .with("writebacks", mem.writebacks)
                .with("local_satisfied", mem.local_satisfied)
                .with("bus_transfers", mem.bus_transfers)
                .with("bus_invalidations", mem.bus_invalidations),
        );
        e
    }

    /// Parses one journaled entry back, field-exactly.
    pub fn from_json(j: &Json) -> Result<JournalEntry, String> {
        let status_label = str_field(j, "status")?;
        let status = RunStatus::parse(status_label)
            .ok_or_else(|| format!("unknown status {status_label:?}"))?;
        let per_proc = j
            .get("per_proc")
            .and_then(Json::as_arr)
            .ok_or("missing per_proc array")?
            .iter()
            .map(|row| {
                let row = row
                    .as_arr()
                    .filter(|r| r.len() == 4)
                    .ok_or("per_proc row")?;
                let n = |i: usize| row[i].as_u64().ok_or("per_proc counter");
                Ok(Breakdown {
                    cpu: n(0)?,
                    load: n(1)?,
                    merge: n(2)?,
                    sync: n(3)?,
                })
            })
            .collect::<Result<Vec<Breakdown>, &str>>()
            .map_err(|e| format!("bad {e}"))?;
        let mem = j.get("mem").ok_or("missing mem object")?;
        let mc = |name: &str| u64_field(mem, name);
        let by_latency_v = mem
            .get("by_latency")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 4)
            .ok_or("missing by_latency[4]")?;
        let mut by_latency = [0u64; 4];
        for (slot, v) in by_latency.iter_mut().zip(by_latency_v) {
            *slot = v.as_u64().ok_or("bad by_latency counter")?;
        }
        Ok(JournalEntry {
            app: str_field(j, "app")?.to_string(),
            cache: str_field(j, "cache")?.to_string(),
            cluster: u64_field(j, "cluster")? as u32,
            stats: RunStats {
                per_proc,
                mem: MissStats {
                    read_hits: mc("read_hits")?,
                    write_hits: mc("write_hits")?,
                    read_misses: mc("read_misses")?,
                    write_misses: mc("write_misses")?,
                    upgrade_misses: mc("upgrade_misses")?,
                    merge_stalls: mc("merge_stalls")?,
                    by_latency,
                    invalidations: mc("invalidations")?,
                    evictions: mc("evictions")?,
                    writebacks: mc("writebacks")?,
                    local_satisfied: mc("local_satisfied")?,
                    bus_transfers: mc("bus_transfers")?,
                    bus_invalidations: mc("bus_invalidations")?,
                },
                exec_time: u64_field(j, "exec_time")?,
            },
            wall: j
                .get("wall_seconds")
                .and_then(Json::as_f64)
                .map(Duration::from_secs_f64),
            status,
            attempts: u64_field(j, "attempts")? as u32,
            sampling: j.get("sampling").cloned(),
        })
    }
}

fn str_field<'a>(j: &'a Json, name: &str) -> Result<&'a str, String> {
    j.get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {name:?}"))
}

fn u64_field(j: &Json, name: &str) -> Result<u64, String> {
    j.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {name:?}"))
}

/// Renders a header plus entries as the JSONL journal text.
pub fn render_journal(header: &JournalHeader, entries: &[JournalEntry]) -> String {
    let mut out = header.to_json().to_string();
    out.push('\n');
    for e in entries {
        out.push_str(&e.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Parses journal text back into header and entries. Any malformed
/// line — including a truncated tail — is an error carrying its line
/// number. Use [`recover_journal`] to tolerate a torn final line.
pub fn parse_journal(text: &str) -> Result<(JournalHeader, Vec<JournalEntry>), JournalError> {
    let (header, entries, torn) = scan_journal(text)?;
    if let Some(err) = torn {
        return Err(err);
    }
    Ok((header, entries))
}

/// Like [`parse_journal`], but tolerates a malformed **final** line —
/// the signature of a kill mid-append — returning the clean prefix
/// plus the 1-based number of the dropped line. Malformed lines that
/// are *followed* by a valid line are still hard errors: that is
/// corruption, not a torn append.
pub fn recover_journal(
    text: &str,
) -> Result<(JournalHeader, Vec<JournalEntry>, Option<usize>), JournalError> {
    let (header, entries, torn) = scan_journal(text)?;
    let dropped = torn.map(|err| match err {
        JournalError::Malformed { line, .. } => line,
        _ => 0,
    });
    Ok((header, entries, dropped))
}

/// Shared scanner: parses the header strictly, then entries in order.
/// A parse failure on the final non-empty line is returned as the
/// third tuple slot (the caller decides whether a torn tail is fatal);
/// a failure anywhere earlier is a hard error.
fn scan_journal(
    text: &str,
) -> Result<(JournalHeader, Vec<JournalEntry>, Option<JournalError>), JournalError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let &(line0, header_line) = lines.first().ok_or(JournalError::Malformed {
        line: 1,
        reason: "empty journal (no header line)".to_string(),
    })?;
    let parse_line = |line: usize, l: &str| {
        simcore::json::parse(l).map_err(|e| JournalError::Malformed {
            line: line + 1,
            reason: e.to_string(),
        })
    };
    let header = JournalHeader::from_json(&parse_line(line0, header_line)?)
        .map_err(|reason| JournalError::Malformed { line: 1, reason })?;
    let mut entries = Vec::new();
    for (pos, &(i, l)) in lines.iter().enumerate().skip(1) {
        let parsed = parse_line(i, l).and_then(|j| {
            JournalEntry::from_json(&j).map_err(|reason| JournalError::Malformed {
                line: i + 1,
                reason,
            })
        });
        match parsed {
            Ok(e) => entries.push(e),
            Err(err) if pos == lines.len() - 1 => return Ok((header, entries, Some(err))),
            Err(err) => return Err(err),
        }
    }
    Ok((header, entries, None))
}

#[derive(Debug)]
struct JournalState {
    /// Append-mode handle to the journal file; `O_APPEND` keeps every
    /// `write(2)` positioned at end-of-file.
    file: std::fs::File,
    entries: Vec<JournalEntry>,
    appended: usize,
    kill_after: Option<usize>,
}

fn open_append(path: &Path) -> Result<std::fs::File, JournalError> {
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(JournalError::Io)
}

/// An append-only checkpoint journal bound to one study shape.
/// `append` is safe to call from the executor's progress callback on
/// any worker thread.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    header: JournalHeader,
    state: Mutex<JournalState>,
}

impl Journal {
    /// Starts a fresh journal at `path`, truncating any previous one,
    /// and durably writes the header line.
    pub fn create(
        path: &Path,
        tool: &str,
        size: &str,
        procs: usize,
    ) -> Result<Journal, JournalError> {
        let header = JournalHeader {
            tool: tool.to_string(),
            size: size.to_string(),
            procs,
        };
        write_atomic(path, render_journal(&header, &[]).as_bytes())?;
        Ok(Journal {
            path: path.to_path_buf(),
            header,
            state: Mutex::new(JournalState {
                file: open_append(path)?,
                entries: Vec::new(),
                appended: 0,
                kill_after: None,
            }),
        })
    }

    /// Reopens an existing journal, validating that it checkpoints
    /// the same `(tool, size, procs)` shape. The already-journaled
    /// entries become the study's prefill. A torn final line — the
    /// fingerprint of a kill mid-append — is dropped and the file is
    /// healed back to the clean prefix before appending resumes;
    /// corruption anywhere earlier is an error.
    pub fn resume(
        path: &Path,
        tool: &str,
        size: &str,
        procs: usize,
    ) -> Result<Journal, JournalError> {
        let text = std::fs::read_to_string(path)?;
        let (header, entries, torn) = recover_journal(&text)?;
        if header.tool != tool || header.size != size || header.procs != procs {
            return Err(JournalError::Mismatch {
                reason: format!(
                    "journal is for {}/{}/{} procs, this run is {}/{}/{} procs",
                    header.tool, header.size, header.procs, tool, size, procs
                ),
            });
        }
        if let Some(line) = torn {
            eprintln!("[checkpoint] dropping torn journal line {line} (kill mid-append)");
            write_atomic(path, render_journal(&header, &entries).as_bytes())?;
        }
        Ok(Journal {
            path: path.to_path_buf(),
            header,
            state: Mutex::new(JournalState {
                file: open_append(path)?,
                entries,
                appended: 0,
                kill_after: None,
            }),
        })
    }

    /// The journal file's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The study shape this journal checkpoints.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Snapshot of everything journaled so far (restored + appended).
    pub fn entries(&self) -> Vec<JournalEntry> {
        self.state.lock().unwrap().entries.clone()
    }

    /// Arms the crash-injection hook: the process exits with
    /// [`KILL_EXIT_CODE`] right after the `n`-th append of *this*
    /// process durably lands. Test/CI machinery only.
    pub fn set_kill_after(&self, n: usize) {
        self.state.lock().unwrap().kill_after = Some(n);
    }

    /// Durably appends one completed run as a single JSONL line
    /// followed by `fdatasync` — O(1) per append. A kill mid-write
    /// can tear at most this final line, which `resume` drops and
    /// heals. Panics on I/O failure: silently losing checkpoint
    /// durability would defeat the journal's purpose.
    pub fn append(&self, entry: JournalEntry) {
        use std::io::Write as _;
        let mut st = self.state.lock().unwrap();
        let mut line = entry.to_json().to_string();
        line.push('\n');
        st.entries.push(entry);
        st.file
            .write_all(line.as_bytes())
            .and_then(|()| st.file.sync_data())
            .unwrap_or_else(|e| panic!("cannot append to checkpoint journal {:?}: {e}", self.path));
        st.appended += 1;
        if st.kill_after.is_some_and(|n| st.appended >= n) {
            eprintln!(
                "[checkpoint] kill_after={} reached, exiting {}",
                st.appended, KILL_EXIT_CODE
            );
            std::process::exit(KILL_EXIT_CODE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(app: &str, cluster: u32, t: u64) -> JournalEntry {
        JournalEntry {
            app: app.to_string(),
            cache: "4k".to_string(),
            cluster,
            stats: RunStats {
                per_proc: vec![
                    Breakdown {
                        cpu: t,
                        load: t / 2,
                        merge: 3,
                        sync: 7,
                    },
                    Breakdown {
                        cpu: t + 1,
                        load: 0,
                        merge: 0,
                        sync: t / 3,
                    },
                ],
                mem: MissStats {
                    read_hits: 11,
                    write_hits: 22,
                    read_misses: 33,
                    write_misses: 44,
                    upgrade_misses: 55,
                    merge_stalls: 66,
                    by_latency: [1, 2, 3, 4],
                    invalidations: 77,
                    evictions: 88,
                    writebacks: 99,
                    local_satisfied: 111,
                    bus_transfers: 222,
                    bus_invalidations: 333,
                },
                exec_time: t * 2,
            },
            wall: Some(Duration::from_millis(1250)),
            status: RunStatus::Retried,
            attempts: 2,
            sampling: None,
        }
    }

    #[test]
    fn entry_roundtrips_every_field() {
        let e = entry("ocean", 4, 1000);
        let back = JournalEntry::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
        let no_wall = JournalEntry { wall: None, ..e };
        let back = JournalEntry::from_json(&no_wall.to_json()).unwrap();
        assert_eq!(back, no_wall);
        let sampled = JournalEntry {
            sampling: Some(Json::obj().with("mode", "reservoir").with("rate", 0.25)),
            ..entry("ocean", 4, 1000)
        };
        let back = JournalEntry::from_json(&sampled.to_json()).unwrap();
        assert_eq!(back, sampled);
    }

    #[test]
    fn journal_text_roundtrips() {
        let header = JournalHeader {
            tool: "paper_run".into(),
            size: "small".into(),
            procs: 64,
        };
        let entries = vec![entry("lu", 1, 10), entry("lu", 2, 20), entry("ocean", 8, 5)];
        let text = render_journal(&header, &entries);
        assert_eq!(text.lines().count(), 4);
        let (h2, e2) = parse_journal(&text).unwrap();
        assert_eq!(h2, header);
        assert_eq!(e2, entries);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let header = JournalHeader {
            tool: "t".into(),
            size: "small".into(),
            procs: 8,
        };
        let mut text = render_journal(&header, &[entry("lu", 1, 10)]);
        text.push_str("{\"app\": \"trunc");
        match parse_journal(&text) {
            Err(JournalError::Malformed { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected malformed line 3, got {other:?}"),
        }
        assert!(parse_journal("").is_err());
        assert!(parse_journal("{\"schema\": \"something/else\"}\n").is_err());
    }

    #[test]
    fn recover_drops_only_a_torn_final_line() {
        let header = JournalHeader {
            tool: "t".into(),
            size: "small".into(),
            procs: 8,
        };
        let clean = render_journal(&header, &[entry("lu", 1, 10), entry("lu", 2, 20)]);

        // Torn tail: prefix survives, dropped line number reported.
        let mut torn = clean.clone();
        torn.push_str("{\"app\": \"tru");
        let (h, entries, dropped) = recover_journal(&torn).unwrap();
        assert_eq!(h, header);
        assert_eq!(entries.len(), 2);
        assert_eq!(dropped, Some(4));
        assert!(parse_journal(&torn).is_err(), "strict parse still rejects");

        // A clean journal recovers with nothing dropped.
        let (_, entries, dropped) = recover_journal(&clean).unwrap();
        assert_eq!((entries.len(), dropped), (2, None));

        // Mid-journal corruption is NOT a torn tail: hard error.
        let corrupt = clean.replace("\"cluster\":1", "\"cluster\":oops");
        assert!(matches!(
            recover_journal(&corrupt),
            Err(JournalError::Malformed { line: 2, .. })
        ));

        // A torn header is unrecoverable.
        assert!(recover_journal("{\"schema").is_err());
    }

    #[test]
    fn resume_heals_torn_tail_and_appends_cleanly() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join("clustered-smp-journal-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let j = Journal::create(&path, "t", "small", 8).unwrap();
        j.append(entry("lu", 1, 10));
        j.append(entry("lu", 2, 20));
        drop(j);

        // Simulate a kill mid-append: a trailing partial line.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"app\": \"lu\", \"cac").unwrap();
        drop(f);

        let r = Journal::resume(&path, "t", "small", 8).unwrap();
        assert_eq!(r.entries().len(), 2, "clean prefix survives");
        // The file was healed: strict parsing succeeds again...
        let text = std::fs::read_to_string(&path).unwrap();
        let (_, entries) = parse_journal(&text).unwrap();
        assert_eq!(entries.len(), 2);
        // ...and further appends extend the healed file.
        r.append(entry("ocean", 4, 30));
        let text = std::fs::read_to_string(&path).unwrap();
        let (_, entries) = parse_journal(&text).unwrap();
        assert_eq!(entries.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_append_resume_roundtrip() {
        let dir = std::env::temp_dir().join("clustered-smp-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let j = Journal::create(&path, "t", "small", 8).unwrap();
        j.append(entry("lu", 1, 10));
        j.append(entry("lu", 2, 20));
        let r = Journal::resume(&path, "t", "small", 8).unwrap();
        assert_eq!(r.entries(), j.entries());
        assert_eq!(r.entries().len(), 2);
        match Journal::resume(&path, "t", "paper", 8) {
            Err(JournalError::Mismatch { reason }) => assert!(reason.contains("small")),
            other => panic!("expected shape mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
