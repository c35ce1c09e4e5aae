//! `clusterbench`: the repository's benchmark.
//!
//! ```text
//! clusterbench --workload <study_replay|cold_start|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. `--trace 0` measures the workload
//! for `--seconds` and prints every end-to-end metric; `--trace 1`
//! runs it once untraced and once inside spans, then the layer probes,
//! and prints every per-layer metric. Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 when every correctness gate held, 1 when one
//! failed and 2 on bad arguments.

mod gates;
mod probes;
mod spans;
mod stack;
mod util;
mod workloads;

use std::path::Path;

use simcore::Json;
use workloads::Workload;

const USAGE: &str =
    "usage: clusterbench --workload <study_replay|cold_start|serve_mixed> --seed <n> --seconds <s> --trace <0|1>";

/// Scratch space (stores, span files) under the checkout.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clusterbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let provenance = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" git={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("CLUSTERBENCH_RUSTC"),
        cluster_study::manifest::git_describe(),
    );
    println!("clusterbench {provenance}");

    let tag = args.workload.name();
    let work = match util::WorkDir::create(Path::new(WORK_ROOT), tag) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("clusterbench: creating {WORK_ROOT}: {e}");
            std::process::exit(1);
        }
    };
    let outcome = if args.trace {
        let spans = Path::new(WORK_ROOT)
            .join("spans")
            .join(format!("{tag}-seed{}.jsonl", args.seed));
        workloads::traced(args.workload, args.seed, &work, &spans)
    } else {
        workloads::measured(args.workload, args.seed, args.seconds, &work)
    };
    drop(work);

    let mut outcome = outcome;
    let declared = if args.trace {
        workloads::PER_LAYER
    } else {
        workloads::END_TO_END
    };
    let printed: Vec<(&str, &str)> = outcome.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
    if printed != declared {
        outcome.tally.error(format!(
            "metrics {printed:?} differ from the declared {declared:?}"
        ));
    }
    let tally = &outcome.tally;
    let correct = tally.errors.is_empty() && tally.failed == 0;
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    println!("ops_attempted = {}", tally.attempted);
    println!("ops_failed = {}", tally.failed);
    for e in &tally.errors {
        println!("error {e}");
    }
    let mut metrics = Json::obj();
    for (name, value, unit) in &outcome.metrics {
        metrics.push(name, Json::obj().with("value", *value).with("unit", *unit));
    }
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", metrics);
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_mixed --seed 7 --seconds 10 --trace 1").expect("args");
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload cold_start --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload cold_start --seed 1 --seconds 1").is_err());
    }

    /// The metric names and units each mode prints are the ones the
    /// repository's BENCHMARK.json declares.
    #[test]
    fn metrics_match_the_declaration() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let doc = simcore::json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name/unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let printed = |names: &[(&str, &str)]| -> Vec<(String, String)> {
            names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), printed(workloads::END_TO_END));
        assert_eq!(declared("per_layer"), printed(workloads::PER_LAYER));
    }
}
