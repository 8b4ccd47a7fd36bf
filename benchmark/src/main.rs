//! `hyscale-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host record, notes, and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--workload all` runs every workload in turn, each ending in its own
//! result line. Exits non-zero when a check fails or a workload cannot
//! run.
//!
//! `--record <count>` instead prints the `digests.txt` lines of `count`
//! seeds from `--seed` on, for every chosen workload at `--size`.

use std::process::ExitCode;

use hyscale_benchmark::bench::{end_to_end, per_layer, rss_probe_child};
use hyscale_benchmark::digest::{record_line, RECORDED};
use hyscale_benchmark::host::HostRecord;
use hyscale_benchmark::measure::untraced;
use hyscale_benchmark::metrics::{result_json, END_TO_END, PER_LAYER};
use hyscale_benchmark::workload::{Size, Workload};

/// Parsed command line.
struct Args {
    /// The workloads to run: one, or all of them for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    rss_probe: bool,
    /// Seeds to record digests for, with `--record`.
    record: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut rss_probe = false;
    let mut record = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workloads = Some(vec![Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?}; one of {} or all",
                        names.join(", ")
                    )
                })?]);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--size" => {
                size = Size::parse(&value)
                    .ok_or_else(|| format!("--size takes full or tiny, not {value:?}"))?;
            }
            "--record" => {
                record = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--record {value:?}: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
        rss_probe,
        record,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.rss_probe {
        let [workload] = args.workloads[..] else {
            return Err("--rss-probe takes a single workload".into());
        };
        println!("{}", rss_probe_child(workload, args.seed, args.size)?);
        return Ok(true);
    }
    if let Some(count) = args.record {
        for workload in &args.workloads {
            for seed in args.seed..args.seed + count {
                let (_, digest) = untraced(&workload.configs(seed, args.size))?;
                println!(
                    "{}",
                    record_line(workload.name(), args.size.name(), seed, digest)
                );
            }
        }
        return Ok(true);
    }
    let host = HostRecord::probe();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut all_correct = true;
    for workload in args.workloads {
        let (outcome, defs) = if args.trace {
            let outcome = per_layer(workload, args.seed, args.size, args.seconds, RECORDED)?;
            (outcome, PER_LAYER)
        } else {
            let outcome = end_to_end(workload, args.seed, args.size, args.seconds, &exe, RECORDED)?;
            (outcome, END_TO_END)
        };
        println!(
            "workload {} seed {} ({})",
            workload.name(),
            args.seed,
            workload.why()
        );
        for note in &outcome.notes {
            println!("{note}");
        }
        println!("host: {}", host.to_json());
        let correct = outcome.failed == 0;
        all_correct &= correct;
        println!(
            "{}",
            result_json(
                correct,
                outcome.attempted,
                outcome.failed,
                defs,
                &outcome.values
            )?
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hyscale-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
