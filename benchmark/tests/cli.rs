//! End-to-end tests of the benchmark program at tiny scale, and of
//! `BENCHMARK.json` against the metrics the program prints.

use std::process::Command;

use hyscale_benchmark::metrics::{valid_name, END_TO_END, PER_LAYER};
use hyscale_benchmark::workload::Workload;

/// `BENCHMARK.json`, at the repository root beside this package.
fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json is readable")
}

/// The `"<key>": "<value>"` strings of one top-level section of
/// `BENCHMARK.json`, in order. The file is flat enough that a section
/// runs from its key to the next top-level key.
fn section_strings(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let rest = &json[start..];
    let end = rest[1..].find("\n  \"").map_or(rest.len(), |i| i + 1);
    let body = &rest[..end];
    let needle = format!("\"{key}\": \"");
    body.match_indices(&needle)
        .map(|(i, _)| {
            let value = &body[i + needle.len()..];
            value[..value.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn manifest_lists_exactly_the_printed_metrics() {
    let json = manifest();
    let workloads = section_strings(&json, "workloads", "name");
    let expected: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
    let whys = section_strings(&json, "workloads", "why");
    let expected: Vec<_> = Workload::ALL.iter().map(|w| w.why().to_string()).collect();
    assert_eq!(whys, expected);
    for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names = section_strings(&json, section, "name");
        let units = section_strings(&json, section, "unit");
        let printed: Vec<_> = defs.iter().map(|(n, _)| n.to_string()).collect();
        let printed_units: Vec<_> = defs.iter().map(|(_, u)| u.to_string()).collect();
        assert_eq!(names, printed, "{section} names");
        assert_eq!(units, printed_units, "{section} units");
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
    }
    assert!(json.contains("\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
}

#[test]
fn metric_doc_covers_every_metric() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md"))
        .expect("METRICS.md is readable");
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            doc.contains(&format!("| `{name}` |")),
            "{name} is not documented"
        );
    }
    for w in Workload::ALL {
        assert!(doc.contains(&format!("| `{}` |", w.name())), "{}", w.name());
    }
}

#[test]
fn every_workload_runs_end_to_end_and_prints_every_metric() {
    for w in Workload::ALL {
        for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(env!("CARGO_BIN_EXE_hyscale-benchmark"))
                .args(["--workload", w.name(), "--seed", "3", "--seconds", "0"])
                .args(["--trace", trace, "--size", "tiny"])
                .output()
                .expect("the benchmark starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} trace {trace}: {stdout}\n{}",
                w.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0, "), "{last}");
            for (name, unit) in defs {
                let field = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&field)
                    .unwrap_or_else(|| panic!("{name} missing: {last}"));
                let value = &last[at + field.len()..];
                let value: f64 = value[..value.find(',').expect("value ends")]
                    .parse()
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(value.is_finite(), "{name}");
                assert!(
                    last[at..].contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} unit"
                );
            }
            assert!(stdout.contains("host: {\"git_revision\": "), "{stdout}");
            // `digests.txt` records tiny seed 3, so the runs were checked
            // against the recorded digest, not only against each other.
            assert!(
                stdout.contains("digest: every run must reproduce the recorded "),
                "{stdout}"
            );
            if trace == "1" {
                assert!(stdout.contains("fidelity: replay completed "), "{stdout}");
                if w == Workload::GraphRetry {
                    assert!(stdout.contains("fidelity: graph-free twin of "), "{stdout}");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper_sweep", "--trace", "2"][..],
        &["--seed", "1"][..],
        &["--workload", "paper_sweep", "--bogus", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hyscale-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark starts");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
