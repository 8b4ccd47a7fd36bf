//! Every metric the benchmark prints, with its unit. `METRICS.md`
//! explains each one; `BENCHMARK.json` lists the same names.

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("traced_wall_s", "s"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.arrival_draw_ns", "ns"),
    ("workload.arrivals", "count"),
    ("balancer.route_ns", "ns"),
    ("balancer.route_cohort_ns", "ns"),
    ("balancer.refresh_us", "us"),
    ("balancer.unrouted", "count"),
    ("cluster.admit_ns", "ns"),
    ("cluster.admit_rejected", "count"),
    ("cluster.admission_share", "fraction"),
    ("cluster.advance_us_p50", "us"),
    ("cluster.advance_us_p99", "us"),
    ("cluster.advance_share", "fraction"),
    ("cluster.active_nodes_mean", "count"),
    ("monitor.period_us_p50", "us"),
    ("monitor.period_us_p99", "us"),
    ("monitor.share", "fraction"),
    ("monitor.actions", "count"),
    ("recovery.run_us", "us"),
    ("recovery.fault_apply_us", "us"),
    ("recovery.respawns", "count"),
    ("recovery.failures", "count"),
    ("faults.applied", "count"),
    ("flowgraph.roots", "count"),
    ("flowgraph.hops", "count"),
    ("flowgraph.retries", "count"),
    ("flowgraph.shed_roots", "count"),
    ("flowgraph.budget_refusals", "count"),
    ("flowgraph.goodput_ratio", "fraction"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.journal_mb", "MB"),
    ("trace.export_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("runner.run_wall_s_p50", "s"),
    ("runner.concurrency", "x"),
    ("tick.wall_us_p50", "us"),
    ("tick.wall_us_p99", "us"),
];

/// Whether `name` is a legal metric name: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders the result line: `correct`, `attempted`, `failed`, and each
/// metric's value with its unit, in the order of `defs`.
///
/// # Errors
///
/// Fails if a metric of `defs` is missing or not a finite number.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[(&str, &str)],
    values: &std::collections::BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for (name, unit) in defs {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_legal_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn result_line_refuses_missing_or_infinite_values() {
        let defs = [("a", "s")];
        let mut values = std::collections::BTreeMap::new();
        assert!(result_json(true, 1, 0, &defs, &values).is_err());
        values.insert("a", f64::NAN);
        assert!(result_json(true, 1, 0, &defs, &values).is_err());
        values.insert("a", 0.25);
        assert_eq!(
            result_json(true, 1, 0, &defs, &values).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
