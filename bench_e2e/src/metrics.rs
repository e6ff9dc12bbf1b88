//! Metric names, summary statistics and the result line.

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("setup_rss_mb", "MB"),
    ("time_to_target_s", "s"),
    ("epochs_to_target", "count"),
    ("epoch_p50_s", "s"),
    ("epoch_tail_s", "s"),
    ("train_epochs_per_s", "1/s"),
    ("predict_p50_us", "us"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.  A layer
/// a workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("optimizer.choose_plan_s", "s"),
    ("ooc.spill_s", "s"),
    ("ooc.pages_faulted", "count"),
    ("ooc.io_bytes", "B"),
    ("ooc.prefetch_hits", "count"),
    ("matrix.materialize_rows_s", "s"),
    ("matrix.materialize_cols_s", "s"),
    ("matrix.encode_indices_s", "s"),
    ("matrix.resident_bytes", "B"),
    ("replica.build_s", "s"),
    ("replica.local_read_fraction", "ratio"),
    ("plan.fill_s", "s"),
    ("plan.steals", "count"),
    ("executor.run_epoch_s", "s"),
    ("executor.busy_max_s", "s"),
    ("executor.busy_mean_s", "s"),
    ("executor.steal_s", "s"),
    ("executor.dispatch_overhead_s", "s"),
    ("kernel.row_pass_s", "s"),
    ("kernel.col_pass_s", "s"),
    ("kernel.row_bytes", "B"),
    ("kernel.row_gbps", "GB/s"),
    ("model.average_s", "s"),
    ("objective.full_loss_s", "s"),
    ("sim.epoch_s", "s"),
    ("sim.error_ratio", "ratio"),
    ("serve.admit_s", "s"),
    ("serve.first_snapshot_s", "s"),
    ("frontend.reply_latency_p50_us", "us"),
    ("frontend.reply_latency_p99_us", "us"),
    ("frontend.mean_batch", "count"),
    ("predictor.predict_batch_s", "s"),
    ("snapshot.load_ns", "ns"),
    ("snapshot.staleness_epochs", "count"),
    ("snapshot.versions_published", "count"),
    ("trace.epoch_wall_s", "s"),
    ("trace.phase_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

#[cfg(test)]
/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples,
/// computed in whole hundredths of a percent so that `p * n / 100` has no
/// rounding error.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n) - 1
}

/// Median and nearest-rank 99th percentile of `values`; zeros for none.
pub fn p50_p99(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return (0.0, 0.0);
    }
    (median(&sorted), percentile(&sorted, 99.0))
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: &[f64] = &[99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= TAIL_BEYOND)
}

/// A timing summary: median, tail percentile and its value, sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
    pub samples: usize,
}

/// Summarize `values` by the tail rule; with too few samples for any
/// ladder percentile the tail is the maximum, reported as percentile 100.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return Summary {
            p50: 0.0,
            tail_p: 0.0,
            tail: 0.0,
            samples: 0,
        };
    }
    let (tail_p, tail) = match tail_percentile(sorted.len()) {
        Some(p) => (p, percentile(&sorted, p)),
        None => (100.0, sorted[sorted.len() - 1]),
    };
    Summary {
        p50: median(&sorted),
        tail_p,
        tail,
        samples: sorted.len(),
    }
}

/// The loss a training run must reach: `ratio` of the loss of the all-zero
/// model the run starts from.
pub fn loss_target(initial_loss: f64, ratio: f64) -> f64 {
    initial_loss * ratio
}

/// FNV-1a over the bit patterns of a loss trace: equal hashes mean a
/// bit-identical trace.
pub fn trace_hash(losses: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for loss in losses {
        for byte in loss.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A JSON number; non-finite values have no JSON form and print as `null`
/// (the run is then marked incorrect by [`Outcome::correct`]).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: training runs, predictions, parity checks.
    pub attempted: u64,
    /// Of those, the ones that failed their output check.
    pub failed: u64,
    /// Metric values by name (units come from the metric tables).
    pub metrics: Vec<(&'static str, f64)>,
    /// Inputs, decisions and diagnostics: `(key, JSON value)`.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    pub fn note(&mut self, key: impl Into<String>, json_value: String) {
        self.record.push((key.into(), json_value));
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every output check passed and every metric of the table was
    /// measured as a finite number.
    pub fn correct(&self, trace: bool) -> bool {
        self.failed == 0
            && self.attempted > 0
            && Self::table(trace)
                .iter()
                .all(|(name, _)| self.get(name).is_some_and(f64::is_finite))
    }

    /// The inputs-and-decisions line printed before the result.
    pub fn record_json(&self) -> String {
        let fields: Vec<String> = self
            .record
            .iter()
            .map(|(key, value)| format!("{}: {}", json_str(key), value))
            .collect();
        format!("{{\"record\": {{{}}}}}", fields.join(", "))
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::table(trace)
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(f64::NAN);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(trace),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 20 samples: the median (rank 10) leaves 10 beyond, p75 only 5.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        // 100 samples: p90 (rank 90) leaves exactly 10 beyond; p95 leaves 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_rule_matches_a_brute_force_count() {
        for n in 1..3_000 {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let expected = TAIL_LADDER.iter().copied().find(|&p| {
                let value = percentile(&sorted, p);
                sorted.iter().filter(|&&v| v > value).count() >= 10
            });
            assert_eq!(tail_percentile(n), expected, "n = {n}");
        }
    }

    #[test]
    fn summary_reports_median_and_tail() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let summary = summarize(&values);
        assert_eq!(summary.samples, 100);
        assert_eq!(summary.p50, 50.5);
        assert_eq!(summary.tail_p, 90.0);
        assert_eq!(summary.tail, 90.0);
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.tail_p, few.tail, few.p50), (100.0, 3.0, 2.0));
    }

    #[test]
    fn metric_names_use_the_allowed_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        assert!(!valid_metric_name("épochs"));
        assert!(!valid_metric_name("_lead"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (section, table) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = text.find(section).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{section}");
            for (name, unit) in table {
                assert!(body.contains(&format!("\"name\": \"{name}\"")), "{name}");
                assert!(body.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
        }
    }

    #[test]
    fn trace_hash_sees_single_bit_changes() {
        let a = [0.5f64, 0.25, 0.125];
        let mut b = a;
        b[2] = f64::from_bits(b[2].to_bits() ^ 1);
        assert_eq!(trace_hash(&a), trace_hash(&a));
        assert_ne!(trace_hash(&a), trace_hash(&b));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome::default();
        outcome.count(3, 0);
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = outcome.result_json(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        outcome.set("setup_s", f64::NAN);
        assert!(!outcome.correct(false));
    }
}
