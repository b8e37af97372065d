//! The repository's end-to-end benchmark: a single-process, closed-loop,
//! single-client load generator over the engine's public API.
//!
//! `run` prepares a workload several times (the median is `setup_s`),
//! evaluates the oracle, then drives the workload for the requested
//! seconds. Untraced, it reports the end-to-end metrics, the timings
//! taken over the quieter half of [`WINDOWS`] equal windows of the run
//! (see [`quiet_windows`]). Traced, it runs half the
//! time untraced and half traced, and reports the per-layer metrics
//! derived from the spans (see `README.md`).

pub mod layers;
pub mod stats;
pub mod trace;
pub mod workload;

use std::time::Instant;

use stats::{json_num, json_str, median, quantile};
use workload::{Runner, Tally, Workload};

/// Times a run prepares its workload; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Windows an untraced run is split into; `qps` and the latency
/// percentiles are taken over the half of them with the least steal
/// time, so a slow stretch shorter than half the run (another tenant
/// of the host) does not move them.
pub const WINDOWS: usize = 20;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to drive.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of timed closed-loop load.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// `uservisits` rows; the workload's full size when `None`.
    pub rows: Option<usize>,
    /// Where the traced run writes its spans (not written when `None`).
    pub trace_out: Option<std::path::PathBuf>,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every query matched the oracle and nothing panicked.
    pub correct: bool,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Host, build and input facts behind the metrics, as a JSON object.
    pub stamp: String,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Every end-to-end metric name with its unit, in output order.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("qps", "1/s"),
        ("latency_p50_ms", "ms"),
        ("latency_p90_ms", "ms"),
        ("success_rate", "ratio"),
        ("peak_rss_mb", "MB"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// Run the benchmark as `cfg` says.
pub fn run(cfg: &Config) -> Outcome {
    let rows = cfg.rows.unwrap_or(cfg.workload.rows());
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut runner = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first, so set-ups never overlap in memory.
        drop(runner.take());
        let started = Instant::now();
        runner = Some(Runner::prepare(cfg.workload, rows, cfg.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut runner = runner.expect("at least one setup ran");
    let started = Instant::now();
    runner.compute_oracle();
    let oracle_s = started.elapsed().as_secs_f64();

    let (tally, metrics, probe_panics, extra) = if cfg.trace {
        let untraced = runner.run_for(cfg.seconds / 2.0, None);
        let mut probes = layers::Probes::new(runner.workers(), runner.wire_baseline());
        let traced = runner.run_for(cfg.seconds / 2.0, Some(&mut probes));
        if let Some(path) = &cfg.trace_out {
            if let Err(e) = write_trace(path, &probes.tracer) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
        }
        let metrics = layers::derive(
            &probes,
            median(&untraced.latencies_ms),
            median(&traced.latencies_ms),
        );
        let extra = format!(
            ", \"traced_requests\": {}, \"spans\": {}, \"dropped_spans\": {}",
            traced.latencies_ms.len(),
            probes.tracer.spans().len(),
            probes.tracer.dropped()
        );
        let mut tally = untraced;
        tally.attempted += traced.attempted;
        tally.failed += traced.failed;
        (tally, metrics, probes.stats.probe_panics, extra)
    } else {
        let mut steal = Vec::with_capacity(WINDOWS);
        let windows: Vec<Tally> = (0..WINDOWS)
            .map(|_| {
                let before = stats::cpu_steal_ticks();
                let window = runner.run_for(cfg.seconds / WINDOWS as f64, None);
                if let (Some(a), Some(b)) = (before, stats::cpu_steal_ticks()) {
                    steal.push(stats::ratio((b.0 - a.0) as f64, (b.1 - a.1) as f64));
                }
                window
            })
            .collect();
        let quiet = quiet_windows(&steal);
        let mut tally = Tally::default();
        let mut timed = Tally::default();
        for (i, w) in windows.iter().enumerate() {
            tally.absorb(w);
            if quiet.contains(&i) {
                timed.absorb(w);
            }
        }
        let values = [
            median(&setup_s),
            timed.qps(),
            quantile(&timed.latencies_ms, 0.5),
            quantile(&timed.latencies_ms, 0.9),
            1.0 - tally.error_rate(),
            stats::peak_rss_mb(),
        ];
        let metrics = end_to_end_names()
            .into_iter()
            .zip(values)
            .map(|((name, unit), value)| Metric { name, unit, value })
            .collect();
        let list = |v: Vec<String>| v.join(", ");
        let extra = format!(
            ", \"windows\": {WINDOWS}, \"steal_per_window\": [{}], \"timed_windows\": [{}], \
             \"timed_latency_samples\": {}",
            list(steal.iter().map(|s| json_num(*s)).collect()),
            list(quiet.iter().map(|i| i.to_string()).collect()),
            timed.latencies_ms.len()
        );
        (tally, metrics, 0, extra)
    };

    let stamp = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"commit\": {}, \"rustc\": {}, \"profile\": {}, \"uservisits_rows\": {}, \
         \"rankings_rows\": {}, \"input_mb\": {}, \"table_versions\": {}, \"setups_s\": [{}], \
         \"oracle_s\": {}, \"requests\": {}, \"latency_samples\": {}, \"attempted\": {}, \
         \"failed\": {}, \"error_rate\": {}, \"probe_panics\": {}{}}}",
        json_str(cfg.workload.name()),
        cfg.seed,
        json_num(cfg.seconds),
        cfg.trace,
        stats::nproc(),
        json_str(&stats::git_commit()),
        json_str(&stats::rustc_version()),
        json_str(stats::build_profile()),
        runner.rows(),
        runner.rows() / 5,
        json_num(runner.input_bytes() as f64 / 1e6),
        runner.table_versions(),
        setup_s
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(", "),
        json_num(oracle_s),
        json_str(request_kind(cfg.workload)),
        tally.latencies_ms.len(),
        tally.attempted,
        tally.failed,
        json_num(tally.error_rate()),
        probe_panics,
        extra
    );
    Outcome {
        correct: tally.failed == 0 && probe_panics == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        stamp,
    }
}

/// The windows the timing metrics are taken from: the half of the
/// windows in which the hypervisor stole the least CPU time (ties keep
/// run order), or every window where steal time is not reported.
pub fn quiet_windows(steal: &[f64]) -> Vec<usize> {
    if steal.len() != WINDOWS {
        return (0..WINDOWS).collect();
    }
    let mut order: Vec<usize> = (0..WINDOWS).collect();
    order.sort_by(|a, b| steal[*a].total_cmp(&steal[*b]));
    order.truncate(WINDOWS.div_ceil(2));
    order.sort_unstable();
    order
}

/// What one latency sample covers.
fn request_kind(w: Workload) -> &'static str {
    match w {
        Workload::ServeSmall => "batch",
        _ => "query",
    }
}

fn write_trace(path: &std::path::Path, tracer: &trace::Tracer) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_tsv(&mut out)?;
    out.flush()
}
