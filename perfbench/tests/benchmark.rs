//! The benchmark's own checks, at input sizes that finish in seconds.

use std::collections::BTreeSet;

use cheetah_engine::QueryResult;
use cheetah_perfbench::workload::{Runner, Workload};
use cheetah_perfbench::{end_to_end_names, layers, quiet_windows, run, Config, Outcome, WINDOWS};

const TINY_ROWS: usize = 3_000;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Config {
        workload,
        seed,
        seconds: 0.05,
        trace,
        rows: Some(TINY_ROWS),
        trace_out: None,
    })
}

fn names(o: &Outcome) -> BTreeSet<String> {
    o.metrics.iter().map(|m| m.name.clone()).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_the_same_for_any_seed() {
    let e2e: BTreeSet<String> = end_to_end_names().into_iter().map(|(n, _)| n).collect();
    let per_layer: BTreeSet<String> = layers::names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(e2e.len(), end_to_end_names().len(), "names are unique");
    assert_eq!(per_layer.len(), layers::names().len(), "names are unique");
    for w in Workload::ALL {
        for seed in [1, 7] {
            let plain = tiny(w, seed, false);
            assert_eq!(names(&plain), e2e, "{} seed {seed}", w.name());
            let traced = tiny(w, seed, true);
            assert_eq!(names(&traced), per_layer, "{} seed {seed}", w.name());
        }
    }
    for n in e2e.iter().chain(&per_layer) {
        assert!(well_formed(n), "bad metric name {n:?}");
    }
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let listed = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    for (n, _) in end_to_end_names().into_iter().chain(layers::names()) {
        assert!(listed(&n), "BENCHMARK.json does not list {n}");
    }
    for w in Workload::ALL {
        assert!(
            listed(w.name()),
            "BENCHMARK.json does not list {}",
            w.name()
        );
    }
}

#[test]
fn a_wrong_oracle_entry_raises_the_error_rate_without_aborting() {
    for w in Workload::ALL {
        let mut runner = Runner::prepare(w, TINY_ROWS, 3);
        runner.compute_oracle();
        for version in runner.oracle_mut().iter_mut() {
            version[0] = QueryResult::Count(u64::MAX);
        }
        let tally = runner.run_for(0.0, None);
        assert!(tally.failed > 0, "{}: the mismatch is counted", w.name());
        assert!(
            tally.failed < tally.attempted,
            "{}: the other queries still run and pass",
            w.name()
        );
        assert!(tally.error_rate() > 0.0);
    }
}

#[test]
fn every_workload_completes_correctly_at_a_tiny_size() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = tiny(w, 11, trace);
            assert!(o.correct, "{} trace={trace}: {}", w.name(), o.stamp);
            assert!(o.attempted > 0);
            assert_eq!(o.failed, 0);
            assert!(
                o.metrics.iter().all(|m| m.value.is_finite()),
                "{}: {:?}",
                w.name(),
                o.metrics
            );
            let line = o.to_json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn timings_come_from_the_least_stolen_half_of_the_windows() {
    let steal: Vec<f64> = (0..WINDOWS).map(|i| ((i * 7) % WINDOWS) as f64).collect();
    let quiet = quiet_windows(&steal);
    assert_eq!(quiet.len(), WINDOWS / 2);
    let worst_kept = quiet.iter().map(|&i| steal[i]).fold(f64::MIN, f64::max);
    for i in (0..WINDOWS).filter(|i| !quiet.contains(i)) {
        assert!(
            steal[i] > worst_kept,
            "window {i} is stolen less than one kept"
        );
    }
    assert!(quiet.windows(2).all(|w| w[0] < w[1]), "kept in run order");
    assert_eq!(quiet_windows(&[]), (0..WINDOWS).collect::<Vec<_>>());
}
