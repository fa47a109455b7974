//! Self-tests of the benchmark binary: the metric catalogue agrees with
//! `BENCHMARK.json`, a tiny run of every workload emits every metric, other
//! seeds print their digest, and bad arguments exit without a result. (The
//! wrong-pin check is a unit test in `src/main.rs`.)

use std::process::Command;

const WORKLOADS: [&str; 4] = ["ssp_ycsb", "hscc_ycsb", "ckpt_churn", "crash_sweep"];

/// Runs the benchmark and returns its standard output.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// A tiny run of `workload`; returns its result line.
fn tiny(workload: &str, trace: &str) -> String {
    let args = ["--workload", workload, "--size", "tiny", "--seconds", "0.05", "--trace", trace];
    run(&args).lines().last().expect("a result line").to_string()
}

/// The quoted strings following `"<field>": "` inside the `"<array>"`
/// array of `BENCHMARK.json`.
fn benchmark_field(array: &str, field: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{array}\"")).expect("array present");
    let end = start + text[start..].find(']').expect("array closed");
    strings_after(&text[start..end], &format!("\"{field}\": \""))
}

/// Every string that follows `marker` in `text`, up to the next quote.
fn strings_after(text: &str, marker: &str) -> Vec<String> {
    text.split(marker)
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics present")..];
    let pieces: Vec<&str> = metrics.split(": {\"value\"").collect();
    // Each piece but the last ends with the quoted name of the next metric.
    pieces[..pieces.len() - 1]
        .iter()
        .map(|s| {
            let s = &s[..s.rfind('"').expect("closing quote")];
            s[s.rfind('"').expect("opening quote") + 1..].to_string()
        })
        .collect()
}

/// The integer after `"<key>": ` in a result line.
fn field(line: &str, key: &str) -> u64 {
    let rest = &line[line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())]
        .parse()
        .expect("an integer")
}

#[test]
fn metric_names_are_well_formed_and_match_the_catalogue() {
    let e2e = benchmark_field("end_to_end", "name");
    let layer = benchmark_field("per_layer", "name");
    let mut all = e2e.clone();
    all.extend(layer.iter().cloned());
    for name in &all {
        assert!(!name.is_empty() && name.len() <= 64, "{name:?}");
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name:?}");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name:?} is not [A-Za-z0-9_.-]+"
        );
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "metric names repeat");
    assert!(e2e.contains(&"setup_s".to_string()));

    let catalogue = run(&["--list-metrics"]);
    let listed = strings_after(&catalogue, "\"name\": \"");
    assert_eq!(listed, all, "BENCHMARK.json disagrees with --list-metrics");
    assert_eq!(benchmark_field("workloads", "name"), WORKLOADS);
}

#[test]
fn tiny_runs_emit_every_metric() {
    let e2e = benchmark_field("end_to_end", "name");
    let layer = benchmark_field("per_layer", "name");
    for w in WORKLOADS {
        for (trace, names) in [("0", &e2e), ("1", &layer)] {
            let line = tiny(w, trace);
            assert!(line.starts_with("{\"correct\": true,"), "{w} trace {trace}: {line}");
            assert_eq!(field(&line, "failed"), 0, "{w}");
            assert!(field(&line, "attempted") > 0, "{w}");
            assert_eq!(&metric_names(&line), names, "{w} trace {trace}");
            assert!(!line.contains("NaN") && !line.contains("inf"), "{w}: {line}");
        }
    }
}

#[test]
fn other_seeds_print_their_digest() {
    let out =
        run(&["--workload", "ssp_ycsb", "--size", "tiny", "--seconds", "0.05", "--seed", "7"]);
    assert!(out.contains("(seed 7 is not pinned)"), "{out}");
    assert!(out.lines().last().expect("result").starts_with("{\"correct\": true,"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2", "--workload", "ssp_ycsb"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""), "{args:?}");
    }
}
