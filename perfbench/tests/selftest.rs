//! Self-test: every workload at the tiny size prints every metric that
//! BENCHMARK.json names, with its unit, and a corrupted expected answer
//! fails the run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use kbp_service::json::{self, Json};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
}

/// Builds kbpd once, into a target directory of its own next to this
/// test's binaries, so the build does not wait on the running cargo.
fn kbpd() -> &'static Path {
    static KBPD: OnceLock<PathBuf> = OnceLock::new();
    KBPD.get_or_init(|| {
        let bench = Path::new(env!("CARGO_BIN_EXE_kbp-perfbench"));
        let target = bench
            .parent()
            .and_then(Path::parent)
            .expect("binary inside a target directory")
            .join("selftest-kbpd");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "kbp-service",
                "--bin",
                "kbpd",
            ])
            .current_dir(repo_root())
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building kbpd failed");
        target.join("release").join("kbpd")
    })
}

/// Runs the benchmark at the tiny size; returns the exit code and the
/// parsed last stdout line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_kbp-perfbench"))
        .arg("--kbpd")
        .arg(kbpd())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "4",
            "--size",
            "tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).unwrap_or_else(|e| panic!("last line {last:?}: {e}\n{stdout}"));
    (out.status.code().unwrap_or(-1), result)
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = spec.get(section) else {
        panic!("BENCHMARK.json lacks {section}");
    };
    items
        .iter()
        .map(|m| {
            let get = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (get("name"), get("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = spec.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    items
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect()
}

fn assert_metrics(result: &Json, expected: &[(String, String)], what: &str) {
    let metrics = result
        .get("metrics")
        .unwrap_or_else(|| panic!("{what}: no metrics"));
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        assert!(
            matches!(
                m.get("value"),
                Some(Json::F64(_) | Json::I64(_) | Json::U64(_))
            ),
            "{what}: {name} has no numeric value"
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for workload in workloads() {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let what = format!("{workload} --trace {trace}");
            let (code, result) = run(&workload, trace, &[]);
            assert_eq!(code, 0, "{what}: exit code");
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{what}: correct"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
                "{what}: attempted"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{what}: failed"
            );
            assert_metrics(&result, &declared(section), &what);
        }
    }
}

#[test]
fn a_corrupted_expected_answer_fails_the_run() {
    for workload in workloads() {
        let (code, result) = run(&workload, 0, &["--corrupt-expected"]);
        assert_ne!(code, 0, "{workload}: a wrong answer must fail the run");
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}: correct"
        );
        assert!(
            result.get("failed").and_then(Json::as_u64).unwrap_or(0) > 0,
            "{workload}: failed count"
        );
    }
}
