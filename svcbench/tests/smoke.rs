//! A short, seeded smoke pass of every workload in both modes. It checks
//! that every metric `BENCHMARK.json` declares is printed, that the
//! server's hit ratio reads 0 / 1 / ≈0.9 on cold-prove / warm-hit /
//! small-open, and that no request fails.
//!
//! It drives the release `dpc` binary, so build that first with the same
//! target directory, or name it in `DPC_SERVER`:
//!
//! ```text
//! export CARGO_TARGET_DIR=.bench_build
//! cargo build --release --bin dpc
//! cargo test --release --manifest-path svcbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

fn server() -> PathBuf {
    if let Some(path) = std::env::var_os("DPC_SERVER") {
        return PathBuf::from(path);
    }
    // the benchmark binary sits in <target>/release beside `dpc`
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_svcbench"));
    let path = bench.with_file_name("dpc");
    assert!(
        path.exists(),
        "no server at {}: run `cargo build --release --bin dpc` at the repository \
         root with the same CARGO_TARGET_DIR, or set DPC_SERVER",
        path.display()
    );
    path
}

/// The metric names one list of `BENCHMARK.json` declares.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside svcbench/");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} list"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// The value of one metric in the result line.
fn value(json: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let rest = &json[at..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("numeric value")
}

fn smoke(workload: &str, hit_ratio: (f64, f64)) {
    for trace in ["0", "1"] {
        let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
        let out = Command::new(env!("CARGO_BIN_EXE_svcbench"))
            .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
            .args(["--trace", trace, "--smoke"])
            .arg("--server")
            .arg(server())
            .arg("--work")
            .arg(&work)
            .output()
            .expect("run svcbench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = stdout.lines().last().expect("a result line");
        assert!(json.starts_with("{\"correct\": true, "), "{json}");
        assert!(json.contains("\"failed\": 0,"), "{json}");
        assert!(stdout.contains("failed_share"), "{stdout}");
        let list = if trace == "0" {
            "end_to_end"
        } else {
            "per_layer"
        };
        for name in declared(list) {
            assert!(value(json, &name).is_finite(), "{workload}: {name}");
        }
        if trace == "1" {
            let ratio = value(json, "server.hit_ratio");
            assert!(
                (hit_ratio.0..=hit_ratio.1).contains(&ratio),
                "{workload}: hit ratio {ratio}"
            );
        }
    }
}

#[test]
fn cold_prove_misses_every_request() {
    smoke("cold-prove", (0.0, 0.0));
}

#[test]
fn warm_hit_hits_every_request() {
    smoke("warm-hit", (1.0, 1.0));
}

#[test]
fn small_open_hits_nine_in_ten() {
    smoke("small-open", (0.85, 0.95));
}
