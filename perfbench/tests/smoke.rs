//! Tiny-scale smoke test of the benchmark: every metric BENCHMARK.json
//! names is emitted, no op fails, and each workload exercises what it
//! claims to.

use std::process::Command;

/// Stdout of one short Tiny-scale run.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

/// The value of `name` in the result line.
fn metric(stdout: &str, name: &str) -> f64 {
    let line = result_line(stdout);
    let key = format!("\"{name}\":{{\"value\":");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing from {line}"))
        + key.len();
    line[at..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} is not a number"))
}

/// Metric names declared in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    body[..body.find(']').expect("section is a list")]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap_or_default().to_string())
        .collect()
}

fn assert_clean_with_every_metric(stdout: &str, section: &str) {
    let line = result_line(stdout);
    assert!(line.starts_with("{\"correct\":true,"), "{line}");
    assert!(line.contains("\"failed\":0,"), "{line}");
    let names = declared(section);
    assert!(!names.is_empty());
    for name in names {
        metric(stdout, &name);
    }
}

/// Asserts a traced run measured every per-layer metric at least once:
/// each `layer <name> <value> <unit> calls=N` line has N > 0.
fn assert_every_layer_called(stdout: &str) {
    for name in declared("per_layer") {
        let prefix = format!("layer {name} ");
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no layer line for {name}"));
        let calls: u64 = line
            .rsplit_once(" calls=")
            .and_then(|(_, n)| n.parse().ok())
            .unwrap_or_else(|| panic!("no call count in {line:?}"));
        assert!(calls > 0, "{name} was never measured: {line:?}");
    }
}

/// Smallest `chunks_per_field` among the descriptor's meshes.
fn min_chunks_per_field(stdout: &str) -> f64 {
    let descriptor = stdout
        .lines()
        .find(|l| l.starts_with("descriptor "))
        .expect("descriptor line");
    descriptor
        .split("\"chunks_per_field\":")
        .skip(1)
        .filter_map(|s| s.split([',', '}']).next()?.parse::<f64>().ok())
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn pack_emits_everything_and_builds_the_recipe_once_per_dump() {
    assert_clean_with_every_metric(&run("pack", "0"), "end_to_end");
    let traced = run("pack", "1");
    assert_clean_with_every_metric(&traced, "per_layer");
    assert_every_layer_called(&traced);
    assert_eq!(metric(&traced, "store.write.recipe_builds_per_op"), 1.0);
}

#[test]
fn cold_read_queries_decode_fewer_chunks_than_the_field_has() {
    assert_clean_with_every_metric(&run("cold-read", "0"), "end_to_end");
    let traced = run("cold-read", "1");
    assert_clean_with_every_metric(&traced, "per_layer");
    assert_every_layer_called(&traced);
    let decoded = metric(&traced, "store.chunks_decoded_per_query");
    assert!(decoded >= 1.0 && decoded < min_chunks_per_field(&traced));
}

#[test]
fn serve_both_hits_and_misses_the_chunk_cache() {
    assert_clean_with_every_metric(&run("serve", "0"), "end_to_end");
    let traced = run("serve", "1");
    assert_clean_with_every_metric(&traced, "per_layer");
    assert_every_layer_called(&traced);
    let hit_rate = metric(&traced, "store.chunk_cache.hit_rate");
    assert!(hit_rate > 0.0 && hit_rate < 1.0, "hit rate {hit_rate}");
}
