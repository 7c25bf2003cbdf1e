//! End-to-end CLI tests: drive the real binary through the full
//! generate → pack → unpack → verify flow.

use std::path::PathBuf;
use std::process::Command;

fn zmesh() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zmesh"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zmesh_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

#[test]
fn full_workflow() {
    let zmd = tmp("blast.zmd");
    let zms = tmp("blast.zms");
    let restored = tmp("restored.zmd");

    let out = zmesh()
        .args([
            "generate",
            "blast2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(zmd.exists());

    let out = zmesh()
        .args([
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            zms.to_str().unwrap(),
            "--policy",
            "hilbert",
            "--codec",
            "sz",
            "--rel-eb",
            "1e-4",
        ])
        .output()
        .expect("run pack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ratio"), "no ratio in: {stdout}");

    let out = zmesh()
        .args([
            "unpack",
            zms.to_str().unwrap(),
            "-o",
            restored.to_str().unwrap(),
        ])
        .output()
        .expect("run unpack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = zmesh()
        .args([
            "verify",
            zmd.to_str().unwrap(),
            restored.to_str().unwrap(),
            "--rel-eb",
            "1e-4",
        ])
        .output()
        .expect("run verify");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // Tighter bound than we compressed with must fail verification.
    let out = zmesh()
        .args([
            "verify",
            zmd.to_str().unwrap(),
            restored.to_str().unwrap(),
            "--rel-eb",
            "1e-9",
        ])
        .output()
        .expect("run verify");
    assert!(!out.status.success(), "too-tight verify should fail");

    // Info on both artifact kinds.
    for f in [&zmd, &zms] {
        let out = zmesh()
            .args(["info", f.to_str().unwrap()])
            .output()
            .expect("run info");
        assert!(out.status.success());
    }

    // Selective decode of one field: the same values as the full unpack.
    let extracted = tmp("density.zmd");
    let out = zmesh()
        .args([
            "unpack",
            zms.to_str().unwrap(),
            "--field",
            "density",
            "-o",
            extracted.to_str().unwrap(),
        ])
        .output()
        .expect("run unpack --field");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let one = zmesh_amr::load_dataset(&extracted).expect("load extracted");
    let all = zmesh_amr::load_dataset(&restored).expect("load restored");
    assert_eq!(one.fields.len(), 1);
    assert_eq!(one.fields[0].0, "density");
    assert_eq!(one.fields[0].1.values(), all.fields[0].1.values());
    // Unknown field lists the available ones.
    let out = zmesh()
        .args([
            "unpack",
            zms.to_str().unwrap(),
            "--field",
            "nope",
            "-o",
            "/dev/null",
        ])
        .output()
        .expect("run unpack --field");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("(available: density, energy)"));

    for f in [zmd, zms, restored, extracted] {
        let _ = std::fs::remove_file(f);
    }
}

/// A file in the retired single-blob container format (its 4-byte magic,
/// version 1, then tags and a structure length) is neither a store nor a
/// dataset: `unpack` and `info` reject it as corrupt input, without a
/// panic.
#[test]
fn retired_container_files_are_typed_corrupt_errors() {
    let old = tmp("retired.blob");
    let mut bytes = vec![0x5a, 0x4d, 0x43, 0x31, 1, 2, 1, 0, 17];
    bytes.extend_from_slice(b"AMT1 structure...");
    bytes.extend_from_slice(&[0; 24]);
    std::fs::write(&old, &bytes).expect("write");
    for args in [
        vec!["unpack", old.to_str().unwrap(), "-o", "/dev/null"],
        vec![
            "unpack",
            old.to_str().unwrap(),
            "-o",
            "/dev/null",
            "--in-memory",
        ],
        vec!["info", old.to_str().unwrap()],
        vec!["info", old.to_str().unwrap(), "--in-memory"],
    ] {
        let out = zmesh().args(&args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(old);
}

#[test]
fn errors_are_reported_not_panicked() {
    // Unknown subcommand.
    let out = zmesh().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    // Unknown preset.
    let out = zmesh()
        .args(["generate", "nope", "-o", "/dev/null"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
    // Missing file.
    let out = zmesh()
        .args(["info", "/nonexistent/zmesh/file.zmd"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    // Conflicting bounds.
    let out = zmesh()
        .args([
            "pack", "x.zmd", "-o", "y.zms", "--abs-eb", "1", "--rel-eb", "1e-4",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn store_workflow_pack_query_unpack() {
    let zmd = tmp("store_in.zmd");
    let zms = tmp("store.zms");
    let restored = tmp("store_out.zmd");
    let csv = tmp("region.csv");

    let out = zmesh()
        .args([
            "generate",
            "blast2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = zmesh()
        .args([
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            zms.to_str().unwrap(),
            "--policy",
            "hilbert",
            "--chunk-kb",
            "1",
        ])
        .output()
        .expect("run pack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chunks"), "no chunk count in: {stdout}");

    // info recognizes the v3 store and reports its index + parity width.
    let out = zmesh()
        .args(["info", zms.to_str().unwrap()])
        .output()
        .expect("run info");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("v3 store") && stdout.contains("chunks") && stdout.contains("parity"),
        "info said: {stdout}"
    );

    // Region query decodes a strict subset of the chunks.
    let out = zmesh()
        .args([
            "query",
            zms.to_str().unwrap(),
            "--field",
            "density",
            "--bbox",
            "0,0:3,3",
            "-o",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("run query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (decoded, total) = stdout
        .split_once("decoded ")
        .and_then(|(_, rest)| rest.split_once(" chunks"))
        .and_then(|(frac, _)| frac.split_once('/'))
        .map(|(d, t)| (d.parse::<usize>().unwrap(), t.parse::<usize>().unwrap()))
        .expect("parse decoded m/n chunks");
    assert!(
        decoded < total,
        "query decoded all {total} chunks: {stdout}"
    );
    let rows = std::fs::read_to_string(&csv).expect("read csv");
    assert!(rows.starts_with("storage_index,value\n") && rows.lines().count() > 1);

    // Unpack round-trips within the pack bound.
    let out = zmesh()
        .args([
            "unpack",
            zms.to_str().unwrap(),
            "-o",
            restored.to_str().unwrap(),
        ])
        .output()
        .expect("run unpack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = zmesh()
        .args([
            "verify",
            zmd.to_str().unwrap(),
            restored.to_str().unwrap(),
            "--rel-eb",
            "1e-4",
        ])
        .output()
        .expect("run verify");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for f in [zmd, zms, restored, csv] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn exit_codes_distinguish_failure_kinds() {
    let zmd = tmp("codes.zmd");
    let zms = tmp("codes.zms");
    let out = zmesh()
        .args([
            "generate",
            "advect2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = zmesh()
        .args(["pack", zmd.to_str().unwrap(), "-o", zms.to_str().unwrap()])
        .output()
        .expect("run pack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let code = |args: &[&str]| zmesh().args(args).output().expect("run").status.code();

    // Usage errors -> 2.
    assert_eq!(code(&["frobnicate"]), Some(2));
    assert_eq!(
        code(&[
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            "/dev/null",
            "--policy",
            "bogus"
        ]),
        Some(2)
    );
    assert_eq!(
        code(&[
            "query",
            zms.to_str().unwrap(),
            "--field",
            "density",
            "--bbox",
            "nope"
        ]),
        Some(2)
    );
    assert_eq!(
        code(&[
            "query",
            zms.to_str().unwrap(),
            "--field",
            "ghost",
            "--bbox",
            "0,0:3,3"
        ]),
        Some(2),
        "unknown field is a usage error"
    );
    // I/O errors -> 3.
    assert_eq!(code(&["info", "/nonexistent/zmesh/file.zms"]), Some(3));
    assert_eq!(
        code(&["unpack", "/nonexistent/a.zms", "-o", "/dev/null"]),
        Some(3)
    );

    // Corrupt containers -> 4: truncation, payload bit-flip, index bit-flip.
    let bytes = std::fs::read(&zms).expect("read store");
    let truncated = tmp("codes_trunc.zms");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("write");
    assert_eq!(
        code(&["unpack", truncated.to_str().unwrap(), "-o", "/dev/null"]),
        Some(4)
    );

    let flipped = tmp("codes_flip.zms");
    let mut b = bytes.clone();
    let mid = b.len() / 2;
    b[mid] ^= 0x10;
    std::fs::write(&flipped, &b).expect("write");
    assert_eq!(
        code(&["unpack", flipped.to_str().unwrap(), "-o", "/dev/null"]),
        Some(4),
        "payload corruption must be caught"
    );

    let bad_index = tmp("codes_index.zms");
    let mut b = bytes.clone();
    let n = b.len();
    b[n - 10] ^= 0x01; // inside the footer-CRC/trailer region
    std::fs::write(&bad_index, &b).expect("write");
    assert_eq!(
        code(&["unpack", bad_index.to_str().unwrap(), "-o", "/dev/null"]),
        Some(4)
    );

    // Verify failure -> 5.
    let restored = tmp("codes_restored.zmd");
    let out = zmesh()
        .args([
            "unpack",
            zms.to_str().unwrap(),
            "-o",
            restored.to_str().unwrap(),
        ])
        .output()
        .expect("run unpack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        code(&[
            "verify",
            zmd.to_str().unwrap(),
            restored.to_str().unwrap(),
            "--rel-eb",
            "1e-12"
        ]),
        Some(5)
    );

    for f in [zmd, zms, truncated, flipped, bad_index, restored] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn salvage_tolerates_chunk_corruption_strict_exits_4() {
    let zmd = tmp("salvage.zmd");
    let zms = tmp("salvage.zms");
    let broken = tmp("salvage_broken.zms");
    let restored = tmp("salvage_restored.zmd");
    let csv = tmp("salvage.csv");

    for args in [
        vec![
            "generate",
            "blast2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ],
        vec![
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            zms.to_str().unwrap(),
            "--chunk-kb",
            "1",
        ],
    ] {
        let out = zmesh().args(&args).output().expect("run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Flip one byte inside the first chunk of the first field, located
    // precisely via the fault-injection harness so only that chunk is
    // damaged.
    let mut bytes = std::fs::read(&zms).expect("read store");
    let (_, fields, _) = zmesh_store::open_parts(&bytes).expect("open store");
    assert!(fields[0].chunks.len() > 1, "need multiple chunks");
    let field_name = fields[0].name.clone();
    let whole_domain = {
        let reader = zmesh_store::StoreReader::open(&bytes).expect("open");
        let tree = reader.tree();
        let dims = tree.level_dims(tree.max_level());
        format!("0,0:{},{}", dims[0] - 1, dims[1] - 1)
    };
    zmesh_store::faultinject::flip_data_chunk(&mut bytes, 0, 0);
    std::fs::write(&broken, &bytes).expect("write corrupted store");

    let code = |args: &[&str]| zmesh().args(args).output().expect("run").status.code();

    // Strict (default) unpack and query fail with the corrupt exit code.
    assert_eq!(
        code(&["unpack", broken.to_str().unwrap(), "-o", "/dev/null"]),
        Some(4)
    );
    assert_eq!(
        code(&[
            "query",
            broken.to_str().unwrap(),
            "--field",
            &field_name,
            "--bbox",
            &whole_domain,
        ]),
        Some(4)
    );

    // --salvage succeeds; with v3 parity the single damaged chunk is
    // repaired in-flight rather than lost, and stderr says so.
    let out = zmesh()
        .args([
            "unpack",
            broken.to_str().unwrap(),
            "-o",
            restored.to_str().unwrap(),
            "--salvage",
        ])
        .output()
        .expect("run unpack --salvage");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("salvaged")
            && stderr.contains("1 corrupt chunk")
            && stderr.contains("1 repaired from parity"),
        "no damage summary in: {stderr}"
    );
    assert!(restored.exists());

    let out = zmesh()
        .args([
            "query",
            broken.to_str().unwrap(),
            "--field",
            &field_name,
            "--bbox",
            &whole_domain,
            "--salvage",
            "-o",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("run query --salvage");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("salvaged"));
    let rows = std::fs::read_to_string(&csv).expect("read csv");
    assert!(rows.lines().count() > 1, "survivors expected in csv");

    for f in [zmd, zms, broken, restored, csv] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn scrub_and_repair_self_heal_workflow() {
    let zmd = tmp("heal.zmd");
    let zms = tmp("heal.zms");
    let broken = tmp("heal_broken.zms");
    let repaired = tmp("heal_repaired.zms");
    let double = tmp("heal_double.zms");
    let rescued = tmp("heal_rescued.zms");

    for args in [
        vec![
            "generate",
            "blast2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ],
        vec![
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            zms.to_str().unwrap(),
            "--chunk-kb",
            "1",
        ],
    ] {
        let out = zmesh().args(&args).output().expect("run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let pristine = std::fs::read(&zms).expect("read store");
    let (_, fields, _) = zmesh_store::open_parts(&pristine).expect("open store");
    assert!(fields[0].chunks.len() > 2, "need several chunks per group");

    let code = |args: &[&str]| zmesh().args(args).output().expect("run").status.code();

    // A pristine store scrubs clean: exit 0, machine-readable report.
    let out = zmesh()
        .args(["scrub", zms.to_str().unwrap()])
        .output()
        .expect("run scrub");
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"clean\":true") && json.contains("\"parity_available\":true"),
        "scrub said: {json}"
    );

    // One flipped chunk: exit 6 (recoverable), and repair restores the
    // container byte for byte.
    let mut bytes = pristine.clone();
    zmesh_store::faultinject::flip_data_chunk(&mut bytes, 0, 1);
    std::fs::write(&broken, &bytes).expect("write");
    let out = zmesh()
        .args(["scrub", broken.to_str().unwrap()])
        .output()
        .expect("run scrub");
    assert_eq!(out.status.code(), Some(6), "recoverable damage exits 6");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"recoverable\":1"));

    let out = zmesh()
        .args([
            "repair",
            broken.to_str().unwrap(),
            "-o",
            repaired.to_str().unwrap(),
        ])
        .output()
        .expect("run repair");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("parity"));
    assert_eq!(
        std::fs::read(&repaired).expect("read repaired"),
        pristine,
        "repair must be byte-identical to the pristine store"
    );

    // Two flipped chunks in the same parity group: beyond parity (exit 4),
    // repair refuses to write, but a replica rescues it bit-exactly.
    let mut bytes = pristine.clone();
    zmesh_store::faultinject::flip_data_chunk(&mut bytes, 0, 0);
    zmesh_store::faultinject::flip_data_chunk(&mut bytes, 0, 1);
    std::fs::write(&double, &bytes).expect("write");
    assert_eq!(code(&["scrub", double.to_str().unwrap()]), Some(4));
    assert_eq!(
        code(&[
            "repair",
            double.to_str().unwrap(),
            "-o",
            rescued.to_str().unwrap(),
        ]),
        Some(4),
        "repair without a replica cannot recover a double fault"
    );
    assert!(!rescued.exists(), "no output on failed repair");
    let out = zmesh()
        .args([
            "repair",
            double.to_str().unwrap(),
            "-o",
            rescued.to_str().unwrap(),
            "--replica",
            zms.to_str().unwrap(),
        ])
        .output()
        .expect("run repair --replica");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&rescued).expect("read rescued"), pristine);

    // A parity-less (v2) store still scrubs, reporting no self-healing.
    let v2 = tmp("heal_v2.zms");
    let out = zmesh()
        .args([
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            v2.to_str().unwrap(),
            "--parity-width",
            "0",
        ])
        .output()
        .expect("run pack --parity-width 0");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = zmesh()
        .args(["scrub", v2.to_str().unwrap()])
        .output()
        .expect("run scrub v2");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"parity_available\":false"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no parity"));
    let out = zmesh()
        .args(["info", v2.to_str().unwrap()])
        .output()
        .expect("run info v2");
    assert!(String::from_utf8_lossy(&out.stdout).contains("v2 store"));

    for f in [zmd, zms, broken, repaired, double, rescued, v2] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn salvage_fill_zero_replaces_lost_cells() {
    let zmd = tmp("fill.zmd");
    let zms = tmp("fill.zms");
    let restored = tmp("fill_restored.zmd");

    for args in [
        vec![
            "generate",
            "blast2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ],
        // No parity: damage cannot be healed, so the fill is observable.
        vec![
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            zms.to_str().unwrap(),
            "--chunk-kb",
            "1",
            "--parity-width",
            "0",
        ],
    ] {
        let out = zmesh().args(&args).output().expect("run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let mut bytes = std::fs::read(&zms).expect("read store");
    zmesh_store::faultinject::flip_data_chunk(&mut bytes, 0, 0);
    std::fs::write(&zms, &bytes).expect("write");

    // --salvage-fill implies --salvage; stderr reports the chosen fill.
    let out = zmesh()
        .args([
            "unpack",
            zms.to_str().unwrap(),
            "-o",
            restored.to_str().unwrap(),
            "--salvage-fill",
            "zero",
        ])
        .output()
        .expect("run unpack --salvage-fill zero");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("salvaged") && stderr.contains("0.0"),
        "fill not reported: {stderr}"
    );

    // Bogus fill name is a usage error.
    let out = zmesh()
        .args([
            "unpack",
            zms.to_str().unwrap(),
            "-o",
            "/dev/null",
            "--salvage-fill",
            "infinity",
        ])
        .output()
        .expect("run unpack bad fill");
    assert_eq!(out.status.code(), Some(2));

    for f in [zmd, zms, restored] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn rs_parity_and_torn_store_workflow() {
    let zmd = tmp("rs.zmd");
    let zms = tmp("rs.zms");
    let broken = tmp("rs_broken.zms");
    let repaired = tmp("rs_repaired.zms");
    let torn = tmp("rs_torn.zms");
    let rebuilt = tmp("rs_rebuilt.zms");
    let restored = tmp("rs_restored.zmd");

    for args in [
        vec![
            "generate",
            "blast2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ],
        vec![
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            zms.to_str().unwrap(),
            "--chunk-kb",
            "1",
            "--parity",
            "rs:4,2",
        ],
    ] {
        let out = zmesh().args(&args).output().expect("run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let code = |args: &[&str]| zmesh().args(args).output().expect("run").status.code();

    // info reports the v4 format and the RS scheme; --stats surfaces the
    // recipe-cache counters.
    let out = zmesh()
        .args(["info", zms.to_str().unwrap(), "--stats"])
        .output()
        .expect("run info --stats");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("v4 store") && stdout.contains("rs parity 4+2"),
        "info said: {stdout}"
    );
    assert!(
        stdout.contains("recipe cache:")
            && stdout.contains("hit(s)")
            && stdout.contains("collision(s)")
            && stdout.contains("poison recovery(ies)"),
        "no cache counters in: {stdout}"
    );

    let pristine = std::fs::read(&zms).expect("read store");
    let (_, fields, _) = zmesh_store::open_parts(&pristine).expect("open store");
    assert!(fields[0].chunks.len() > 2, "need several chunks per group");

    // Two corrupt chunks in one group sit inside the m = 2 shard budget:
    // scrub calls them recoverable and plain parity repair restores the
    // container byte for byte.
    let mut bytes = pristine.clone();
    zmesh_store::faultinject::flip_data_chunk(&mut bytes, 0, 0);
    zmesh_store::faultinject::flip_data_chunk(&mut bytes, 0, 1);
    std::fs::write(&broken, &bytes).expect("write");
    let out = zmesh()
        .args(["scrub", broken.to_str().unwrap()])
        .output()
        .expect("run scrub");
    assert_eq!(out.status.code(), Some(6), "2 <= m erasures exit 6");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"recoverable\":2") && json.contains("\"parity_shards\":2"),
        "scrub said: {json}"
    );
    let out = zmesh()
        .args([
            "repair",
            broken.to_str().unwrap(),
            "-o",
            repaired.to_str().unwrap(),
        ])
        .output()
        .expect("run repair");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&repaired).expect("read repaired"),
        pristine,
        "RS repair must be byte-identical to the pristine store"
    );

    // A write cut off mid-commit-record is *torn*, not corrupt: every
    // reader distinguishes it with exit 7; repair salvages the intact
    // prefix, or completes the write exactly with the raw dataset.
    std::fs::write(&torn, &pristine[..pristine.len() - 7]).expect("write torn");
    let out = zmesh()
        .args(["scrub", torn.to_str().unwrap()])
        .output()
        .expect("run scrub torn");
    assert_eq!(out.status.code(), Some(7), "torn store exits 7");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"torn\":true"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("torn"));
    assert_eq!(code(&["info", torn.to_str().unwrap()]), Some(7));
    assert_eq!(
        code(&[
            "unpack",
            torn.to_str().unwrap(),
            "-o",
            "/dev/null",
            "--salvage",
        ]),
        Some(7),
        "salvage must not paper over a torn store"
    );
    // Repair without --from-raw salvages the intact whole-chunk prefix.
    // Only the commit record was torn off here, so the salvage is
    // lossless — byte-identical to the pristine store.
    let out = zmesh()
        .args([
            "repair",
            torn.to_str().unwrap(),
            "-o",
            rebuilt.to_str().unwrap(),
        ])
        .output()
        .expect("run torn salvage");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"salvaged\":true"));
    assert_eq!(
        std::fs::read(&rebuilt).expect("read salvaged"),
        pristine,
        "commit-record-only tear must salvage byte-identically"
    );
    std::fs::remove_file(&rebuilt).expect("drop salvaged output");

    // --from-raw completes the interrupted write: the rebuild extends the
    // torn prefix byte-for-byte and round-trips like the original.
    let out = zmesh()
        .args([
            "repair",
            torn.to_str().unwrap(),
            "-o",
            rebuilt.to_str().unwrap(),
            "--from-raw",
            zmd.to_str().unwrap(),
        ])
        .output()
        .expect("run repair --from-raw");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&rebuilt).expect("read rebuilt"),
        pristine,
        "torn rebuild must complete the original write exactly"
    );
    for args in [
        vec![
            "unpack",
            rebuilt.to_str().unwrap(),
            "-o",
            restored.to_str().unwrap(),
        ],
        vec![
            "verify",
            zmd.to_str().unwrap(),
            restored.to_str().unwrap(),
            "--rel-eb",
            "1e-4",
        ],
    ] {
        let out = zmesh().args(&args).output().expect("run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Malformed parity specs are usage errors, not writes.
    for spec in ["rs:1", "rs:4", "rs:0,2", "xor:none", "bogus"] {
        assert_eq!(
            code(&[
                "pack",
                zmd.to_str().unwrap(),
                "-o",
                "/dev/null",
                "--parity",
                spec,
            ]),
            Some(2),
            "--parity {spec} should be rejected"
        );
    }
    assert_eq!(
        code(&[
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            "/dev/null",
            "--parity",
            "xor",
            "--parity-width",
            "4",
        ]),
        Some(2),
        "--parity and --parity-width conflict"
    );

    for f in [zmd, zms, broken, repaired, torn, rebuilt, restored] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn help_lists_presets() {
    let out = zmesh().args(["--help"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("front2d") && text.contains("cluster3d"));
}

/// Sorted (name, bytes) snapshot of a directory's direct entries — enough
/// to assert a failed pack changed nothing.
fn dir_snapshot(dir: &std::path::Path) -> Vec<(String, Option<Vec<u8>>)> {
    let mut entries: Vec<(String, Option<Vec<u8>>)> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).ok();
            (name, bytes)
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn pack_bytes_do_not_depend_on_the_window() {
    let zmd = tmp("stream_src.zmd");
    let buffered = tmp("stream_buffered.zms");
    let streamed = tmp("stream_streamed.zms");

    let out = zmesh()
        .args([
            "generate",
            "blast2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = zmesh()
        .args([
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            buffered.to_str().unwrap(),
            "--chunk-kb",
            "1",
            "--parity",
            "rs:4,2",
        ])
        .output()
        .expect("run pack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = zmesh()
        .args([
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            streamed.to_str().unwrap(),
            "--chunk-kb",
            "1",
            "--parity",
            "rs:4,2",
            "--window-bytes",
            "4096",
        ])
        .output()
        .expect("run streaming pack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("streamed"),
        "streaming pack must say so"
    );

    assert_eq!(
        std::fs::read(&buffered).expect("buffered bytes"),
        std::fs::read(&streamed).expect("streamed bytes"),
        "a 4 KiB window must pack the same bytes as the default window"
    );

    for f in [&zmd, &buffered, &streamed] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn failed_pack_leaves_the_target_directory_untouched() {
    let zmd = tmp("failpack_src.zmd");
    let out = zmesh()
        .args([
            "generate",
            "blast2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let work = tmp("failpack_dir");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("mkdir");
    std::fs::write(work.join("bystander.zms"), b"do not touch").expect("write");
    // The destination is an existing directory: the temp file streams
    // fine, the atomic rename cannot succeed.
    let dest = work.join("blocked.zms");
    std::fs::create_dir_all(&dest).expect("mkdir dest");
    let before = dir_snapshot(&work);

    for extra in [&["--window-bytes", "0"][..], &[][..]] {
        let mut args = vec![
            "pack".to_string(),
            zmd.to_str().unwrap().to_string(),
            "-o".to_string(),
            dest.to_str().unwrap().to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = zmesh().args(&args).output().expect("run failing pack");
        assert_eq!(
            out.status.code(),
            Some(3),
            "pack onto a directory must exit 3 (I/O): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            dir_snapshot(&work),
            before,
            "failed pack (args {extra:?}) must leave the target directory \
             byte-identical — no partial output, no stray .tmp"
        );
    }

    let _ = std::fs::remove_file(&zmd);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn fault_sink_requires_a_testing_build() {
    // This test compiles without the testing feature, so the flag must be
    // rejected as usage error instead of silently packing clean.
    if cfg!(feature = "testing") {
        return;
    }
    let zmd = tmp("faultsink_src.zmd");
    let out = zmesh()
        .args([
            "generate",
            "blast2d",
            "-o",
            zmd.to_str().unwrap(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let out = zmesh()
        .args([
            "pack",
            zmd.to_str().unwrap(),
            "-o",
            tmp("faultsink.zms").to_str().unwrap(),
            "--fault-sink",
            "enospc_at=4096",
        ])
        .output()
        .expect("run pack");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("testing build"),
        "must point at the testing feature"
    );
    let _ = std::fs::remove_file(&zmd);
}
