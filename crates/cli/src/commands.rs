//! The subcommands.

use crate::args::Args;
use crate::error::CliError;
use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::{self, Dataset, Scale};
use zmesh_amr::{load_dataset, save_dataset, AmrField, DatasetStats, StorageMode};
use zmesh_codecs::{CodecKind, ErrorControl};
use zmesh_metrics::ErrorStats;
#[cfg(unix)]
use zmesh_store::FileSource;
use zmesh_store::{
    ByteSource, DamageReport, Parity, Query, RawSource, ReadPolicy, RecipeCache, RepairOutcome,
    RepairSource, SalvageFill, StoreError, StoreReader, StoreWriteStats, StoreWriter,
    StreamOptions, DEFAULT_PARITY_GROUP_WIDTH,
};

fn parse_scale(args: &Args) -> Result<Scale, CliError> {
    match args.option("scale").unwrap_or("small") {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "standard" => Ok(Scale::Standard),
        other => Err(CliError::Usage(format!("unknown scale {other:?}"))),
    }
}

fn parse_mode(args: &Args) -> Result<StorageMode, CliError> {
    match args.option("mode").unwrap_or("all") {
        "leaf" => Ok(StorageMode::LeafOnly),
        "all" => Ok(StorageMode::AllCells),
        other => Err(CliError::Usage(format!(
            "unknown mode {other:?} (leaf|all)"
        ))),
    }
}

fn parse_policy(args: &Args) -> Result<OrderingPolicy, CliError> {
    match args.option("policy").unwrap_or("hilbert") {
        "baseline" | "levelorder" => Ok(OrderingPolicy::LevelOrder),
        "zorder" => Ok(OrderingPolicy::ZOrder),
        "hilbert" => Ok(OrderingPolicy::Hilbert),
        other => Err(CliError::Usage(format!(
            "unknown policy {other:?} (baseline|zorder|hilbert)"
        ))),
    }
}

fn parse_codec(args: &Args) -> Result<CodecKind, CliError> {
    match args.option("codec").unwrap_or("sz") {
        "sz" => Ok(CodecKind::Sz),
        "zfp" => Ok(CodecKind::Zfp),
        other => Err(CliError::Usage(format!("unknown codec {other:?} (sz|zfp)"))),
    }
}

fn parse_control(args: &Args) -> Result<ErrorControl, CliError> {
    let abs = args.float("abs-eb").map_err(CliError::Usage)?;
    let rel = args.float("rel-eb").map_err(CliError::Usage)?;
    match (abs, rel) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--abs-eb and --rel-eb are mutually exclusive".into(),
        )),
        (Some(abs), None) => Ok(ErrorControl::Absolute(abs)),
        (None, Some(rel)) => Ok(ErrorControl::ValueRangeRelative(rel)),
        (None, None) => Ok(ErrorControl::ValueRangeRelative(1e-4)),
    }
}

/// Parses the erasure-protection scheme: `--parity none|xor[:W]|rs:K,M`
/// (or the legacy `--parity-width N`, where 0 means none and `N > 0` an
/// XOR group of `N`). Returns `None` when neither flag was given.
fn parse_parity(args: &Args) -> Result<Option<Parity>, CliError> {
    let spec = match (args.option("parity"), args.option("parity-width")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--parity and --parity-width are mutually exclusive".into(),
            ))
        }
        (None, Some(w)) => {
            let width: u32 = w
                .parse()
                .map_err(|_| CliError::Usage(format!("--parity-width: not a count: {w}")))?;
            return Ok(Some(if width == 0 {
                Parity::None
            } else {
                Parity::Xor { width }
            }));
        }
        (Some(s), None) => s,
        (None, None) => return Ok(None),
    };
    let bad = || {
        CliError::Usage(format!(
            "--parity {spec:?}: want none, xor, xor:WIDTH, or rs:DATA,PARITY"
        ))
    };
    let parity = if spec == "none" {
        Parity::None
    } else if spec == "xor" {
        Parity::Xor {
            width: DEFAULT_PARITY_GROUP_WIDTH,
        }
    } else if let Some(w) = spec.strip_prefix("xor:") {
        Parity::Xor {
            width: w.parse().map_err(|_| bad())?,
        }
    } else if let Some(km) = spec.strip_prefix("rs:") {
        let (k, m) = km.split_once(',').ok_or_else(bad)?;
        Parity::Rs {
            data: k.trim().parse().map_err(|_| bad())?,
            parity: m.trim().parse().map_err(|_| bad())?,
        }
    } else {
        return Err(bad());
    };
    Ok(Some(parity))
}

fn parse_config(args: &Args) -> Result<CompressionConfig, CliError> {
    Ok(CompressionConfig {
        policy: parse_policy(args)?,
        codec: parse_codec(args)?,
        control: parse_control(args)?,
    })
}

fn parse(argv: &[String]) -> Result<Args, CliError> {
    Args::parse(argv).map_err(CliError::Usage)
}

fn positional<'a>(args: &'a Args, i: usize, what: &str) -> Result<&'a str, CliError> {
    args.positional(i, what).map_err(CliError::Usage)
}

fn required<'a>(args: &'a Args, name: &str) -> Result<&'a str, CliError> {
    args.required(name).map_err(CliError::Usage)
}

fn read_file(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError::io(path, e))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| CliError::io(path, e))
}

/// Opens `path` as a ranged [`FileSource`]: only the footer and the chunk
/// ranges a command actually touches are ever read, so store commands stay
/// O(touched bytes) in memory instead of O(file size). The `--in-memory`
/// switch on each store command falls back to the historical
/// whole-file-in-RAM path.
#[cfg(unix)]
fn ranged_source(path: &str) -> Result<FileSource, CliError> {
    FileSource::open(path).map_err(CliError::from)
}

fn field_refs(ds: &Dataset) -> Vec<(&str, &AmrField)> {
    ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
}

/// `zmesh generate <preset> -o file.zmd`
pub fn generate(argv: &[String]) -> Result<(), CliError> {
    let args = parse(argv)?;
    let preset = positional(&args, 0, "preset name")?;
    let out = required(&args, "output")?;
    let ds =
        datasets::by_name(preset, parse_mode(&args)?, parse_scale(&args)?).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown preset {preset:?}; available: {}",
                datasets::names().join(", ")
            ))
        })?;
    save_dataset(out, &ds)?;
    let stats = DatasetStats::compute(&ds.tree);
    println!(
        "wrote {out}: {} levels, {} cells, {} quantities, {} bytes raw",
        stats.levels.len(),
        stats.total_cells,
        ds.fields.len(),
        ds.nbytes()
    );
    Ok(())
}

/// `zmesh pack <in.zmd> -o <out.zms> [--policy] [--codec] [--rel-eb|--abs-eb]
/// [--chunk-kb N] [--parity none|xor[:W]|rs:K,M] [--window-bytes N]
/// [--fault-sink SPEC]` — write a chunked, indexed store (v3 with XOR
/// parity by default; `--parity none` writes a plain v2, `--parity rs:K,M`
/// a v4 with `M` Reed–Solomon shards per group of `K` chunks). Chunks
/// stream through a bounded compress→write window into a temp file that
/// an atomic rename publishes, so a crash mid-pack never leaves a
/// half-written store at the target path. `--window-bytes` bounds the
/// window (default 8 MiB of raw chunk bytes, 0 = unbounded); the output
/// bytes do not depend on it.
///
/// `--fault-sink` (testing builds only) injects deterministic write
/// faults into the sink for crash-consistency drills; a `crash_at=` plan
/// leaves its torn `.tmp` behind on purpose, the way a real kill would.
pub fn pack(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv).map_err(CliError::Usage)?;
    let input = positional(&args, 0, "input dataset (.zmd)")?;
    let out = required(&args, "output")?;
    let ds = load_dataset(input)?;
    let mut writer = StoreWriter::new(parse_config(&args)?);
    if let Some(kb) = args.float("chunk-kb").map_err(CliError::Usage)? {
        let valid = kb.is_finite() && kb > 0.0;
        if !valid {
            return Err(CliError::Usage("--chunk-kb must be positive".into()));
        }
        writer = writer.with_chunk_target_bytes((kb * 1024.0) as u32);
    }
    if let Some(parity) = parse_parity(&args)? {
        writer = writer.with_parity(parity);
    }
    let window = args
        .option("window-bytes")
        .map(|w| {
            w.parse::<usize>()
                .map_err(|_| CliError::Usage(format!("--window-bytes {w:?} is not a byte count")))
        })
        .transpose()?;
    let opts = StreamOptions {
        window_bytes: window.unwrap_or_else(|| StreamOptions::default().window_bytes),
        ..StreamOptions::default()
    };
    let s = pack_to_path(&args, &ds, out, &writer, &opts)?;
    println!(
        "wrote {out}: {} -> {} bytes (ratio {:.2}) | {} fields x {} chunks, {} parity bytes ({} groups), {} index bytes \
         | streamed (window {} bytes, peak buffer {} bytes)",
        s.raw_bytes,
        s.container_bytes,
        s.ratio(),
        s.n_fields,
        s.n_chunks,
        s.parity_bytes,
        s.parity_groups,
        s.metadata_bytes,
        s.window_bytes,
        s.peak_buffer_bytes,
    );
    Ok(())
}

/// The write leg of `pack`, honoring `--fault-sink <spec>` in testing
/// builds: the plan wraps the file sink in a deterministic write-fault
/// injector (see `zmesh_store::faultinject::FaultSpec::parse` for the
/// grammar). Release builds reject the flag instead of silently packing
/// clean.
#[cfg(unix)]
fn pack_to_path(
    args: &Args,
    ds: &Dataset,
    out: &str,
    writer: &StoreWriter,
    opts: &StreamOptions,
) -> Result<StoreWriteStats, CliError> {
    match args.option("fault-sink") {
        None => {
            Ok(writer.write_streaming_to_path(&field_refs(ds), std::path::Path::new(out), opts)?)
        }
        #[cfg(feature = "testing")]
        Some(spec) => {
            let plan = zmesh_store::faultinject::FaultSpec::parse(spec)
                .map_err(|e| CliError::Usage(format!("--fault-sink: {e}")))?;
            eprintln!("pack: write fault injection active: {spec}");
            let sink = zmesh_store::FileSink::create(std::path::Path::new(out))?;
            let mut sink = zmesh_store::faultinject::FaultSink::new(sink, plan);
            let stats = writer.write_to_sink(&field_refs(ds), &mut sink, opts);
            if sink.stats().crashed {
                // A real kill never runs cleanup: leave the torn tmp for
                // the atomicity harness to examine.
                sink.inner_mut().preserve_tmp_on_drop();
            }
            Ok(stats?)
        }
        #[cfg(not(feature = "testing"))]
        Some(_) => Err(CliError::Usage(
            "--fault-sink requires a testing build: \
             cargo build -p zmesh-cli --features testing"
                .into(),
        )),
    }
}

#[cfg(not(unix))]
fn pack_to_path(
    args: &Args,
    ds: &Dataset,
    out: &str,
    writer: &StoreWriter,
    _opts: &StreamOptions,
) -> Result<StoreWriteStats, CliError> {
    if args.option("fault-sink").is_some() {
        return Err(CliError::Usage(
            "--fault-sink needs the unix file sink".into(),
        ));
    }
    Ok(writer
        .write_to_path(&field_refs(ds), std::path::Path::new(out))?
        .stats)
}

/// Prints a per-field summary of what a salvage read repaired or lost.
fn print_damage(report: &DamageReport) {
    if report.is_empty() {
        return;
    }
    let repaired = report.repaired().count();
    let lost = report.lost().count();
    eprintln!(
        "warning: salvaged read: {} corrupt chunk(s): {repaired} repaired from parity, {lost} lost ({} value(s) filled with {})",
        report.chunks.len(),
        report.total_values_lost(),
        match report.fill {
            SalvageFill::Nan => "NaN",
            SalvageFill::Zero => "0.0",
        },
    );
    for (field, lost) in report.by_field() {
        eprintln!("  field {field:?}: {lost} value(s) lost");
    }
    for g in &report.groups {
        eprintln!(
            "  field {:?}: group {}: {} erasure(s), {} repaired",
            g.field, g.group, g.erasures, g.repaired
        );
    }
    for p in &report.parity {
        eprintln!(
            "  field {:?}: parity group {} shard {} damaged (data intact, healing margin reduced)",
            p.field, p.group, p.shard
        );
    }
}

/// Parses `--salvage-fill nan|zero`.
fn parse_salvage_fill(args: &Args) -> Result<Option<SalvageFill>, CliError> {
    match args.option("salvage-fill") {
        None => Ok(None),
        Some("nan") => Ok(Some(SalvageFill::Nan)),
        Some("zero") => Ok(Some(SalvageFill::Zero)),
        Some(other) => Err(CliError::Usage(format!(
            "unknown salvage fill {other:?} (nan|zero)"
        ))),
    }
}

/// `zmesh unpack <in.zms> -o <out.zmd> [--field <name>] [--salvage]
/// [--salvage-fill nan|zero] [--in-memory]` — full decode of a store, or
/// of the one field `--field` names (an unknown name is a usage error that
/// lists the available ones). With `--salvage`, corrupt
/// chunks are rebuilt from parity where possible; what stays lost decodes
/// to the fill value (NaN by default) and the damage is summarized on
/// stderr instead of failing. `--salvage-fill` implies `--salvage`. Reads
/// stream chunk ranges straight from the file (overlapping I/O with
/// decode) unless `--in-memory` loads the whole store up front.
pub fn unpack(argv: &[String]) -> Result<(), CliError> {
    let args =
        Args::parse_with_switches(argv, &["salvage", "in-memory"]).map_err(CliError::Usage)?;
    let input = positional(&args, 0, "input store (.zms)")?;
    let out = required(&args, "output")?;
    #[cfg(unix)]
    if !args.switch("in-memory") {
        let reader = StoreReader::open_source(ranged_source(input)?)?;
        return unpack_reader(reader, &args, out);
    }
    let bytes = read_file(input)?;
    unpack_reader(StoreReader::open(&bytes)?, &args, out)
}

fn unpack_reader<S: ByteSource>(
    mut reader: StoreReader<S>,
    args: &Args,
    out: &str,
) -> Result<(), CliError> {
    let fill = parse_salvage_fill(args)?;
    if args.switch("salvage") || fill.is_some() {
        reader = reader.with_read_policy(ReadPolicy::Salvage {
            fill: fill.unwrap_or_default(),
        });
    }
    let available = reader.field_names();
    let names = match args.option("field") {
        Some(name) if !available.contains(&name) => {
            return Err(CliError::Usage(format!(
                "{} (available: {})",
                StoreError::UnknownField(name.to_string()),
                available.join(", ")
            )))
        }
        Some(name) => vec![name.to_string()],
        None => available.iter().map(|n| n.to_string()).collect(),
    };
    let mut fields = Vec::new();
    let mut damage = DamageReport {
        fill: fill.unwrap_or_default(),
        ..DamageReport::default()
    };
    for name in names {
        let (field, report) = reader.decode_field_with_report(&name)?;
        damage.merge(report);
        fields.push((name, field));
    }
    let ds = Dataset {
        name: "restored".to_string(),
        description: String::new(),
        tree: std::sync::Arc::clone(reader.tree()),
        fields,
    };
    save_dataset(out, &ds)?;
    print_damage(&damage);
    println!(
        "wrote {out}: {} quantities restored from v{} store",
        ds.fields.len(),
        reader.header().version,
    );
    Ok(())
}

/// `zmesh scrub <in.zms> [--in-memory]` — verify every data and parity
/// chunk's CRC without decoding payloads and print a JSON damage summary
/// (including `bytes_read` vs `store_bytes` and the CRC-walk throughput as
/// `elapsed_secs`/`bytes_per_s`) on stdout. Exit 0 when clean,
/// 6 when all damage is parity-recoverable, 4 when any chunk is beyond
/// parity, 7 when the store is a torn (incomplete) write. The store is
/// streamed span by span unless `--in-memory` loads it whole.
pub fn scrub(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse_with_switches(argv, &["in-memory"]).map_err(CliError::Usage)?;
    let input = positional(&args, 0, "input store (.zms)")?;
    let scrubbed;
    #[cfg(unix)]
    {
        scrubbed = if args.switch("in-memory") {
            zmesh_store::scrub(&read_file(input)?)
        } else {
            zmesh_store::scrub_source(&ranged_source(input)?)
        };
    }
    #[cfg(not(unix))]
    {
        scrubbed = zmesh_store::scrub(&read_file(input)?);
    }
    let report = match scrubbed {
        Err(StoreError::Torn) => {
            println!("{{\"torn\":true,\"clean\":false}}");
            return Err(CliError::Torn(
                "store is torn (incomplete write, no commit record): \
                 rerun the writer or `zmesh repair --from-raw <dataset.zmd>`"
                    .into(),
            ));
        }
        other => other?,
    };
    println!("{}", report.to_json());
    if !report.parity_available {
        eprintln!(
            "note: no parity available (v{} store, width 0): damage is not self-healable",
            report.version
        );
    }
    if report.is_clean() {
        Ok(())
    } else if report.unrecoverable() == 0 {
        Err(CliError::Recoverable(format!(
            "{} damaged chunk(s), all recoverable — run `zmesh repair`",
            report.damaged.len()
        )))
    } else {
        Err(CliError::Corrupt(format!(
            "{} damaged chunk(s), {} beyond parity recovery",
            report.damaged.len(),
            report.unrecoverable()
        )))
    }
}

/// `zmesh repair <in.zms> -o <out.zms> [--replica <other.zms>]
/// [--from-raw <dataset.zmd>] [--in-memory]` — rewrite a damaged store by
/// rebuilding
/// chunks from parity (XOR or Reed–Solomon), then from a structurally
/// identical `--replica` copy, then by re-encoding lost chunks from the
/// original `--from-raw` dataset; the avenues cascade until nothing more
/// heals. A *torn* store (interrupted write, no commit record) is rebuilt
/// from `--from-raw` wholesale — accepted only when the result extends the
/// torn prefix byte-for-byte — or, without `--from-raw`, salvaged down to
/// every field's intact whole-chunk prefix (lossless when only the
/// trailing commit record was lost; exit 6 when chunks were dropped).
/// The output is written only when every chunk was recovered; otherwise
/// the losses are listed and the exit code is 4.
pub fn repair(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse_with_switches(argv, &["in-memory"]).map_err(CliError::Usage)?;
    let input = positional(&args, 0, "input store (.zms)")?;
    let out = required(&args, "output")?;
    let raw_ds = args.option("from-raw").map(load_dataset).transpose()?;
    #[cfg(unix)]
    if !args.switch("in-memory") {
        let src = ranged_source(input)?;
        if matches!(zmesh_store::open_parts_source(&src), Err(StoreError::Torn)) {
            // Torn handling scans (or compares against) the whole torn
            // prefix, so only this path still loads the file.
            return match &raw_ds {
                Some(ds) => rebuild_torn(&read_file(input)?, ds, &args, out),
                None => salvage_torn_prefix(&read_file(input)?, out),
            };
        }
        let replica = args.option("replica").map(ranged_source).transpose()?;
        let raw_fields = raw_ds.as_ref().map(field_refs);
        let raw = raw_fields.as_deref().map(RawSource::new);
        let outcome = zmesh_store::repair_with_sources(&src, replica.as_ref(), raw.as_ref())?;
        let had_sources = replica.is_some() || raw_ds.is_some();
        return report_repair(outcome, had_sources, out);
    }
    let bytes = read_file(input)?;
    if matches!(zmesh_store::open_parts(&bytes), Err(StoreError::Torn)) {
        return match &raw_ds {
            Some(ds) => rebuild_torn(&bytes, ds, &args, out),
            None => salvage_torn_prefix(&bytes, out),
        };
    }
    let replica = args.option("replica").map(read_file).transpose()?;
    let raw_fields = raw_ds.as_ref().map(field_refs);
    let raw = raw_fields.as_deref().map(RawSource::new);
    let outcome = zmesh_store::repair_with(&bytes, replica.as_deref(), raw.as_ref())?;
    let had_sources = replica.is_some() || raw_ds.is_some();
    report_repair(outcome, had_sources, out)
}

/// Prints a repair outcome (shared between the ranged and in-memory
/// paths), writes the healed store when complete, and maps losses to the
/// corrupt exit code. The machine-readable summary line goes to stderr
/// with the rest of the progress chatter, keeping stdout reserved for
/// command output.
fn report_repair(outcome: RepairOutcome, had_sources: bool, out: &str) -> Result<(), CliError> {
    for r in &outcome.repaired {
        println!(
            "repaired field {:?} chunk {} from {}",
            r.field,
            r.chunk,
            match r.source {
                RepairSource::Parity => "parity",
                RepairSource::Replica => "replica",
                RepairSource::Raw => "raw data",
            }
        );
    }
    if outcome.parity_rebuilt > 0 {
        println!("rebuilt {} parity chunk(s)", outcome.parity_rebuilt);
    }
    eprintln!(
        "{{\"repaired\":{},\"lost\":{},\"parity_rebuilt\":{},\"bytes_read\":{}}}",
        outcome.repaired.len(),
        outcome.lost.len(),
        outcome.parity_rebuilt,
        outcome.bytes_read,
    );
    match outcome.bytes {
        Some(repaired) => {
            write_file(out, &repaired)?;
            println!(
                "wrote {out}: {} chunk(s) repaired, store verified clean",
                outcome.repaired.len()
            );
            Ok(())
        }
        None => {
            for l in &outcome.lost {
                eprintln!("lost: field {:?} chunk {}: {}", l.field, l.chunk, l.error);
            }
            Err(CliError::Corrupt(format!(
                "{} chunk(s) unrecoverable{}; no output written",
                outcome.lost.len(),
                if had_sources {
                    " even with the extra sources"
                } else {
                    " (try --replica <copy> or --from-raw <dataset.zmd>)"
                },
            )))
        }
    }
}

/// Salvages a torn store without the original dataset: keeps every
/// field's intact whole-chunk prefix, recomputes parity over it, and
/// writes a shorter but fully committed store. Lossless when only the
/// trailing commit record was torn off; otherwise the dropped chunks are
/// listed and the exit code is 6 (recoverable — `--from-raw` can still
/// rebuild them). The machine-readable summary goes to stderr with the
/// rest of the progress chatter, matching [`report_repair`].
fn salvage_torn_prefix(torn: &[u8], out: &str) -> Result<(), CliError> {
    let salvage = zmesh_store::salvage_torn(torn)?;
    eprintln!("{}", salvage.to_json());
    let Some(bytes) = &salvage.bytes else {
        return Err(CliError::Torn(
            "store is torn and no chunk survived intact; pass --from-raw \
             <dataset.zmd> to rebuild it"
                .into(),
        ));
    };
    write_file(out, bytes)?;
    for lost in &salvage.dropped {
        eprintln!(
            "dropped: field {:?} chunk {}: {}",
            lost.field, lost.chunk, lost.error
        );
    }
    println!(
        "wrote {out}: torn store salvaged, kept {}/{} chunk(s) across {} field(s)",
        salvage.chunks_kept, salvage.chunks_total, salvage.fields
    );
    if salvage.dropped.is_empty() {
        Ok(())
    } else {
        Err(CliError::Recoverable(format!(
            "{} chunk(s) beyond the salvaged prefix; pass --from-raw \
             <dataset.zmd> to rebuild them",
            salvage.dropped.len()
        )))
    }
}

/// Rebuilds a torn store from the original dataset: the surviving header
/// prefix supplies the encoding parameters (policy, codec, chunking,
/// parity scheme), the error bound comes from `--rel-eb`/`--abs-eb`
/// (default: the pack default), and the rebuilt store is accepted only
/// when the torn file is a byte-for-byte prefix of it — proof it is the
/// same write, just completed.
fn rebuild_torn(torn: &[u8], ds: &Dataset, args: &Args, out: &str) -> Result<(), CliError> {
    let header = zmesh_store::peek_header(torn)
        .map_err(|e| CliError::Torn(format!("torn store header unreadable: {e}")))?;
    let config = CompressionConfig {
        policy: header.policy,
        codec: header.codec,
        control: parse_control(args)?,
    };
    let writer = StoreWriter::new(config)
        .with_chunk_target_bytes(header.chunk_target_bytes)
        .with_parity(header.scheme());
    let written = writer.write(&field_refs(ds))?;
    if !written.bytes.starts_with(torn) {
        return Err(CliError::Verify(
            "rebuilt store does not extend the torn prefix — the dataset or \
             error bound differ from the original write; no output written"
                .into(),
        ));
    }
    zmesh_store::persist_store(&written.bytes, std::path::Path::new(out))?;
    println!(
        "wrote {out}: torn store rebuilt from raw data ({} bytes, verified against the {}-byte torn prefix)",
        written.bytes.len(),
        torn.len()
    );
    Ok(())
}

/// `zmesh query <in.zms> --field <name> --bbox x0,y0[,z0]:x1,y1[,z1]
/// [--level L[,L...]] [--salvage] [--in-memory] [-o out.csv]` — region
/// read decoding only the overlapping chunks. With `--salvage`, corrupt
/// chunks are dropped from the result and summarized on stderr instead of
/// failing. By default only the footer and the selected chunk ranges are
/// read from the file (reported as `read N of M store bytes` on stderr);
/// `--in-memory` loads the whole store first.
pub fn query(argv: &[String]) -> Result<(), CliError> {
    let args =
        Args::parse_with_switches(argv, &["salvage", "in-memory"]).map_err(CliError::Usage)?;
    let input = positional(&args, 0, "input store (.zms)")?;
    let name = required(&args, "field")?;
    let q = Query::parse(
        required(&args, "bbox")?,
        args.option("level"),
        ["--bbox", "--level"],
    )
    .map_err(CliError::Usage)?;
    #[cfg(unix)]
    if !args.switch("in-memory") {
        let reader = StoreReader::open_source(ranged_source(input)?)?;
        return query_reader(reader, &args, name, &q);
    }
    let bytes = read_file(input)?;
    query_reader(StoreReader::open(&bytes)?, &args, name, &q)
}

fn query_reader<S: ByteSource>(
    mut reader: StoreReader<S>,
    args: &Args,
    name: &str,
    q: &Query,
) -> Result<(), CliError> {
    if args.switch("salvage") {
        reader = reader.with_read_policy(ReadPolicy::salvage());
    }
    let result = reader.query(name, q)?;
    print_damage(&result.damage);
    // Accounting is diagnostics, not command output: stderr, so scripts
    // can parse stdout (and the CSV) without filtering.
    eprintln!(
        "read {} of {} store bytes",
        reader.bytes_read(),
        reader.source().len()
    );
    let (lo, hi) = (q.bbox_lo, q.bbox_hi);
    println!(
        "field {name:?} bbox ({},{},{})..({},{},{}): {} cells | decoded {}/{} chunks{}",
        lo[0],
        lo[1],
        lo[2],
        hi[0],
        hi[1],
        hi[2],
        result.values.len(),
        result.chunks_decoded,
        result.chunks_total,
        match result.bound {
            Some(b) => format!(" | abs bound {b:.3e}"),
            None => String::new(),
        },
    );
    if let Some(out) = args.option("output") {
        write_file(out, result.to_csv().as_bytes())?;
        println!("wrote {out}: {} rows", result.values.len());
    }
    Ok(())
}

/// Runs the same corner query twice through a reader wired to a fresh
/// decoded-chunk cache: the first pass misses, the second hits, so the
/// printed counters demonstrate the LRU is live over this store.
fn exercise_chunk_cache<S: ByteSource>(
    reader: StoreReader<S>,
) -> Result<zmesh_store::ChunkCacheStats, CliError> {
    let cache = std::sync::Arc::new(zmesh_store::ChunkCache::new(8 << 20));
    let reader = reader.with_chunk_cache(std::sync::Arc::clone(&cache), 0);
    if let Some(name) = reader.field_names().first().map(|s| s.to_string()) {
        let q = Query::bbox([0, 0, 0], [3, 3, 0]);
        for _ in 0..2 {
            reader.query(&name, &q)?;
        }
    }
    Ok(cache.stats())
}

/// Prints the store summary for `info`, shared between the ranged and
/// in-memory paths. `reopen` opens the store a second time through the
/// same cache when `--stats` asks for the counters; `chunk_probe` opens
/// a chunk-cache-wired reader and reports its counters.
fn info_store<S: ByteSource>(
    reader: &StoreReader<S>,
    cache: &RecipeCache,
    args: &Args,
    reopen: impl FnOnce(&RecipeCache) -> Result<(), CliError>,
    chunk_probe: impl FnOnce() -> Result<zmesh_store::ChunkCacheStats, CliError>,
) -> Result<(), CliError> {
    let h = reader.header();
    let tree = reader.tree();
    println!(
        "zMesh v{} store: policy {:?}, codec {}, {} fields, {} bytes total ({} KiB chunk target, {})",
        h.version,
        h.policy,
        h.codec.label(),
        reader.fields().len(),
        reader.source().len(),
        h.chunk_target_bytes / 1024,
        match h.scheme() {
            Parity::None => "no parity".to_string(),
            Parity::Xor { width } => format!("parity width {width}"),
            Parity::Rs { data, parity } =>
                format!("rs parity {data}+{parity} (heals {parity}/group)"),
        },
    );
    println!(
        "  mesh: {:?}, {} cells ({} leaves), {} levels",
        tree.dim(),
        tree.cell_count(),
        tree.leaf_count(),
        tree.max_level() + 1,
    );
    for entry in reader.fields() {
        let payload: u64 = entry.chunks.iter().map(|c| c.len).sum();
        println!(
            "  field {:?}: {} chunks (+{} parity), {} payload bytes{}",
            entry.name,
            entry.chunks.len(),
            entry.parity.len(),
            payload,
            match entry.resolved_bound {
                Some(b) => format!(", abs bound {b:.3e}"),
                None => String::new(),
            },
        );
    }
    if args.switch("stats") {
        // A second open through the same cache turns the counters
        // over: one miss from the first open, one hit here — plus any
        // collisions or poison recoveries the cache had to absorb.
        reopen(cache)?;
        let s = cache.stats();
        println!(
            "  recipe cache: {} hit(s), {} miss(es), {} collision(s), {} poison recovery(ies), {} entry(ies)",
            s.hits, s.misses, s.collisions, s.poison_recoveries, s.entries
        );
        let chunk = chunk_probe()?;
        println!(
            "  decoded-chunk LRU: {} hit(s), {} miss(es), {} eviction(s), {} coalesced, {} entry(ies), {} bytes",
            chunk.hits, chunk.misses, chunk.evictions, chunk.coalesced, chunk.entries, chunk.bytes
        );
    }
    Ok(())
}

/// `zmesh info <file> [--stats] [--in-memory]` — dataset or v2/v3/v4
/// store, by magic. `--stats` additionally exercises and prints
/// the recipe-cache counters (hits, misses, collisions, poison
/// recoveries). Stores are inspected via ranged reads (footer only) unless
/// `--in-memory` is given; other artifact kinds are always loaded whole.
pub fn info(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse_with_switches(argv, &["stats", "in-memory"]).map_err(CliError::Usage)?;
    let input = positional(&args, 0, "input file")?;
    #[cfg(unix)]
    if !args.switch("in-memory") {
        let src = ranged_source(input)?;
        let head = src.read_vec(0, src.len().min(8) as usize)?;
        if zmesh_store::is_store(&head) {
            let cache = RecipeCache::new();
            let reader = StoreReader::open_source_with_cache(src, &cache)?;
            return info_store(
                &reader,
                &cache,
                &args,
                |c| {
                    StoreReader::open_source_with_cache(ranged_source(input)?, c)
                        .map(|_| ())
                        .map_err(CliError::from)
                },
                || {
                    exercise_chunk_cache(StoreReader::open_source_with_cache(
                        ranged_source(input)?,
                        &cache,
                    )?)
                },
            );
        }
    }
    let bytes = read_file(input)?;
    if zmesh_store::is_store(&bytes) {
        let cache = RecipeCache::new();
        let reader = StoreReader::open_with_cache(&bytes, &cache)?;
        info_store(
            &reader,
            &cache,
            &args,
            |c| {
                StoreReader::open_with_cache(&bytes, c)
                    .map(|_| ())
                    .map_err(CliError::from)
            },
            || exercise_chunk_cache(StoreReader::open_with_cache(&bytes, &cache)?),
        )?;
    } else {
        let ds = load_dataset(input)?;
        let stats = DatasetStats::compute(&ds.tree);
        println!(
            "dataset {:?}: {} levels, {} cells ({} leaves), {} quantities, {} bytes raw",
            ds.name,
            stats.levels.len(),
            stats.total_cells,
            stats.total_leaves,
            ds.fields.len(),
            ds.nbytes()
        );
        for l in &stats.levels {
            println!(
                "  level {}: {} cells, {} leaves",
                l.level, l.cells, l.leaves
            );
        }
    }
    Ok(())
}

/// `zmesh verify <orig.zmd> <restored.zmd> [--rel-eb 1e-4]`
pub fn verify(argv: &[String]) -> Result<(), CliError> {
    let args = parse(argv)?;
    let orig = load_dataset(positional(&args, 0, "original dataset")?)?;
    let rest = load_dataset(positional(&args, 1, "restored dataset")?)?;
    if orig.fields.len() != rest.fields.len() {
        return Err(CliError::Verify(format!(
            "field count mismatch: {} vs {}",
            orig.fields.len(),
            rest.fields.len()
        )));
    }
    let rel_eb = args
        .float("rel-eb")
        .map_err(CliError::Usage)?
        .unwrap_or(1e-4);
    let mut ok = true;
    for ((name, a), (_, b)) in orig.fields.iter().zip(&rest.fields) {
        if a.len() != b.len() {
            return Err(CliError::Verify(format!("field {name:?}: length mismatch")));
        }
        let stats = ErrorStats::between(a.values(), b.values());
        let bound = rel_eb * stats.range;
        let pass = stats.max_abs <= bound * (1.0 + 1e-9);
        ok &= pass;
        println!(
            "field {name:?}: max_err {:.3e} (bound {:.3e}) psnr {:.1} dB -> {}",
            stats.max_abs,
            bound,
            stats.psnr_db,
            if pass { "OK" } else { "FAIL" }
        );
    }
    if ok {
        Ok(())
    } else {
        Err(CliError::Verify("verification failed".into()))
    }
}

/// A positive-integer option.
#[cfg(unix)]
fn parse_count(args: &Args, name: &str) -> Result<Option<usize>, CliError> {
    args.option(name)
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| CliError::Usage(format!("--{name}: want a positive integer: {v}")))
        })
        .transpose()
}

/// Binds the daemon, honoring `--fault-plan <spec>` in testing builds:
/// the plan wraps every matching store's file reads in a deterministic
/// fault injector (see `zmesh_store::faultinject::FaultSpec::parse` for
/// the grammar). Release builds reject the flag instead of silently
/// serving clean.
#[cfg(unix)]
fn bind_server(
    args: &Args,
    dir: &str,
    opts: zmesh_serve::ServeOptions,
) -> Result<zmesh_serve::Server, CliError> {
    match args.option("fault-plan") {
        None => zmesh_serve::Server::bind(dir, opts).map_err(|e| CliError::Io(e.to_string())),
        #[cfg(feature = "testing")]
        Some(spec) => {
            let plan = zmesh_store::faultinject::FaultSpec::parse(spec)
                .map_err(|e| CliError::Usage(format!("--fault-plan: {e}")))?;
            eprintln!("serve: fault injection active: {spec}");
            zmesh_serve::Server::bind_with_faults(dir, opts, Some(plan))
                .map_err(|e| CliError::Io(e.to_string()))
        }
        #[cfg(not(feature = "testing"))]
        Some(_) => Err(CliError::Usage(
            "--fault-plan requires a testing build: \
             cargo build -p zmesh-cli --features testing"
                .into(),
        )),
    }
}

/// `zmesh serve <dir> [--addr host:port] [--workers N] [--queue N]
/// [--cache-mb N] [--idle-timeout SECS] [--max-requests N]
/// [--fault-plan SPEC]` — resident
/// query daemon over every `*.zms` under `<dir>`. Prints the bound
/// address on stdout (`--addr 127.0.0.1:0` picks an ephemeral port),
/// then serves until SIGTERM/SIGINT, draining in-flight requests before
/// exiting 0. Connections are persistent (HTTP/1.1 keep-alive) up to
/// `--max-requests` per connection; a connection idle past
/// `--idle-timeout` is answered `408` and closed so it cannot pin a
/// worker. Endpoints: `/healthz`, `/metrics`, `/catalog[?refresh=1]`,
/// `/stores/{id}/info`, `/stores/{id}/query`,
/// `POST /stores/{id}/query-batch`. `--fault-plan` (testing builds only)
/// injects deterministic read faults for chaos drills.
#[cfg(unix)]
pub fn serve(argv: &[String]) -> Result<(), CliError> {
    use std::io::Write as _;

    let args = parse(argv)?;
    let dir = positional(&args, 0, "store directory")?;
    let mut opts = zmesh_serve::ServeOptions::default();
    if let Some(addr) = args.option("addr") {
        opts.addr = addr.to_string();
    }
    if let Some(workers) = parse_count(&args, "workers")? {
        opts.workers = workers;
    }
    if let Some(queue) = parse_count(&args, "queue")? {
        opts.queue_depth = queue;
    }
    if let Some(mb) = parse_count(&args, "cache-mb")? {
        opts.cache_bytes = (mb as u64) << 20;
    }
    if let Some(secs) = parse_count(&args, "idle-timeout")? {
        opts.idle_timeout = std::time::Duration::from_secs(secs as u64);
    }
    if let Some(n) = parse_count(&args, "max-requests")? {
        opts.max_requests = n;
    }
    let server = bind_server(&args, dir, opts)?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Io(e.to_string()))?;
    let catalog = server.catalog();
    // The listen line is the machine-readable contract (scripts parse the
    // port from it); flush so it is visible before the blocking run loop.
    println!("listening on http://{addr} ({} stores)", catalog.len());
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::Io(e.to_string()))?;
    zmesh_serve::install_signal_handlers();
    server.run().map_err(|e| CliError::Io(e.to_string()))?;
    eprintln!("serve: drained in-flight requests, shutting down");
    Ok(())
}

#[cfg(not(unix))]
pub fn serve(_argv: &[String]) -> Result<(), CliError> {
    Err(CliError::Usage(
        "serve requires a unix platform (ranged FileSource reads)".into(),
    ))
}

/// Removes the ephemeral bench catalog on exit.
#[cfg(unix)]
struct TempCatalog(std::path::PathBuf);

#[cfg(unix)]
impl Drop for TempCatalog {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `zmesh bench-serve [dir] [--clients N] [--requests N] [--workers N]
/// [--zipf S] [--seed N] [--cache-mb N] [--no-keepalive] [-o out.json]`
/// — traffic generator against an in-process daemon on an ephemeral
/// port. Without `dir`, packs a disposable three-store catalog first.
/// Measures closed-connection (cold/warm), reused-keep-alive-connection,
/// batch-POST, and concurrent mixed phases; `--no-keepalive` makes the
/// mixed phase reconnect per request (the pre-keep-alive baseline).
/// Writes the latency/QPS/cache report as JSON (default
/// `BENCH_serve.json`, or `$BENCH_SERVE_JSON`) in the same
/// `{"results":[...]}` dialect the criterion benches emit via
/// `CRITERION_JSON`.
#[cfg(unix)]
pub fn bench_serve(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse_with_switches(argv, &["no-keepalive"]).map_err(CliError::Usage)?;
    let mut opts = zmesh_serve::BenchOptions {
        keepalive: !args.switch("no-keepalive"),
        ..Default::default()
    };
    if let Some(clients) = parse_count(&args, "clients")? {
        opts.clients = clients;
    }
    if let Some(requests) = parse_count(&args, "requests")? {
        opts.requests = requests;
    }
    if let Some(workers) = parse_count(&args, "workers")? {
        opts.workers = workers;
    }
    if let Some(s) = args.float("zipf").map_err(CliError::Usage)? {
        if s <= 0.0 || s.is_nan() {
            return Err(CliError::Usage(format!("--zipf: want s > 0, got {s}")));
        }
        opts.zipf_s = s;
    }
    if let Some(seed) = args.option("seed") {
        opts.seed = seed
            .parse::<u64>()
            .map_err(|_| CliError::Usage(format!("--seed: not an integer: {seed}")))?;
    }
    if let Some(mb) = parse_count(&args, "cache-mb")? {
        opts.cache_bytes = (mb as u64) << 20;
    }

    // Bench the given catalog, or pack a disposable one.
    let (dir, _cleanup) = match args.positional(0, "dir") {
        Ok(dir) => (std::path::PathBuf::from(dir), None),
        Err(_) => {
            let dir =
                std::env::temp_dir().join(format!("zmesh_bench_serve_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| CliError::Io(e.to_string()))?;
            for preset in ["blast2d", "front2d", "advect2d"] {
                let ds = datasets::by_name(preset, StorageMode::AllCells, Scale::Tiny)
                    .expect("built-in preset");
                let fields: Vec<(&str, &AmrField)> =
                    ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
                // Small chunks so every query touches several of them —
                // the cache and coalescing paths get real work.
                let out = StoreWriter::new(CompressionConfig::zmesh_default())
                    .with_chunk_target_bytes(2048)
                    .write(&fields)?;
                zmesh_store::persist_store(&out.bytes, &dir.join(format!("{preset}.zms")))?;
            }
            (dir.clone(), Some(TempCatalog(dir)))
        }
    };

    let report = zmesh_serve::bench::run(&dir, &opts).map_err(|e| CliError::Io(e.to_string()))?;
    let out = args
        .option("output")
        .map(String::from)
        .or_else(|| std::env::var("BENCH_SERVE_JSON").ok())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    write_file(&out, report.to_json().as_bytes())?;

    let us = |ns: u64| ns as f64 / 1000.0;
    println!(
        "bench-serve: {} clients x {} requests over {} store(s), {} workers",
        report.clients, report.requests_per_client, report.stores, opts.workers
    );
    for (label, p) in [
        ("cold", &report.cold),
        ("warm", &report.warm),
        ("reused", &report.reused),
        ("salvage", &report.salvage),
    ] {
        println!(
            "  {label}: p50 {:.1}us p95 {:.1}us p99 {:.1}us ({} queries, {} errors)",
            us(p.p50_ns),
            us(p.p95_ns),
            us(p.p99_ns),
            p.count,
            p.errors,
        );
    }
    println!(
        "  batch: p50 {:.1}us/POST, {} queries at {:.0} query/s ({} POSTs, {} errors)",
        us(report.batch.p50_ns),
        report.batch_queries,
        report.batch_qps(),
        report.batch.count,
        report.batch.errors,
    );
    println!(
        "  mixed{}: p50 {:.1}us p95 {:.1}us p99 {:.1}us, {:.0} req/s ({} requests, {} errors)",
        if report.keepalive {
            " (keep-alive)"
        } else {
            " (closed connections)"
        },
        us(report.mixed.p50_ns),
        us(report.mixed.p95_ns),
        us(report.mixed.p99_ns),
        report.mixed.qps(),
        report.mixed.count,
        report.mixed.errors,
    );
    println!(
        "  chunk cache: {} hit(s) / {} miss(es), {} eviction(s), {} coalesced; recipe cache: {} hit(s) / {} miss(es)",
        report.chunk_cache.hits,
        report.chunk_cache.misses,
        report.chunk_cache.evictions,
        report.chunk_cache.coalesced,
        report.recipe_cache.hits,
        report.recipe_cache.misses,
    );
    println!("wrote {out}");
    Ok(())
}

#[cfg(not(unix))]
pub fn bench_serve(_argv: &[String]) -> Result<(), CliError> {
    Err(CliError::Usage(
        "bench-serve requires a unix platform (ranged FileSource reads)".into(),
    ))
}
