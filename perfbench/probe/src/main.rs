//! `perfbench-probe` — the in-process half of the end-to-end benchmark.
//!
//! ```text
//! perfbench-probe --workload W --seed N --dir DIR [--toy] [--layers --trace-out FILE]
//! ```
//!
//! Generates the workload's graphs from the seed as edge-list files in
//! `DIR` (the program under test only ever receives these files), loads
//! them back, computes every request class's reference count with
//! `EngineConfig::paper_faithful()`, and prints them as one JSON line on
//! stdout. With `--layers` it then answers the traced per-layer split's
//! commands on stdin (see `layers.rs`) and writes its spans as a Chrome
//! trace.

mod layers;
mod workload;

use flexminer::engine::{simd, EngineConfig};
use flexminer::graph::io;
use flexminer::jobs::jsonl::{u64_array, ObjWriter};
use flexminer::{graphspec, Backend, Miner, Pattern};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// Worker threads per request: the benchmark host has two cores.
pub const THREADS: usize = 2;

/// One generated input, as written and read back.
pub struct Input {
    pub path: String,
    pub graph: flexminer::CsrGraph,
}

fn main() {
    if let Err(e) = run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        eprintln!("perfbench-probe: {e}");
        exit(1);
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn run(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let seed: u64 = flag(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let dir = PathBuf::from(flag(args, "--dir").ok_or("missing --dir")?);
    let toy = args.iter().any(|a| a == "--toy");
    let wl = workload::workload(name)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let mut inputs = Vec::new();
    let mut graphs_json = Vec::new();
    for i in 0..wl.instances() {
        let (def, variant) = wl.instance(i);
        let t0 = Instant::now();
        let g = def.build(seed, variant, toy);
        let name = wl.instance_name(i);
        let path = dir.join(format!("{name}.el"));
        write_edge_list(&g, &path)?;
        let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let path = path.to_str().ok_or("non-UTF-8 input path")?.to_string();
        // The reference reads the same file the program under test reads.
        let graph = graphspec::load(&path)?;
        let bytes = std::fs::metadata(&path).map_err(|e| format!("stat {path}: {e}"))?.len();
        graphs_json.push(
            ObjWriter::new()
                .str("name", &name)
                .str("path", &path)
                .str("recipe", def.recipe)
                .u64("vertices", graph.num_vertices() as u64)
                .u64("edges", graph.num_undirected_edges() as u64)
                .u64("bytes", bytes)
                .raw("gen_ms", &num(gen_ms))
                .finish(),
        );
        inputs.push(Input { path, graph });
    }

    let latency = wl.latency_classes();
    let mut references = Vec::new();
    let mut classes_json = Vec::new();
    for (i, c) in wl.classes.iter().enumerate() {
        let reference = reference_counts(&inputs[c.graph].graph, c.pattern)?;
        classes_json.push(
            ObjWriter::new()
                .str("client", c.client)
                .str("graph", &wl.instance_name(c.graph))
                .str("pattern", c.pattern)
                .i64("priority", c.priority as i64)
                .bool("latency", latency.contains(&i))
                .raw("reference", &u64_array(&reference))
                .finish(),
        );
        references.push(reference);
    }

    let out = ObjWriter::new()
        .str("workload", name)
        .str("transport", wl.transport)
        .u64("seed", seed)
        .u64("threads", THREADS as u64)
        .str("isa", simd::isa())
        .u64("isa_tier", isa_tier(simd::isa()))
        .bool("simd_available", simd::runtime_available())
        .raw("graphs", &format!("[{}]", graphs_json.join(",")))
        .raw("classes", &format!("[{}]", classes_json.join(",")));
    println!("{}", out.finish());
    if args.iter().any(|a| a == "--layers") {
        let trace_out = flag(args, "--trace-out").ok_or("--layers needs --trace-out")?;
        let stdin = std::io::stdin().lock();
        let session = layers::Session::new(&wl, &inputs, &references);
        session.serve(stdin, std::io::stdout().lock(), Path::new(trace_out))?;
    }
    Ok(())
}

fn write_edge_list(g: &flexminer::CsrGraph, path: &Path) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    io::write_edge_list(g, &mut w).map_err(|e| format!("write {}: {e}", path.display()))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Unique counts of `pattern` on `g` under the paper-faithful engine.
pub fn reference_counts(g: &flexminer::CsrGraph, pattern: &str) -> Result<Vec<u64>, String> {
    let p: Pattern = pattern.parse().map_err(|e| format!("bad pattern {pattern}: {e}"))?;
    let cfg = EngineConfig { threads: THREADS, ..EngineConfig::paper_faithful() };
    let outcome = Miner::new(g)
        .pattern(p)
        .backend(Backend::Software(cfg))
        .run()
        .map_err(|e| e.to_string())?;
    if !outcome.is_complete() {
        return Err(format!("reference run for {pattern} ended {:?}", outcome.status()));
    }
    Ok(outcome.counts())
}

/// Numeric ISA tier: 0 scalar, 1 SSE2, 2 AVX2.
fn isa_tier(isa: &str) -> u64 {
    match isa {
        "avx2" => 2,
        "sse2" => 1,
        _ => 0,
    }
}

/// A JSON number; non-finite values (an empty ratio) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
