//! The benchmark's workloads: which graphs each one generates from the
//! seed, and which (graph, pattern, priority) request classes its clients
//! send. `run.py` reads these definitions from the probe's output, so this
//! file is the single place a workload is defined.
//!
//! Each recipe is instantiated as several independent variants per seed
//! and every class is sent against every variant. Set-op work on one
//! generated graph varies by about ±10% from seed to seed; averaging a
//! run over several graphs keeps that input luck out of its figures.

use flexminer::graph::{generators, CsrGraph};

/// One generated input graph.
pub struct GraphDef {
    /// File stem and key used by the request classes.
    pub name: &'static str,
    /// Human-readable generator recipe (full size).
    pub recipe: &'static str,
    tag: u64,
    build: fn(seed: u64, toy: bool) -> CsrGraph,
}

impl GraphDef {
    /// Builds variant `variant` of the graph for `seed`; `toy` shrinks it
    /// for smoke tests.
    pub fn build(&self, seed: u64, variant: usize, toy: bool) -> CsrGraph {
        (self.build)(mix(seed, self.tag + 16 * variant as u64), toy)
    }
}

/// One kind of request a client sends.
pub struct Class {
    /// Which client sends it: one closed loop per distinct client.
    pub client: &'static str,
    /// Index into the workload's graph instances (see [`Workload::expand`]).
    pub graph: usize,
    /// Pattern name as the CLI and the serve protocol spell it.
    pub pattern: &'static str,
    /// Serve priority (higher preempts lower).
    pub priority: i32,
}

/// A named workload.
pub struct Workload {
    /// Whether requests go through `flexminer count` or `flexminer serve`.
    pub transport: &'static str,
    pub graphs: Vec<GraphDef>,
    /// Independent instances of each recipe per seed.
    pub variants: usize,
    pub classes: Vec<Class>,
}

impl Workload {
    /// Instantiates every recipe `variants` times (instance
    /// `v * graphs.len() + g` is variant `v` of recipe `g`) and repeats
    /// the classes against each variant.
    fn expand(mut self) -> Workload {
        let n = self.graphs.len();
        let classes = std::mem::take(&mut self.classes);
        self.classes = (0..self.variants)
            .flat_map(|v| classes.iter().map(move |c| Class { graph: v * n + c.graph, ..*c }))
            .collect();
        self
    }

    /// Recipe and variant of graph instance `i`.
    pub fn instance(&self, i: usize) -> (&GraphDef, usize) {
        (&self.graphs[i % self.graphs.len()], i / self.graphs.len())
    }

    /// File stem of graph instance `i`: recipe name plus variant.
    pub fn instance_name(&self, i: usize) -> String {
        let (def, variant) = self.instance(i);
        format!("{}{variant}", def.name)
    }

    /// Number of graph instances.
    pub fn instances(&self) -> usize {
        self.graphs.len() * self.variants
    }

    /// Indices of the classes whose latency the end-to-end percentiles
    /// report: those of the highest priority.
    pub fn latency_classes(&self) -> Vec<usize> {
        let top = self.classes.iter().map(|c| c.priority).max().unwrap_or(0);
        (0..self.classes.len()).filter(|&i| self.classes[i].priority == top).collect()
    }
}

/// Derives an independent generator seed per graph from the workload seed.
fn mix(seed: u64, tag: u64) -> u64 {
    // splitmix64 finaliser
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A power-law body plus interconnected hubs with shuffled ids: the
/// recipe of the repository's Mi and Lj stand-ins.
fn with_hubs(n: usize, m: usize, closure: f64, hubs: usize, deg: usize, seed: u64) -> CsrGraph {
    let body = generators::powerlaw_cluster(n, m, closure, seed);
    let hubbed = generators::attach_hubs(&body, hubs, deg.min(n), seed ^ 0xFF);
    generators::shuffle_ids(&hubbed, seed ^ 0x5A5A)
}

fn sparse(seed: u64, toy: bool) -> CsrGraph {
    let n = if toy { 5_000 } else { 250_000 };
    generators::powerlaw_cluster(n, 3, 0.2, seed)
}

fn mi(seed: u64, toy: bool) -> CsrGraph {
    let (n, deg) = if toy { (1_500, 200) } else { (6_000, 700) };
    with_hubs(n, 11, 0.6, 10, deg, seed)
}

fn lj(seed: u64, toy: bool) -> CsrGraph {
    let (n, deg) = if toy { (4_000, 200) } else { (36_000, 700) };
    with_hubs(n, 6, 0.35, 14, deg, seed)
}

const SPARSE: GraphDef = GraphDef {
    name: "sparse",
    recipe: "powerlaw_cluster(n=250000, m=3, closure=0.2)",
    tag: 1,
    build: sparse,
};
const MI: GraphDef = GraphDef {
    name: "mi",
    recipe: "powerlaw_cluster(n=6000, m=11, closure=0.6) + 10 hubs x deg 700, ids shuffled",
    tag: 2,
    build: mi,
};
const LJ: GraphDef = GraphDef {
    name: "lj",
    recipe: "powerlaw_cluster(n=36000, m=6, closure=0.35) + 14 hubs x deg 700, ids shuffled",
    tag: 3,
    build: lj,
};

/// The workload called `name`.
pub fn workload(name: &str) -> Result<Workload, String> {
    let cls = |client, graph, pattern, priority| Class { client, graph, pattern, priority };
    Ok(match name {
        // Ingest and the per-start-vertex driver dominate; almost no
        // set-op work per task.
        "cli-sparse" => Workload {
            transport: "cli",
            graphs: vec![SPARSE],
            variants: 2,
            classes: vec![cls("main", 0, "triangle", 0)],
        },
        // Queue, preemption, JSONL, wait polling, per-job prepare,
        // journal fsyncs and the set-op kernels; graphs stay resident.
        "serve-mixed" => Workload {
            transport: "serve",
            graphs: vec![MI, LJ],
            variants: 2,
            classes: vec![
                cls("interactive", 0, "triangle", 1),
                cls("interactive", 0, "4-clique", 1),
                cls("interactive", 0, "diamond", 1),
                cls("interactive", 1, "triangle", 1),
                cls("interactive", 1, "4-clique", 1),
                cls("batch", 0, "4-cycle", 0),
                cls("batch", 1, "diamond", 0),
            ],
        },
        other => return Err(format!("unknown workload {other:?}")),
    }
    .expand())
}
