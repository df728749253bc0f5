//! Differential suite for graph ingest: the counting-sort
//! `GraphBuilder::build` and the byte-level `read_edge_list` against the
//! global sort-and-dedup build they replaced, kept here as the oracle.

use fm_graph::io::{read_edge_list, write_edge_list};
use fm_graph::{generators, CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// The previous `GraphBuilder::build`: drop self loops, symmetrize, sort
/// all directed pairs globally, dedup, and count rows into offsets.
fn sort_dedup_build(edges: &[(u32, u32)], min_vertices: usize) -> CsrGraph {
    let edges: Vec<(u32, u32)> = edges.iter().copied().filter(|&(u, v)| u != v).collect();
    let n = edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0).max(min_vertices);
    let mut directed = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in &edges {
        directed.push((u, v));
        directed.push((v, u));
    }
    directed.sort_unstable();
    directed.dedup();
    let mut offsets = vec![0usize; n + 1];
    for &(u, _) in &directed {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let neighbors = directed.into_iter().map(|(_, v)| VertexId(v)).collect();
    CsrGraph::from_parts(offsets, neighbors).expect("oracle builds a valid graph")
}

/// A multigraph edge list: the random pairs (self loops included when
/// `u == v`), then every `dup`-th pair again reversed and every
/// `dup + 1`-th pair again as is.
fn multigraph(pairs: Vec<(u32, u32)>, dup: usize) -> Vec<(u32, u32)> {
    let mut edges = pairs.clone();
    edges.extend(pairs.iter().step_by(dup).map(|&(u, v)| (v, u)));
    edges.extend(pairs.iter().step_by(dup + 1).copied());
    edges
}

/// The same multigraph as edge-list text, with a padding header when
/// `pad > 0` and varied but valid whitespace.
fn as_text(edges: &[(u32, u32)], pad: usize) -> Vec<u8> {
    let mut text = Vec::new();
    if pad > 0 {
        text.extend_from_slice(format!("# vertices {pad}\n").as_bytes());
    }
    for (i, &(u, v)) in edges.iter().enumerate() {
        let line = match i % 4 {
            0 => format!("{u} {v}\n"),
            1 => format!("{u}\t{v}\r\n"),
            2 => format!("  {u}  {v} \n# note\n"),
            _ => format!("\n+{u} {v}\n"),
        };
        text.extend_from_slice(line.as_bytes());
    }
    text
}

fn check(pairs: Vec<(u32, u32)>, dup: usize, pad: usize) -> Result<(), TestCaseError> {
    let edges = multigraph(pairs, dup);
    let want = sort_dedup_build(&edges, pad);
    let built = GraphBuilder::new().vertices(pad).edges(edges.iter().copied()).build().unwrap();
    prop_assert_eq!(&built, &want);
    let read = read_edge_list(as_text(&edges, pad).as_slice()).unwrap();
    prop_assert_eq!(&read, &want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Few vertices, many edges: heavy duplication and frequent self loops.
    #[test]
    fn dense_multigraphs_match_the_sort_dedup_build(
        pairs in prop::collection::vec((0u32..8, 0u32..8), 0..120),
        dup in 1usize..4,
        pad in 0usize..12,
    ) {
        check(pairs, dup, pad)?;
    }

    /// Sparse graphs with a hub: long rows next to empty ones, and padding
    /// past the largest id.
    #[test]
    fn sparse_multigraphs_with_a_hub_match_the_sort_dedup_build(
        pairs in prop::collection::vec((0u32..300, 0u32..300), 0..400),
        hub_edges in prop::collection::vec(0u32..300, 0..150),
        dup in 1usize..6,
        pad in 0usize..400,
    ) {
        let mut pairs = pairs;
        pairs.extend(hub_edges.into_iter().map(|v| (7, v)));
        check(pairs, dup, pad)?;
    }
}

#[test]
fn empty_and_padding_only_graphs_match_the_sort_dedup_build() {
    for pad in [0, 1, 5] {
        let want = sort_dedup_build(&[], pad);
        assert_eq!(GraphBuilder::new().vertices(pad).build().unwrap(), want);
        assert_eq!(read_edge_list(as_text(&[], pad).as_slice()).unwrap(), want);
    }
    // Only self loops: nothing survives but the vertex count.
    assert_eq!(
        GraphBuilder::new().edges([(3, 3), (0, 0)]).build().unwrap(),
        sort_dedup_build(&[(3, 3), (0, 0)], 0)
    );
}

#[test]
fn every_generator_round_trips_through_the_edge_list_text() {
    let base = generators::powerlaw_cluster(500, 4, 0.4, 3);
    let graphs = [
        generators::complete(9),
        generators::complete_bipartite(4, 6),
        generators::cycle(11),
        generators::path(7),
        generators::star(12),
        generators::grid(5, 4),
        generators::erdos_renyi(120, 0.05, 2),
        generators::preferential_attachment(300, 3, 4),
        generators::powerlaw_cluster(400, 3, 0.5, 5),
        generators::attach_hubs(&base, 3, 120, 6),
        generators::caveman(8, 6, 10, 7),
        generators::shuffle_ids(&base, 8),
        base,
    ];
    for g in graphs {
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        assert_eq!(read_edge_list(text.as_slice()).unwrap(), g);
    }
}
