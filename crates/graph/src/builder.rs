//! Incremental construction of simple, symmetric graphs.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::vertex::VertexId;

/// Builder for [`CsrGraph`] values.
///
/// The builder accepts an arbitrary multiset of undirected edges and
/// produces a *simple, symmetric* graph: self loops are rejected, duplicate
/// edges (in either direction) are collapsed, both directions of every edge
/// are materialized, and every adjacency list is sorted ascending — exactly
/// the input format the paper requires of its datasets (Table I).
///
/// # Examples
///
/// ```
/// use fm_graph::GraphBuilder;
///
/// // Duplicates and reversed duplicates collapse to a single edge.
/// let g = GraphBuilder::new()
///     .edge(0, 1)
///     .edge(1, 0)
///     .edge(0, 1)
///     .build()?;
/// assert_eq!(g.num_undirected_edges(), 1);
/// # Ok::<(), fm_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(u32, u32)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an undirected edge between `u` and `v` (self loops are dropped
    /// silently; see [`GraphBuilder::try_edge`] to treat them as errors).
    ///
    /// Returns `self` for chaining. Consuming-builder style is used because
    /// graph construction is typically a one-shot pipeline.
    #[must_use]
    pub fn edge(mut self, u: u32, v: u32) -> Self {
        if u != v {
            self.edges.push((u, v));
        }
        self
    }

    /// Adds an undirected edge, failing on self loops.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v`.
    pub fn try_edge(mut self, u: u32, v: u32) -> Result<Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.edges.push((u, v));
        Ok(self)
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    #[must_use]
    pub fn edges<I: IntoIterator<Item = (u32, u32)>>(mut self, iter: I) -> Self {
        for (u, v) in iter {
            if u != v {
                self.edges.push((u, v));
            }
        }
        self
    }

    /// Ensures the built graph has at least `n` vertices, even if the
    /// highest-numbered ones are isolated.
    #[must_use]
    pub fn vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Wraps an edge list that is already free of self loops, without
    /// copying it (the text reader hands over its parse this way).
    pub(crate) fn from_edges(edges: Vec<(u32, u32)>, min_vertices: usize) -> Self {
        debug_assert!(edges.iter().all(|&(u, v)| u != v));
        GraphBuilder { edges, min_vertices }
    }

    /// Finalizes the builder into a validated [`CsrGraph`].
    ///
    /// The CSR is built by counting sort: count each vertex's degree, take
    /// prefix sums, scatter both directions of every edge into one
    /// neighbour array, then sort and deduplicate each row in place,
    /// compacting the array as rows shrink.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyVertices`] if more than `u32::MAX`
    /// vertices would be required, and [`GraphError::AllocationFailed`] if
    /// the vertex- or edge-sized arrays cannot be allocated.
    pub fn build(self) -> Result<CsrGraph, GraphError> {
        let n = self
            .edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices);
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyVertices(n));
        }

        // Degree counts, then an exclusive prefix sum: offsets[u] is the
        // start of u's row and offsets[n] the total.
        let mut offsets = try_filled(n + 1, 0usize, "CSR offsets")?;
        for &(u, v) in &self.edges {
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        let mut total = 0;
        for o in &mut offsets {
            let degree = *o;
            *o = total;
            total += degree;
        }

        // Scatter; each offsets[u] advances to the end of u's row.
        let mut neighbors = try_filled(total, VertexId(0), "CSR neighbour array")?;
        for &(u, v) in &self.edges {
            neighbors[offsets[u as usize]] = VertexId(v);
            offsets[u as usize] += 1;
            neighbors[offsets[v as usize]] = VertexId(u);
            offsets[v as usize] += 1;
        }
        drop(self.edges);

        // Sort and dedup each row, moving it left over the duplicates
        // already dropped; offsets[u] goes back to being u's row start.
        let (mut row_start, mut len) = (0, 0);
        for offset in &mut offsets[..n] {
            let row_end = *offset;
            *offset = len;
            neighbors[row_start..row_end].sort_unstable();
            for i in row_start..row_end {
                let x = neighbors[i];
                if i == row_start || x != neighbors[len - 1] {
                    neighbors[len] = x;
                    len += 1;
                }
            }
            row_start = row_end;
        }
        offsets[n] = len;
        neighbors.truncate(len);
        CsrGraph::from_parts(offsets, neighbors)
    }
}

/// A `len`-element vector of `fill`, or a structured error where a plain
/// `vec!` would abort the process on an impossible size.
fn try_filled<T: Clone>(len: usize, fill: T, what: &'static str) -> Result<Vec<T>, GraphError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len).map_err(|_| GraphError::AllocationFailed {
        what,
        bytes: len.saturating_mul(std::mem::size_of::<T>()),
    })?;
    v.resize(len, fill);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_symmetric_simple_graph() {
        let g = GraphBuilder::new()
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(2, 1) // duplicate, reversed
            .build()
            .unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_undirected_edges(), 3);
        assert!(g.is_symmetric());
    }

    #[test]
    fn self_loops_are_dropped_by_edge() {
        let g = GraphBuilder::new().edge(0, 0).edge(0, 1).build().unwrap();
        assert_eq!(g.num_undirected_edges(), 1);
        assert!(!g.has_edge(VertexId(0), VertexId(0)));
    }

    #[test]
    fn try_edge_rejects_self_loops() {
        let err = GraphBuilder::new().try_edge(4, 4).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop(4)));
    }

    #[test]
    fn vertices_pads_isolated_vertices() {
        let g = GraphBuilder::new().edge(0, 1).vertices(5).build().unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(VertexId(4)), 0);
    }

    #[test]
    fn empty_builder_produces_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_directed_edges(), 0);
    }

    #[test]
    fn edges_iterator_form_matches_chained_form() {
        let a = GraphBuilder::new().edges([(0, 1), (1, 2)]).build().unwrap();
        let b = GraphBuilder::new().edge(0, 1).edge(1, 2).build().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = GraphBuilder::new().edge(5, 0).edge(5, 3).edge(5, 1).build().unwrap();
        let ns: Vec<u32> = g.neighbors(VertexId(5)).iter().map(|v| v.0).collect();
        assert_eq!(ns, vec![0, 1, 3]);
    }
}
