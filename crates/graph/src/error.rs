//! Error types for graph construction and IO.

use std::fmt;
use std::io;

/// Error produced while constructing or loading a graph.
#[derive(Debug)]
pub enum GraphError {
    /// The CSR offsets array violates its invariants.
    MalformedOffsets(String),
    /// An adjacency list is not strictly ascending (unsorted or duplicated).
    UnsortedAdjacency(u32),
    /// A vertex has an edge to itself.
    SelfLoop(u32),
    /// An adjacency entry references a vertex id outside the graph.
    NeighborOutOfRange {
        /// Vertex whose adjacency list contains the bad entry.
        vertex: u32,
        /// The out-of-range neighbor id.
        neighbor: u32,
    },
    /// The graph would exceed the 32-bit vertex-id space.
    TooManyVertices(usize),
    /// An IO error while reading or writing a graph file.
    Io(io::Error),
    /// A parse error while reading a text edge list.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// A malformed binary graph file (bad magic, implausible header
    /// fields). Distinct from [`Parse`](GraphError::Parse), which is
    /// line-oriented and text-only.
    BadFormat(String),
    /// An array sized by the input could not be allocated (for example a
    /// `# vertices N` header far beyond available memory).
    AllocationFailed {
        /// What the array would have held.
        what: &'static str,
        /// Requested size in bytes.
        bytes: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MalformedOffsets(msg) => write!(f, "malformed CSR offsets: {msg}"),
            GraphError::UnsortedAdjacency(v) => {
                write!(f, "adjacency list of vertex {v} is not strictly ascending")
            }
            GraphError::SelfLoop(v) => write!(f, "vertex {v} has a self loop"),
            GraphError::NeighborOutOfRange { vertex, neighbor } => {
                write!(f, "vertex {vertex} references out-of-range neighbor {neighbor}")
            }
            GraphError::TooManyVertices(n) => {
                write!(f, "graph with {n} vertices exceeds the 32-bit id space")
            }
            GraphError::Io(e) => write!(f, "graph io error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::BadFormat(message) => write!(f, "bad binary graph format: {message}"),
            GraphError::AllocationFailed { what, bytes } => {
                write!(f, "cannot allocate {bytes} bytes for the {what}")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::SelfLoop(3);
        assert_eq!(e.to_string(), "vertex 3 has a self loop");
        let e = GraphError::NeighborOutOfRange { vertex: 1, neighbor: 9 };
        assert!(e.to_string().contains("out-of-range neighbor 9"));
    }

    #[test]
    fn bad_format_display() {
        let e = GraphError::BadFormat("bad csr magic".into());
        assert_eq!(e.to_string(), "bad binary graph format: bad csr magic");
    }

    #[test]
    fn allocation_failure_display_names_size_and_array() {
        let e = GraphError::AllocationFailed { what: "CSR offsets", bytes: 32 };
        assert_eq!(e.to_string(), "cannot allocate 32 bytes for the CSR offsets");
    }

    #[test]
    fn io_errors_are_wrapped_with_source() {
        let e: GraphError = io::Error::new(io::ErrorKind::NotFound, "nope").into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
