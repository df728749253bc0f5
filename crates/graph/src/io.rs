//! Graph serialization: text edge lists and a compact binary CSR format.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::vertex::VertexId;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};

/// Magic bytes identifying the binary CSR format.
const CSR_MAGIC: &[u8; 8] = b"FMCSR\x01\x00\x00";

/// Reads a whitespace-separated edge list (`u v` per line, `#`-prefixed
/// comments and blank lines ignored) and builds a simple symmetric graph.
///
/// This is the SNAP text format the paper's datasets ship in; self loops and
/// duplicates in the input are cleaned up, matching the paper's preprocessed
/// inputs. A `# vertices N` comment (as written by [`write_edge_list`])
/// fixes the vertex count, preserving trailing isolated vertices.
///
/// The grammar is byte-level: tokens are separated by ASCII whitespace
/// (space, tab, CR, vertical tab, form feed), lines end at `\n`, and a
/// vertex id is an optional `+` followed by decimal digits that fit a
/// `u32`. Input is scanned from one fixed-size read buffer, so memory
/// stays bounded by the edge array plus that buffer (and the longest
/// line, when a line outgrows the buffer).
///
/// A mutable reference can be passed for `reader` (e.g. `&mut file`).
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed lines (including
/// non-ASCII separators and invalid UTF-8), [`GraphError::Io`] for
/// underlying IO failures, and any error of [`GraphBuilder::build`].
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut r = BufReader::with_capacity(READ_BUF, reader);
    let mut scan = Scanner::default();
    // A line cut by the end of one fill waits here for the rest of it.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let len = chunk.len();
        if len == 0 {
            break;
        }
        let mut pos = 0;
        if !carry.is_empty() {
            let Some(nl) = chunk.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(chunk);
                r.consume(len);
                continue;
            };
            carry.extend_from_slice(&chunk[..=nl]);
            scan.lines(&carry)?;
            carry.clear();
            pos = nl + 1;
        }
        pos += scan.lines(&chunk[pos..])?;
        carry.extend_from_slice(&chunk[pos..]);
        r.consume(len);
    }
    if !carry.is_empty() {
        // The last line has no newline of its own.
        carry.push(b'\n');
        scan.lines(&carry)?;
    }
    GraphBuilder::from_edges(scan.edges, scan.min_vertices).build()
}

/// Read-buffer size of [`read_edge_list`].
const READ_BUF: usize = 1 << 20;

/// Edge-list parse state: the edges so far and the line count.
#[derive(Default)]
struct Scanner {
    edges: Vec<(u32, u32)>,
    min_vertices: usize,
    /// Lines consumed so far; the 1-based number of the current line once
    /// it has been counted.
    line: usize,
}

impl Scanner {
    /// Parses every complete line of `buf` and returns the number of bytes
    /// consumed, which ends just past the last `\n`.
    ///
    /// Plain `u v` lines take the inline fast path; everything else (blank
    /// lines, comments, errors) goes through [`Scanner::other_line`].
    fn lines(&mut self, buf: &[u8]) -> Result<usize, GraphError> {
        let mut pos = 0;
        loop {
            if let Some((u, v, next)) = fast_edge(buf, pos) {
                self.line += 1;
                if u != v {
                    self.edges.push((u, v));
                }
                pos = next;
                continue;
            }
            let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
                return Ok(pos);
            };
            self.other_line(&buf[pos..pos + nl])?;
            pos += nl + 1;
        }
    }

    /// The full grammar for one line (without its `\n`).
    fn other_line(&mut self, line: &[u8]) -> Result<(), GraphError> {
        self.line += 1;
        let text = std::str::from_utf8(line).map_err(|_| self.error("invalid UTF-8".into()))?;
        let text = text.trim_matches(is_space_char);
        if text.is_empty() {
            return Ok(());
        }
        if text.starts_with('#') {
            if let Some(rest) = text.strip_prefix("# vertices ") {
                if let Ok(n) = rest.trim_matches(is_space_char).parse::<usize>() {
                    self.min_vertices = self.min_vertices.max(n);
                }
            }
            return Ok(());
        }
        let mut it = text.split(is_space_char).filter(|t| !t.is_empty());
        let u = self.vertex(it.next())?;
        let v = self.vertex(it.next())?;
        if it.next().is_some() {
            return Err(self.error("trailing tokens after edge".into()));
        }
        if u != v {
            self.edges.push((u, v));
        }
        Ok(())
    }

    fn vertex(&self, token: Option<&str>) -> Result<u32, GraphError> {
        token
            .ok_or_else(|| self.error("expected two vertex ids".into()))?
            .parse::<u32>()
            .map_err(|e| self.error(e.to_string()))
    }

    fn error(&self, message: String) -> GraphError {
        GraphError::Parse { line: self.line, message }
    }
}

/// Token separators: the ASCII characters `char::is_whitespace` accepts,
/// minus the line terminator.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

fn is_space_char(c: char) -> bool {
    c.is_ascii() && is_space(c as u8)
}

#[inline]
fn skip_space(buf: &[u8], mut i: usize) -> usize {
    while buf.get(i).is_some_and(|&b| is_space(b)) {
        i += 1;
    }
    i
}

/// Parses `[+]digits` at `i` into a `u32`; `None` on no digits or on
/// overflow. Returns the value and the index just past the last digit.
#[inline]
fn fast_vertex(buf: &[u8], mut i: usize) -> Option<(u32, usize)> {
    if buf.get(i) == Some(&b'+') {
        i += 1;
    }
    let start = i;
    let mut x: u32 = 0;
    while let Some(&b) = buf.get(i) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        x = x.checked_mul(10)?.checked_add(u32::from(d))?;
        i += 1;
    }
    (i > start).then_some((x, i))
}

/// Matches a complete `u v` line at `start` (surrounding ASCII whitespace
/// allowed) and returns the edge and the index just past its `\n`.
/// `None` leaves the line to the full grammar, which also decides whether
/// the line is merely incomplete.
#[inline]
fn fast_edge(buf: &[u8], start: usize) -> Option<(u32, u32, usize)> {
    let (u, i) = fast_vertex(buf, skip_space(buf, start))?;
    if !is_space(*buf.get(i)?) {
        return None;
    }
    let (v, i) = fast_vertex(buf, skip_space(buf, i))?;
    let i = skip_space(buf, i);
    (*buf.get(i)? == b'\n').then_some((u, v, i + 1))
}

/// Writes a `# vertices N` header followed by each undirected edge as a
/// `u v` line.
///
/// # Errors
///
/// Propagates IO failures from `writer`.
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {}", g.num_vertices())?;
    for (u, v) in g.undirected_edges() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes the graph in the compact binary CSR format (little-endian):
/// magic, `u64` vertex count, `u64` adjacency length, `u64` offsets,
/// `u32` neighbor ids.
///
/// # Errors
///
/// Propagates IO failures from `writer`.
pub fn write_csr<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(CSR_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_directed_edges() as u64).to_le_bytes())?;
    for &off in g.offsets() {
        w.write_all(&(off as u64).to_le_bytes())?;
    }
    for &v in g.neighbor_array() {
        w.write_all(&v.0.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Elements preallocated up front when reading untrusted length headers.
/// Anything larger grows on demand as real data actually arrives, so a
/// 16-byte file declaring 2⁶⁴ vertices cannot request terabytes.
const PREALLOC_CAP: usize = 1 << 20;

/// Reads a graph previously written by [`write_csr`], re-validating all CSR
/// invariants.
///
/// The header's length fields are untrusted: implausible values are
/// rejected up front, and buffer preallocation is capped, so a tiny
/// malformed file cannot trigger a huge allocation.
///
/// # Errors
///
/// Returns [`GraphError::BadFormat`] on a bad magic or implausible header,
/// [`GraphError::Io`] on a truncated stream, and any validation error from
/// [`CsrGraph::from_parts`].
pub fn read_csr<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != CSR_MAGIC {
        return Err(GraphError::BadFormat("bad csr magic".into()));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n64 = u64::from_le_bytes(buf8);
    r.read_exact(&mut buf8)?;
    let m64 = u64::from_le_bytes(buf8);
    // Vertex ids are 32-bit, and a simple graph has < n² directed edges;
    // headers beyond either bound cannot describe a valid graph.
    if n64 > u32::MAX as u64 + 1 {
        return Err(GraphError::BadFormat(format!(
            "declared vertex count {n64} exceeds the 32-bit id space"
        )));
    }
    if u128::from(m64) > u128::from(n64) * u128::from(n64.saturating_sub(1)) {
        return Err(GraphError::BadFormat(format!(
            "declared edge count {m64} is impossible for {n64} vertices"
        )));
    }
    let (n, m) = (n64 as usize, m64 as usize);
    let mut offsets = Vec::with_capacity((n + 1).min(PREALLOC_CAP));
    for _ in 0..=n {
        r.read_exact(&mut buf8)?;
        offsets.push(u64::from_le_bytes(buf8) as usize);
    }
    let mut neighbors = Vec::with_capacity(m.min(PREALLOC_CAP));
    let mut buf4 = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut buf4)?;
        neighbors.push(VertexId(u32::from_le_bytes(buf4)));
    }
    CsrGraph::from_parts(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_round_trip() {
        let g = generators::erdos_renyi(40, 0.15, 2);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_ignores_comments_and_blanks() {
        let text = "# snap-style header\n\n0 1\n 1 2 \n# done\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_undirected_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(matches!(read_edge_list("0 x".as_bytes()), Err(GraphError::Parse { line: 1, .. })));
        assert!(matches!(read_edge_list("0".as_bytes()), Err(GraphError::Parse { line: 1, .. })));
        assert!(matches!(
            read_edge_list("0 1 2\n".as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    /// Vertex count and undirected edges of a parse, or its error.
    fn parse(bytes: &[u8]) -> Result<(usize, Vec<(u32, u32)>), GraphError> {
        let g = read_edge_list(bytes)?;
        Ok((g.num_vertices(), g.undirected_edges().map(|(u, v)| (u.0, v.0)).collect()))
    }

    fn parse_error(bytes: &[u8]) -> (usize, String) {
        match parse(bytes) {
            Err(GraphError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    // The expectations below are what the line-based `str::parse` reader
    // this scanner replaced returned for the same bytes.

    #[test]
    fn scanner_accepts_crlf_tabs_and_surrounding_whitespace() {
        let path = vec![(0, 1), (1, 2)];
        assert_eq!(parse(b"0 1\r\n1 2\r\n").unwrap(), (3, path.clone()));
        assert_eq!(parse(b"0\t1\n\t1 \t 2\t\n").unwrap(), (3, path.clone()));
        assert_eq!(parse(b"\x0b0 1\x0c\n1 2\n").unwrap(), (3, path.clone()));
        assert_eq!(parse(b"0 1\n\r\n  \t \n1 2\n").unwrap(), (3, path.clone()));
        // No final newline, with or without a trailing CR.
        assert_eq!(parse(b"  0 1  \n 1 2").unwrap(), (3, path));
        assert_eq!(parse(b"0 1\r").unwrap(), (2, vec![(0, 1)]));
    }

    #[test]
    fn scanner_skips_comments_and_blank_lines() {
        let text = b"# header\n   # indented comment\n0 1\n\n\n2 3\n";
        assert_eq!(parse(text).unwrap(), (4, vec![(0, 1), (2, 3)]));
        assert_eq!(parse(b"").unwrap(), (0, vec![]));
        assert_eq!(parse(b"\n\n").unwrap(), (0, vec![]));
    }

    #[test]
    fn scanner_honours_vertices_padding_header() {
        assert_eq!(parse(b"# vertices 10\n0 1\n").unwrap(), (10, vec![(0, 1)]));
        // The largest header wins; unparsable ones are plain comments.
        let text = b"# vertices 3\n# vertices 7\n# vertices x\n0 1\n";
        assert_eq!(parse(text).unwrap(), (7, vec![(0, 1)]));
        assert_eq!(parse(b"  # vertices   4  \n").unwrap(), (4, vec![]));
        assert_eq!(parse(b"# vertices +6\n").unwrap(), (6, vec![]));
        assert_eq!(parse(b"#vertices 5\n0 1\n").unwrap(), (2, vec![(0, 1)]));
    }

    #[test]
    fn scanner_accepts_leading_plus_and_zeros() {
        assert_eq!(parse(b"+3 +4\n").unwrap(), (5, vec![(3, 4)]));
        assert_eq!(parse(b"00000000000000000007 1\n").unwrap(), (8, vec![(1, 7)]));
    }

    #[test]
    fn scanner_reports_overflow_with_line_number() {
        let overflow = "number too large to fit in target type".to_string();
        assert_eq!(parse_error(b"0 1\n4294967296 2\n"), (2, overflow.clone()));
        assert_eq!(parse_error(b"0 99999999999x\n"), (1, overflow));
        // u32::MAX itself parses, but needs 2^32 vertices.
        assert!(matches!(parse(b"4294967295 0\n"), Err(GraphError::TooManyVertices(4294967296))));
    }

    #[test]
    fn scanner_reports_malformed_lines() {
        let invalid = "invalid digit found in string".to_string();
        assert_eq!(parse_error(b"0 1\n5\n"), (2, "expected two vertex ids".into()));
        assert_eq!(parse_error(b"0 1\n1 2 3\n"), (2, "trailing tokens after edge".into()));
        assert_eq!(parse_error(b"x\n"), (1, invalid.clone()));
        assert_eq!(parse_error(b"1 x 7\n"), (1, invalid.clone()));
        assert_eq!(parse_error(b"-1 2\n"), (1, invalid.clone()));
        assert_eq!(parse_error(b"+ 1\n"), (1, invalid.clone()));
        assert_eq!(parse_error(b"1 2#c\n"), (1, invalid));
    }

    /// Two deliberate changes from the line-based reader: separators are
    /// ASCII only (U+00A0 used to split tokens), and invalid UTF-8 is a
    /// `Parse` error at its line (it used to be `Io(InvalidData)`).
    #[test]
    fn scanner_rejects_non_ascii_separators_and_invalid_utf8() {
        let invalid = "invalid digit found in string".to_string();
        assert_eq!(parse_error("0 1\n1\u{a0}2\n".as_bytes()), (2, invalid.clone()));
        assert_eq!(parse_error("\u{a0}0 1\n".as_bytes()), (1, invalid));
        assert_eq!(parse_error(b"0 1\n1 \xff\n"), (2, "invalid UTF-8".into()));
        assert_eq!(parse_error(b"# \xff\n0 1\n"), (1, "invalid UTF-8".into()));
    }

    /// A reader that returns 1..=7 bytes per call, cycling, so that line
    /// and token boundaries fall at every offset of a buffer refill.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.step = self.step % 7 + 1;
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn scanner_is_independent_of_read_boundaries() {
        let g = generators::powerlaw_cluster(300, 3, 0.3, 5);
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        text.extend_from_slice(b"  # indented\r\n\t+7 \t0010\r\n\n5 6");
        let want = read_edge_list(text.as_slice()).unwrap();
        assert!(want.has_edge(crate::VertexId(7), crate::VertexId(10)));
        assert!(want.has_edge(crate::VertexId(5), crate::VertexId(6)));
        let mut bad = text.clone();
        bad.extend_from_slice(b"\n1 x\n2 3\n");
        let bad_line = text.iter().filter(|&&b| b == b'\n').count() + 2;
        for step in 0..7 {
            assert_eq!(read_edge_list(Trickle { data: &text, step }).unwrap(), want);
            match read_edge_list(Trickle { data: &bad, step }) {
                Err(GraphError::Parse { line, .. }) => assert_eq!(line, bad_line),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn edge_list_cleans_self_loops_and_duplicates() {
        let g = read_edge_list("0 0\n0 1\n1 0\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_undirected_edges(), 1);
    }

    #[test]
    fn binary_csr_round_trip() {
        let g = generators::preferential_attachment(120, 3, 77);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn binary_csr_rejects_bad_magic() {
        let err = read_csr(&b"NOTACSR!rest"[..]).unwrap_err();
        assert!(matches!(err, GraphError::BadFormat(_)));
        assert!(err.to_string().contains("bad csr magic"));
    }

    #[test]
    fn binary_csr_rejects_truncation() {
        let g = generators::complete(4);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_csr(buf.as_slice()), Err(GraphError::Io(_))));
    }

    /// Regression: a 24-byte file declaring absurd lengths must fail fast
    /// with a format error — not attempt a multi-terabyte preallocation.
    #[test]
    fn binary_csr_huge_declared_counts_do_not_preallocate() {
        let mut buf = Vec::new();
        buf.extend_from_slice(CSR_MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&0u64.to_le_bytes()); // m
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::BadFormat(_)), "{err}");
        assert!(err.to_string().contains("vertex count"));

        // Plausible n, impossible m for a simple graph.
        let mut buf = Vec::new();
        buf.extend_from_slice(CSR_MAGIC);
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::BadFormat(_)), "{err}");
        assert!(err.to_string().contains("edge count"));

        // In-bounds header lengths with no data behind them: preallocation
        // is capped, so this hits EOF instead of exhausting memory.
        let mut buf = Vec::new();
        buf.extend_from_slice(CSR_MAGIC);
        buf.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(read_csr(buf.as_slice()), Err(GraphError::Io(_))));
    }
}
