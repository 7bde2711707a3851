package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"

	"repro/internal/faultinject"
)

// The exchange format is a line-oriented edge list:
//
//	# comment
//	u v          (plain edge)
//	u v label    (labeled edge; label is a name, ids are allocated in order)
//
// Vertex tokens that parse as unsigned integers are used as ids directly;
// otherwise they are treated as names and assigned dense ids on first use.

// Write serializes g in the edge-list exchange format.
func Write(w io.Writer, g *Digraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices=%d edges=%d labels=%d\n", g.N(), g.M(), g.Labels())
	var err error
	g.Edges(func(e Edge) bool {
		if g.Labeled() {
			_, err = fmt.Fprintf(bw, "%d %d %s\n", e.From, e.To, g.LabelName(e.Label))
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.From, e.To)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Limits bounds what ReadLimited will accept before giving up on an edge
// list. Both bounds exist because the format allows sparse numeric vertex
// ids: a single hostile line like "0 4294967295" would otherwise commit
// the reader to materializing a four-billion-vertex CSR.
type Limits struct {
	// MaxVertices caps the highest vertex id + 1 (and the number of named
	// vertices). 0 selects DefaultLimits.MaxVertices.
	MaxVertices int
	// MaxEdges caps the number of edge lines. 0 selects
	// DefaultLimits.MaxEdges.
	MaxEdges int
}

// DefaultLimits is what Read enforces: generous for any graph this
// library is realistically pointed at, small enough that a malformed or
// adversarial edge list fails with an error instead of an allocation
// blow-up.
var DefaultLimits = Limits{MaxVertices: 1 << 26, MaxEdges: 1 << 27}

// Read parses a graph in the edge-list exchange format, enforcing
// DefaultLimits. Use ReadLimited to choose different bounds.
func Read(r io.Reader) (*Digraph, error) {
	return ReadLimited(r, DefaultLimits)
}

// ReadLimited parses a graph in the edge-list exchange format. Malformed
// lines, oversized vertex ids, too many edges, too many labels, and
// overlong lines all surface as errors — never panics or unbounded
// allocation.
//
// A numeric edge line costs no allocation: fields are sliced out of the
// scanner's buffer, ids parsed in place and labels looked up by their
// bytes. The edge list is reserved from the "edges=" count Write puts in
// its header, but never beyond what the input can hold (see reserveEdges).
func ReadLimited(r io.Reader, lim Limits) (*Digraph, error) {
	if err := faultinject.HitErr("graph/read"); err != nil {
		return nil, err
	}
	if lim.MaxVertices <= 0 {
		lim.MaxVertices = DefaultLimits.MaxVertices
	}
	if lim.MaxEdges <= 0 {
		lim.MaxEdges = DefaultLimits.MaxEdges
	}
	size := inputSize(r)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20) // grows to 1 MiB for a long line
	b := NewBuilder(0)
	lineNo, edges := 0, 0
	var f [4][]byte
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		nf := splitFields(line, &f)
		if nf < 0 { // not ASCII: split at Unicode white space, as strings.Fields does
			words := bytes.Fields(line)
			nf = len(words)
			copy(f[:], words)
		}
		if nf == 0 || f[0][0] == '#' {
			if lineNo == 1 {
				b.edges = reserveEdges(line, size, lim.MaxEdges)
			}
			continue
		}
		if nf != 2 && nf != 3 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %d", lineNo, nf)
		}
		if edges++; edges > lim.MaxEdges {
			return nil, fmt.Errorf("graph: line %d: more than %d edges", lineNo, lim.MaxEdges)
		}
		u, err := readVertex(b, f[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := readVertex(b, f[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		hi := u
		if v > hi {
			hi = v
		}
		if int(hi) >= lim.MaxVertices {
			return nil, fmt.Errorf("graph: line %d: vertex id %d exceeds limit %d", lineNo, hi, lim.MaxVertices)
		}
		if nf == 3 {
			l, ok := b.labelIDs[string(f[2])]
			if !ok {
				if l, err = b.TryLabelID(string(f[2])); err != nil {
					return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
				}
			}
			b.AddLabeledEdge(u, v, l)
		} else {
			b.AddEdge(u, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: line %d: %w", lineNo+1, err)
	}
	return b.Freeze()
}

// asciiSpace marks the bytes strings.Fields and strings.TrimSpace treat as
// white space in ASCII text.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits an ASCII line at white space, keeping the first
// len(f) fields in f, and returns the number of fields. It returns -1 if
// the line holds a byte >= 0x80, whose white space only Unicode decoding
// can tell.
func splitFields(line []byte, f *[4][]byte) int {
	n := 0
	for i := 0; i < len(line); {
		c := line[i]
		if c >= 0x80 {
			return -1
		}
		if asciiSpace[c] {
			i++
			continue
		}
		j := i + 1
		for ; j < len(line) && !asciiSpace[line[j]]; j++ {
			if line[j] >= 0x80 {
				return -1
			}
		}
		if n < len(f) {
			f[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

// readVertex is parseVertex for a field in the scanner's buffer (never
// empty): a decimal id up to 2³²−1 is parsed in place, anything else is
// copied out for the name table.
func readVertex(b *Builder, tok []byte) (V, error) {
	var n uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return parseVertex(b, string(tok))
		}
		if n = n*10 + uint64(c-'0'); n > math.MaxUint32 {
			return parseVertex(b, string(tok))
		}
	}
	return V(n), nil
}

// inputSize returns the byte size r reports, through Stat on a regular
// file or Size on a bytes or strings reader, or -1 if it reports none.
func inputSize(r io.Reader) int64 {
	switch s := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	case interface{ Size() int64 }:
		return s.Size()
	}
	return -1
}

// reserveEdges returns an empty edge list with room for the edges a header
// line "# ... edges=N ..." announces, trusting N only as far as the input
// can hold: an edge line is at least 3 bytes, so at most ⌈size/3⌉ of them,
// and never more than maxEdges. Without a size or a count it returns nil,
// and the list grows as edges arrive.
func reserveEdges(header []byte, size int64, maxEdges int) []Edge {
	i := bytes.Index(header, []byte("edges="))
	if size < 0 || i < 0 {
		return nil
	}
	var n int64
	for _, c := range header[i+len("edges="):] {
		if c < '0' || c > '9' || n > size {
			break
		}
		n = n*10 + int64(c-'0')
	}
	n = min(n, (size+2)/3, int64(maxEdges))
	if n <= 0 {
		return nil
	}
	return make([]Edge, 0, n)
}

func parseVertex(b *Builder, tok string) (V, error) {
	if n, err := strconv.ParseUint(tok, 10, 32); err == nil {
		return V(n), nil
	}
	if tok == "" {
		return 0, fmt.Errorf("empty vertex token")
	}
	return b.NamedVertex(tok), nil
}
