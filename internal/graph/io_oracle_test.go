package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// readOracle is the edge-list loop ReadLimited replaced: a string and a
// field slice per line, no reservation. It is kept as the reference the
// new reader must equal, result for result and error for error; only its
// scanner error carries the line number, as ReadLimited's now does.
func readOracle(r io.Reader, lim Limits) (*Digraph, error) {
	if lim.MaxVertices <= 0 {
		lim.MaxVertices = DefaultLimits.MaxVertices
	}
	if lim.MaxEdges <= 0 {
		lim.MaxEdges = DefaultLimits.MaxEdges
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	b := NewBuilder(0)
	lineNo, edges := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 && len(f) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %d", lineNo, len(f))
		}
		if edges++; edges > lim.MaxEdges {
			return nil, fmt.Errorf("graph: line %d: more than %d edges", lineNo, lim.MaxEdges)
		}
		u, err := parseVertex(b, f[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := parseVertex(b, f[1])
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
		if len(f) == 3 {
			l, err := b.TryLabelID(f[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
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
