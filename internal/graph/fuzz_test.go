package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the edge-list parser: it must never
// panic, it must agree with readOracle (the same graph, names included,
// or an error with the same text), and anything it accepts must
// round-trip through Write/Read into a graph with identical shape.
func FuzzRead(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("a knows b\nb knows c\n")
	f.Add("# comment\n\n3 4 lbl\n")
	f.Add("0 0\n")
	f.Add("999999 2\n")
	f.Add("x y z w\n")
	f.Add("0 1\r\n1 2\r\n2 0 r\r\n")                         // CRLF
	f.Add("0\t1\n\t1 \t2\t\n")                               // tabs
	f.Add("0\u00a01\n1 2\u00a0x\n")                          // U+00A0 between fields
	f.Add("0\u00851\n1\u0085 2\n")                           // U+0085 between fields
	f.Add("   # indented comment\n\t#x y\n0 1\n")            // '#' after leading space
	f.Add("007 0010\n00 0\n")                                // leading zeros
	f.Add("0 4294967295\n")                                  // largest id
	f.Add("0 4294967296\n4294967296 1\n")                    // one past it: a name
	f.Add("+1 -1\n-1 +1\n1 -1\n")                            // signs make names
	f.Add("a 3\n3 b\nb a\n7 a\n")                            // named and numeric mixed
	f.Add("0 1 r\n1 2 s\n2 0 r\n0 2\n")                      // labeled lines
	f.Add("# vertices=9 edges=1000000 labels=0\n0 1\n1 2\n") // header claims more edges
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in))
		want, werr := readOracle(strings.NewReader(in), DefaultLimits)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("Read err %v, oracle err %v", err, werr)
		}
		if err != nil {
			return
		}
		sameCSR(t, g, want)
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("reparse of our own output: %v", err)
		}
		if g2.M() != g.M() || g2.Labels() != g.Labels() {
			t.Fatalf("round trip changed shape: m %d->%d labels %d->%d",
				g.M(), g2.M(), g.Labels(), g2.Labels())
		}
	})
}
