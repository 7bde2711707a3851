package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Layers a span can belong to. The benchmark records spans from its own
// side of each boundary — around the real HTTP call and, in the layer
// replays, around the call into each layer's public function; spans inside
// the program are a later change.
const (
	layerClient  = iota + 1 // one operation as the client sees it
	layerHandler            // server.Handler().ServeHTTP on a recorder
	layerDB                 // DB.ReachCtx / BatchReachCtx / Mutate
	layerIndex              // PlainIndex.Reach
)

var layerNames = [...]string{"", "client/op", "server/handler", "db/call", "index/probe"}

// span is one timed call. Spans of one request share req, the request's
// index in its generated stream, across the replays of that stream; parent
// names the layer whose call causes this one. ns-scale layers are timed in
// chunks, so calls says how many calls the span covers.
type span struct {
	layer, parent uint8
	calls         uint32
	req           uint64
	start, end    int64 // ns since the recorder was made
}

// maxSpansPerWorker bounds memory: past it spans are still timed (so the
// tracing overhead stays honest) but dropped, and the drop is reported.
const maxSpansPerWorker = 1 << 18

// spanRec keeps spans in memory, one buffer per worker so recording takes
// no lock, and writes them out when the run ends. A nil *spanRec records
// nothing: that is the untraced run.
type spanRec struct {
	t0      time.Time
	bufs    [][]span
	dropped []int64
}

func newSpanRec(workers int) *spanRec {
	return &spanRec{t0: time.Now(), bufs: make([][]span, workers), dropped: make([]int64, workers)}
}

func (r *spanRec) add(worker int, layer, parent uint8, req uint64, calls int, start, end time.Time) {
	if r == nil {
		return
	}
	if len(r.bufs[worker]) >= maxSpansPerWorker {
		r.dropped[worker]++
		return
	}
	r.bufs[worker] = append(r.bufs[worker], span{
		layer: layer, parent: parent, calls: uint32(calls), req: req,
		start: start.Sub(r.t0).Nanoseconds(), end: end.Sub(r.t0).Nanoseconds(),
	})
}

// writeCSV writes every kept span to path and returns (kept, dropped).
func (r *spanRec) writeCSV(path string) (kept, dropped int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "layer,parent,req,calls,start_ns,end_ns")
	for i, buf := range r.bufs {
		dropped += r.dropped[i]
		for _, s := range buf {
			fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", layerNames[s.layer], layerNames[s.parent], s.req, s.calls, s.start, s.end)
			kept++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return kept, dropped, err
	}
	return kept, dropped, f.Close()
}
