// Package workload captures and replays query traces: the per-request
// record stream behind DBConfig.RecordWorkload, `reachserve -record`,
// and `reachcli replay`. A capture is what the survey's cost taxonomy
// needs to be actionable — which index wins depends on the workload's
// query-class mix, decided-rate, and fallback cost, so the workload has
// to be a recordable, replayable artifact, not a guess. The same format
// is the input of the index advisor (internal/advise, `reachcli advise`).
//
// On disk a capture is an internal/persist container (format
// "reach-workload") holding a run of "batch" sections, each a
// length-prefixed pack of records. Batching amortizes the container's
// per-section framing; the Recorder flushes every flushEvery records and
// on Flush/Close, and buffers each section fully before writing, so a
// torn tail from a crash surfaces as a decode error instead of silently
// dropping queries mid-record.
package workload

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/persist"
)

// Format and Version identify the capture container. Version 2 packs a
// cached bit alongside the outcome (bit 1 of the same word); version-1
// captures decode through the same path since they only ever wrote 0/1.
const (
	Format  = "reach-workload"
	Version = 2
)

// Record is one completed query: the inputs needed to re-run it
// exactly, plus the route, outcome, and latency observed at capture
// time. Exactly one of the query shapes applies: Labels non-empty means
// a QueryAllowed label-mask query, else Alpha non-empty means a
// path-constrained Query, else a plain Reach. Cached marks a query that
// was answered from the result cache at capture time — its latency is a
// cache-hit latency, not an index-probe latency, so replay scoring
// (the advisor's evaluator) must skip it.
type Record struct {
	S, T    uint32
	Alpha   string
	Labels  []uint16
	Route   string
	Outcome bool
	Cached  bool
	Latency time.Duration
}

// flushEvery is the records buffered per on-disk batch section.
const flushEvery = 256

// Recorder appends records to one capture stream. Safe for concurrent
// use — the query paths of a serving DB all funnel here — with one
// short critical section per record (encoding happens at flush).
type Recorder struct {
	mu  sync.Mutex
	pw  *persist.Writer
	buf []Record
	n   int64
}

// NewRecorder starts a capture on w (the container header is written
// immediately). The caller owns w and must call Close to flush.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{pw: persist.NewWriter(w, Format, Version)}
}

// Record appends one record, flushing a batch section when the buffer
// fills. Write errors are sticky in the underlying persist.Writer and
// surface on Flush/Close.
func (r *Recorder) Record(rec Record) {
	r.mu.Lock()
	r.buf = append(r.buf, rec)
	r.n++
	if len(r.buf) >= flushEvery {
		r.flushLocked()
	}
	r.mu.Unlock()
}

// Count reports the records appended so far.
func (r *Recorder) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *Recorder) flushLocked() {
	if len(r.buf) == 0 {
		return
	}
	recs := r.buf
	r.pw.Section("batch", func(e *persist.Encoder) {
		e.U32(uint32(len(recs)))
		for i := range recs {
			rec := &recs[i]
			e.U32(rec.S)
			e.U32(rec.T)
			e.String(rec.Alpha)
			labels := make([]uint32, len(rec.Labels))
			for j, l := range rec.Labels {
				labels[j] = uint32(l)
			}
			e.U32s(labels)
			e.String(rec.Route)
			out := uint32(0)
			if rec.Outcome {
				out |= 1
			}
			if rec.Cached {
				out |= 2
			}
			e.U32(out)
			e.U64(uint64(rec.Latency))
		}
	})
	r.buf = r.buf[:0]
}

// Flush writes any buffered records out as a batch section and reports
// the first underlying write error.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	_, err := r.pw.Flush()
	return err
}

// Close flushes and finalizes the capture, returning the first error
// seen anywhere in the stream. The Recorder must not be used after.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	_, err := r.pw.Close()
	return err
}

// Read decodes an entire capture. Malformed or truncated input is an
// error, never a panic (the persist decoder bounds every allocation).
func Read(rd io.Reader) ([]Record, error) {
	pr, err := persist.NewReader(rd, Format, Version)
	if err != nil {
		return nil, err
	}
	var out []Record
	for {
		name, dec, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if name != "batch" {
			return nil, fmt.Errorf("workload: unexpected section %q", name)
		}
		n := dec.U32()
		for i := uint32(0); i < n; i++ {
			rec := Record{
				S:     dec.U32(),
				T:     dec.U32(),
				Alpha: dec.String(),
			}
			raw := dec.U32s()
			if len(raw) > 0 {
				rec.Labels = make([]uint16, len(raw))
				for j, l := range raw {
					rec.Labels[j] = uint16(l)
				}
			}
			rec.Route = dec.String()
			flags := dec.U32()
			rec.Outcome = flags&1 != 0
			rec.Cached = flags&2 != 0
			rec.Latency = time.Duration(dec.U64())
			if err := dec.Err(); err != nil {
				return nil, err
			}
			out = append(out, rec)
		}
		if err := dec.Close(); err != nil {
			return nil, err
		}
	}
}
