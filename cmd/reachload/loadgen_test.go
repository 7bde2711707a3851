package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers /v1/reach at once, except that request number
// stallAt sleeps for stall first.
func stallServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"reachable":false}` + "\n"))
	}))
}

// TestOpenLoopChargesStallToDueRequests is the coordinated-omission check.
// One connection, 1000 req/s for 1.2 s (a 200 ms warm-up window and five
// timed ones), and a server that stalls 200 ms on the 400th request, the
// start of the second timed window: 200 requests fall due during the stall,
// and the open loop must charge each of them the part of the stall it
// waited out, so that window's median is tens of milliseconds. A closed loop on the
// same server sees one slow request and a sub-millisecond median.
func TestOpenLoopChargesStallToDueRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	rc := &runCtx{}
	st := &stream{key: 1, n: 1000, verify: nil}
	noVerifyDraw := func(i uint64) uint64 { return i*verifyEvery + 1 } // stay off the verification slots

	srv := stallServer(400, stall)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	op, closeConns := rc.reachOps(addr, 1, st)
	open := openLoop(1, 1000, 1200*time.Millisecond, func(w int, i uint64) (int, int) { return op(w, noVerifyDraw(i)) }, nil)
	closeConns()
	if open.Failed != 0 || open.Attempted != 1200 {
		t.Fatalf("open loop: attempted %d failed %d (%v)", open.Attempted, open.Failed, rc.faults)
	}
	if got := open.P50us.Values[1]; got < 50_000 {
		t.Errorf("open loop: second-window median %.0f us; the 200 ms stall was not charged to the requests due during it", got)
	}
	if got := open.P50us.Values[0]; got > 20_000 {
		t.Errorf("open loop: first-window median %.0f us before any stall", got)
	}
	if got := open.P50us.Values[4]; got > 20_000 {
		t.Errorf("open loop: last-window median %.0f us; the backlog should have drained long before", got)
	}
	if open.BacklogMax < 100 {
		t.Errorf("open loop: backlog_max %d, want the ~200 requests that fell due during the stall", open.BacklogMax)
	}
	if open.LagP99us < 100_000 {
		t.Errorf("open loop: sched_lag_p99 %.0f us, want the generator's lateness during the stall to show", open.LagP99us)
	}

	srv2 := stallServer(400, stall)
	defer srv2.Close()
	op2, closeConns2 := rc.reachOps(strings.TrimPrefix(srv2.URL, "http://"), 1, st)
	closed := closedLoop(1, 1200*time.Millisecond, func(w int, i uint64) (int, int) { return op2(w, noVerifyDraw(i)) }, nil, 0)
	closeConns2()
	if closed.Failed != 0 {
		t.Fatalf("closed loop: %d failed (%v)", closed.Failed, rc.faults)
	}
	for w, got := range closed.P50us.Values {
		if got > 20_000 {
			t.Errorf("closed loop: window %d median %.0f us; a closed loop sees the stall once, not in its median", w, got)
		}
	}
}

// TestOpenLoopGivesUpWithoutFailing: a generator that is still behind
// openGrace past the phase's end stops and reports what it never sent as
// Unsent. The server never saw those requests, so they are not failures;
// the ones that were sent carry the stall in their latency.
func TestOpenLoopGivesUpWithoutFailing(t *testing.T) {
	srv := stallServer(1, time.Second)
	defer srv.Close()
	rc := &runCtx{}
	op, closeConns := rc.reachOps(strings.TrimPrefix(srv.URL, "http://"), 1, &stream{key: 1, n: 1000})
	defer closeConns()
	p := openLoop(1, 100, 500*time.Millisecond, func(w int, i uint64) (int, int) { return op(w, i*verifyEvery+1) }, nil)
	if p.Attempted != 1 || p.Failed != 0 || p.Unsent != 49 {
		t.Errorf("attempted %d failed %d unsent %d; want the stalled request attempted, none failed, the other 49 unsent (%v)",
			p.Attempted, p.Failed, p.Unsent, rc.faults)
	}
}

func TestSpansRecordAndDrop(t *testing.T) {
	var none *spanRec
	none.add(0, layerClient, 0, 1, 1, time.Now(), time.Now()) // the untraced run: must not panic

	rec := newSpanRec(2)
	t0 := time.Now()
	rec.add(0, layerClient, 0, 7, 1, t0, t0.Add(time.Millisecond))
	rec.add(1, layerDB, layerHandler, 7, 64, t0, t0.Add(time.Microsecond))
	path := t.TempDir() + "/spans.csv"
	kept, dropped, err := rec.writeCSV(path)
	if err != nil || kept != 2 || dropped != 0 {
		t.Fatalf("writeCSV = %d, %d, %v", kept, dropped, err)
	}
}

// TestNoVerifyAvoidsVerificationSlots: while a writer changes the graph
// the static ground truth is void, so mixed-rw's readers must
// never draw from the verification set.
func TestNoVerifyAvoidsVerificationSlots(t *testing.T) {
	op := noVerify(func(_ int, i uint64) (int, int) {
		if i%verifyEvery == 0 {
			t.Fatalf("stream index %d is a verification slot", i)
		}
		return 1, 0
	})
	for i := uint64(0); i < 10*verifyEvery; i++ {
		op(0, i)
	}
}
