package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// windows is how many equal windows a phase is timed over, after one more
// of the same length at its start that is warm-up: its operations are sent,
// checked and counted like the others, but not timed. A server's first
// seconds under a new load are not its steady state (the mixed workloads'
// reads run twice as fast before the first overlay edges land, and one run
// in seven a /v1/mutate of the first second waits 2-4 s for its fsync).
const (
	windows     = 5
	warmWindows = 1
)

// windowLen is the length of one window of a phase that lasts dur.
func windowLen(dur time.Duration) time.Duration { return dur / (windows + warmWindows) }

// opFunc performs the i-th operation of a stream on behalf of worker w. It
// returns the units of work attempted (1 request, or the pairs of a batch)
// and how many of them failed: a transport error, a status other than 200
// or a timeout fails them all, a wrong answer fails that unit.
type opFunc func(w int, i uint64) (units, bad int)

// phase is the outcome of one measured phase.
type phase struct {
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	OpsPerS   windowed `json:"ops_per_s"` // closed loop only
	P50us     windowed `json:"lat_p50_us"`
	P99us     windowed `json:"lat_p99_us"`
	Samples   int      `json:"samples"` // latency samples behind the quantiles
	// Open loop only: how late the generator itself ran.
	LagP50us   float64 `json:"sched_lag_p50_us,omitempty"`
	LagP99us   float64 `json:"sched_lag_p99_us,omitempty"`
	BacklogMax int64   `json:"backlog_max,omitempty"`
	Unsent     int64   `json:"unsent,omitempty"` // due but never sent, the phase having run out of grace
}

// tally is one worker's private record of a phase.
type tally struct {
	lat               [windows][]float64 // ns, per window
	units             [windows]int64
	attempted, failed int64
	lag               []float64
	backlogMax        int64
	unsent            int64
}

// record files an operation that completed (open loop: fell due) in window
// win of the phase, counted from its start, warm-up included.
func (t *tally) record(win, units, bad int, lat time.Duration) {
	t.attempted += int64(units)
	t.failed += int64(bad)
	win -= warmWindows
	if bad == units || win < 0 || win >= windows {
		return // failed outright, warm-up, or completed after the phase's end
	}
	t.lat[win] = append(t.lat[win], float64(lat))
	t.units[win] += int64(units - bad)
}

func merge(tallies []tally, winLen time.Duration) phase {
	var p phase
	var ops [windows]float64
	var p50, p99, lag []float64
	for w := 0; w < windows; w++ {
		var lat []float64
		var units int64
		for i := range tallies {
			lat = append(lat, tallies[i].lat[w]...)
			units += tallies[i].units[w]
		}
		p.Samples += len(lat)
		ops[w] = float64(units) / winLen.Seconds()
		if len(lat) == 0 {
			continue // nothing completed in this window (a stall longer than it): 0 op/s, and no latency to speak of
		}
		lo, hi := windowStats(lat)
		p50, p99 = append(p50, lo), append(p99, hi)
	}
	for i := range tallies {
		p.Attempted += tallies[i].attempted
		p.Failed += tallies[i].failed
		lag = append(lag, tallies[i].lag...)
		p.BacklogMax = max(p.BacklogMax, tallies[i].backlogMax)
		p.Unsent += tallies[i].unsent
	}
	p.OpsPerS, p.P50us, p.P99us = overWindows(ops[:]), overWindows(p50), overWindows(p99)
	if len(lag) > 0 {
		p.LagP50us, p.LagP99us = windowStats(lag)
	}
	return p
}

// closedLoop drives op from `workers` goroutines, each sending its next
// operation only when the previous one has completed, for dur. Worker w
// performs operations w, w+workers, w+2·workers, … of the stream. Spans go
// to rec under worker ids spanBase+w.
func closedLoop(workers int, dur time.Duration, op opFunc, rec *spanRec, spanBase int) phase {
	tallies := make([]tally, workers)
	winLen := windowLen(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			for i := uint64(w); ; i += uint64(workers) {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				units, bad := op(w, i)
				t1 := time.Now()
				rec.add(spanBase+w, layerClient, 0, i, 1, t0, t1)
				t.record(int(t1.Sub(start)/winLen), units, bad, t1.Sub(t0))
			}
		}(w)
	}
	wg.Wait()
	return merge(tallies, winLen)
}

// sleepSlack is how much earlier than the due time the pacing sleep is
// asked to end; the rest is spun. The kernel's sleep overshoots by about
// this much, and spinning the whole wait would take a core from the server.
const sleepSlack = 60 * time.Microsecond

// waitUntil returns the current time once it is no earlier than due. It
// sleeps in the kernel, not on a runtime timer: an idle Go scheduler waits
// in epoll with millisecond resolution, which cannot pace a 200 µs
// schedule.
func waitUntil(due time.Time) time.Time {
	now := time.Now()
	if wait := due.Sub(now); wait > sleepSlack {
		ts := syscall.NsecToTimespec(int64(wait - sleepSlack))
		syscall.Nanosleep(&ts, nil)
		now = time.Now()
	}
	for now.Before(due) {
		now = time.Now()
	}
	return now
}

// openGrace is how long past its scheduled end, as a share of its length,
// an open-loop phase keeps sending what was due. A generator that far
// behind stops: the requests it never sent are reported as Unsent, not as
// failed, because the system under test never saw them, and the latency of
// those it did send, timed from their due times, already says the rate was
// not met.
const openGrace = 0.5

// openLoop sends operation i at start + i/rate whether or not earlier ones
// have completed (as far as `workers` connections allow) and times each
// from the moment it was due, so a stall is charged to every request that
// was due during it, not only to the one that hit it.
func openLoop(workers int, rate float64, dur time.Duration, op opFunc, rec *spanRec) phase {
	tallies := make([]tally, workers)
	interval := time.Duration(float64(time.Second) / rate)
	total := uint64(dur / interval)
	start := time.Now()
	giveUp := start.Add(dur + time.Duration(openGrace*float64(dur)))
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				now := waitUntil(due)
				if now.After(giveUp) {
					t.unsent++
					continue
				}
				t.lag = append(t.lag, float64(now.Sub(due)))
				t.backlogMax = max(t.backlogMax, int64(now.Sub(start)/interval)-int64(i))
				units, bad := op(w, i)
				t1 := time.Now()
				rec.add(w, layerClient, 0, i, 1, now, t1)
				t.record(int(i*(windows+warmWindows)/total), units, bad, t1.Sub(due))
			}
		}(w)
	}
	wg.Wait()
	return merge(tallies, windowLen(dur))
}
