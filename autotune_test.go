package reach

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestAutoTuneConfigValidation(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 50, M: 100, Seed: 1})
	bad := []DBConfig{
		{AutoTune: &AutoTuneConfig{MinImprovement: -1}},
		{AutoTune: &AutoTuneConfig{MinSamples: -1}},
		{AutoTune: &AutoTuneConfig{CheckInterval: -time.Second}},
		{AutoTune: &AutoTuneConfig{Candidates: []Kind{"no-such-kind"}}},
	}
	for i, cfg := range bad {
		if _, err := NewDB(g, cfg); !errors.Is(err, ErrBadOptions) {
			t.Errorf("config %d: err = %v, want ErrBadOptions", i, err)
		}
	}
	// An engine installed pre-built has no producer to retune it.
	ix, err := Build(KindBFL, g, Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := NewDB(g, DBConfig{PlainIndex: ix, AutoTune: &AutoTuneConfig{}}); !errors.Is(err, ErrPrebuiltEngine) || !errors.Is(err, ErrBadOptions) {
		t.Errorf("PlainIndex+AutoTune: err = %v, want ErrPrebuiltEngine (an ErrBadOptions)", err)
	}
	// Status reads false when the tuner is off.
	db, err := NewDB(g, DBConfig{})
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	defer db.Close()
	if _, ok := db.AdvisorStatus(); ok {
		t.Error("AdvisorStatus ok on a DB without AutoTune")
	}
}

// TestAutoTuneHotSwap is the acceptance e2e: a DB starts on a
// deliberately slow plain index (GRIPP: interval-guided traversal per
// probe), live traffic flows, and the auto-tuner shadow-builds the
// advisor's pick and hot-swaps it in — with zero failed and zero wrong
// requests across the swap.
func TestAutoTuneHotSwap(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 2000, M: 8000, Seed: 42})
	qs := gen.Queries(g, 512, 43)
	db, err := NewDB(g, DBConfig{
		Plain:   KindGRIPP,
		Metrics: true,
		AutoTune: &AutoTuneConfig{
			CheckInterval:  20 * time.Millisecond,
			MinImprovement: 0.01,
			MinSamples:     64,
			SampleWindow:   256,
			Candidates:     []Kind{KindPLL},
		},
	})
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	defer db.Close()

	status, ok := db.AdvisorStatus()
	if !ok || status.CurrentKind != string(KindGRIPP) || status.InitialKind != string(KindGRIPP) {
		t.Fatalf("initial advisor status = %+v ok=%v", status, ok)
	}

	// Live traffic: hammer the DB from several goroutines until told to
	// stop, verifying every answer against the BFS ground truth.
	var (
		stop     atomic.Bool
		failed   atomic.Int64
		wrong    atomic.Int64
		answered atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := off; !stop.Load(); i++ {
				q := qs[i%len(qs)]
				got, err := db.Reach(q.S, q.T)
				switch {
				case err != nil:
					failed.Add(1)
				case got != q.Want:
					wrong.Add(1)
				default:
					answered.Add(1)
				}
			}
		}(w * 131)
	}

	// Wait for the swap (PLL beats GRIPP probes by far more than 1%).
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _ = db.AdvisorStatus()
		if status.Metrics.Swaps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("no swap within deadline; status %+v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Keep traffic flowing across and past the swap, then drain.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if failed.Load() != 0 || wrong.Load() != 0 {
		t.Fatalf("across hot swap: %d failed, %d wrong (answered %d)", failed.Load(), wrong.Load(), answered.Load())
	}
	if answered.Load() == 0 {
		t.Fatal("no traffic answered")
	}
	if status.CurrentKind != string(KindPLL) || status.InitialKind != string(KindGRIPP) {
		t.Fatalf("post-swap kinds = %q from %q, want pll from gripp", status.CurrentKind, status.InitialKind)
	}
	if status.Report == nil || status.Report.Chosen != string(KindPLL) {
		t.Fatalf("post-swap report = %+v", status.Report)
	}

	// The swapped-in index keeps serving after Close stops the loop.
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, q := range qs[:64] {
		got, err := db.Reach(q.S, q.T)
		if err != nil || got != q.Want {
			t.Fatalf("post-close query (%d,%d): got %v err %v", q.S, q.T, got, err)
		}
	}
}

// TestAutoTuneSticksWithWinner: when the serving index is already the
// best candidate, evaluations run but never swap.
func TestAutoTuneNoSwapWhenBest(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 800, M: 3200, Seed: 9})
	db, err := NewDB(g, DBConfig{
		Plain: KindPLL,
		AutoTune: &AutoTuneConfig{
			CheckInterval: 15 * time.Millisecond,
			MinSamples:    32,
			Candidates:    []Kind{KindPLL},
		},
	})
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	defer db.Close()
	qs := gen.Queries(g, 128, 10)
	for _, q := range qs {
		if _, err := db.Reach(q.S, q.T); err != nil {
			t.Fatalf("Reach: %v", err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		status, _ := db.AdvisorStatus()
		if status.Metrics.Evaluations >= 1 {
			if status.Metrics.Swaps != 0 {
				t.Fatalf("swapped to the kind already serving: %+v", status)
			}
			if status.CurrentKind != string(KindPLL) {
				t.Fatalf("serving kind changed: %+v", status)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no evaluation within deadline; status %+v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
