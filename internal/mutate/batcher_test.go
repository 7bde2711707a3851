package mutate

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectCommits is a commit func that records every batch it was handed.
// When block is non-nil, every commit first receives from it — tests hold
// the flusher inside a commit by withholding tokens, and release it (or
// all future commits) by sending or closing.
type collectCommits struct {
	mu      sync.Mutex
	batches [][]Op
	syncs   []bool
	err     error         // returned from every commit when set
	entered chan struct{} // buffered; signalled on commit entry, before blocking
	block   chan struct{}
}

func (c *collectCommits) commit(ops []Op, sync bool) error {
	if c.entered != nil {
		c.entered <- struct{}{}
	}
	if c.block != nil {
		<-c.block
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batches = append(c.batches, append([]Op(nil), ops...))
	c.syncs = append(c.syncs, sync)
	return c.err
}

func (c *collectCommits) totalOps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, b := range c.batches {
		n += len(b)
	}
	return n
}

// parkFlusher submits one op that the flusher picks up alone and holds
// inside its commit (c.block withholds the token), and returns the channel
// that Submit answers on.
func parkFlusher(b *Batcher, c *collectCommits) chan error {
	parked := make(chan error, 1)
	go func() { parked <- b.Submit(context.Background(), []Op{{From: 0, To: 1}}) }()
	<-c.entered
	return parked
}

// queueBehind starts k single-op submitters and waits until all of them
// sit in the queue behind the parked flusher.
func queueBehind(b *Batcher, k int) chan error {
	done := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(i int) {
			done <- b.Submit(context.Background(), []Op{{From: uint32(i + 10), To: 1}})
		}(i)
	}
	for len(b.reqs) != k {
		time.Sleep(time.Millisecond)
	}
	return done
}

// TestBatcherLoneSubmitCommitsOnArrival: there is no window to wait out.
// One submission, far below the size cap and with nothing behind it, is
// committed by its arrival alone — one commit, carrying that op.
func TestBatcherLoneSubmitCommitsOnArrival(t *testing.T) {
	c := &collectCommits{}
	b := NewBatcher(1000, c.commit)
	defer b.Close()
	if err := b.Submit(context.Background(), []Op{{From: 1, To: 2}}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.batches) != 1 || len(c.batches[0]) != 1 || c.syncs[0] {
		t.Fatalf("commits = %v (sync %v), want exactly one with the op, not forced durable", c.batches, c.syncs)
	}
}

// TestBatcherCompanyFormsBehindACommit: group commit without a timer. K
// submitters that arrive while a commit is in flight are answered by
// exactly one following commit carrying all K.
func TestBatcherCompanyFormsBehindACommit(t *testing.T) {
	const writers = 8
	c := &collectCommits{entered: make(chan struct{}, 16), block: make(chan struct{})}
	b := NewBatcher(128, c.commit)
	defer b.Close()
	parked := parkFlusher(b, c)
	done := queueBehind(b, writers)
	close(c.block)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writers; i++ {
		if err := <-done; err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.batches) != 2 || len(c.batches[1]) != writers {
		t.Fatalf("commits = %v, want the parked op, then one commit carrying all %d", c.batches, writers)
	}
}

// TestBatcherCutsAtSize: a commit takes at most maxOps ops of what is
// queued; the rest ride the next one.
func TestBatcherCutsAtSize(t *testing.T) {
	c := &collectCommits{entered: make(chan struct{}, 16), block: make(chan struct{})}
	b := NewBatcher(2, c.commit)
	defer b.Close()
	parked := parkFlusher(b, c)
	done := queueBehind(b, 4)
	close(c.block)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.batches) != 3 || len(c.batches[1]) != 2 || len(c.batches[2]) != 2 {
		t.Fatalf("commits = %v, want 1 op, then 2, then 2", c.batches)
	}
}

// TestBatcherBarrier: a barrier queued behind ops rides their commit and
// flags it sync, so the WAL fsyncs it even under FsyncNever. This is the
// Flush durability contract.
func TestBatcherBarrier(t *testing.T) {
	c := &collectCommits{entered: make(chan struct{}, 16), block: make(chan struct{})}
	b := NewBatcher(1000, c.commit)
	defer b.Close()

	// A sacrificial barrier is committed alone, parking the flusher inside
	// commit #1. While it is parked, enqueue — in order — an op and then a
	// barrier: they become commit #2.
	sacrificial := make(chan error, 1)
	go func() { sacrificial <- b.Submit(context.Background(), nil) }()
	<-c.entered // flusher is inside commit #1
	opDone := make(chan error, 1)
	go func() { opDone <- b.Submit(context.Background(), []Op{{From: 1, To: 2}}) }()
	for len(b.reqs) != 1 {
		time.Sleep(time.Millisecond)
	}
	barrierDone := make(chan error, 1)
	go func() { barrierDone <- b.Submit(context.Background(), nil) }()
	for len(b.reqs) != 2 {
		time.Sleep(time.Millisecond)
	}
	c.block <- struct{}{} // release commit #1
	<-c.entered           // flusher is inside commit #2
	c.block <- struct{}{} // release commit #2
	for _, ch := range []chan error{sacrificial, opDone, barrierDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("barrier was never answered")
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.batches) != 2 {
		t.Fatalf("%d commits, want 2: %v", len(c.batches), c.batches)
	}
	if len(c.batches[1]) != 1 || !c.syncs[1] {
		t.Fatalf("commit #2 = %d ops, sync=%v — want the op with sync=true",
			len(c.batches[1]), c.syncs[1])
	}
	if !c.syncs[0] {
		t.Fatal("barrier-only commit #1 not marked sync")
	}
}

func TestBatcherCommitErrorReachesAllCallers(t *testing.T) {
	want := errors.New("disk on fire")
	c := &collectCommits{err: want}
	b := NewBatcher(2, c.commit)
	defer b.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Submit(context.Background(), []Op{{From: uint32(i), To: 9}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, want) {
			t.Fatalf("caller %d got %v, want the commit error", i, err)
		}
	}
}

func TestBatcherContextCancelAbandonsWaitNotBatch(t *testing.T) {
	c := &collectCommits{entered: make(chan struct{}, 16), block: make(chan struct{})}
	b := NewBatcher(1, c.commit)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Submit(ctx, []Op{{From: 1, To: 2}}) }()
	<-c.entered // the op's batch is inside commit; cancel the waiting caller
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit = %v, want context.Canceled", err)
	}
	// The batch still commits — the caller abandoned the wait, not the write.
	c.block <- struct{}{}
	deadline := time.Now().Add(5 * time.Second)
	for c.totalOps() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned batch never committed (ops=%d)", c.totalOps())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatcherPreCancelledContext(t *testing.T) {
	c := &collectCommits{}
	b := NewBatcher(1, c.commit)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Submit(ctx, []Op{{From: 1, To: 2}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit = %v, want context.Canceled", err)
	}
	if got := c.totalOps(); got != 0 {
		t.Fatalf("pre-cancelled submit committed %d ops", got)
	}
}

// TestBatcherCloseDrainsQueued: submissions that made it into the queue
// before Close must be committed and acknowledged, not abandoned.
func TestBatcherCloseDrainsQueued(t *testing.T) {
	c := &collectCommits{entered: make(chan struct{}, 16), block: make(chan struct{})}
	b := NewBatcher(1, c.commit)
	// The first submission is picked up alone and parks inside commit #1.
	first := make(chan error, 1)
	go func() { first <- b.Submit(context.Background(), []Op{{From: 0, To: 1}}) }()
	<-c.entered
	// Queue more behind the parked flusher.
	const queued = 4
	var wg sync.WaitGroup
	var acked atomic.Int32
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.Submit(context.Background(), []Op{{From: uint32(i + 10), To: 1}}); err == nil {
				acked.Add(1)
			}
		}(i)
	}
	for len(b.reqs) != queued {
		time.Sleep(time.Millisecond)
	}
	// Begin Close while everything is still queued, then release the
	// flusher for good: it must answer the parked caller, notice the
	// stop, and drain the queue.
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	for {
		b.mu.RLock()
		done := b.closed
		b.mu.RUnlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(c.block)
	wg.Wait()
	<-closed
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if int(acked.Load()) != queued {
		t.Fatalf("%d queued submissions acked across Close, want %d", acked.Load(), queued)
	}
	if got := c.totalOps(); got != queued+1 {
		t.Fatalf("ops committed = %d, want %d", got, queued+1)
	}
	// After Close, submissions refuse.
	if err := b.Submit(context.Background(), []Op{{From: 1, To: 2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestBatcherCloseIdempotent(t *testing.T) {
	b := NewBatcher(1, (&collectCommits{}).commit)
	b.Close()
	b.Close()
}
