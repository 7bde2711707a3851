package mutate

import (
	"context"
	"slices"
	"sync"
)

// Batcher implements group commit on arrival: callers submit small op
// slices and block; a single flusher goroutine takes whatever is queued
// the moment it is free (up to a size cap), hands it to the commit
// function once, and then answers every waiting caller individually. No
// request waits for company: a lone writer is committed at once, and
// under concurrent writers company forms by itself while the previous
// commit's fsync is in flight — which is what amortizes the per-commit
// cost (one WAL append + at most one fsync) across them.
type Batcher struct {
	reqs   chan request
	stop   chan struct{}
	wg     sync.WaitGroup
	mu     sync.RWMutex // guards closed vs. in-flight Submit sends
	closed bool

	maxOps int
	commit func(ops []Op, sync bool) error
}

// request is one caller's submission. A request with no ops is a flush
// barrier: it closes the batch it lands in, forces that commit durable,
// and is answered after it completes.
type request struct {
	ops  []Op
	resp chan error
}

const defaultBatchOps = 128

// NewBatcher starts a batcher whose commits carry the requests queued
// when the flusher picks up, cut off once maxOps ops have accumulated
// (<=0: 128). commit is called from a single goroutine, never
// concurrently; sync is true when the batch contained a flush barrier and
// the commit must be forced durable regardless of the WAL's fsync policy.
func NewBatcher(maxOps int, commit func(ops []Op, sync bool) error) *Batcher {
	if maxOps <= 0 {
		maxOps = defaultBatchOps
	}
	b := &Batcher{
		reqs:   make(chan request, 64), // submitters that queue without blocking while a commit is in flight
		stop:   make(chan struct{}),
		maxOps: maxOps,
		commit: commit,
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// Submit queues ops for the next group commit and waits until that
// commit is durable (per the WAL's fsync policy) or ctx is done. A
// context abort abandons only this caller's wait: the batch itself still
// commits, so a caller that gave up may still find its ops applied —
// exactly the contract of any write that times out in flight.
//
// Submitting zero ops is a flush barrier: it returns once everything
// queued before it has been committed and forced durable.
func (b *Batcher) Submit(ctx context.Context, ops []Op) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	req := request{ops: ops, resp: make(chan error, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	select {
	case b.reqs <- req:
		b.mu.RUnlock()
	default:
		// Queue full: wait, but drop the read lock first so Close isn't
		// blocked behind a stalled queue.
		b.mu.RUnlock()
		select {
		case b.reqs <- req:
		case <-b.stop:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case err := <-req.resp:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting submissions, commits anything still queued, and
// waits for the flusher to exit.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()
}

func (b *Batcher) run() {
	defer b.wg.Done()
	for {
		select {
		case first := <-b.reqs:
			b.flush(first, false)
		case <-b.stop:
			// Commit whatever is still queued, so a caller that managed
			// to enqueue before Close is answered rather than abandoned.
			for {
				select {
				case first := <-b.reqs:
					b.flush(first, true)
				default:
					return
				}
			}
		}
	}
}

// flush commits first together with everything queued behind it right
// now — up to maxOps ops or a barrier — and answers every caller in the
// batch.
func (b *Batcher) flush(first request, sync bool) {
	batch := []request{first}
	ops := slices.Clone(first.ops)
	barrier := len(first.ops) == 0
gather:
	for len(ops) < b.maxOps && !barrier {
		select {
		case req := <-b.reqs:
			batch = append(batch, req)
			ops = append(ops, req.ops...)
			barrier = len(req.ops) == 0
		default:
			break gather
		}
	}
	err := b.commit(ops, sync || barrier)
	for _, req := range batch {
		req.resp <- err
	}
}
