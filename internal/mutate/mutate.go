// Package mutate is the live-mutation subsystem behind reach.DB's
// AddEdge/RemoveEdge/Flush API: the machinery that makes a frozen,
// immutable index writable without ever serving a wrong or unavailable
// answer. It has three cooperating layers (the fourth, the background
// reindexer, lives in the root package next to the index builders):
//
//   - Batcher: group commit on arrival. Callers submit small op slices
//     and block on a per-caller response channel; a single flusher
//     goroutine takes whatever is queued when it is free, commits it
//     once, and answers every caller individually — no window, no
//     timer. Context cancellation abandons the wait, not the batch.
//   - Log: a write-ahead log on the internal/persist container codec.
//     One "batch" section per group commit, CRC-32C over the payload,
//     configurable fsync policy, and recovery that replays the longest
//     intact prefix and truncates a torn tail — corrupted or truncated
//     bytes are always an error, never a panic, and never silently
//     accepted.
//   - Overlay: the delta the frozen index does not know about, as two
//     sorted runs of net added/removed edge keys. Queries traverse the
//     small delta and consult the frozen index for the rest, so answers
//     stay exact between background rebuilds. Overlays are immutable:
//     a commit merges its batch into fresh runs and publishes them
//     through an atomic pointer, readers never lock.
//
// The package is deliberately unlabeled-only (uint32 vertex pairs): the
// root package gates DBConfig.Mutation to unlabeled graphs, where the
// plain transitive closure is the exactness oracle.
package mutate

import "errors"

// Fault-injection site names on the mutation path (see
// internal/faultinject). Error plans at the WAL sites simulate disk
// faults mid-commit; a Panic plan at the rebuild site simulates a
// broken index build during the background fold.
const (
	// SiteWALAppend fires before a batch's bytes are written.
	SiteWALAppend = "wal/append"
	// SiteWALFsync fires between the write and the fsync, so injected
	// failures leave written-but-unsynced bytes for rollback to clean up.
	SiteWALFsync = "wal/fsync"
	// SiteRebuild fires at the start of one background reindex attempt.
	SiteRebuild = "mutate/rebuild"
)

// ErrClosed reports a mutation submitted after Close began.
var ErrClosed = errors.New("mutate: mutation pipeline closed")

// Op is one edge mutation. From/To are graph vertex ids (validated
// against the vertex universe by the caller before submission); Label is
// carried for forward compatibility and is 0 on unlabeled graphs.
type Op struct {
	Remove   bool
	From, To uint32
	Label    uint32
}

// Stats is the point-in-time mutation view reach.DB.MutationStats
// reports and /admin/stats serves.
type Stats struct {
	OverlayAdded   int    `json:"overlay_added"`
	OverlayRemoved int    `json:"overlay_removed"`
	WALSeq         uint64 `json:"wal_seq"`
	WALBytes       int64  `json:"wal_bytes"`
	Replayed       int    `json:"replayed,omitempty"`
	RecoveredTail  string `json:"recovered_tail,omitempty"`
	Rebuilding     bool   `json:"rebuilding,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
}
