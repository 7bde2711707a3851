package reach

// Sharded serving: partition the condensation DAG into k edge-balanced
// shards (internal/shard), build one plain index per shard in parallel,
// and answer global queries through a 2-hop summary over the boundary
// vertices. The sharded engine implements Index, so it slots into DB as
// the plain engine — every DB entry point (Reach, Query, caching,
// metrics, HTTP serving) works unchanged, and a batch scatter-gathers
// buckets across shards (the engine is a core.BatchIndex). See DESIGN.md
// ("Sharding").

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/shard"
)

// kindSharded is the Kind reported by a DB whose plain engine is the
// sharded scatter-gather index. It is not buildable through Build — use
// NewShardedDB — but appears as the DB's plain kind.
const kindSharded Kind = "sharded"

// ShardedConfig configures NewShardedDB.
type ShardedConfig struct {
	// Shards is the partition width k. Values below 2 build a single
	// shard (still through the shard engine, so the query surface and
	// observability are identical — useful as a baseline).
	Shards int
	// Plain selects the per-shard index kind. Default KindBFL.
	Plain Kind
	// Options passes the per-technique tunables to every shard build;
	// Options.Workers also caps the parallel shard fan-out.
	Options Options
	// Metrics enables the DB observability layer plus per-shard
	// footprint gauges (index "shard/<i>" and "shard/summary").
	Metrics bool
	// CacheSize enables the DB's sharded query-result cache.
	CacheSize int
	// RecordWorkload captures completed queries (see DBConfig).
	RecordWorkload *WorkloadRecorder
	// SnapshotPrefix, when non-empty, warm-starts each shard's index
	// from "<prefix>.shard<i>" when such a file exists and is loadable,
	// and writes the missing (or unreadable) ones after a fresh build —
	// so the first boot populates the per-shard snapshots the next boot
	// maps. Requires a snapshottable Plain kind (BFL, PLL, DL).
	SnapshotPrefix string
	// Mapped page-maps each per-shard snapshot at load (zero-copy warm
	// start) instead of reading it into memory. The file layout is the
	// same either way.
	Mapped bool
}

// ShardedDB is a DB whose plain engine shards the graph: same query
// surface, per-shard scatter-gather underneath. The embedded DB is fully
// functional (the HTTP layer serves it directly).
type ShardedDB struct {
	*DB
	engine *shard.Index
}

// Engine returns the underlying sharded index.
func (s *ShardedDB) Engine() *shard.Index { return s.engine }

// NewShardedDB builds a sharded DB over g.
func NewShardedDB(g *Graph, cfg ShardedConfig) (*ShardedDB, error) {
	return NewShardedDBCtx(context.Background(), g, cfg)
}

// NewShardedDBCtx is NewShardedDB under a context: per-shard builds poll
// ctx at cooperative checkpoints. Failure is all-or-nothing — an error or
// panic in any shard's build fails construction (panics surface as
// ErrIndexPanic); there is no partially-sharded serving state.
func NewShardedDBCtx(ctx context.Context, g *Graph, cfg ShardedConfig) (sdb *ShardedDB, err error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadOptions)
	}
	if cfg.Plain == "" {
		cfg.Plain = KindBFL
	}
	if row, _ := core.Plain(string(cfg.Plain)); cfg.SnapshotPrefix != "" && row.Snapshot == "" {
		return nil, fmt.Errorf("%w: per-shard snapshots need Plain in %q, not %q",
			ErrBadOptions, snapshotKinds(), cfg.Plain)
	}
	if err := checkBuild(ctx, g, cfg.Options); err != nil {
		return nil, err
	}
	defer core.Recover(&err)
	if cfg.Options.Prepared == nil {
		cfg.Options.Prepared = Prepare(g)
	}
	engine, err := buildShardEngine(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	db, err := NewDBCtx(ctx, g, DBConfig{
		Plain:          kindSharded,
		PlainIndex:     engine,
		Options:        cfg.Options,
		Metrics:        cfg.Metrics,
		CacheSize:      cfg.CacheSize,
		RecordWorkload: cfg.RecordWorkload,
	})
	if err != nil {
		return nil, err
	}
	if db.metrics != nil {
		for i := 0; i < engine.K(); i++ {
			if b, ok := core.SizesOf(engine.Shard(i)); ok {
				db.metrics.Index(fmt.Sprintf("shard/%d", i)).
					SetFootprint(int64(b.Offsets), int64(b.Labels), int64(b.Aux))
			}
		}
		sum := engine.Summary()
		db.metrics.Index("shard/summary").SetFootprint(0, 0, int64(sum.IndexBytes))
	}
	return &ShardedDB{DB: db, engine: engine}, nil
}

// buildShardEngine partitions g and builds (or warm-starts) the per-shard
// indexes in parallel.
func buildShardEngine(ctx context.Context, g *Graph, cfg ShardedConfig) (*shard.Index, error) {
	build := func(i int, sub *graph.Digraph) (core.Index, error) {
		opt := cfg.Options
		// The memo and span recorder are bound to the full graph (and the
		// recorder is not safe under the concurrent shard fan-out); each
		// shard build runs self-contained over its sub-DAG.
		opt.Prepared = nil
		opt.Spans = nil
		path := shardSnapshotPath(cfg.SnapshotPrefix, i)
		if path != "" {
			if ix, err := loadShardSnapshot(path, sub, opt, cfg.Mapped); err == nil {
				return ix, nil
			}
			// Missing or unreadable snapshot: fall through to a fresh
			// build and rewrite it below.
		}
		ix, err := BuildCtx(ctx, cfg.Plain, sub, opt)
		if err != nil {
			return nil, err
		}
		if path != "" {
			if err := saveShardSnapshot(path, ix); err != nil {
				return nil, err
			}
		}
		return ix, nil
	}
	return shard.Build(cfg.Options.Prepared, cfg.Shards, cfg.Options.Workers, build)
}

// shardSnapshotPath names shard i's snapshot file, or "" when snapshots
// are disabled.
func shardSnapshotPath(prefix string, i int) string {
	if prefix == "" {
		return ""
	}
	return fmt.Sprintf("%s.shard%d", prefix, i)
}

func loadShardSnapshot(path string, sub *graph.Digraph, opt Options, mapped bool) (Index, error) {
	if mapped {
		return LoadIndexMapped(path, sub, opt)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadIndex(f, sub, opt)
}

// saveShardSnapshot writes atomically (temp file + rename), so a crash
// mid-write never leaves a torn snapshot a later boot would reject.
func saveShardSnapshot(path string, ix Index) error {
	f, err := os.CreateTemp(filepath.Dir(path), "shard-snap-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = SaveIndex(f, ix)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// shardEngine unwraps an index (through instrumentation wrappers) to the
// sharded engine, when that is what serves the plain route.
func shardEngine(ix Index) (*shard.Index, bool) {
	for ix != nil {
		if sx, ok := ix.(*shard.Index); ok {
			return sx, true
		}
		iw, ok := ix.(interface{ Inner() Index })
		if !ok {
			return nil, false
		}
		ix = iw.Inner()
	}
	return nil, false
}

// ShardInfo reports the per-shard census (sub-DAG size, boundary counts,
// local index footprint, accumulated probe count) and the boundary
// summary when the DB's plain engine is sharded; ok is false otherwise.
// The server's /admin/shards endpoint serves this.
func (db *DB) ShardInfo() (shards []shard.ShardInfo, summary shard.SummaryInfo, ok bool) {
	sx, ok := shardEngine(db.cur.Load().ix)
	if !ok {
		return nil, shard.SummaryInfo{}, false
	}
	return sx.Shards(), sx.Summary(), true
}
