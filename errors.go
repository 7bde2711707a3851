package reach

// This file is the public face of the hardened serving layer: the typed
// error set every entry point reports through, and the Options validation
// shared by the Build* family and the DB constructors. See DESIGN.md
// ("Failure model") for the contract.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// The typed error set. Every public entry point reports failures that
// wrap exactly one of these sentinels, so callers can dispatch with
// errors.Is regardless of which index kind produced the failure.
var (
	// ErrVertexRange reports a query vertex outside [0, g.N()).
	ErrVertexRange = core.ErrVertexRange
	// ErrBadOptions reports invalid build options or an unusable input
	// graph (nil, or unlabeled where labels are required).
	ErrBadOptions = core.ErrBadOptions
	// ErrBadQuery reports a malformed path-constraint expression, or a
	// constraint that cannot be answered on this graph (a genuinely
	// labeled constraint over an unlabeled graph).
	ErrBadQuery = core.ErrBadQuery
	// ErrBuildCanceled reports a build abandoned at a cooperative
	// checkpoint because its context was canceled.
	ErrBuildCanceled = core.ErrBuildCanceled
	// ErrIndexPanic reports a panic inside an index implementation that
	// was contained at the public boundary instead of crashing the caller.
	ErrIndexPanic = core.ErrIndexPanic
)

// ErrNotMutable reports a mutation (AddEdge/RemoveEdge/mutate endpoint)
// against a DB built without DBConfig.Mutation.
var ErrNotMutable = errors.New("reach: DB is not mutable (no DBConfig.Mutation)")

// ErrPrebuiltEngine is why live mutation refuses a configuration: its
// reindexer replaces the serving index by building a new one of a kind the
// DB knows how to build, and an engine handed over pre-built
// (DBConfig.PlainIndex — how NewShardedDB mounts the sharded engine) has no
// such producer. It wraps ErrBadOptions.
var ErrPrebuiltEngine = fmt.Errorf("%w: an engine installed pre-built (PlainIndex, the sharded mount) has no producer that can rebuild it, which Mutation needs", ErrBadOptions)

// validate rejects option values no technique can interpret. Zero values
// are always fine (they select defaults); negatives are never meaningful.
func (o Options) validate() error {
	switch {
	case o.K < 0:
		return fmt.Errorf("%w: K = %d (want >= 0)", ErrBadOptions, o.K)
	case o.Bits < 0:
		return fmt.Errorf("%w: Bits = %d (want >= 0)", ErrBadOptions, o.Bits)
	case o.MaxSeq < 0:
		return fmt.Errorf("%w: MaxSeq = %d (want >= 0)", ErrBadOptions, o.MaxSeq)
	case o.Workers < 0:
		return fmt.Errorf("%w: Workers = %d (want >= 0)", ErrBadOptions, o.Workers)
	}
	return nil
}

// checkPrepared rejects a preprocessing memo bound to a different graph —
// reusing another graph's condensation would answer queries against the
// wrong component structure, so the mismatch fails fast as a
// configuration error.
func checkPrepared(g *Graph, opt Options) error {
	if opt.Prepared != nil && opt.Prepared.Graph() != g {
		return fmt.Errorf("%w: Options.Prepared is bound to a different graph", ErrBadOptions)
	}
	return nil
}

// checkBuild is the shared precondition gate of the Build* family: a
// usable graph, valid options, and a context that is still live. A
// context already canceled before any work maps to ErrBuildCanceled just
// like a mid-build cancellation would.
func checkBuild(ctx context.Context, g *Graph, opt Options) error {
	if g == nil {
		return fmt.Errorf("%w: nil graph", ErrBadOptions)
	}
	if err := opt.validate(); err != nil {
		return err
	}
	if err := checkPrepared(g, opt); err != nil {
		return err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w (before build start): %v", ErrBuildCanceled, err)
		}
	}
	return nil
}
