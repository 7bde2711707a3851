package reach

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// TestRootSurface pins the package's exported top-level names — types,
// functions, variables and constants, not methods or fields — as parsed
// from its non-test files. A change that adds or removes an export edits
// rootSurface and says why in CHANGES.md; a change that adds or removes
// one by accident fails here.
func TestRootSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["reach"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							got = append(got, sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	for _, n := range got {
		if _, ok := slices.BinarySearch(rootSurface, n); !ok {
			t.Errorf("exported %s is not in rootSurface", n)
		}
	}
	for _, n := range rootSurface {
		if _, ok := slices.BinarySearch(got, n); !ok {
			t.Errorf("rootSurface lists %s, which the package no longer exports", n)
		}
	}
	if !slices.IsSorted(rootSurface) {
		t.Error("rootSurface is not sorted")
	}
}

// rootSurface is the package's exported top-level names, sorted.
var rootSurface = []string{
	"BatchReach",
	"Build",
	"BuildConstraint",
	"BuildCtx",
	"BuildLCR",
	"BuildRLC",
	"ConstraintIndex",
	"DB",
	"DBConfig",
	"EdgeOp",
	"ErrBadOptions",
	"ErrBadQuery",
	"ErrBuildCanceled",
	"ErrIndexPanic",
	"ErrNotMutable",
	"ErrPrebuiltEngine",
	"ErrVertexRange",
	"Fig1Labeled",
	"Fig1Plain",
	"FsyncAlways",
	"FsyncMode",
	"FsyncNever",
	"Graph",
	"Index",
	"IndexSizes",
	"Kind",
	"KindBFL",
	"KindDL",
	"KindFeline",
	"KindFerrari",
	"KindGRAIL",
	"KindIP",
	"KindPLL",
	"KindPReaCH",
	"KindPathTree",
	"KindTOL",
	"Kinds",
	"LCRBloom",
	"LCRDLCR",
	"LCRDecomp",
	"LCRIndex",
	"LCRJinTree",
	"LCRKind",
	"LCRKinds",
	"LCRLandmark",
	"LCRP2H",
	"LCRZouGTC",
	"Label",
	"LoadGraphSnapshot",
	"LoadIndex",
	"LoadIndexMapped",
	"MutationConfig",
	"NewBuilder",
	"NewDB",
	"NewDBCtx",
	"NewLabeledBuilder",
	"NewShardedDB",
	"NewShardedDBCtx",
	"NewWorkloadRecorder",
	"Options",
	"Pair",
	"PartialIndex",
	"Prepare",
	"PreparedGraph",
	"RLCIndex",
	"ReadGraph",
	"ReadWorkload",
	"SaveIndex",
	"ShardedConfig",
	"ShardedDB",
	"Stats",
	"V",
	"WorkloadRecord",
	"WorkloadRecorder",
	"WriteGraph",
}
