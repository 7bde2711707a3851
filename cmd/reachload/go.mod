// The benchmark is a module of its own so that it builds from the
// benchmark's directory with its own build file; the import path keeps the
// repro/ prefix, which is what lets it reach repro/internal/... packages.
module repro/cmd/reachload

go 1.22

require repro v0.0.0

replace repro => ../..
