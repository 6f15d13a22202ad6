// Package stdimport type-checks standard-library packages from source
// once per process. Every lint.Loader resolves the standard library
// through it, so a process that loads many packages or fixtures — a test
// binary, mostly — pays for each standard-library package once rather
// than once per loader. The importer caches what it has checked and is
// not safe for concurrent use, so a mutex serializes it: the one
// concurrency primitive of the linter, and its noconcurrency waiver
// (DESIGN.md §6).
package stdimport

import (
	"go/importer"
	"go/token"
	"go/types"
	"sync"
)

var (
	mu   sync.Mutex
	fset = token.NewFileSet()
	std  = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
)

// Fset returns the process's file set: every loader parses into it, so
// standard-library and loaded positions share one space.
func Fset() *token.FileSet { return fset }

// ImportFrom returns the type-checked standard-library package path,
// checking it from source on first use.
func ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	mu.Lock()
	defer mu.Unlock()
	return std.ImportFrom(path, dir, mode)
}
