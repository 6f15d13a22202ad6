// Package lib is the surface fixture: of its exports only OnlyTested,
// which lib_test.go alone references, has no program reader.
package lib

// Namer is an interface the program uses.
type Namer interface{ Name() string }

// Fixed satisfies Namer; no file calls its Name directly.
type Fixed struct{}

// Name implements Namer.
func (Fixed) Name() string { return "fixed" }

// Describe is read by the main package.
func Describe(n Namer) string { return "name: " + n.Name() }

// OnlyTested is referenced by lib_test.go alone.
func OnlyTested() int { return 1 }
