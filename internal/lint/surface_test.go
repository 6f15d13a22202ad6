package lint_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/lint"
)

// surfaceAllowlist names the exported identifiers that no non-test file
// of the module reads but that stay, each with the reader it serves.
var surfaceAllowlist = map[string]string{
	"haechi.(*System).WriteMetricsCSV":                       "root package API: the CSV export of a run's sampled metrics",
	"internal/sim.(*Kernel).Run":                             "bench/ladder_test.go, which drives the bare kernel rung",
	"internal/kvstore.(*Store).Populate":                     "bench/ladder_test.go, which loads the kvstore rung",
	"internal/core.(*Engine).DebugInjectPostCrashCompletion": "cluster.TestChaosCatchesPostCrashCompletion, whose tripwire it trips",
	"internal/core.(*Engine).DebugDropReservationTokens":     "cluster.TestSanitizerCatchesTokenLeak, whose ledger check it trips",
}

// benchOnly reports whether a package's definitions are out of the scan:
// bench/ changes only together with the benchmark it defines, so its
// exported names answer to that benchmark. Its files still count as
// readers.
func benchOnly(rel string) bool { return rel == "bench" || strings.HasPrefix(rel, "bench/") }

// TestEveryExportHasAProgramReader: every exported function, method,
// field, type, const and var defined outside bench/ is referenced by
// some non-test file of the module (main packages, examples and bench/
// included), or is a method through which its type satisfies an
// interface the program uses. A name only tests read is surface the
// program does not need: delete it, or move it into an export_test.go
// bridge, or name its reader in surfaceAllowlist.
func TestEveryExportHasAProgramReader(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.NewLoader().LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	unread := unreadExports(pkgs, benchOnly)
	var stray []string
	for _, name := range unread {
		if _, ok := surfaceAllowlist[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		t.Errorf("%d exported names have no reader outside tests:\n\t%s", len(stray), strings.Join(stray, "\n\t"))
	}
	for name := range surfaceAllowlist {
		if !slices.Contains(unread, name) {
			t.Errorf("allowlist entry %s is stale: a non-test file reads it, or it is gone; delete the entry", name)
		}
	}
	if len(surfaceAllowlist) > 5 {
		t.Errorf("allowlist has %d entries, more than 5: delete surface rather than excuse it", len(surfaceAllowlist))
	}
}

// TestUnreadExportsFixture: of the fixture's exports, only the one a
// _test.go file alone references is flagged; a method that satisfies an
// interface the program uses and a name a main package reads are not.
func TestUnreadExportsFixture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "mod", "surfacemod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.NewLoader().LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	got := unreadExports(pkgs, func(string) bool { return false })
	if want := []string{"lib.OnlyTested"}; !slices.Equal(got, want) {
		t.Errorf("unreadExports = %q, want %q", got, want)
	}
}

// unreadExports lists, sorted, the exported names defined in the packages
// skip does not exclude that no loaded file references.
func unreadExports(pkgs []*lint.Package, skip func(rel string) bool) []string {
	used := make(map[types.Object]bool)
	ifaces := interfaceCollector{seen: make(map[types.Type]bool)}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			used[origin(obj)] = true
			ifaces.add(obj.Type())
		}
		// A keyless struct literal sets every field without naming one.
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := p.Info.Types[lit].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						used[origin(st.Field(i))] = true
					}
				}
				return true
			})
		}
		// Interfaces the standard library consults by type assertion on
		// a value the program hands it.
		for _, imp := range p.Types.Imports() {
			for path, name := range map[string]string{"fmt": "Stringer", "encoding/json": "Marshaler"} {
				if imp.Path() == path {
					ifaces.add(imp.Scope().Lookup(name).Type())
				}
			}
		}
	}

	var out []string
	for _, p := range pkgs {
		if skip(p.Rel) {
			continue
		}
		qual := p.Rel
		if qual == "." {
			qual = p.Types.Name()
		}
		for _, obj := range p.Info.Defs {
			if obj == nil || !obj.Exported() || used[obj] {
				continue
			}
			name, recv := exportName(p.Types, obj)
			if name == "" || (recv != nil && ifaces.satisfiedBy(recv, obj.Name())) {
				continue
			}
			out = append(out, qual+"."+name)
		}
	}
	slices.Sort(out)
	return out
}

// exportName renders a definition the scan covers — package-level
// names, methods, and the non-embedded fields of package-level struct
// types — as T, (*T).M, T.M or T.F; it returns "" for anything else
// (locals, parameters, type parameters, fields of anonymous structs).
// For a concrete method it also returns the receiver's named type.
func exportName(pkg *types.Package, obj types.Object) (string, *types.Named) {
	switch obj := obj.(type) {
	case *types.Func:
		sig := obj.Type().(*types.Signature)
		if sig.Recv() == nil {
			return obj.Name(), nil
		}
		rt := sig.Recv().Type()
		ptr, isPtr := rt.(*types.Pointer)
		if isPtr {
			rt = ptr.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok { // a method of an interface literal
			return "", nil
		}
		base := named.Obj().Name()
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			return base + "." + obj.Name(), nil
		}
		if isPtr {
			return "(*" + base + ")." + obj.Name(), named
		}
		return base + "." + obj.Name(), named
	case *types.Var:
		if obj.IsField() {
			if obj.Embedded() {
				return "", nil
			}
			if owner := fieldOwner(pkg, obj); owner != "" {
				return owner + "." + obj.Name(), nil
			}
			return "", nil
		}
	}
	if obj.Parent() == pkg.Scope() {
		return obj.Name(), nil
	}
	return "", nil
}

// fieldOwner names the package-level type whose struct declares f.
func fieldOwner(pkg *types.Package, f *types.Var) string {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == f {
					return name
				}
			}
		}
	}
	return ""
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaceCollector gathers the non-empty interfaces that appear in
// the types of the objects the program references: the interfaces it
// names, and those in the fields and signatures it uses, as a parameter
// of a function it calls, for example.
type interfaceCollector struct {
	seen map[types.Type]bool
	list []*types.Interface
}

func (c *interfaceCollector) add(t types.Type) {
	if t == nil || c.seen[t] {
		return
	}
	c.seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		for i := 0; i < u.TypeArgs().Len(); i++ {
			c.add(u.TypeArgs().At(i))
		}
		c.add(u.Underlying())
	case *types.Alias:
		c.add(types.Unalias(u))
	case *types.Interface:
		if u.NumMethods() > 0 {
			c.list = append(c.list, u)
		}
	case *types.Signature:
		c.add(u.Params())
		c.add(u.Results())
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			c.add(u.At(i).Type())
		}
	case *types.Pointer:
		c.add(u.Elem())
	case *types.Slice:
		c.add(u.Elem())
	case *types.Array:
		c.add(u.Elem())
	case *types.Map:
		c.add(u.Key())
		c.add(u.Elem())
	case *types.Chan:
		c.add(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.add(u.Field(i).Type())
		}
	}
}

// satisfiedBy reports whether method name of named lets named, or a
// pointer to it, implement one of the collected interfaces that
// declares that method.
func (c *interfaceCollector) satisfiedBy(named *types.Named, name string) bool {
	for _, iface := range c.list {
		declares := false
		for i := 0; i < iface.NumMethods(); i++ {
			declares = declares || iface.Method(i).Name() == name
		}
		if !declares {
			continue
		}
		if named.TypeParams().Len() > 0 {
			// A generic type satisfies interfaces only as an instance;
			// the collected instances' origins stand for it.
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
