package lint

import "fmt"

// LoadDir parses and type-checks the single package in dir under the
// given import path. Used to load analyzer test fixtures.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	p, err := l.parseFiles(dir, importPath, ".")
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	if err := l.check(p); err != nil {
		return nil, err
	}
	return p, nil
}
