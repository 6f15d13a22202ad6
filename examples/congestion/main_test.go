package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputPinned holds the example's stdout to the committed text.
// Regenerate with HAECHI_UPDATE_GOLDEN=1 after an intentional change.
func TestOutputPinned(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "stdout.txt")
	if os.Getenv("HAECHI_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from %s:\n%s", path, got)
	}
}
