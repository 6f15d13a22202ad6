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

// TestReadmeTranscript holds the repository README's quickstart transcript
// to the pinned output, so the numbers it shows cannot go stale.
func TestReadmeTranscript(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	const prompt = "$ go run ./examples/quickstart\n"
	_, transcript, ok := bytes.Cut(readme, []byte(prompt))
	if !ok {
		t.Fatalf("README.md has no %q transcript", prompt)
	}
	transcript, _, _ = bytes.Cut(transcript, []byte("```\n"))
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(transcript, want) {
		t.Errorf("README.md's quickstart transcript differs from testdata/stdout.txt; paste the file in verbatim:\n%s", transcript)
	}
}
