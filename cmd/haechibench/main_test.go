package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/haechi-qos/haechi/internal/experiments"
)

func TestRunList(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Errorf("-list exit = %d", code)
	}
}

// runStdout runs the tool with args and returns what it printed to
// stdout, failing the test unless it exits 0.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		read <- out
	}()
	code := run(args)
	os.Stdout = stdout
	w.Close()
	out := <-read
	if code != 0 {
		t.Fatalf("%v exit = %d", args, code)
	}
	return string(out)
}

// TestRunListNamesAliases: -list prints every alias experiments resolves.
func TestRunListNamesAliases(t *testing.T) {
	out := runStdout(t, "-list")
	var listed []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "aliases:"); ok {
			listed = strings.Fields(rest)
		}
	}
	for _, alias := range experiments.Aliases() {
		if !slices.Contains(listed, alias) {
			t.Errorf("-list omits alias %q:\n%s", alias, out)
		}
	}
}

// TestRunTraceSpansBelowOne: -trace with an empty span ring is a usage
// error, not a run that silently writes nothing.
func TestRunTraceSpansBelowOne(t *testing.T) {
	for _, spans := range []string{"0", "-1"} {
		path := filepath.Join(t.TempDir(), "t.json")
		if code := run([]string{"-experiment", "config", "-trace", path, "-trace-spans", spans}); code != 2 {
			t.Errorf("-trace-spans %s exit = %d, want 2", spans, code)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("-trace-spans %s wrote %s", spans, path)
		}
	}
}

func TestRunNoArgs(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-nope"}); code != 2 {
		t.Errorf("bad-flag exit = %d, want 2", code)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if code := run([]string{"-experiment", "figX"}); code != 1 {
		t.Errorf("unknown experiment exit = %d, want 1", code)
	}
}

func TestRunConfigExperiment(t *testing.T) {
	if code := run([]string{"-experiment", "config", "-scale", "100", "-periods", "2", "-warmup", "1",
		"-clients", "4", "-records", "64", "-seed", "9"}); code != 0 {
		t.Errorf("config experiment exit = %d", code)
	}
}

// TestStatusLineReportsCPUTime: an experiment's status line gives the
// process CPU seconds beside wall time and events per CPU-second beside
// events per wall-second.
func TestStatusLineReportsCPUTime(t *testing.T) {
	if _, ok := cpuSeconds(); !ok {
		t.Skip("no process CPU clock on this platform")
	}
	out := runStdout(t, "-experiment", "1c", "-scale", "100", "-periods", "2", "-warmup", "1", "-records", "64")
	i := strings.LastIndex(out, "[fig8 completed in ")
	if i < 0 {
		t.Fatalf("no status line in:\n%s", out)
	}
	status := out[i:]
	for _, want := range []string{" CPU-s) at scale 100", " events/wall-sec, ", "M events/CPU-sec]"} {
		if !strings.Contains(status, want) {
			t.Errorf("status line %q lacks %q", strings.TrimSpace(status), want)
		}
	}
}

func TestRunAlias(t *testing.T) {
	// Alias "1c" resolves to fig8; keep it tiny.
	if code := run([]string{"-experiment", "1c", "-scale", "100", "-periods", "2", "-warmup", "1",
		"-records", "64"}); code != 0 {
		t.Errorf("alias experiment exit = %d", code)
	}
}

// TestExportParallelByteIdentical: -trace and -metrics write the same
// files, byte for byte, at any -parallel value. Fig. 9 makes four
// cluster runs, so each output gets its exact name and -02…-04 suffixes.
func TestExportParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig9 twice")
	}
	export := func(parallel string) string {
		dir := t.TempDir()
		args := []string{"-experiment", "fig9", "-scale", "100", "-records", "512", "-warmup", "1",
			"-periods", "2", "-seed", "42", "-clients", "10", "-parallel", parallel,
			"-trace", filepath.Join(dir, "t.json"), "-metrics", filepath.Join(dir, "t.csv")}
		if code := run(args); code != 0 {
			t.Fatalf("-parallel %s exit = %d", parallel, code)
		}
		return dir
	}
	seq, par := export("1"), export("4")
	want := []string{"t-02.csv", "t-02.json", "t-03.csv", "t-03.json", "t-04.csv", "t-04.json", "t.csv", "t.json"}
	for _, dir := range []string{seq, par} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s holds %v, want %v", dir, got, want)
		}
	}
	for _, name := range want {
		a, err := os.ReadFile(filepath.Join(seq, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(par, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between -parallel 1 (%d bytes) and -parallel 4 (%d bytes)", name, len(a), len(b))
		}
	}
}
