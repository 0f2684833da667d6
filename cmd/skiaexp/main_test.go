package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunOutDirCreationFailure: -out pointing below an existing
// regular file cannot be created; run must return the error instead
// of exiting 0.
func TestRunOutDirCreationFailure(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	err := run([]string{"-exp", "table1", "-out", filepath.Join(blocker, "results")}, &out, &errw)
	if err == nil {
		t.Fatal("run returned nil for an uncreatable -out directory")
	}
}

// TestRunManifestWriteFailure is the regression test for the exit-0
// bug: the per-experiment report files write fine, then the final
// manifest.json write fails (here: the path is occupied by a
// directory). run must surface the joined error rather than
// reporting success over a partial result set.
func TestRunManifestWriteFailure(t *testing.T) {
	dir := t.TempDir()
	// Occupy manifest.json with a directory so the final WriteFile
	// fails after the experiment file has already been written.
	if err := os.MkdirAll(filepath.Join(dir, "manifest.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	err := run([]string{"-exp", "table1", "-out", dir}, &out, &errw)
	if err == nil {
		t.Fatal("run returned nil although manifest.json could not be written")
	}
	if !strings.Contains(err.Error(), "manifest") {
		t.Errorf("error does not name the manifest write: %v", err)
	}
	// The per-experiment report must still be on disk: the failure is
	// the index, not the data.
	if _, statErr := os.Stat(filepath.Join(dir, "table1.json")); statErr != nil {
		t.Errorf("table1.json missing: %v", statErr)
	}
}

// TestRunWritesReportAndManifest pins the happy path end to end.
func TestRunWritesReportAndManifest(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	if err := run([]string{"-exp", "table1", "-out", dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table1.json", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s missing: %v", f, err)
		}
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Errorf("stdout lacks write confirmations: %q", out.String())
	}
}

// TestRunUnknownExperiment: unknown ids are an error, not a silent
// success.
func TestRunUnknownExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-exp", "nope"}, &out, &errw); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// TestExperimentsDocNamesRegisteredFlags keeps EXPERIMENTS.md honest
// about skiaexp's sampling and observability flags: every backticked
// -sample…, -checkpoint, -intervals or -attrib token must be a flag
// skiaexp registers, as listed by its -h usage text. Spans that name
// another command (skiacmp, skiasim, …) document that command's flags
// and are skipped, as are fenced code blocks.
func TestExperimentsDocNamesRegisteredFlags(t *testing.T) {
	var out, usage bytes.Buffer
	if err := run([]string{"-h"}, &out, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s+-([a-z0-9-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		registered[m[1]] = true
	}
	if !registered["sample"] || !registered["checkpoint"] {
		t.Fatalf("usage text lists no sampling flags:\n%s", usage.String())
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var prose []string
	fenced := false
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose = append(prose, line)
		}
	}
	other := regexp.MustCompile(`\bskia(cmp|sim|board|lint)\b`)
	want := regexp.MustCompile(`^-(sample[a-z-]*|checkpoint|intervals|attrib)$`)
	checked := 0
	for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		if other.MatchString(span[1]) {
			continue
		}
		for _, tok := range strings.Fields(span[1]) {
			if !want.MatchString(tok) {
				continue
			}
			checked++
			if !registered[tok[1:]] {
				t.Errorf("EXPERIMENTS.md names `%s`, which skiaexp does not register", tok)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no flag tokens in EXPERIMENTS.md")
	}
}
