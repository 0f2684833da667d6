package main

import (
	"bytes"
	"os"
	"path/filepath"
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

// TestRunArchiveDedups pins the -archive path end to end: two runs
// with identical options (written to different -out directories)
// normalize to one spec and one content hash through NewSpec and the
// report's volatile-field stripping, so the archive keeps exactly one
// index line and the second run reports the dedup.
func TestRunArchiveDedups(t *testing.T) {
	arc := t.TempDir()
	outs := make([]string, 2)
	for i := range outs {
		var out, errw bytes.Buffer
		args := []string{"-exp", "fig14", "-benchmarks", "noop", "-warmup", "5000", "-measure", "20000",
			"-archive", arc, "-out", filepath.Join(t.TempDir(), "r")}
		if err := run(args, &out, &errw); err != nil {
			t.Fatalf("run %d: %v (stderr %q)", i+1, err, errw.String())
		}
		outs[i] = out.String()
	}
	if !strings.Contains(outs[0], "archived fig14") || strings.Contains(outs[0], "already archived") {
		t.Errorf("first run did not archive a new record: %q", outs[0])
	}
	if !strings.Contains(outs[1], "already archived (dedup)") {
		t.Errorf("second run did not report the dedup: %q", outs[1])
	}
	index, err := os.ReadFile(filepath.Join(arc, "index.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(index), "\n"); n != 1 {
		t.Errorf("index.ndjson has %d lines after two identical runs, want 1", n)
	}
}
