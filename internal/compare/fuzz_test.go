package compare

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// FuzzReportDiff feeds arbitrary bytes to the report reader, the one
// parser of report files. Input must never panic; input that decodes
// must re-encode to bytes that decode and re-encode identically, and
// must diff clean against itself. The committed experiment reports
// seed the corpus, so every section of the envelope starts covered.
func FuzzReportDiff(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "experiments", "testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed reports in ../experiments/testdata")
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := experiments.DecodeReport(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("decoded report does not encode: %v", err)
		}
		r2, err := experiments.DecodeReport(enc)
		if err != nil {
			t.Fatalf("encoded report does not decode: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(r2)
		if err != nil {
			t.Fatalf("re-decoded report does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not stable across a round trip:\n%s\n%s", enc, enc2)
		}
		set := map[string]*experiments.Report{r.ID: r}
		if res := Diff(set, set, Options{}); res.Failed() {
			t.Fatalf("report diffed against itself failed:\n%s", res)
		}
	})
}
