// Package store is the run-history archive: a content-addressed,
// append-only record store for completed experiment reports.
//
// Every record is keyed three ways:
//
//   - a spec hash — SHA-256 over the canonical JSON of the run's
//     simulation-affecting identity (experiment ID plus normalized
//     options; see Spec) — grouping records of the *same experiment
//     under the same knobs* into one trajectory;
//   - a content hash — SHA-256 over the payload with its volatile
//     provenance (timestamps, git version, wall-clock throughput)
//     stripped — so archiving the same deterministic result twice is
//     a no-op;
//   - the record ID — SHA-256 over (kind, spec hash, git version,
//     content hash) — the dedup identity: one record per distinct
//     result per tree version per spec.
//
// The archive is a directory: one canonical-JSON file per record under
// records/, plus an append-only NDJSON index (index.ndjson) carrying
// every record's identity without its payload. Records are immutable
// once written; readers order them by (recorded_at, id), which is
// deterministic because dedup collapses reruns and distinct records
// differ in ID.
//
// Consumers: cmd/skiaexp archives batch results with its -archive
// flag; cmd/skiaboard imports report files, renders metric
// trajectories from History and gates regressions with the
// internal/compare tolerances. Readers select KindReport records, so
// an archive holding records of a kind this build does not write still
// opens.
//
// The package itself never reads the wall clock (skialint's nondet
// discipline): callers stamp PutMeta.RecordedAt, so record identity
// and file bytes are a pure function of the inputs.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// SchemaVersion identifies the record and index-line format.
const SchemaVersion = 1

// KindReport is the kind of every record this build writes: an
// experiments.Report envelope payload.
const KindReport = "report"

// indexFile and recordsDir lay out the archive directory.
const (
	indexFile  = "index.ndjson"
	recordsDir = "records"
)

// Record is one archived result: identity plus the exact payload bytes
// the producer wrote (compacted to one canonical line). Payload bytes
// are immutable — Load returns them verbatim.
type Record struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Kind          string `json:"kind"`
	// Experiment is the catalog ID.
	Experiment string `json:"experiment,omitempty"`
	// SpecHash groups records of the same normalized spec into one
	// trajectory.
	SpecHash string `json:"spec_hash,omitempty"`
	// ContentHash fingerprints the payload with volatile provenance
	// stripped; identical deterministic results share it.
	ContentHash string `json:"content_hash"`
	// GitDescribe identifies the tree that produced the payload.
	GitDescribe string `json:"git_describe,omitempty"`
	// RecordedAt is the caller-stamped RFC 3339 completion time.
	RecordedAt string `json:"recorded_at"`
	// Source names the producer: "skiaexp", or "skiaboard" for put
	// imports.
	Source string `json:"source,omitempty"`
	// Spec is the normalized spec the hash covers.
	Spec *Spec `json:"spec,omitempty"`
	// Payload is the archived envelope, verbatim.
	Payload json.RawMessage `json:"payload"`
}

// IndexEntry is one index.ndjson line: a Record's identity without its
// payload, plus the payload-bearing record file, relative to the
// archive root.
type IndexEntry struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Kind          string `json:"kind"`
	Experiment    string `json:"experiment,omitempty"`
	SpecHash      string `json:"spec_hash,omitempty"`
	ContentHash   string `json:"content_hash"`
	GitDescribe   string `json:"git_describe,omitempty"`
	RecordedAt    string `json:"recorded_at"`
	Source        string `json:"source,omitempty"`
	File          string `json:"file"`
}

// PutMeta carries the provenance a caller stamps onto a new record.
type PutMeta struct {
	// RecordedAt is the completion time; required (the store itself
	// never reads the clock, keeping record bytes a pure function of
	// the inputs).
	RecordedAt time.Time
	// GitDescribe identifies the producing tree (may be empty when
	// unknown).
	GitDescribe string
	// Source names the producer binary.
	Source string
}

// Archive is an open run-history archive. Safe for concurrent use.
type Archive struct {
	mu      sync.Mutex
	dir     string
	byID    map[string]int // record ID -> entries position
	entries []IndexEntry   // append (put) order
}

// Open opens (creating if needed) the archive rooted at dir and loads
// its index.
func Open(dir string) (*Archive, error) {
	if err := os.MkdirAll(filepath.Join(dir, recordsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	a := &Archive{dir: dir, byID: make(map[string]int)}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if os.IsNotExist(err) {
		return a, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for ln, line := range splitLines(data) {
		var e IndexEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("store: %s line %d: %w", indexFile, ln+1, err)
		}
		if e.SchemaVersion > SchemaVersion {
			return nil, fmt.Errorf("store: %s line %d: schema version %d newer than this build (%d)",
				indexFile, ln+1, e.SchemaVersion, SchemaVersion)
		}
		if _, dup := a.byID[e.ID]; dup {
			return nil, fmt.Errorf("store: %s line %d: duplicate record id %s", indexFile, ln+1, e.ID)
		}
		a.byID[e.ID] = len(a.entries)
		a.entries = append(a.entries, e)
	}
	return a, nil
}

// splitLines yields the non-empty lines of an NDJSON file.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			line := data[start:i]
			if len(line) > 0 {
				out = append(out, line)
			}
			start = i + 1
		}
	}
	return out
}

// Dir returns the archive root directory.
func (a *Archive) Dir() string { return a.dir }

// Len returns the number of records in the archive.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.entries)
}

// Entries returns every index entry in deterministic trajectory order:
// recorded_at ascending, record ID as the tiebreaker.
func (a *Archive) Entries() []IndexEntry {
	a.mu.Lock()
	out := append([]IndexEntry(nil), a.entries...)
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].RecordedAt != out[j].RecordedAt {
			return out[i].RecordedAt < out[j].RecordedAt
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Experiments returns the sorted distinct experiment IDs that have
// report records.
func (a *Archive) Experiments() []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range a.Entries() {
		if e.Kind == KindReport && e.Experiment != "" && !seen[e.Experiment] {
			seen[e.Experiment] = true
			out = append(out, e.Experiment)
		}
	}
	sort.Strings(out)
	return out
}

// PutReport archives one experiments.Report envelope (the exact bytes
// a producer wrote) under its normalized spec. It returns the index
// entry and whether a new record was written: re-archiving the same
// deterministic result from the same tree is a no-op, so archiving one
// sweep twice yields exactly one record per unique spec hash.
func (a *Archive) PutReport(payload []byte, spec Spec, m PutMeta) (IndexEntry, bool, error) {
	if spec.Experiment == "" {
		return IndexEntry{}, false, fmt.Errorf("store: report spec has no experiment")
	}
	if m.RecordedAt.IsZero() {
		return IndexEntry{}, false, fmt.Errorf("store: PutMeta.RecordedAt is required (the store never reads the clock)")
	}
	compact, err := canonicalPayload(payload)
	if err != nil {
		return IndexEntry{}, false, fmt.Errorf("store: payload: %w", err)
	}
	contentHash, err := contentHash(payload)
	if err != nil {
		return IndexEntry{}, false, err
	}
	specHash := spec.Hash()
	id := recordID(KindReport, specHash, m.GitDescribe, contentHash)

	a.mu.Lock()
	defer a.mu.Unlock()
	if i, ok := a.byID[id]; ok {
		return a.entries[i], false, nil
	}
	rec := Record{
		SchemaVersion: SchemaVersion,
		ID:            id,
		Kind:          KindReport,
		Experiment:    spec.Experiment,
		SpecHash:      specHash,
		ContentHash:   contentHash,
		GitDescribe:   m.GitDescribe,
		RecordedAt:    m.RecordedAt.UTC().Format(time.RFC3339Nano),
		Source:        m.Source,
		Spec:          &spec,
		Payload:       compact,
	}
	entry := IndexEntry{
		SchemaVersion: rec.SchemaVersion,
		ID:            rec.ID,
		Kind:          rec.Kind,
		Experiment:    rec.Experiment,
		SpecHash:      rec.SpecHash,
		ContentHash:   rec.ContentHash,
		GitDescribe:   rec.GitDescribe,
		RecordedAt:    rec.RecordedAt,
		Source:        rec.Source,
		File:          filepath.Join(recordsDir, rec.ID[:2], rec.ID+".json"),
	}
	recData, err := json.Marshal(rec)
	if err != nil {
		return IndexEntry{}, false, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(a.dir, entry.File)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return IndexEntry{}, false, fmt.Errorf("store: %w", err)
	}
	if err := os.WriteFile(path, append(recData, '\n'), 0o644); err != nil {
		return IndexEntry{}, false, fmt.Errorf("store: %w", err)
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return IndexEntry{}, false, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(a.dir, indexFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return IndexEntry{}, false, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return IndexEntry{}, false, fmt.Errorf("store: index append: %w", err)
	}
	if err := f.Close(); err != nil {
		return IndexEntry{}, false, fmt.Errorf("store: index append: %w", err)
	}
	a.byID[entry.ID] = len(a.entries)
	a.entries = append(a.entries, entry)
	return entry, true, nil
}

// Load reads one record (payload included) by ID.
func (a *Archive) Load(id string) (Record, error) {
	a.mu.Lock()
	i, ok := a.byID[id]
	var entry IndexEntry
	if ok {
		entry = a.entries[i]
	}
	a.mu.Unlock()
	if !ok {
		return Record{}, fmt.Errorf("store: unknown record %s", id)
	}
	data, err := os.ReadFile(filepath.Join(a.dir, entry.File))
	if err != nil {
		return Record{}, fmt.Errorf("store: %w", err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, fmt.Errorf("store: %s: %w", entry.File, err)
	}
	if rec.ID != id {
		return Record{}, fmt.Errorf("store: %s holds record %s, index says %s", entry.File, rec.ID, id)
	}
	return rec, nil
}

// canonicalPayload validates and compacts payload to one line of
// JSON, the byte-stable form records embed.
func canonicalPayload(payload []byte) (json.RawMessage, error) {
	var v json.RawMessage
	if err := json.Unmarshal(payload, &v); err != nil {
		return nil, err
	}
	out, err := json.Marshal(v) // compact, escape-normalized
	if err != nil {
		return nil, err
	}
	return out, nil
}

// contentHash fingerprints a report payload with its volatile
// provenance (meta.generated_at, meta.git_describe, meta.sim)
// stripped: two runs of the same deterministic simulation hash
// identically even though their timestamps and throughput differ.
// Canonical form is encoding/json's marshal of the generic decode,
// which sorts object keys.
func contentHash(payload []byte) (string, error) {
	var v any
	if err := json.Unmarshal(payload, &v); err != nil {
		return "", fmt.Errorf("store: payload: %w", err)
	}
	if top, ok := v.(map[string]any); ok {
		if meta, ok := top["meta"].(map[string]any); ok {
			delete(meta, "generated_at")
			delete(meta, "git_describe")
			delete(meta, "sim")
		}
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("store: canonicalize: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// recordID derives the dedup identity: one record per distinct result
// (content hash) per tree version per spec. RecordedAt is deliberately
// excluded so re-archiving an identical result later is a no-op.
func recordID(kind, specHash, gitDescribe, contentHash string) string {
	h := sha256.New()
	for _, part := range []string{kind, specHash, gitDescribe, contentHash} {
		fmt.Fprintf(h, "%d:%s;", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
}
