// Package benchfmt defines the versioned BENCH JSON envelope shared by
// every benchmark producer and consumer in the repository: cmd/benchorch
// writes it, `benchorch compare` diffs two of them, and the checked-in
// BENCH_PR*.json trajectory files at the repo root are instances of it.
//
// The schema extends the historical micro-report layout (go_version,
// gomaxprocs, experiments[] with ns_per_op / gbps / allocs_per_op /
// alloc_bytes_per_op) with a format version, an environment fingerprint,
// the run's preset / seed / repetition count, and per-series sample sets
// with robust summary statistics (internal/stats). Decoding is tolerant
// where staleness is harmless — unknown fields and newer versions are
// accepted, and the legacy version-less files still load — but
// structurally invalid input is rejected with a *FormatError wrapping
// ErrCorrupt, mirroring internal/tune's wisdom loader.
package benchfmt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"inplace/internal/stats"
)

// Version is the current envelope format version. Version 0 denotes the
// legacy micro reports that predate the version field (BENCH_PR2.json,
// BENCH_PR5.json); they decode with the legacy fields populated and no
// series. Newer versions than this decode best-effort: fields this
// reader knows keep their meaning, unknown ones are ignored.
const Version = 1

// ErrCorrupt is the sentinel wrapped by every decode failure;
// errors.Is(err, ErrCorrupt) distinguishes a damaged report from I/O
// errors.
var ErrCorrupt = errors.New("benchfmt: corrupt bench report")

// FormatError is the typed error returned for syntactically or
// semantically invalid envelope input. It wraps ErrCorrupt.
type FormatError struct {
	Reason string
	Err    error // underlying decode error, may be nil
}

func (e *FormatError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("benchfmt: corrupt bench report: %s: %v", e.Reason, e.Err)
	}
	return "benchfmt: corrupt bench report: " + e.Reason
}

func (e *FormatError) Unwrap() error { return ErrCorrupt }

func corrupt(format string, args ...any) error {
	return &FormatError{Reason: fmt.Sprintf(format, args...)}
}

// Env fingerprints the machine and toolchain a report was measured on.
// compare uses it to annotate cross-host diffs (alloc counts transfer
// across hosts, wall-clock throughput does not).
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// HostEnv returns the fingerprint of the running process.
func HostEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Equal reports whether two fingerprints describe the same environment.
func (e Env) Equal(o Env) bool { return e == o }

// Series is one measured sample set of an experiment: a named metric in
// one unit, with the raw samples (optional — fixtures and compact
// baselines may carry only the digest) and their robust summary.
type Series struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// HigherIsBetter orients the compare gate: true for throughput
	// (GB/s), false for latency (ns/op) or counts.
	HigherIsBetter bool          `json:"higher_is_better"`
	Samples        []float64     `json:"samples,omitempty"`
	Summary        stats.Summary `json:"summary"`
}

// Experiment kinds.
const (
	// KindMicro marks a micro-suite measurement whose alloc counts are a
	// hard invariant (the zero-alloc steady state). Legacy entries with
	// an empty kind are treated as micro.
	KindMicro = "micro"
	// KindSeries marks a registry-experiment capture: informational
	// series with no alloc semantics.
	KindSeries = "series"
)

// Experiment is one named measurement of a report. The scalar fields are
// the historical micro-report schema (medians of the series, kept so the
// BENCH_PR*.json trajectory stays one format); Series carries the full
// per-metric sample digests.
type Experiment struct {
	Name        string   `json:"name"`
	Kind        string   `json:"kind,omitempty"` // KindMicro ("" legacy) or KindSeries
	NsPerOp     float64  `json:"ns_per_op"`
	GBps        float64  `json:"gbps"`
	AllocsPerOp int64    `json:"allocs_per_op"`
	BytesPerOp  int64    `json:"alloc_bytes_per_op"`
	Series      []Series `json:"series,omitempty"`
}

// FindSeries returns the experiment's series with the given name.
func (e Experiment) FindSeries(name string) (Series, bool) {
	for _, s := range e.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Report is the envelope.
type Report struct {
	Version int    `json:"version"`
	Preset  string `json:"preset,omitempty"`
	Reps    int    `json:"reps,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// GoVersion and GOMAXPROCS mirror Env for the legacy readers of the
	// original micro-report schema.
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Env         Env          `json:"env"`
	Experiments []Experiment `json:"experiments"`
}

// New returns an empty current-version report stamped with the host
// fingerprint.
func New(preset string, reps int, seed int64) Report {
	env := HostEnv()
	return Report{
		Version:    Version,
		Preset:     preset,
		Reps:       reps,
		Seed:       seed,
		GoVersion:  env.GoVersion,
		GOMAXPROCS: env.GOMAXPROCS,
		Env:        env,
	}
}

// Find returns the report's experiment with the given name.
func (r Report) Find(name string) (Experiment, bool) {
	for _, e := range r.Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

func (r Report) validate() error {
	if r.Version < 0 {
		return corrupt("negative version %d", r.Version)
	}
	if r.Reps < 0 {
		return corrupt("negative reps %d", r.Reps)
	}
	seen := make(map[string]bool, len(r.Experiments))
	for _, e := range r.Experiments {
		if e.Name == "" {
			return corrupt("experiment with empty name")
		}
		if seen[e.Name] {
			return corrupt("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		switch e.Kind {
		case "", KindMicro, KindSeries:
		default:
			return corrupt("experiment %q: unknown kind %q", e.Name, e.Kind)
		}
		if e.AllocsPerOp < 0 || e.BytesPerOp < 0 {
			return corrupt("experiment %q: negative alloc counters", e.Name)
		}
		if math.IsNaN(e.NsPerOp) || math.IsNaN(e.GBps) {
			return corrupt("experiment %q: NaN scalar", e.Name)
		}
		names := make(map[string]bool, len(e.Series))
		for _, s := range e.Series {
			if s.Name == "" {
				return corrupt("experiment %q: series with empty name", e.Name)
			}
			if names[s.Name] {
				return corrupt("experiment %q: duplicate series %q", e.Name, s.Name)
			}
			names[s.Name] = true
			if s.Summary.N < 0 {
				return corrupt("experiment %q series %q: negative sample count", e.Name, s.Name)
			}
			if len(s.Samples) > 0 && s.Summary.N != len(s.Samples) {
				return corrupt("experiment %q series %q: summary n=%d but %d samples",
					e.Name, s.Name, s.Summary.N, len(s.Samples))
			}
		}
	}
	return nil
}

// Encode writes the report as deterministically formatted JSON: the same
// Report value always serializes to the same bytes (the round-trip
// property the envelope tests pin). Invalid reports are rejected with a
// *FormatError so a producer can never write a file its own Decode would
// refuse.
func Encode(w io.Writer, r Report) error {
	if err := r.validate(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return &FormatError{Reason: "encoding", Err: err}
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// Decode reads an envelope from r.
//
//   - Syntactically invalid JSON and structurally invalid reports (empty
//     or duplicate experiment names, negative counters, sample/summary
//     mismatches) are rejected with a *FormatError wrapping ErrCorrupt.
//   - Unknown fields are ignored: a newer writer may extend the schema
//     without breaking this reader.
//   - A missing version field is the legacy micro-report format and
//     decodes as Version 0; versions newer than Version decode
//     best-effort with the fields this reader understands.
func Decode(r io.Reader) (Report, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return Report{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return Report{}, &FormatError{Reason: "decoding", Err: err}
	}
	if err := rep.validate(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// ReadFile decodes the envelope at path.
func ReadFile(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	return Decode(f)
}

// WriteFile encodes the report to path.
func WriteFile(path string, r Report) error {
	var buf bytes.Buffer
	if err := Encode(&buf, r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
