package tune

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"inplace/internal/tensor"
)

// WisdomVersion is the on-disk format version. Readers skip files with a
// different version (measurement semantics may have changed between
// versions, so stale decisions are worth less than re-tuning) instead of
// failing, so mixed-version deployments degrade to the static heuristic
// rather than erroring.
const WisdomVersion = 1

// ErrCorrupt is the sentinel wrapped by every wisdom decoding failure;
// errors.Is(err, ErrCorrupt) distinguishes a damaged file from I/O
// errors.
var ErrCorrupt = errors.New("tune: corrupt wisdom")

// FormatError is the typed error returned for syntactically or
// semantically invalid wisdom input. It wraps ErrCorrupt.
type FormatError struct {
	Reason string
	Err    error // underlying decode error, may be nil
}

func (e *FormatError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("tune: corrupt wisdom: %s: %v", e.Reason, e.Err)
	}
	return "tune: corrupt wisdom: " + e.Reason
}

func (e *FormatError) Unwrap() error { return ErrCorrupt }

// Kind names the problem a decision was tuned for. Each kind is one
// section of the wisdom file.
type Kind uint8

const (
	// KindTranspose is an in-memory 2D transpose (the "entries" section).
	KindTranspose Kind = iota
	// KindOOC is an out-of-core file transpose (the "ooc" section).
	KindOOC
	// KindPermute is a rank-k axis permutation (the "perm" section).
	KindPermute
	// KindStore is a tile-store ingest (the "store" section).
	KindStore
)

func (k Kind) String() string { return [...]string{"transpose", "ooc", "perm", "store"}[k] }

// Key identifies one tuning problem: its kind, its canonical shape, the
// element size, and the budget the decision was measured under. A
// planner consults a decision only under the budget it was tuned with:
// a worker sweep saturates differently under another worker budget, and
// the best segment size under a 64 MiB memory budget says nothing about
// the best one under 1 GiB. Key is comparable, and a planner has every
// field at hand (a Permute key's strings are its plan's canonical
// forms), so building a key and looking it up allocate nothing.
type Key struct {
	Kind Kind
	// Rows and Cols are the matrix shape of Transpose and OOC problems.
	// A Store problem transposes chunks of AoS records, so Cols is its
	// field count and Rows the binary magnitude (floor(log2)) of its
	// row count: datasets of similar size share a decision.
	Rows, Cols int
	// Dims and Perm are a Permute problem's canonical shape and axis
	// order ("8x1024x16", "0,2,1"; see tensor.Canonicalize), so every
	// raw rank-k problem that reduces to the same passes shares one key.
	Dims, Perm string
	ElemSize   int
	// Budget is the worker budget of Transpose and Permute problems and
	// the binary magnitude of an OOC problem's memory budget in bytes.
	// Store decisions carry none (0).
	Budget int
}

func (k Key) String() string {
	switch k.Kind {
	case KindTranspose:
		return fmt.Sprintf("%dx%d/%dB/w%d", k.Rows, k.Cols, k.ElemSize, k.Budget)
	case KindOOC:
		return fmt.Sprintf("%dx%d/%dB/2^%dB", k.Rows, k.Cols, k.ElemSize, k.Budget)
	case KindPermute:
		return fmt.Sprintf("%s/%s/%dB/w%d", k.Dims, k.Perm, k.ElemSize, k.Budget)
	default:
		return fmt.Sprintf("%df/%dB/2^%drows", k.Cols, k.ElemSize, k.Rows)
	}
}

// Log2 buckets a byte budget or a row count into its binary magnitude:
// the position of its highest set bit (so 64 MiB -> 26, and anything in
// [64 MiB, 128 MiB) shares a bucket). Values within a factor of two
// transfer well; finer bucketing just fragments the table.
func Log2(v int64) int {
	l := 0
	for v > 1 {
		v >>= 1
		l++
	}
	return l
}

// Decision is the measured-optimal way to run one Key. Each kind reads
// only its own fields; the rest stay zero.
type Decision struct {
	// Variant is the algorithm. For Permute it is a tensor.Strategy*
	// name. For Transpose it names the pipeline the decision was
	// measured on: TuneFor records "cache-aware", and files from before
	// the engine had one pipeline may hold any of transposeVariants.
	// Planning reads a 2D decision's direction, workers and tile width,
	// not its variant.
	Variant string
	C2R     bool  // Transpose: the C2R pipeline, false for R2C
	Workers int   // every kind: measured-best worker count
	BlockW  int   // Transpose: cache-aware tile width, 0 = derived
	Chunk   int64 // OOC: segment bytes; Store: chunk height in rows
	Depth   int   // OOC: pipeline depth
	// GBps is the throughput of the winning measurement, for provenance
	// and for staleness checks by consumers.
	GBps float64
}

// transposeVariants are the pipeline names a 2D decision may record.
var transposeVariants = []string{"scatter", "gather", "cache-aware", "skinny"}

// validate checks one entry read from a file.
func validate(k Key, d Decision) error {
	var ok bool
	switch k.Kind {
	case KindTranspose:
		ok = k.Rows > 0 && k.Cols > 0 && k.Budget > 0 && slices.Contains(transposeVariants, d.Variant) && d.BlockW >= 0
	case KindOOC:
		ok = k.Rows > 0 && k.Cols > 0 && k.Budget >= 1 && k.Budget <= 62 && d.Chunk > 0 && d.Depth > 0
	case KindPermute:
		s, err := tensor.ParseShape(k.Dims)
		if err == nil {
			_, err = tensor.ParsePerm(k.Perm, len(s))
		}
		if err != nil {
			return &FormatError{Reason: fmt.Sprintf("invalid perm entry %v", k), Err: err}
		}
		ok = k.Budget > 0 && tensor.ValidStrategy(d.Variant)
	case KindStore:
		ok = k.Cols > 0 && k.Rows >= 0 && k.Rows <= 62 && d.Chunk > 0
	}
	if !ok || k.ElemSize <= 0 || d.Workers <= 0 {
		return &FormatError{Reason: fmt.Sprintf("invalid %v entry %v %+v", k.Kind, k, d)}
	}
	return nil
}

// Table is a wisdom table: the accumulated measured decisions of an
// autotuning run (or several, merged), every kind in one map. The zero
// value is not usable; call NewTable. A Table is not safe for concurrent
// mutation; callers that share one across goroutines (the package-level
// wisdom store in the public API) serialize access themselves.
type Table struct {
	m map[Key]Decision
}

// NewTable returns an empty wisdom table.
func NewTable() *Table { return &Table{m: make(map[Key]Decision)} }

// Lookup returns the decision recorded for k, if any.
func (t *Table) Lookup(k Key) (Decision, bool) {
	d, ok := t.m[k]
	return d, ok
}

// Store records d as the decision for k, replacing any earlier entry.
func (t *Table) Store(k Key, d Decision) { t.m[k] = d }

// Len returns the number of recorded decisions of every kind.
func (t *Table) Len() int { return len(t.m) }

// Keys returns the table's keys in deterministic order: by kind, then
// shape, element size and budget.
func (t *Table) Keys() []Key {
	ks := make([]Key, 0, len(t.m))
	for k := range t.m {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, func(a, b Key) int {
		return cmp.Or(
			cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.Rows, b.Rows),
			cmp.Compare(a.Cols, b.Cols),
			cmp.Compare(a.Dims, b.Dims),
			cmp.Compare(a.Perm, b.Perm),
			cmp.Compare(a.ElemSize, b.ElemSize),
			cmp.Compare(a.Budget, b.Budget),
		)
	})
	return ks
}

// Merge copies every entry of other into t, overwriting collisions:
// the incoming table is assumed fresher (`xpose tune -merge` folds new
// measurements over an existing file this way).
func (t *Table) Merge(other *Table) { maps.Copy(t.m, other.m) }

// Clone returns a deep copy of t.
func (t *Table) Clone() *Table { return &Table{m: maps.Clone(t.m)} }

// Equal reports whether two tables hold identical entries.
func (t *Table) Equal(other *Table) bool { return maps.Equal(t.m, other.m) }

// wisdomFile is the on-disk envelope: one section per kind, each with
// its own field names, so files stay readable by every version-1 reader.
type wisdomFile struct {
	Version int           `json:"version"`
	Entries []matrixEntry `json:"entries"`
	OOC     []oocEntry    `json:"ooc,omitempty"`
	Perm    []permEntry   `json:"perm,omitempty"`
	Store   []storeEntry  `json:"store,omitempty"`
}

type matrixEntry struct {
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	ElemSize   int     `json:"elem_size"`
	MaxWorkers int     `json:"max_workers"`
	Variant    string  `json:"variant"`
	C2R        bool    `json:"c2r"`
	Workers    int     `json:"workers"`
	BlockW     int     `json:"block_w,omitempty"`
	GBps       float64 `json:"gbps,omitempty"`
}

func (e matrixEntry) split() (Key, Decision) {
	return Key{Kind: KindTranspose, Rows: e.Rows, Cols: e.Cols, ElemSize: e.ElemSize, Budget: e.MaxWorkers},
		Decision{Variant: e.Variant, C2R: e.C2R, Workers: e.Workers, BlockW: e.BlockW, GBps: e.GBps}
}

type oocEntry struct {
	Rows         int     `json:"rows"`
	Cols         int     `json:"cols"`
	ElemSize     int     `json:"elem_size"`
	BudgetLog2   int     `json:"budget_log2"`
	SegmentBytes int64   `json:"segment_bytes"`
	Depth        int     `json:"depth"`
	Workers      int     `json:"workers"`
	GBps         float64 `json:"gbps,omitempty"`
}

func (e oocEntry) split() (Key, Decision) {
	return Key{Kind: KindOOC, Rows: e.Rows, Cols: e.Cols, ElemSize: e.ElemSize, Budget: e.BudgetLog2},
		Decision{Chunk: e.SegmentBytes, Depth: e.Depth, Workers: e.Workers, GBps: e.GBps}
}

type permEntry struct {
	Dims       string  `json:"dims"`
	Perm       string  `json:"perm"`
	ElemSize   int     `json:"elem_size"`
	MaxWorkers int     `json:"max_workers"`
	Strategy   string  `json:"strategy"`
	Workers    int     `json:"workers"`
	GBps       float64 `json:"gbps,omitempty"`
}

func (e permEntry) split() (Key, Decision) {
	return Key{Kind: KindPermute, Dims: e.Dims, Perm: e.Perm, ElemSize: e.ElemSize, Budget: e.MaxWorkers},
		Decision{Variant: e.Strategy, Workers: e.Workers, GBps: e.GBps}
}

type storeEntry struct {
	Fields    int     `json:"fields"`
	ElemSize  int     `json:"elem_size"`
	RowsLog2  int     `json:"rows_log2"`
	ChunkRows int64   `json:"chunk_rows"`
	Workers   int     `json:"workers"`
	GBps      float64 `json:"gbps,omitempty"`
}

func (e storeEntry) split() (Key, Decision) {
	return Key{Kind: KindStore, Rows: e.RowsLog2, Cols: e.Fields, ElemSize: e.ElemSize},
		Decision{Chunk: e.ChunkRows, Workers: e.Workers, GBps: e.GBps}
}

// Save writes the table to w as versioned JSON with entries in
// deterministic key order, so identical tables serialize identically
// (the round-trip property the fuzz harness asserts).
func (t *Table) Save(w io.Writer) error {
	f := wisdomFile{Version: WisdomVersion}
	for _, k := range t.Keys() {
		d := t.m[k]
		switch k.Kind {
		case KindTranspose:
			f.Entries = append(f.Entries, matrixEntry{k.Rows, k.Cols, k.ElemSize, k.Budget, d.Variant, d.C2R, d.Workers, d.BlockW, d.GBps})
		case KindOOC:
			f.OOC = append(f.OOC, oocEntry{k.Rows, k.Cols, k.ElemSize, k.Budget, d.Chunk, d.Depth, d.Workers, d.GBps})
		case KindPermute:
			f.Perm = append(f.Perm, permEntry{k.Dims, k.Perm, k.ElemSize, k.Budget, d.Variant, d.Workers, d.GBps})
		case KindStore:
			f.Store = append(f.Store, storeEntry{k.Cols, k.ElemSize, k.Rows, d.Chunk, d.Workers, d.GBps})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Load reads a wisdom table from r.
//
//   - Syntactically or semantically invalid input (bad JSON, fields
//     foreign to a section, impossible shapes, unknown variants) is
//     rejected with a *FormatError wrapping ErrCorrupt.
//   - A well-formed file with an unknown version is skipped, not fatal:
//     Load returns an empty table and nil error, so old processes reading
//     new wisdom (or vice versa) fall back to the static heuristic.
func Load(r io.Reader) (*Table, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Probe the version tolerantly first: a future version may carry
	// fields this reader has never heard of, and that must read as
	// "skip", not "corrupt".
	var probe struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, &FormatError{Reason: "decoding", Err: err}
	}
	if probe.Version == nil {
		return nil, &FormatError{Reason: "missing version"}
	}
	if *probe.Version != WisdomVersion {
		return NewTable(), nil
	}
	var f wisdomFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, &FormatError{Reason: "decoding", Err: err}
	}
	t := NewTable()
	if err := cmp.Or(loadSection(t, f.Entries), loadSection(t, f.OOC),
		loadSection(t, f.Perm), loadSection(t, f.Store)); err != nil {
		return nil, err
	}
	return t, nil
}

// loadSection validates and stores one section's entries.
func loadSection[E interface{ split() (Key, Decision) }](t *Table, entries []E) error {
	for _, e := range entries {
		k, d := e.split()
		if err := validate(k, d); err != nil {
			return err
		}
		t.Store(k, d)
	}
	return nil
}
