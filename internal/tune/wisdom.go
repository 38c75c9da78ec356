package tune

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"inplace/internal/core"
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

// Key identifies one tuning problem, mirroring the planner cache key:
// the (order-normalized) shape, the element size in bytes, and the
// worker budget the tuner was allowed to spend. Decisions measured under
// one budget do not transfer to another (the worker sweep saturates
// differently), so the budget is part of the identity.
type Key struct {
	Rows       int `json:"rows"`
	Cols       int `json:"cols"`
	ElemSize   int `json:"elem_size"`
	MaxWorkers int `json:"max_workers"`
}

func (k Key) String() string {
	return fmt.Sprintf("%dx%d/%dB/w%d", k.Rows, k.Cols, k.ElemSize, k.MaxWorkers)
}

func (k Key) validate() error {
	if k.Rows <= 0 || k.Cols <= 0 || k.ElemSize <= 0 || k.MaxWorkers <= 0 {
		return &FormatError{Reason: fmt.Sprintf("invalid key %v", k)}
	}
	return nil
}

// Decision is a measured-optimal execution strategy for one Key: which
// pass structure to run, in which direction, with how many workers and
// what tile width. GBps records the winning measurement for
// provenance and for staleness checks by consumers.
type Decision struct {
	Variant string  `json:"variant"`           // core.Variant.String() name
	C2R     bool    `json:"c2r"`               // true: C2R pipeline, false: R2C
	Workers int     `json:"workers"`           // measured-best worker count
	BlockW  int     `json:"block_w,omitempty"` // cache-aware tile width, 0 = derived
	GBps    float64 `json:"gbps,omitempty"`    // throughput of the winning candidate
}

// CoreVariant resolves the serialized variant name.
func (d Decision) CoreVariant() (core.Variant, bool) { return core.ParseVariant(d.Variant) }

func (d Decision) validate() error {
	if _, ok := d.CoreVariant(); !ok {
		return &FormatError{Reason: fmt.Sprintf("unknown variant %q", d.Variant)}
	}
	if d.Workers <= 0 || d.BlockW < 0 {
		return &FormatError{Reason: fmt.Sprintf("invalid decision %+v", d)}
	}
	return nil
}

// Table is a wisdom table: the accumulated measured decisions of an
// autotuning run (or several, merged). The zero value is not usable;
// call NewTable. A Table is not safe for concurrent mutation; callers
// that share one across goroutines (the package-level wisdom store in
// the public API) serialize access themselves.
type Table struct {
	m     map[Key]Decision
	ooc   map[OOCKey]OOCDecision
	perm  map[PermKey]PermDecision
	store map[StoreKey]StoreDecision
}

// NewTable returns an empty wisdom table.
func NewTable() *Table {
	return &Table{
		m:     make(map[Key]Decision),
		ooc:   make(map[OOCKey]OOCDecision),
		perm:  make(map[PermKey]PermDecision),
		store: make(map[StoreKey]StoreDecision),
	}
}

// Lookup returns the decision recorded for k, if any.
func (t *Table) Lookup(k Key) (Decision, bool) {
	d, ok := t.m[k]
	return d, ok
}

// Store records d as the decision for k, replacing any earlier entry.
func (t *Table) Store(k Key, d Decision) { t.m[k] = d }

// Len returns the number of recorded decisions.
func (t *Table) Len() int { return len(t.m) }

// Keys returns the table's keys in deterministic (sorted) order.
func (t *Table) Keys() []Key {
	ks := make([]Key, 0, len(t.m))
	for k := range t.m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.Rows != b.Rows {
			return a.Rows < b.Rows
		}
		if a.Cols != b.Cols {
			return a.Cols < b.Cols
		}
		if a.ElemSize != b.ElemSize {
			return a.ElemSize < b.ElemSize
		}
		return a.MaxWorkers < b.MaxWorkers
	})
	return ks
}

// Merge copies every entry of other into t, overwriting collisions:
// the incoming table is assumed fresher (cmd/xposetune merges new
// measurements over an existing file this way).
func (t *Table) Merge(other *Table) {
	for k, d := range other.m {
		t.m[k] = d
	}
	for k, d := range other.ooc {
		t.ooc[k] = d
	}
	for k, d := range other.perm {
		t.perm[k] = d
	}
	for k, d := range other.store {
		t.store[k] = d
	}
}

// Clone returns a deep copy of t.
func (t *Table) Clone() *Table {
	c := NewTable()
	c.Merge(t)
	return c
}

// Equal reports whether two tables hold identical entries.
func (t *Table) Equal(other *Table) bool {
	if len(t.m) != len(other.m) || len(t.ooc) != len(other.ooc) ||
		len(t.perm) != len(other.perm) || len(t.store) != len(other.store) {
		return false
	}
	for k, d := range t.m {
		if od, ok := other.m[k]; !ok || od != d {
			return false
		}
	}
	for k, d := range t.ooc {
		if od, ok := other.ooc[k]; !ok || od != d {
			return false
		}
	}
	for k, d := range t.perm {
		if od, ok := other.perm[k]; !ok || od != d {
			return false
		}
	}
	for k, d := range t.store {
		if od, ok := other.store[k]; !ok || od != d {
			return false
		}
	}
	return true
}

// wisdomFile is the on-disk envelope.
type wisdomFile struct {
	Version int              `json:"version"`
	Entries []wisdomEntry    `json:"entries"`
	OOC     []oocFileEntry   `json:"ooc,omitempty"`
	Perm    []permFileEntry  `json:"perm,omitempty"`
	Store   []storeFileEntry `json:"store,omitempty"`
}

type wisdomEntry struct {
	Key
	Decision
}

type oocFileEntry struct {
	OOCKey
	OOCDecision
}

type permFileEntry struct {
	PermKey
	PermDecision
}

type storeFileEntry struct {
	StoreKey
	StoreDecision
}

// Save writes the table to w as versioned JSON with entries in
// deterministic key order, so identical tables serialize identically
// (the round-trip property the fuzz harness asserts).
func (t *Table) Save(w io.Writer) error {
	f := wisdomFile{Version: WisdomVersion}
	for _, k := range t.Keys() {
		f.Entries = append(f.Entries, wisdomEntry{Key: k, Decision: t.m[k]})
	}
	for _, k := range t.OOCKeys() {
		f.OOC = append(f.OOC, oocFileEntry{OOCKey: k, OOCDecision: t.ooc[k]})
	}
	for _, k := range t.PermKeys() {
		f.Perm = append(f.Perm, permFileEntry{PermKey: k, PermDecision: t.perm[k]})
	}
	for _, k := range t.StoreKeys() {
		f.Store = append(f.Store, storeFileEntry{StoreKey: k, StoreDecision: t.store[k]})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Load reads a wisdom table from r.
//
//   - Syntactically or semantically invalid input (bad JSON, impossible
//     shapes, unknown variants) is rejected with a *FormatError wrapping
//     ErrCorrupt.
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
	for _, e := range f.Entries {
		if err := e.Key.validate(); err != nil {
			return nil, err
		}
		if err := e.Decision.validate(); err != nil {
			return nil, err
		}
		t.Store(e.Key, e.Decision)
	}
	for _, e := range f.OOC {
		if err := e.OOCKey.validate(); err != nil {
			return nil, err
		}
		if err := e.OOCDecision.validate(); err != nil {
			return nil, err
		}
		t.StoreOOC(e.OOCKey, e.OOCDecision)
	}
	for _, e := range f.Perm {
		if err := e.PermKey.validate(); err != nil {
			return nil, err
		}
		if err := e.PermDecision.validate(); err != nil {
			return nil, err
		}
		t.StorePerm(e.PermKey, e.PermDecision)
	}
	for _, e := range f.Store {
		if err := e.StoreKey.validate(); err != nil {
			return nil, err
		}
		if err := e.StoreDecision.validate(); err != nil {
			return nil, err
		}
		t.StoreStore(e.StoreKey, e.StoreDecision)
	}
	return t, nil
}
