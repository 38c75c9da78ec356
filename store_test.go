package inplace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"inplace/internal/tune"
)

// storeAoS builds a deterministic row-major AoS byte image.
func storeAoS(rows, fields, elem int) []byte {
	buf := make([]byte, rows*fields*elem)
	for i := range buf {
		buf[i] = byte(uint32(i)*2654435761>>7 + uint32(i))
	}
	return buf
}

// TestDatasetRoundTrip drives the public API end to end: create,
// ingest through the typed engine, reopen, scan, project, verify.
func TestDatasetRoundTrip(t *testing.T) {
	for _, elem := range []int{1, 2, 4, 8, 3} { // 3 exercises the builtin fallback
		rows, fields := 100, 6
		aos := storeAoS(rows, fields, elem)
		dir := filepath.Join(t.TempDir(), "ds")

		d, err := CreateDataset(dir, rows, fields, elem, DatasetOptions{ChunkRows: 32, Label: "pub"})
		if err != nil {
			t.Fatalf("elem %d: CreateDataset: %v", elem, err)
		}
		if err := d.Ingest(bytes.NewReader(aos)); err != nil {
			t.Fatalf("elem %d: Ingest: %v", elem, err)
		}
		d.Close()

		rd, err := OpenDataset(dir, DatasetOptions{Label: "pub"})
		if err != nil {
			t.Fatalf("elem %d: OpenDataset: %v", elem, err)
		}
		if rd.Rows() != rows || rd.Fields() != fields || rd.ElemSize() != elem || rd.ChunkRows() != 32 {
			t.Fatalf("elem %d: schema accessors wrong: %d %d %d %d",
				elem, rd.Rows(), rd.Fields(), rd.ElemSize(), rd.ChunkRows())
		}

		got := make([]byte, len(aos))
		if err := rd.Scan(got, 0, rows); err != nil {
			t.Fatalf("elem %d: Scan: %v", elem, err)
		}
		if !bytes.Equal(got, aos) {
			t.Fatalf("elem %d: scan mismatch", elem)
		}

		cols := []int{1, 4}
		proj := make([]byte, rows*len(cols)*elem)
		if err := rd.Project(proj, cols, 0, rows); err != nil {
			t.Fatalf("elem %d: Project: %v", elem, err)
		}
		for r := 0; r < rows; r++ {
			for ci, c := range cols {
				want := aos[(r*fields+c)*elem : (r*fields+c+1)*elem]
				got := proj[(r*len(cols)+ci)*elem : (r*len(cols)+ci+1)*elem]
				if !bytes.Equal(got, want) {
					t.Fatalf("elem %d: projection mismatch at row %d col %d", elem, r, c)
				}
			}
		}

		if err := rd.Verify(); err != nil {
			t.Fatalf("elem %d: Verify: %v", elem, err)
		}
		if st := rd.Stats(); st.Scans != 1 || st.Projections != 1 {
			t.Fatalf("elem %d: stats %+v, want 1 scan 1 projection", elem, st)
		}
		rd.Close()
	}
}

// TestDatasetSentinels checks the re-exported sentinels line up with
// the internal ones through the public surface.
func TestDatasetSentinels(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if _, err := CreateDataset(dir, 0, 4, 4); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("zero rows = %v, want ErrBadSchema", err)
	}
	d, err := CreateDataset(dir, 8, 2, 4, DatasetOptions{ChunkRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := OpenDataset(dir); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("open unsealed = %v, want ErrNotSealed", err)
	}
}

// TestDatasetLengthSentinel checks that buffer-length failures from the
// dataset read paths match the package-wide ErrLength sentinel, not
// just the store's internal one.
func TestDatasetLengthSentinel(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	rows, fields, elem := 16, 4, 4
	d, err := CreateDataset(dir, rows, fields, elem, DatasetOptions{ChunkRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(bytes.NewReader(storeAoS(rows, fields, elem))); err != nil {
		t.Fatal(err)
	}
	d.Close()
	rd, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if err := rd.Scan(make([]byte, 1), 0, rows); !errors.Is(err, ErrLength) {
		t.Fatalf("short scan dst = %v, want ErrLength", err)
	}
	if err := rd.Project(make([]byte, 1), []int{0, 2}, 0, rows); !errors.Is(err, ErrLength) {
		t.Fatalf("short project dst = %v, want ErrLength", err)
	}
}

// TestTuneStoreWisdom checks TuneStore records a decision that
// CreateDataset then consumes for chunk sizing, and that the decision
// survives a wisdom save/load round trip under the "store" section.
func TestTuneStoreWisdom(t *testing.T) {
	ClearWisdom()
	t.Cleanup(ClearWisdom)

	rows, fields, elem := 2048, 8, 4
	res, err := TuneStore(rows, fields, elem, TuneConfig{Workers: 1})
	if err != nil {
		t.Fatalf("TuneStore: %v", err)
	}
	if res.ChunkRows <= 0 || res.GBps <= 0 {
		t.Fatalf("degenerate tune result %+v", res)
	}

	// A schema in the same rows-magnitude class picks up the decision.
	dir := filepath.Join(t.TempDir(), "ds")
	d, err := CreateDataset(dir, rows, fields, elem)
	if err != nil {
		t.Fatalf("CreateDataset: %v", err)
	}
	if got := d.ChunkRows(); got != min(res.ChunkRows, rows) {
		t.Fatalf("ChunkRows = %d, want tuned %d", got, res.ChunkRows)
	}
	d.Close()

	// Round trip through the wisdom file.
	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := SaveWisdom(path); err != nil {
		t.Fatalf("SaveWisdom: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"store"`)) {
		t.Fatal("saved wisdom has no store section")
	}
	ClearWisdom()
	if _, ok, _ := lookupWisdom(WisdomAuto, wisdomKey(tune.Key{Kind: tune.KindStore, Rows: rows, Cols: fields, ElemSize: elem}, 0)); ok {
		t.Fatal("store wisdom survived ClearWisdom")
	}
	if err := LoadWisdom(path); err != nil {
		t.Fatalf("LoadWisdom: %v", err)
	}
	got, ok, _ := lookupWisdom(WisdomAuto, wisdomKey(tune.Key{Kind: tune.KindStore, Rows: rows, Cols: fields, ElemSize: elem}, 0))
	if !ok {
		t.Fatal("store decision lost in save/load round trip")
	}
	if int(got.Chunk) != res.ChunkRows {
		t.Fatalf("round-tripped ChunkRows = %d, want %d", got.Chunk, res.ChunkRows)
	}

	// WisdomRequired with no matching entry fails closed.
	ClearWisdom()
	if _, err := CreateDataset(filepath.Join(t.TempDir(), "x"), 64, 3, 2,
		DatasetOptions{Tuning: WisdomRequired}); !errors.Is(err, ErrNoWisdom) {
		t.Fatalf("WisdomRequired without wisdom = %v, want ErrNoWisdom", err)
	}
}
