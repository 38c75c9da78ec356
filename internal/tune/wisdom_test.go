package tune

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable()
	t.Store(Key{Kind: KindTranspose, Rows: 1000, Cols: 8, ElemSize: 8, Budget: 4},
		Decision{Variant: "skinny", C2R: true, Workers: 2, GBps: 12.5})
	t.Store(Key{Kind: KindTranspose, Rows: 512, Cols: 512, ElemSize: 4, Budget: 1},
		Decision{Variant: "cache-aware", C2R: false, Workers: 1, BlockW: 32, GBps: 3.25})
	t.Store(Key{Kind: KindTranspose, Rows: 96, Cols: 120, ElemSize: 8, Budget: 8},
		Decision{Variant: "scatter", C2R: true, Workers: 8})
	return t
}

func permTable() *Table {
	t := NewTable()
	t.Store(Key{Kind: KindPermute, Dims: "8x1024x16", Perm: "0,2,1", ElemSize: 4, Budget: 8},
		Decision{Variant: "greedy", Workers: 4, GBps: 12.5})
	t.Store(Key{Kind: KindPermute, Dims: "64x128", Perm: "1,0", ElemSize: 8, Budget: 1},
		Decision{Variant: "inverse", Workers: 1})
	t.Store(Key{Kind: KindPermute, Dims: "5x7x11", Perm: "2,1,0", ElemSize: 1, Budget: 2},
		Decision{Variant: "cycle", Workers: 1, GBps: 0.9})
	return t
}

// fixtureTable is testdata/wisdom_v1.json, a file written by the Save of
// the four-section table this one replaced, as a literal table.
func fixtureTable() *Table {
	t := NewTable()
	for k, d := range map[Key]Decision{
		{Kind: KindTranspose, Rows: 96, Cols: 120, ElemSize: 8, Budget: 2}:            {Variant: "scatter", C2R: true, Workers: 2},
		{Kind: KindTranspose, Rows: 512, Cols: 512, ElemSize: 4, Budget: 1}:           {Variant: "cache-aware", Workers: 1, BlockW: 32, GBps: 3.25},
		{Kind: KindTranspose, Rows: 1000, Cols: 8, ElemSize: 8, Budget: 4}:            {Variant: "skinny", C2R: true, Workers: 2, GBps: 12.5},
		{Kind: KindOOC, Rows: 32, Cols: 48, ElemSize: 8, Budget: 14}:                  {Chunk: 1536, Depth: 3, Workers: 1},
		{Kind: KindOOC, Rows: 16384, Cols: 16384, ElemSize: 8, Budget: 26}:            {Chunk: 4 << 20, Depth: 2, Workers: 4, GBps: 0.75},
		{Kind: KindPermute, Dims: "2x64x4", Perm: "0,2,1", ElemSize: 4, Budget: 1}:    {Variant: "inverse", Workers: 1, GBps: 1.5},
		{Kind: KindPermute, Dims: "5x7x11", Perm: "2,1,0", ElemSize: 1, Budget: 2}:    {Variant: "cycle", Workers: 1},
		{Kind: KindPermute, Dims: "8x1024x16", Perm: "0,2,1", ElemSize: 4, Budget: 8}: {Variant: "greedy", Workers: 4, GBps: 12.5},
		{Kind: KindStore, Rows: 0, Cols: 3, ElemSize: 2}:                              {Chunk: 1, Workers: 1},
		{Kind: KindStore, Rows: 11, Cols: 8, ElemSize: 4}:                             {Chunk: 2048, Workers: 1},
		{Kind: KindStore, Rows: 20, Cols: 16, ElemSize: 4}:                            {Chunk: 65536, Workers: 2, GBps: 0.5},
	} {
		t.Store(k, d)
	}
	return t
}

func readFixture(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile("testdata/wisdom_v1.json")
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// A saved table loads back equal, and saving the reloaded table
// reproduces the bytes.
func TestWisdomRoundTrip(t *testing.T) {
	for name, tbl := range map[string]*Table{
		"transpose": sampleTable(),
		"perm":      permTable(),
		"all kinds": fixtureTable(),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tbl.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !tbl.Equal(got) {
				t.Fatalf("round trip changed the table:\nwant %v\ngot  %v", tbl.Keys(), got.Keys())
			}
			var buf2 bytes.Buffer
			if err := got.Save(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Error("serialization is not deterministic")
			}
		})
	}
}

// Files written before this reader load to the same decisions, and
// re-saving them loads back equal: the committed fixture holds every
// section, and a version-1 file from before the perm section existed
// holds only 2D entries (sections are optional, not a format bump).
func TestWisdomCompat(t *testing.T) {
	twoD := NewTable()
	twoD.Store(Key{Kind: KindTranspose, Rows: 64, Cols: 128, ElemSize: 4, Budget: 4},
		Decision{Variant: "scatter", C2R: true, Workers: 2})
	for name, tc := range map[string]struct {
		raw  []byte
		want *Table
	}{
		"fixture": {readFixture(t), fixtureTable()},
		"before the perm section": {[]byte(`{"version": 1, "entries": [{"rows": 64, "cols": 128,
			"elem_size": 4, "max_workers": 4, "variant": "scatter", "c2r": true, "workers": 2}]}`), twoD},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := Load(bytes.NewReader(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(tc.want) {
				t.Fatalf("loaded %v, want %v", got.Keys(), tc.want.Keys())
			}
			var buf bytes.Buffer
			if err := got.Save(&buf); err != nil {
				t.Fatal(err)
			}
			again, err := Load(&buf)
			if err != nil || !again.Equal(tc.want) {
				t.Fatalf("re-saved file reloads differently (err %v)", err)
			}
		})
	}
}

func TestWisdomCorruptInputs(t *testing.T) {
	const (
		matrix = `"rows":4,"cols":8,"elem_size":8,"max_workers":1,"variant":"skinny","c2r":true,"workers":1`
		ooc    = `"rows":4,"cols":8,"elem_size":8,"budget_log2":10,"segment_bytes":64,"depth":1,"workers":1`
		perm   = `"dims":"2x3","perm":"1,0","elem_size":4,"max_workers":1,"strategy":"greedy","workers":1`
		store  = `"fields":3,"elem_size":4,"rows_log2":5,"chunk_rows":8,"workers":1`
	)
	section := func(name, entry string) string {
		return `{"version":1,"` + name + `":[{` + entry + `}]}`
	}
	cases := map[string]string{
		"garbage":         "not json at all",
		"wrong type":      `[1, 2, 3]`,
		"missing version": `{"entries": []}`,
		"unknown field":   `{"version":1,"entries":[],"blessed":true}`,

		"bad shape":             section("entries", strings.Replace(matrix, `"rows":4`, `"rows":-4`, 1)),
		"bad variant":           section("entries", strings.Replace(matrix, "skinny", "warp-shuffle", 1)),
		"bad workers":           section("entries", strings.Replace(matrix, `"workers":1`, `"workers":0`, 1)),
		"entries foreign field": section("entries", matrix+`,"strategy":"greedy"`),
		"ooc bad budget":        section("ooc", strings.Replace(ooc, `"budget_log2":10`, `"budget_log2":0`, 1)),
		"ooc foreign field":     section("ooc", ooc+`,"variant":"skinny"`),
		"perm bad dims":         section("perm", strings.Replace(perm, "2x3", "0x4", 1)),
		"perm rank mismatch":    section("perm", strings.Replace(perm, "2x3", "2x3x4", 1)),
		"perm bad strategy":     section("perm", strings.Replace(perm, "greedy", "warp", 1)),
		"perm bad workers":      section("perm", strings.Replace(perm, `"workers":1`, `"workers":0`, 1)),
		"perm foreign field":    section("perm", perm+`,"block_w":16`),
		"store bad chunk":       section("store", strings.Replace(store, `"chunk_rows":8`, `"chunk_rows":0`, 1)),
		"store foreign field":   section("store", store+`,"max_workers":2`),
	}
	for _, valid := range []string{section("entries", matrix), section("ooc", ooc), section("perm", perm), section("store", store)} {
		if _, err := Load(strings.NewReader(valid)); err != nil {
			t.Fatalf("the valid base of the corrupt cases is rejected: %s: %v", valid, err)
		}
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Load(strings.NewReader(raw))
			if err == nil {
				t.Fatal("Load accepted corrupt input")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("error %v is not ErrCorrupt", err)
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Errorf("error %v is not a *FormatError", err)
			}
		})
	}
}

// A future format version — even one whose entries would not decode
// today, in any section — must read as an empty table, not an error.
func TestWisdomUnknownVersionSkipped(t *testing.T) {
	for name, raw := range map[string]string{
		"entries": `{"version": 99, "entries": [{"novel_field": {"x": 1}}], "machine": "quantum"}`,
		"perm":    `{"version": 99, "perm": [{"dims": "??", "whatever": true}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			tbl, err := Load(strings.NewReader(raw))
			if err != nil {
				t.Fatalf("unknown version must not be fatal: %v", err)
			}
			if tbl.Len() != 0 {
				t.Fatalf("unknown version must load empty, got %d entries", tbl.Len())
			}
		})
	}
}

// Merge overwrites collisions with the incoming entry and adds the
// rest, for every kind; a Clone is equal and shares no state.
func TestWisdomMerge(t *testing.T) {
	for name, fresh := range map[string]struct {
		k    Key
		d    Decision
		more Key
	}{
		"transpose": {Key{Kind: KindTranspose, Rows: 1000, Cols: 8, ElemSize: 8, Budget: 4}, Decision{Variant: "cache-aware", Workers: 4},
			Key{Kind: KindTranspose, Rows: 7, Cols: 7, ElemSize: 2, Budget: 2}},
		"ooc": {Key{Kind: KindOOC, Rows: 32, Cols: 48, ElemSize: 8, Budget: 14}, Decision{Chunk: 768, Depth: 1, Workers: 2},
			Key{Kind: KindOOC, Rows: 32, Cols: 48, ElemSize: 8, Budget: 15}},
		"perm": {Key{Kind: KindPermute, Dims: "8x1024x16", Perm: "0,2,1", ElemSize: 4, Budget: 8}, Decision{Variant: "cycle", Workers: 1},
			Key{Kind: KindPermute, Dims: "2x2", Perm: "1,0", ElemSize: 1, Budget: 1}},
		"store": {Key{Kind: KindStore, Rows: 11, Cols: 8, ElemSize: 4}, Decision{Chunk: 512, Workers: 2},
			Key{Kind: KindStore, Rows: 12, Cols: 8, ElemSize: 4}},
	} {
		t.Run(name, func(t *testing.T) {
			base := fixtureTable()
			n := base.Len()
			if _, ok := base.Lookup(fresh.k); !ok {
				t.Fatalf("fixture has no entry for %v", fresh.k)
			}
			in := NewTable()
			in.Store(fresh.k, fresh.d)
			in.Store(fresh.more, fresh.d)
			base.Merge(in)
			if base.Len() != n+1 {
				t.Fatalf("merged table has %d entries, want %d", base.Len(), n+1)
			}
			if d, _ := base.Lookup(fresh.k); d != fresh.d {
				t.Fatalf("merge must overwrite collisions with incoming entries, got %+v", d)
			}
			c := base.Clone()
			if !c.Equal(base) {
				t.Fatal("Clone not equal")
			}
			c.Store(fresh.k, Decision{Workers: 99})
			if c.Equal(base) {
				t.Fatal("Clone shares state with original")
			}
		})
	}
}

func FuzzWisdomRoundTrip(f *testing.F) {
	var valid bytes.Buffer
	if err := sampleTable().Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{"version":1,"entries":[]}`))
	f.Add([]byte(`{"version":42,"entries":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"version":1,"entries":[{"rows":1,"cols":1,"elem_size":1,"max_workers":1,"variant":"gather","c2r":false,"workers":1}]}`))
	f.Add([]byte("\x00\x01\x02"))
	f.Add(readFixture(f))

	f.Fuzz(func(t *testing.T, raw []byte) {
		tbl, err := Load(bytes.NewReader(raw))
		if err != nil {
			// Every rejection must be the typed corruption error, never a
			// panic or an untyped failure.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load(%q) returned non-typed error %v", raw, err)
			}
			return
		}
		// Whatever loads must round-trip exactly.
		var buf bytes.Buffer
		if err := tbl.Save(&buf); err != nil {
			t.Fatalf("Save after Load(%q): %v", raw, err)
		}
		again, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reload after Load(%q): %v", raw, err)
		}
		if !tbl.Equal(again) {
			t.Fatalf("round trip changed table for input %q", raw)
		}
	})
}
