package inplace_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"inplace"
	"inplace/internal/core"
	"inplace/internal/tune"
)

func TestTuneRecordsWisdomAndPlannerConsultsIt(t *testing.T) {
	defer inplace.ClearWisdom()
	inplace.ClearWisdom()

	res, err := inplace.Tune[uint64](96, 120, inplace.TuneConfig{Workers: 1, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if inplace.WisdomLen() != 1 {
		t.Fatalf("WisdomLen = %d after one Tune, want 1", inplace.WisdomLen())
	}

	pl, err := inplace.NewPlanner[uint64](96, 120, inplace.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Plan().Method(); got != res.Method {
		t.Errorf("tuned planner method = %v, want the tuned decision %v", got, res.Method)
	}
	if got := pl.Plan().UsesC2R(); got != (res.Direction == inplace.ForceC2R) {
		t.Errorf("tuned planner C2R = %v, direction decision was %v", got, res.Direction)
	}

	// The tuned plan must still compute the correct transposition.
	data := make([]uint64, 96*120)
	for i := range data {
		data[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	want := transposeRef(data, 96, 120)
	if err := pl.Execute(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("tuned plan transposed incorrectly at %d", i)
		}
	}

	// WisdomOff must reproduce the untuned heuristics.
	off, err := inplace.NewPlanner[uint64](96, 120, inplace.Options{Workers: 1, Tuning: inplace.WisdomOff})
	if err != nil {
		t.Fatal(err)
	}
	if off.Plan().Method() != inplace.CacheAware || !off.Plan().UsesC2R() {
		t.Errorf("WisdomOff plan = %v, want the heuristic cache-aware C2R", off.Plan())
	}
}

func TestWisdomKeyedByElementSize(t *testing.T) {
	defer inplace.ClearWisdom()
	inplace.ClearWisdom()

	if _, err := inplace.Tune[uint32](64, 96, inplace.TuneConfig{Workers: 1, Fast: true}); err != nil {
		t.Fatal(err)
	}
	// A different element size must not match the recorded decision.
	if _, err := inplace.NewPlanner[uint64](64, 96, inplace.Options{Workers: 1, Tuning: inplace.WisdomRequired}); !errors.Is(err, inplace.ErrNoWisdom) {
		t.Errorf("uint64 planner matched uint32 wisdom (err=%v)", err)
	}
	if _, err := inplace.NewPlanner[uint32](64, 96, inplace.Options{Workers: 1, Tuning: inplace.WisdomRequired}); err != nil {
		t.Errorf("uint32 planner missed its own wisdom: %v", err)
	}
	// float32 shares uint32's size and therefore its wisdom.
	if _, err := inplace.NewPlanner[float32](64, 96, inplace.Options{Workers: 1, Tuning: inplace.WisdomRequired}); err != nil {
		t.Errorf("float32 planner missed same-size wisdom: %v", err)
	}
}

func TestWisdomRequired(t *testing.T) {
	defer inplace.ClearWisdom()
	inplace.ClearWisdom()

	_, err := inplace.NewPlanner[uint64](33, 44, inplace.Options{Tuning: inplace.WisdomRequired})
	if !errors.Is(err, inplace.ErrNoWisdom) {
		t.Fatalf("WisdomRequired without wisdom: err = %v, want ErrNoWisdom", err)
	}
	if _, err := inplace.Tune[uint64](33, 44, inplace.TuneConfig{Fast: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := inplace.NewPlanner[uint64](33, 44, inplace.Options{Tuning: inplace.WisdomRequired}); err != nil {
		t.Fatalf("WisdomRequired with wisdom: %v", err)
	}
}

func TestExplicitOptionsWinOverWisdom(t *testing.T) {
	defer inplace.ClearWisdom()
	inplace.ClearWisdom()

	if _, err := inplace.Tune[uint64](120, 96, inplace.TuneConfig{Workers: 1, Fast: true}); err != nil {
		t.Fatal(err)
	}
	pl, err := inplace.NewPlanner[uint64](120, 96, inplace.Options{
		Workers: 1, Method: inplace.Algorithm1, Direction: inplace.ForceR2C,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Plan().Method() != inplace.Algorithm1 {
		t.Errorf("explicit Method overridden by wisdom: got %v", pl.Plan().Method())
	}
	if pl.Plan().UsesC2R() {
		t.Error("explicit Direction overridden by wisdom")
	}
}

func TestSaveLoadWisdomRoundTrip(t *testing.T) {
	defer inplace.ClearWisdom()
	inplace.ClearWisdom()

	if _, err := inplace.Tune[uint64](64, 80, inplace.TuneConfig{Workers: 1, Fast: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := inplace.Tune[uint64](500, 5, inplace.TuneConfig{Workers: 1, Fast: true}); err != nil {
		t.Fatal(err)
	}
	before, err := inplace.NewPlanner[uint64](64, 80, inplace.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "wisdom.json")
	if err := inplace.SaveWisdom(path); err != nil {
		t.Fatal(err)
	}

	inplace.ClearWisdom()
	if inplace.WisdomLen() != 0 {
		t.Fatal("ClearWisdom left entries behind")
	}
	if err := inplace.LoadWisdom(path); err != nil {
		t.Fatal(err)
	}
	if inplace.WisdomLen() != 2 {
		t.Fatalf("WisdomLen = %d after reload, want 2", inplace.WisdomLen())
	}
	after, err := inplace.NewPlanner[uint64](64, 80, inplace.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if before.Plan().Method() != after.Plan().Method() || before.Plan().UsesC2R() != after.Plan().UsesC2R() {
		t.Errorf("reloaded wisdom resolves differently: %v vs %v", before.Plan(), after.Plan())
	}

	// Save → load → save must be byte-identical (deterministic format).
	path2 := filepath.Join(dir, "wisdom2.json")
	if err := inplace.SaveWisdom(path2); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(path2)
	if string(a) != string(b) {
		t.Error("wisdom serialization is not deterministic across a round trip")
	}
}

func TestLoadWisdomCorruptAndVersionSkew(t *testing.T) {
	defer inplace.ClearWisdom()
	inplace.ClearWisdom()
	dir := t.TempDir()

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("definitely { not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inplace.LoadWisdom(bad); !errors.Is(err, tune.ErrCorrupt) {
		t.Errorf("corrupt wisdom load: err = %v, want ErrCorrupt", err)
	}

	future := filepath.Join(dir, "future.json")
	if err := os.WriteFile(future, []byte(`{"version": 99, "entries": [{"weird": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inplace.LoadWisdom(future); err != nil {
		t.Errorf("unknown-version wisdom must be skipped, not fatal: %v", err)
	}
	if inplace.WisdomLen() != 0 {
		t.Errorf("unknown-version wisdom merged %d entries, want 0", inplace.WisdomLen())
	}
}

// ScratchBytes prices the plan as the planner resolves it: wisdom that
// flips the direction and sets a tile width changes the figure, and
// explicit options still win over it.
func TestScratchBytesFollowsWisdom(t *testing.T) {
	defer inplace.ClearWisdom()
	inplace.ClearWisdom()
	const rows, cols, elem = 256, 4096, 4
	o := inplace.Options{Workers: 2}
	heur, err := inplace.ScratchBytes(rows, cols, elem, o)
	if err != nil {
		t.Fatal(err)
	}
	// The heuristic runs C2R: the shorter side is the plan's m.
	if want := core.ScratchBytes(rows, cols, elem, 2, core.TileWidth(rows, cols, elem, 0)); heur != want {
		t.Fatalf("heuristic ScratchBytes = %d, want %d", heur, want)
	}

	tbl := tune.NewTable()
	tbl.Store(tune.Key{Kind: tune.KindTranspose, Rows: rows, Cols: cols, ElemSize: elem, Budget: 2},
		tune.Decision{Variant: "cache-aware", C2R: false, Workers: 2, BlockW: 32})
	path := filepath.Join(t.TempDir(), "wisdom.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inplace.LoadWisdom(path); err != nil {
		t.Fatal(err)
	}
	tuned, err := inplace.ScratchBytes(rows, cols, elem, o)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.ScratchBytes(cols, rows, elem, 2, 32); tuned != want || tuned <= heur {
		t.Fatalf("tuned ScratchBytes = %d, want %d (above the heuristic %d)", tuned, want, heur)
	}
	off, err := inplace.ScratchBytes(rows, cols, elem, inplace.Options{Workers: 2, Tuning: inplace.WisdomOff})
	if err != nil || off != heur {
		t.Fatalf("WisdomOff ScratchBytes = %d, %v; want %d", off, err, heur)
	}
	if _, err := inplace.ScratchBytes(rows, cols, 0, o); !errors.Is(err, inplace.ErrElemSize) {
		t.Fatalf("element size 0: err = %v, want ErrElemSize", err)
	}
}
