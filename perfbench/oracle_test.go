package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"inplace"
)

func TestCheckMatrixCatchesCorruption(t *testing.T) {
	const rows, cols, base = 5, 7, 1 << 40
	buf := make([]uint64, rows*cols)
	fillPattern(buf, base, mask64)
	if !checkMatrix(buf, rows, cols, false, base, mask64) {
		t.Fatal("the untouched pattern fails the oracle")
	}
	if err := inplace.Transpose(buf, rows, cols); err != nil {
		t.Fatal(err)
	}
	if !checkMatrix(buf, rows, cols, true, base, mask64) {
		t.Fatal("a correct transpose fails the oracle")
	}
	buf[0], buf[1] = buf[1], buf[0]
	if checkMatrix(buf, rows, cols, true, base, mask64) {
		t.Fatal("two swapped elements pass the oracle")
	}
}

func TestCheckNCHWCatchesCorruption(t *testing.T) {
	const n, h, w, c, base = 2, 3, 4, 5, 99
	buf := make([]float32, n*h*w*c)
	fillPattern(buf, base, mask24)
	if err := inplace.PermuteAxes(buf, []int{n, h, w, c}, []int{0, 3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if !checkNCHW(buf, n, h, w, c, base, mask24) {
		t.Fatal("a correct NHWC→NCHW permute fails the oracle")
	}
	buf[len(buf)-1]++
	if checkNCHW(buf, n, h, w, c, base, mask24) {
		t.Fatal("a changed element passes the oracle")
	}
}

func TestCheckBytesFollowsTranspose(t *testing.T) {
	const rows, cols, base = 6, 9, 12345
	for _, elemSize := range []int{4, 8} {
		// The library transposes the typed pattern; the oracle reads the
		// little-endian bytes of the result.
		vals := make([]uint64, rows*cols)
		fillPattern(vals, base, elemMask(elemSize))
		if err := inplace.Transpose(vals, rows, cols); err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 0, len(vals)*elemSize)
		for _, v := range vals {
			raw = append(raw, make([]byte, elemSize)...)
			putElem(raw[len(raw)-elemSize:], elemSize, v)
		}
		if !checkBytes(raw, elemSize, base, &cursor{rows: rows, cols: cols, transposed: true}) {
			t.Fatalf("elem %d: a correct transpose fails the oracle", elemSize)
		}
		raw[elemSize]++
		if checkBytes(raw, elemSize, base, &cursor{rows: rows, cols: cols, transposed: true}) {
			t.Fatalf("elem %d: a changed byte passes the oracle", elemSize)
		}
	}
}

// TestCorruptedOutputIsCounted corrupts one element between an op and
// its oracle and expects the op to count as failed: error_rate rises
// and the result line reads correct=false.
func TestCorruptedOutputIsCounted(t *testing.T) {
	f, err := newT2D("t2d", 6, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	l := newOpLog()
	runOp(f, 1, l, nil)
	if l.attempted != 1 || l.failed != 0 {
		t.Fatalf("clean op: attempted %d failed %d, want 1 and 0", l.attempted, l.failed)
	}
	op := f.op
	f.op = func(w int) error {
		if err := op(w); err != nil {
			return err
		}
		f.buf64[1]++
		return nil
	}
	runOp(f, 1, l, nil)
	if l.attempted != 2 || l.failed != 1 {
		t.Fatalf("corrupted op: attempted %d failed %d, want 2 and 1", l.attempted, l.failed)
	}

	rep := newReport()
	rep.count(l)
	var out bytes.Buffer
	if err := rep.emit(&out, []specMetric{{Name: "success_ratio", Unit: "ratio"}}, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 || res.Metrics["success_ratio"].Value != 0.5 {
		t.Fatalf("result line %s: want correct=false, 1 of 2 failed, success_ratio 0.5", lines[len(lines)-1])
	}
	if got := rep.values["error_rate"].Value; got != 0.5 {
		t.Fatalf("error_rate %v, want 0.5", got)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Layer: "ooc", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "storage", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "storage", Start: 30, End: 50}, // overlaps its sibling
	}}
	self := tr.selfTime()
	if self["ooc"] != 60 || self["storage"] != 50 {
		t.Fatalf("self times %v, want ooc 60 and storage 50", self)
	}
}
