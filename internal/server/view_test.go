package server

import (
	"bytes"
	"errors"
	"testing"
)

// refTranspose computes the expected byte image of transposing a
// row-major rows×cols matrix of elem-byte records, element by element.
func refTranspose(raw []byte, rows, cols, elem int) []byte {
	out := make([]byte, len(raw))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			src := (r*cols + c) * elem
			dst := (c*rows + r) * elem
			copy(out[dst:dst+elem], raw[src:src+elem])
		}
	}
	return out
}

func fillPattern(n int) []byte {
	b := make([]byte, n)
	x := uint32(0x9E3779B9)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

func TestTransposeMemAllWidths(t *testing.T) {
	for _, elem := range []int{1, 2, 4, 8} {
		for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 7}, {16, 9}, {33, 41}} {
			rows, cols := shape[0], shape[1]
			raw := fillPattern(rows * cols * elem)
			want := refTranspose(raw, rows, cols, elem)
			if err := transposeMem(raw, rows, cols, elem); err != nil {
				t.Fatalf("elem %d %dx%d: %v", elem, rows, cols, err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("elem %d %dx%d: transpose mismatch", elem, rows, cols)
			}
		}
	}
}

func TestCheckGeomRejects(t *testing.T) {
	cases := []struct {
		name             string
		raw              int
		rows, cols, elem int
	}{
		{"zero rows", 0, 0, 4, 4},
		{"zero cols", 0, 4, 0, 4},
		{"length mismatch", 15, 2, 2, 4},
		{"overflow", 8, 1 << 31, 1 << 31, 8},
	}
	for _, c := range cases {
		if err := checkGeom(make([]byte, c.raw), c.rows, c.cols, c.elem); !errors.Is(err, errBadElem) {
			t.Fatalf("%s: err = %v, want errBadElem", c.name, err)
		}
	}
}

func TestTransposeMemRejectsBadElem(t *testing.T) {
	if err := transposeMem(make([]byte, 12), 2, 2, 3); !errors.Is(err, errBadElem) {
		t.Fatalf("elem 3: err = %v, want errBadElem", err)
	}
}
