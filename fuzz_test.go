package inplace

import (
	"testing"
)

// Fuzz targets: the in-place transposition must match the out-of-place
// reference for arbitrary shapes, tile widths and directions, and must
// be a perfect involution when applied forward and back. Run with
// `go test -fuzz FuzzTranspose`; the seed corpus already covers the
// degenerate and gcd-heavy corners.

// fuzzBlockWidths are the tile widths the fuzz targets pick from: the
// derived width, one column, and widths that straddle tile and amount
// boundaries.
var fuzzBlockWidths = [4]int{0, 1, 3, 33}

func FuzzTranspose(f *testing.F) {
	f.Add(uint16(1), uint16(1), uint8(0), uint8(0))
	f.Add(uint16(3), uint16(8), uint8(0), uint8(0))
	f.Add(uint16(4), uint16(8), uint8(1), uint8(1))
	f.Add(uint16(8), uint16(4), uint8(2), uint8(2))
	f.Add(uint16(97), uint16(101), uint8(3), uint8(0))
	f.Add(uint16(64), uint16(48), uint8(4), uint8(1))
	f.Add(uint16(1), uint16(200), uint8(2), uint8(2))
	f.Add(uint16(200), uint16(1), uint8(3), uint8(0))
	// One seed per row-shuffle kernel: a square rotation, n | m under
	// ForceC2R (a rotation with m > n), an a = 1 interleave, and the
	// stride-table gather with gcd > 1 and m > n under ForceR2C.
	f.Add(uint16(24), uint16(24), uint8(0), uint8(0))
	f.Add(uint16(12), uint16(4), uint8(3), uint8(1))
	f.Add(uint16(16), uint16(96), uint8(0), uint8(0))
	f.Add(uint16(60), uint16(84), uint8(3), uint8(2))
	// Squares, which run the swap sweep in every direction: sides 1, 2,
	// 64, 65 and 128, the largest this target's shape cap allows.
	f.Add(uint16(0), uint16(0), uint8(1), uint8(1))
	f.Add(uint16(1), uint16(1), uint8(2), uint8(2))
	f.Add(uint16(63), uint16(63), uint8(0), uint8(1))
	f.Add(uint16(64), uint16(64), uint8(3), uint8(2))
	f.Add(uint16(127), uint16(127), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, mRaw, nRaw uint16, blockRaw, dirRaw uint8) {
		rows := int(mRaw%128) + 1
		cols := int(nRaw%128) + 1
		bw := fuzzBlockWidths[blockRaw%4]
		dir := Direction(dirRaw % 3)
		o := Options{BlockWidth: bw, Direction: dir, Workers: 1 + int(blockRaw%3)}

		data := make([]uint32, rows*cols)
		for i := range data {
			data[i] = uint32(i) * 2654435761
		}
		want := make([]uint32, len(data))
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want[j*rows+i] = data[i*cols+j]
			}
		}
		orig := append([]uint32(nil), data...)

		if err := TransposeWith(data, rows, cols, o); err != nil {
			t.Fatalf("transpose failed: %v", err)
		}
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("%dx%d bw=%d dir=%v: wrong at %d", rows, cols, bw, dir, i)
			}
		}
		if err := TransposeWith(data, cols, rows, o); err != nil {
			t.Fatalf("inverse transpose failed: %v", err)
		}
		for i := range data {
			if data[i] != orig[i] {
				t.Fatalf("%dx%d bw=%d dir=%v: round trip wrong at %d", rows, cols, bw, dir, i)
			}
		}
	})
}

func FuzzAOSRoundTrip(f *testing.F) {
	f.Add(uint16(100), uint8(3))
	f.Add(uint16(4096), uint8(8))
	f.Add(uint16(1), uint8(1))
	f.Add(uint16(333), uint8(31))
	f.Fuzz(func(t *testing.T, countRaw uint16, fieldsRaw uint8) {
		count := int(countRaw) + 1
		fields := int(fieldsRaw%32) + 1
		data := make([]uint64, count*fields)
		for i := range data {
			data[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		orig := append([]uint64(nil), data...)
		if err := AOSToSOA(data, count, fields); err != nil {
			t.Fatal(err)
		}
		// Field f of structure s must be at f*count+s.
		step := 1 + count/17
		for s := 0; s < count; s += step {
			for fi := 0; fi < fields; fi++ {
				if data[fi*count+s] != orig[s*fields+fi] {
					t.Fatalf("count=%d fields=%d: SoA wrong at s=%d f=%d", count, fields, s, fi)
				}
			}
		}
		if err := SOAToAOS(data, count, fields); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if data[i] != orig[i] {
				t.Fatalf("count=%d fields=%d: round trip wrong at %d", count, fields, i)
			}
		}
	})
}
