package inplace

import (
	"testing"
)

// FuzzPlannerReuse is the differential fuzz target for the reusable-plan
// path: a Planner is built once and executed TWICE back to back
// (transpose, then inverse-transpose with a second planner, then again),
// each result checked against the out-of-place reference. Running the
// same cached planner twice is the point — a pass that left stale data
// in the recycled scratch arena or the row shuffle's stride table
// corrupts only the second run, which a single-shot fuzz target would
// never see.
//
// The seed corpus pins the structurally distinct corners: coprime prime
// shapes (no pre-rotation), gcd-heavy shapes (pre-rotation and short
// rotation cycles), skinny AoS-like shapes in both orientations,
// degenerate vectors, and every tile width × direction combination
// across them.
func FuzzPlannerReuse(f *testing.F) {
	f.Add(uint16(97), uint16(101), uint8(0), uint8(0), uint8(1)) // primes, coprime
	f.Add(uint16(96), uint16(120), uint8(3), uint8(0), uint8(2)) // gcd 24
	f.Add(uint16(64), uint16(64), uint8(1), uint8(0), uint8(4))  // square, gcd = m
	f.Add(uint16(2000), uint16(4), uint8(4), uint8(1), uint8(1)) // skinny C2R
	f.Add(uint16(4), uint16(2000), uint8(4), uint8(2), uint8(3)) // skinny R2C
	f.Add(uint16(1), uint16(173), uint8(2), uint8(0), uint8(1))  // degenerate row
	f.Add(uint16(251), uint16(1), uint8(0), uint8(2), uint8(2))  // degenerate column
	f.Add(uint16(512), uint16(8), uint8(4), uint8(0), uint8(8))  // skinny, many workers
	f.Add(uint16(30), uint16(42), uint8(3), uint8(1), uint8(1))  // gcd 6, forced C2R
	f.Fuzz(func(t *testing.T, mRaw, nRaw uint16, blockRaw, dirRaw, workersRaw uint8) {
		rows := int(mRaw%3000) + 1
		cols := int(nRaw%3000) + 1
		if rows*cols > 1<<20 {
			t.Skip("shape too large for fuzz budget")
		}
		o := Options{
			BlockWidth: fuzzBlockWidths[blockRaw%4],
			Direction:  Direction(dirRaw % 3),
			Workers:    int(workersRaw%8) + 1,
		}

		fwd, err := NewPlanner[uint32](rows, cols, o)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := NewPlanner[uint32](cols, rows, o)
		if err != nil {
			t.Fatal(err)
		}

		orig := make([]uint32, rows*cols)
		for i := range orig {
			orig[i] = uint32(i)*2654435761 + 12345
		}
		want := make([]uint32, len(orig))
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want[j*rows+i] = orig[i*cols+j]
			}
		}

		data := append([]uint32(nil), orig...)
		for round := 0; round < 2; round++ {
			if err := fwd.Execute(data); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for i := range data {
				if data[i] != want[i] {
					t.Fatalf("%dx%d %+v round %d: transpose wrong at %d: got %d want %d",
						rows, cols, o, round, i, data[i], want[i])
				}
			}
			if err := inv.Execute(data); err != nil {
				t.Fatalf("round %d inverse: %v", round, err)
			}
			for i := range data {
				if data[i] != orig[i] {
					t.Fatalf("%dx%d %+v round %d: round trip wrong at %d: got %d want %d",
						rows, cols, o, round, i, data[i], orig[i])
				}
			}
		}
	})
}
