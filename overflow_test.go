package inplace

import (
	"errors"
	"math"
	"testing"
)

// The validation layer must reject any shape whose element count
// overflows int before a single index is computed; these are regression
// tests for the guards the indexoverflow analyzer requires on every
// public entry point.

func TestNewPlanOverflow(t *testing.T) {
	big := math.MaxInt/2 + 1
	if _, err := NewPlan(big, 2, Options{}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("NewPlan(%d, 2) err = %v, want ErrOverflow", big, err)
	}
	if _, err := NewPlan(2, big, Options{}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("NewPlan(2, %d) err = %v, want ErrOverflow", big, err)
	}
	// MaxInt x 1 is representable and must still be accepted by the
	// shape check itself (allocation is the caller's problem).
	if _, err := checkShape(math.MaxInt, 1); err != nil {
		t.Fatalf("checkShape(MaxInt, 1) err = %v, want nil", err)
	}
}

func TestTransposeOverflow(t *testing.T) {
	big := math.MaxInt/2 + 1
	data := make([]uint32, 4)
	if err := Transpose(data, big, 2); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Transpose err = %v, want ErrOverflow", err)
	}
	if err := TransposeWith(data, big, 2, Options{Direction: ForceC2R}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("ForceC2R err = %v, want ErrOverflow", err)
	}
	if err := TransposeWith(data, big, 2, Options{Direction: ForceR2C}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("ForceR2C err = %v, want ErrOverflow", err)
	}
	if err := AOSToSOA(data, big, 2); !errors.Is(err, ErrOverflow) {
		t.Fatalf("AOSToSOA err = %v, want ErrOverflow", err)
	}
	if err := SOAToAOS(data, big, 2); !errors.Is(err, ErrOverflow) {
		t.Fatalf("SOAToAOS err = %v, want ErrOverflow", err)
	}
	if _, err := NewPlanner[uint32](big, 2); !errors.Is(err, ErrOverflow) {
		t.Fatalf("NewPlanner err = %v, want ErrOverflow", err)
	}
}

func TestTransposeBatchOverflow(t *testing.T) {
	data := make([]uint32, 12)
	// Per-matrix shape overflows.
	big := math.MaxInt/2 + 1
	if err := TransposeBatch(data, 1, big, 2); !errors.Is(err, ErrOverflow) {
		t.Fatalf("TransposeBatch shape err = %v, want ErrOverflow", err)
	}
	// Per-matrix shape fits but count*stride overflows.
	if err := TransposeBatch(data, math.MaxInt/4, 2, 3); !errors.Is(err, ErrOverflow) {
		t.Fatalf("TransposeBatch batch err = %v, want ErrOverflow", err)
	}
}

func TestShapeAndLengthErrors(t *testing.T) {
	data := make([]uint32, 6)
	if err := Transpose(data, -2, 3); !errors.Is(err, ErrShape) {
		t.Fatalf("negative rows err = %v, want ErrShape", err)
	}
	if err := Transpose(data, 2, 0); !errors.Is(err, ErrShape) {
		t.Fatalf("zero cols err = %v, want ErrShape", err)
	}
	if err := Transpose(data, 4, 3); !errors.Is(err, ErrLength) {
		t.Fatalf("short buffer err = %v, want ErrLength", err)
	}
}
