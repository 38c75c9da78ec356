package inplace

import (
	"fmt"
	"unsafe"
)

// Raw-byte entry points. The decomposition permutes opaque fixed-size
// records, so a buffer of 1-, 2-, 4- or 8-byte elements moves as
// unsigned words of that width whatever its elements mean, and the byte
// order of the loads and stores cancels out. A buffer aligned for its
// word type is viewed in place; a misaligned one is copied through an
// aligned slice.

// word is the element type the raw-byte entry points move.
type word interface {
	uint8 | uint16 | uint32 | uint64
}

// wordOps runs the typed entry points on words of one width.
type wordOps interface {
	tune(rows, cols int, cfgs []TuneConfig) (TuneResult, error)
	tunePermute(dims, perm []int, cfgs []TuneConfig) (PermuteTuneResult, error)
	transpose(raw []byte, rows, cols int, o Options) error
	permute(raw []byte, dims, perm []int, o Options) error
}

// wordsOf is the one element-width dispatch of the size-dispatched
// functions: it maps a width in bytes to the operations on words of
// that width.
func wordsOf(elemSize int) (wordOps, error) {
	switch elemSize {
	case 1:
		return words[uint8]{}, nil
	case 2:
		return words[uint16]{}, nil
	case 4:
		return words[uint32]{}, nil
	case 8:
		return words[uint64]{}, nil
	}
	return nil, fmt.Errorf("%w: %d (want 1, 2, 4 or 8)", ErrElemSize, elemSize)
}

// words implements wordOps for the word type W.
type words[W word] struct{}

func (words[W]) tune(rows, cols int, cfgs []TuneConfig) (TuneResult, error) {
	return Tune[W](rows, cols, cfgs...)
}

func (words[W]) tunePermute(dims, perm []int, cfgs []TuneConfig) (PermuteTuneResult, error) {
	return TunePermute[W](dims, perm, cfgs...)
}

func (words[W]) transpose(raw []byte, rows, cols int, o Options) error {
	return onWords(raw, func(v []W) error { return TransposeWith(v, rows, cols, o) })
}

func (words[W]) permute(raw []byte, dims, perm []int, o Options) error {
	return onWords(raw, func(v []W) error { return PermuteAxes(v, dims, perm, o) })
}

// onWords runs f on raw as a []W: viewed in place when raw is aligned
// for W, else on an aligned copy that is written back when f succeeds.
// A length that is not a whole number of words is ErrLength.
func onWords[W word](raw []byte, f func([]W) error) error {
	var w W
	size := int(unsafe.Sizeof(w))
	if len(raw)%size != 0 {
		return fmt.Errorf("%w (%d bytes is not a whole number of %d-byte elements)", ErrLength, len(raw), size)
	}
	if len(raw) == 0 {
		return f(nil)
	}
	p := unsafe.Pointer(unsafe.SliceData(raw))
	if uintptr(p)%unsafe.Alignof(w) == 0 {
		return f(unsafe.Slice((*W)(p), len(raw)/size))
	}
	v := make([]W, len(raw)/size)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(raw))
	copy(b, raw)
	if err := f(v); err != nil {
		return err
	}
	copy(raw, b)
	return nil
}

// TransposeElem is TransposeWith for callers that hold raw bytes and
// know the element width but not the type — the xposed data plane and
// raw-file CLIs like cmd/xpose. raw holds the row-major rows×cols
// matrix of elemSize-byte elements; afterwards it holds the transpose.
// Supported widths are 1, 2, 4 and 8 (ErrElemSize otherwise); the
// element type of a width is immaterial, because a transpose moves
// whole records. An aligned buffer is transposed in place without
// copying; a misaligned one is copied through an aligned buffer.
//
//xpose:hotpath
func TransposeElem(raw []byte, rows, cols, elemSize int, opts ...Options) error {
	w, err := wordsOf(elemSize)
	if err != nil {
		return err
	}
	return w.transpose(raw, rows, cols, optionsOf(opts))
}

// PermuteAxesElem is PermuteAxes over raw bytes of elemSize-byte
// elements, on the terms of TransposeElem.
//
//xpose:hotpath
func PermuteAxesElem(raw []byte, dims, perm []int, elemSize int, opts ...Options) error {
	w, err := wordsOf(elemSize)
	if err != nil {
		return err
	}
	return w.permute(raw, dims, perm, optionsOf(opts))
}
