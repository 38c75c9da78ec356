package inplace

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"
)

// refPermuteBytes permutes the elem-byte records of raw the way
// PermuteAxes permutes typed elements.
func refPermuteBytes(raw []byte, dims, perm []int, elem int) []byte {
	idx := make([]int, len(raw)/elem)
	for i := range idx {
		idx[i] = i
	}
	out := make([]byte, len(raw))
	for i, s := range naivePermute(idx, dims, perm) {
		copy(out[i*elem:(i+1)*elem], raw[s*elem:(s+1)*elem])
	}
	return out
}

// offsetBytes returns n patterned bytes starting off bytes past an
// 8-aligned address (a bare make([]byte, n) may land anywhere).
func offsetBytes(n, off int) []byte {
	words := make([]uint64, (n+off)/8+1)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))[off : off+n]
	x := uint32(0x9E3779B9)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// TestElemFunctionsMatchReference runs every width through the raw-byte
// entry points, on an aligned buffer (viewed in place) and on a
// misaligned one (copied through an aligned slice), against a
// record-level reference.
func TestElemFunctionsMatchReference(t *testing.T) {
	cases := []struct {
		name       string
		dims, perm []int
		run        func(raw []byte, elem int) error
	}{
		{"TransposeElem", []int{7, 5}, []int{1, 0}, func(raw []byte, elem int) error {
			return TransposeElem(raw, 7, 5, elem)
		}},
		{"PermuteAxesElem", []int{2, 3, 4, 5}, []int{0, 3, 1, 2}, func(raw []byte, elem int) error {
			return PermuteAxesElem(raw, []int{2, 3, 4, 5}, []int{0, 3, 1, 2}, elem)
		}},
	}
	for _, c := range cases {
		for _, elem := range []int{1, 2, 4, 8} {
			for _, off := range []int{0, 1} {
				n := elem
				for _, d := range c.dims {
					n *= d
				}
				raw := offsetBytes(n, off)
				want := refPermuteBytes(raw, c.dims, c.perm, elem)
				if err := c.run(raw, elem); err != nil {
					t.Fatalf("%s elem %d offset %d: %v", c.name, elem, off, err)
				}
				if !bytes.Equal(raw, want) {
					t.Fatalf("%s elem %d offset %d: bytes differ from the reference", c.name, elem, off)
				}
			}
		}
	}
}

// TestOnWordsAlignment pins when the raw-byte paths view a buffer in
// place and when they copy it.
func TestOnWordsAlignment(t *testing.T) {
	inPlace := func(raw []byte) bool {
		var same bool
		if err := onWords(raw, func(v []uint64) error {
			same = unsafe.SliceData(v) == (*uint64)(unsafe.Pointer(unsafe.SliceData(raw)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return same
	}
	if !inPlace(offsetBytes(64, 0)) {
		t.Error("an 8-aligned buffer must be viewed in place")
	}
	if inPlace(offsetBytes(64, 4)) {
		t.Error("a misaligned buffer must be copied")
	}
	if err := onWords(offsetBytes(0, 1), func(v []uint64) error {
		if len(v) != 0 {
			t.Errorf("empty buffer viewed as %d words", len(v))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestElemFunctionsRejectBadInput(t *testing.T) {
	raw := make([]byte, 12)
	_, tuneErr := TuneElem(2, 2, 3)
	_, tunePermErr := TunePermuteElem([]int{2, 2}, []int{1, 0}, 3)
	for i, err := range []error{
		TransposeElem(raw, 2, 2, 3),
		PermuteAxesElem(raw, []int{2, 2}, []int{1, 0}, 3),
		tuneErr,
		tunePermErr,
	} {
		if !errors.Is(err, ErrElemSize) {
			t.Errorf("case %d: elem 3: err = %v, want ErrElemSize", i, err)
		}
	}
	// 13 bytes is no whole number of 4-byte words; 16 bytes is four
	// words where 3x1 wants three; both are length errors.
	for _, n := range []int{13, 16} {
		if err := TransposeElem(offsetBytes(n, 0), 3, 1, 4); !errors.Is(err, ErrLength) {
			t.Errorf("%d bytes as 3x1 of 4-byte words: err = %v, want ErrLength", n, err)
		}
	}
}
