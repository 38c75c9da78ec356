package main

import (
	"math"
	"testing"
)

func TestFileSize(t *testing.T) {
	if got, err := fileSize(512, 384, 8); err != nil || got != 512*384*8 {
		t.Fatalf("fileSize(512, 384, 8) = %d, %v", got, err)
	}
	for _, c := range [][3]int{
		{1 << 31, 1 << 31, 4}, // wraps to 0 in int64 arithmetic
		{math.MaxInt, 2, 1},
		{1 << 40, 1 << 20, 8},
	} {
		if got, err := fileSize(c[0], c[1], c[2]); err == nil {
			t.Errorf("fileSize(%d, %d, %d) = %d, want an error", c[0], c[1], c[2], got)
		}
	}
}
