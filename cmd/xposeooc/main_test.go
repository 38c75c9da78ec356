package main

import (
	"math"
	"testing"
)

func TestParseSize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"4096", 4096},
		{"4k", 4 << 10},
		{" 256M ", 256 << 20},
		{"2g", 2 << 30},
		{"8589934591g", 8589934591 << 30},
	} {
		got, err := parseSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

func TestParseSizeRejects(t *testing.T) {
	for _, in := range []string{
		"-5m",                 // negative
		"-1",                  // negative, no suffix
		"9999999999g",         // wraps int64 once scaled
		"8589934592g",         // 2^33 GiB = 2^63 bytes, one past MaxInt64
		"9223372036854775808", // overflows before scaling
		"",
		"12q",
	} {
		if got, err := parseSize(in); err == nil {
			t.Errorf("parseSize(%q) = %d, want an error", in, got)
		}
	}
}

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
