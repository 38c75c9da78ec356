package mathutil

import (
	"errors"
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
		got, err := ParseSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
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
		if got, err := ParseSize(in); !errors.Is(err, ErrSize) {
			t.Errorf("ParseSize(%q) = %d, %v; want ErrSize", in, got, err)
		}
	}
}
