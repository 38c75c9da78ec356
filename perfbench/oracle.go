package main

import (
	"encoding/binary"
	"os"
)

// The output oracle. Every input is a pattern — element k holds base+k,
// masked to what the element type holds exactly — so an output is
// checked against the expected permutation where it lies, without a
// second copy of the data. It runs outside the timed region.

// elem is the element types the in-memory workload uses.
type elem interface{ ~uint32 | ~uint64 | ~float32 }

const (
	mask24 = 1<<24 - 1  // float32 holds every integer below 2^24 exactly
	mask32 = 1<<32 - 1  // 4-byte elements on the wire and on disk
	mask64 = ^uint64(0) // 8-byte elements
)

func fillPattern[T elem](buf []T, base, mask uint64) {
	for k := range buf {
		buf[k] = T((base + uint64(k)) & mask)
	}
}

// checkMatrix reports whether buf holds the pattern laid out as a
// row-major rows×cols matrix or, when transposed, as its row-major
// cols×rows transpose.
func checkMatrix[T elem](buf []T, rows, cols int, transposed bool, base, mask uint64) bool {
	if !transposed {
		for k, v := range buf {
			if v != T((base+uint64(k))&mask) {
				return false
			}
		}
		return true
	}
	k := 0
	for j := 0; j < cols; j++ {
		src := base + uint64(j)
		for i := 0; i < rows; i++ {
			if buf[k] != T(src&mask) {
				return false
			}
			src += uint64(cols)
			k++
		}
	}
	return true
}

// checkNCHW reports whether buf holds the pattern of an n×h×w×c NHWC
// tensor permuted to NCHW.
func checkNCHW[T elem](buf []T, n, h, w, c int, base, mask uint64) bool {
	k := 0
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			for ih := 0; ih < h; ih++ {
				src := base + uint64(((in*h+ih)*w)*c+ic)
				for iw := 0; iw < w; iw++ {
					if buf[k] != T(src&mask) {
						return false
					}
					src += uint64(c)
					k++
				}
			}
		}
	}
	return true
}

// cursor walks the pattern index of each element of a rows×cols matrix
// in storage order: the identity layout, or the row-major transpose.
type cursor struct {
	rows, cols int
	transposed bool
	k, i, j    int
}

func (c *cursor) next() uint64 {
	if !c.transposed {
		c.k++
		return uint64(c.k - 1)
	}
	idx := uint64(c.i)*uint64(c.cols) + uint64(c.j)
	if c.i++; c.i == c.rows {
		c.i, c.j = 0, c.j+1
	}
	return idx
}

func elemMask(elemSize int) uint64 {
	if elemSize == 4 {
		return mask32
	}
	return mask64
}

// putPattern encodes pattern elements first, first+1, ... into raw as
// little-endian elemSize-byte values.
func putPattern(raw []byte, elemSize int, base, first uint64) {
	for off := 0; off+elemSize <= len(raw); off += elemSize {
		putElem(raw[off:], elemSize, base+first)
		first++
	}
}

func putElem(b []byte, elemSize int, v uint64) {
	if elemSize == 4 {
		binary.LittleEndian.PutUint32(b, uint32(v))
		return
	}
	binary.LittleEndian.PutUint64(b, v)
}

func getElem(b []byte, elemSize int) uint64 {
	if elemSize == 4 {
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// checkBytes reports whether raw holds the next len(raw)/elemSize
// pattern elements the cursor expects.
func checkBytes(raw []byte, elemSize int, base uint64, c *cursor) bool {
	mask := elemMask(elemSize)
	for off := 0; off+elemSize <= len(raw); off += elemSize {
		if getElem(raw[off:], elemSize) != (base+c.next())&mask {
			return false
		}
	}
	return true
}

// checkFile reports whether the first size bytes of f hold the pattern
// in the cursor's order, reading 1 MiB at a time.
func checkFile(f *os.File, size int64, elemSize int, base uint64, c *cursor) bool {
	buf := make([]byte, 1<<20)
	for off := int64(0); off < size; off += int64(len(buf)) {
		b := buf[:min(int64(len(buf)), size-off)]
		if _, err := f.ReadAt(b, off); err != nil || !checkBytes(b, elemSize, base, c) {
			return false
		}
	}
	return true
}

// createPattern writes n pattern elements of elemSize bytes to a new
// file at path and returns it open for reading and writing.
func createPattern(path string, n int64, elemSize int, base uint64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 1<<20)
	per := int64(len(buf) / elemSize)
	for first := int64(0); first < n; first += per {
		k := min(per, n-first)
		b := buf[:k*int64(elemSize)]
		putPattern(b, elemSize, base, uint64(first))
		if _, err := f.WriteAt(b, first*int64(elemSize)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}
