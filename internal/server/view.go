package server

import (
	"errors"

	"inplace"
	"inplace/internal/mathutil"
)

// The data plane receives matrices as raw bytes; the root package's
// raw-byte entry points view an aligned payload as words of its element
// width in place (always true for buffers this package allocates) and
// copy a misaligned one through an aligned buffer.

// transposeMem transposes the row-major rows×cols matrix of elem-byte
// elements held in raw, in place, through the process planner cache
// (so concurrent requests for one shape share a plan).
func transposeMem(raw []byte, rows, cols, elem int) error {
	if err := checkGeom(raw, 1, rows, cols, elem); err != nil {
		return err
	}
	return elemErr(inplace.TransposeElem(raw, rows, cols, elem))
}

// transposeBatchMem transposes count back-to-back rows×cols matrices
// held in raw through one TransposeBatch call: the coalescer's engine.
func transposeBatchMem(raw []byte, count, rows, cols, elem int) error {
	if err := checkGeom(raw, count, rows, cols, elem); err != nil {
		return err
	}
	return elemErr(inplace.TransposeBatchElem(raw, count, rows, cols, elem))
}

// elemErr reports an element width the engine does not move as
// errBadElem, which the wire layer answers with CodeBadShape.
func elemErr(err error) error {
	if errors.Is(err, inplace.ErrElemSize) {
		return errBadElem
	}
	return err
}

// checkGeom proves count*rows*cols*elem matches the payload without
// overflow before any index arithmetic trusts the products.
func checkGeom(raw []byte, count, rows, cols, elem int) error {
	if count <= 0 || rows <= 0 || cols <= 0 {
		return errBadElem
	}
	size, ok := mathutil.CheckedMul(rows, cols)
	if !ok {
		return errBadElem
	}
	bytes, ok := mathutil.CheckedMul(size, elem)
	if !ok {
		return errBadElem
	}
	total, ok := mathutil.CheckedMul(bytes, count)
	if !ok || len(raw) != total {
		return errBadElem
	}
	return nil
}
