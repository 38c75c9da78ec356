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
	if err := checkGeom(raw, rows, cols, elem); err != nil {
		return err
	}
	err := inplace.TransposeElem(raw, rows, cols, elem)
	if errors.Is(err, inplace.ErrElemSize) {
		// An element width the engine does not move is a bad shape on
		// the wire.
		return errBadElem
	}
	return err
}

// checkGeom proves rows*cols*elem matches the payload without overflow
// before any index arithmetic trusts the products.
func checkGeom(raw []byte, rows, cols, elem int) error {
	if rows <= 0 || cols <= 0 {
		return errBadElem
	}
	size, ok := mathutil.CheckedMul(rows, cols)
	if !ok {
		return errBadElem
	}
	total, ok := mathutil.CheckedMul(size, elem)
	if !ok || len(raw) != total {
		return errBadElem
	}
	return nil
}
