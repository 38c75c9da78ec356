package core

// Opts configures an engine.
type Opts struct {
	// Workers is the number of goroutines to use; 0 means GOMAXPROCS.
	Workers int
	// BlockW is the tile width, in columns, of the tiled column passes,
	// or the side of a square plan's swap tiles; 0 derives it from the
	// shape and element size (see TileWidth).
	BlockW int
}

// DefaultBlockW is the sub-row width of the reproduction coarse/fine
// kernels behind the Pass* entry points and the ablation benchmarks:
// eight elements span a 64-byte cache line of 64-bit values.
const DefaultBlockW = 8
