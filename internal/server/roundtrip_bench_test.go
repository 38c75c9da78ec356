package server

import (
	"fmt"
	"testing"

	"inplace/client"
)

// BenchmarkTinyJobRoundTrip times one client's sequential in-memory
// jobs against a loopback daemon at its default Config: the per-job
// cost of the wire, admission, plan lookup and transpose with nothing
// queued beside it. The shapes are the selftest's tiny job and
// perfbench serve's tiny class. Each round flips rows and cols, so the
// payload returns to its start every two rounds and both plans stay
// warm in the planner cache.
//
//	go test -run '^$' -bench TinyJobRoundTrip ./internal/server
func BenchmarkTinyJobRoundTrip(b *testing.B) {
	for _, sh := range []struct{ rows, cols int }{{32, 16}, {8, 1024}} {
		b.Run(fmt.Sprintf("%dx%d_f32", sh.rows, sh.cols), func(b *testing.B) {
			_, addr := startServer(b, Config{})
			cl, err := client.Dial(addr)
			if err != nil {
				b.Fatalf("Dial: %v", err)
			}
			defer cl.Close()
			const elem = 4
			rows, cols := sh.rows, sh.cols
			data := randBytes(rows*cols*elem, 1)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Transpose(data, rows, cols, elem); err != nil {
					b.Fatalf("round %d: %v", i, err)
				}
				rows, cols = cols, rows
			}
		})
	}
}
