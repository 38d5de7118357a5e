package cache

import (
	"fmt"
	"testing"
	"time"

	"gpufi/internal/config"
)

// BenchmarkFlushSparse times the kernel-completion flush of one RTX 2060
// L1T (1024 lines) at three occupancies: the cost must follow the resident
// lines, not the geometry. The flush alone is the flush-ns/op metric;
// ns/op also counts refilling the lines (pausing the benchmark timer
// around the refill instead would let b.N run away).
func BenchmarkFlushSparse(b *testing.B) {
	geom := config.RTX2060().L1T
	for _, resident := range []int{0, 16, geom.Lines()} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			bk := newFlat(geom.Lines()*geom.LineBytes, 1)
			c := New(geom, bk)
			var flushing time.Duration
			for i := 0; i < b.N; i++ {
				for l := 0; l < resident; l++ {
					c.AccessRead(uint32(l * geom.LineBytes))
				}
				start := time.Now()
				c.Flush()
				flushing += time.Since(start)
			}
			b.ReportMetric(float64(flushing.Nanoseconds())/float64(b.N), "flush-ns/op")
			if c.ValidLines() != 0 {
				b.Fatalf("%d lines valid after Flush", c.ValidLines())
			}
		})
	}
}
