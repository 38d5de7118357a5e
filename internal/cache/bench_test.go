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

// BenchmarkCopyFromSparse times CopyFrom between two RTX 2060 L2s (24,576
// lines) that hold the same number of resident lines in different places,
// as a vessel and the template it last mirrored two captures ago do: the
// cost must follow the lines resident on either side, not the geometry. The
// "all" row pays the bit walk on top of the every-line copy it replaced, as
// FlushSparse's full row does. It calls nothing the parent commit lacks, so
// the file runs there unmodified.
func BenchmarkCopyFromSparse(b *testing.B) {
	geom := config.RTX2060().L2
	for _, resident := range []int{0, 16, 1024, geom.Lines()} {
		name := fmt.Sprint(resident)
		if resident == geom.Lines() {
			name = "all"
		}
		b.Run("resident="+name, func(b *testing.B) {
			bk := newFlat(2*geom.Lines()*geom.LineBytes, 1)
			src, other, dst := New(geom, bk), New(geom, bk), New(geom, bk)
			for l := 0; l < resident; l++ {
				src.AccessRead(uint32(l * geom.LineBytes))
				other.AccessRead(uint32((resident + l) * geom.LineBytes))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate sources so the destination never already equals
				// the one it is copying.
				if i%2 == 0 {
					dst.CopyFrom(src, bk)
				} else {
					dst.CopyFrom(other, bk)
				}
			}
			if dst.ValidLines() != resident {
				b.Fatalf("%d lines valid after CopyFrom, want %d", dst.ValidLines(), resident)
			}
		})
	}
}
