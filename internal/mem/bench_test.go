package mem

import "testing"

// BenchmarkAllocSequence is an application's allocation pattern: a few
// large buffers, then per launch a small parameter block and a kernel image.
func BenchmarkAllocSequence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New()
		for k := 0; k < 6; k++ {
			if _, err := m.Alloc(256 << 10); err != nil {
				b.Fatal(err)
			}
		}
		for launch := 0; launch < 100; launch++ {
			if _, err := m.Alloc(32); err != nil {
				b.Fatal(err)
			}
			if _, err := m.Alloc(2048); err != nil {
				b.Fatal(err)
			}
		}
	}
}
