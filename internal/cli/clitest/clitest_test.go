package clitest

import "testing"

// TestMask holds the mask to exactly the one thing a rerun changes: a
// control WAL grant's lease token becomes a placeholder, and everything
// else, a lease of the wrong length and a time included, stays.
func TestMask(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"at":"2026-10-18T06:42:18+02:00"}`, `{"at":"2026-10-18T06:42:18+02:00"}`},
		{`{"kind":"grant","shard":"c:0:0","lease":"0123456789abcdef0123456789abcdef","epoch":1,"worker":"local-1"}`,
			`{"kind":"grant","shard":"c:0:0","lease":"<lease>","epoch":1,"worker":"local-1"}`},
		{`{"lease":"0123456789abcdef"}`, `{"lease":"0123456789abcdef"}`},
		{`{"lease":"0123456789ABCDEF0123456789ABCDEF"}`, `{"lease":"0123456789ABCDEF0123456789ABCDEF"}`},
		{`{"kind":"plan","gen":1,"shard":"c:1:0","indices":[3,4]}`, `{"kind":"plan","gen":1,"shard":"c:1:0","indices":[3,4]}`},
	} {
		if got := string(mask([]byte(c.in))); got != c.want {
			t.Errorf("mask(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}
