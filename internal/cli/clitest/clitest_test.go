package clitest

import "testing"

// TestMask holds the mask to exactly the two things a rerun changes: a
// done.json time and a control WAL grant's lease token become placeholders,
// and everything else, a lease of the wrong length included, stays.
func TestMask(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"finished_at":"2026-10-18T06:42:18.123456789Z"}`, `{"finished_at":"<time>"}`},
		{`{"at":"2026-10-18T06:42:18+02:00"}`, `{"at":"<time>"}`},
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
