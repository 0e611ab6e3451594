package coord

import (
	"testing"

	"b2b/internal/wire"
)

// TestSigMemoBindsBody: a memoised verification must not vouch for a
// message that carries the same signature and stamp over a different body,
// and each verifySigned call — hit or miss — hashes the body exactly once.
func TestSigMemoBindsBody(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	en := c.node("bob").engine
	body := make([]byte, 64<<10)
	for i := range body {
		body[i] = byte(i)
	}
	s := wire.Sign(wire.KindRespond, body, c.node("alice").ident, c.tsa)

	step := func(want string, s wire.Signed) {
		t.Helper()
		d0 := en.memo.digests.Load()
		h0, m0 := en.memo.stats()
		err := en.verifySigned(s)
		h1, m1 := en.memo.stats()
		if got := en.memo.digests.Load() - d0; got != 1 {
			t.Fatalf("%s: %d body digests, want 1", want, got)
		}
		switch want {
		case "miss":
			if err != nil || m1-m0 != 1 || h1 != h0 {
				t.Fatalf("miss: err=%v hits +%d misses +%d", err, h1-h0, m1-m0)
			}
		case "hit":
			if err != nil || h1-h0 != 1 || m1 != m0 {
				t.Fatalf("hit: err=%v hits +%d misses +%d", err, h1-h0, m1-m0)
			}
		case "reject":
			if err == nil || h1 != h0 {
				t.Fatalf("tampered body: err=%v hits +%d, want an error and no memo hit", err, h1-h0)
			}
		}
	}
	step("miss", s)
	step("hit", s)

	forged := s
	forged.Body = append([]byte(nil), s.Body...)
	forged.Body[len(body)/2] ^= 0x01
	step("reject", forged)
	step("hit", s)
}
