package pagestate

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// mutate applies one random mutation (in-place write, append or shrink) to
// both a model flat buffer and the Paged under test.
func mutate(t *testing.T, rng *rand.Rand, model []byte, p *Paged) []byte {
	t.Helper()
	switch op := rng.Intn(4); {
	case op == 0 && len(model) > 0: // page-interior write
		off := rng.Intn(len(model))
		n := rng.Intn(len(model)-off) + 1
		if n > 300 {
			n = 300
		}
		data := make([]byte, n)
		rng.Read(data)
		copy(model[off:], data)
		if err := p.WriteAt(off, data); err != nil {
			t.Fatalf("WriteAt(%d, %d bytes): %v", off, n, err)
		}
	case op == 1: // append
		data := make([]byte, rng.Intn(5000))
		rng.Read(data)
		model = append(model, data...)
		if err := p.Append(data); err != nil {
			t.Fatalf("Append(%d bytes): %v", len(data), err)
		}
	case op == 2 && len(model) > 0: // shrink
		n := rng.Intn(len(model) + 1)
		model = model[:n]
		if err := p.Resize(n); err != nil {
			t.Fatalf("Resize(%d): %v", n, err)
		}
	default: // boundary-straddling write
		if len(model) == 0 {
			break
		}
		ps := p.PageSize()
		off := (rng.Intn(len(model)/ps+1))*ps - ps/2
		if off < 0 {
			off = 0
		}
		if off >= len(model) {
			off = len(model) - 1
		}
		n := ps
		if off+n > len(model) {
			n = len(model) - off
		}
		data := make([]byte, n)
		rng.Read(data)
		copy(model[off:], data)
		if err := p.WriteAt(off, data); err != nil {
			t.Fatalf("straddling WriteAt(%d, %d): %v", off, n, err)
		}
	}
	return model
}

// TestIncrementalRootMatchesRebuild drives random update histories — writes
// that straddle page boundaries, appends, shrinks — and checks after every
// step that the incrementally maintained root equals a from-scratch rebuild
// of the same content: equal states yield equal roots regardless of update
// history.
func TestIncrementalRootMatchesRebuild(t *testing.T) {
	for _, pageSize := range []int{1, 7, 64, 4096} {
		rng := rand.New(rand.NewSource(int64(pageSize)))
		model := make([]byte, rng.Intn(5*pageSize+100))
		rng.Read(model)
		p := FromBytes(model, pageSize)
		for step := 0; step < 200; step++ {
			model = mutate(t, rng, model, p)
			if got, want := p.Root(), Root(model, pageSize); got != want {
				t.Fatalf("pageSize %d step %d: incremental root diverged from rebuild (len %d)",
					pageSize, step, len(model))
			}
			if p.Size() != len(model) {
				t.Fatalf("size %d, want %d", p.Size(), len(model))
			}
			if !bytes.Equal(p.Bytes(), model) {
				t.Fatalf("pageSize %d step %d: content diverged", pageSize, step)
			}
		}
	}
}

// TestDivergenceDetection: any single-byte difference between two states
// produces a different root — the property tuple invariants 1–4 stand on.
func TestDivergenceDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(3*DefaultPageSize) + 1
		a := make([]byte, n)
		rng.Read(a)
		b := append([]byte(nil), a...)
		i := rng.Intn(n)
		b[i] ^= byte(rng.Intn(255) + 1)
		if Root(a, DefaultPageSize) == Root(b, DefaultPageSize) {
			t.Fatalf("trial %d: states differing at byte %d/%d share a root", trial, i, n)
		}
	}
	// Length-extension shapes: trailing zeros, truncation, empty vs nil.
	a := make([]byte, 2*DefaultPageSize)
	if Root(a, DefaultPageSize) == Root(a[:len(a)-1], DefaultPageSize) {
		t.Fatal("truncated state shares a root")
	}
	if Root(a, DefaultPageSize) == Root(append(append([]byte(nil), a...), 0), DefaultPageSize) {
		t.Fatal("zero-extended state shares a root")
	}
	if Root(nil, DefaultPageSize) != Root([]byte{}, DefaultPageSize) {
		t.Fatal("nil and empty must share the empty-state root")
	}
	// Leaf/interior confusion: a 64-byte single-page state whose content is
	// exactly the concatenation of two leaf hashes must not collide with the
	// two-page state those leaves identify.
	x := bytes.Repeat([]byte{0xaa}, 64)
	y := bytes.Repeat([]byte{0xbb}, 64)
	two := append(append([]byte(nil), x...), y...)
	l0 := leafHash(two[:64])
	l1 := leafHash(two[64:])
	crafted := append(append([]byte(nil), l0[:]...), l1[:]...)
	if Root(crafted, 64) == Root(two, 64) {
		t.Fatal("crafted single-page state collides with a two-page root")
	}
	// Page size is bound into the root: same bytes, different geometry,
	// different identity.
	if Root(two, 64) == Root(two, 128) {
		t.Fatal("same bytes under different page sizes share a root")
	}
}

// TestCloneIsolation: a clone's writes must never leak into its parent (or
// siblings), and unchanged pages stay physically shared.
func TestCloneIsolation(t *testing.T) {
	base := make([]byte, 3*DefaultPageSize+123)
	for i := range base {
		base[i] = byte(i)
	}
	parent := FromBytes(base, DefaultPageSize)
	c1 := parent.Clone()
	c2 := parent.Clone()
	if err := c1.WriteAt(5, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteAt(DefaultPageSize+5, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parent.Bytes(), base) {
		t.Fatal("parent mutated through a clone")
	}
	if parent.Root() != Root(base, DefaultPageSize) {
		t.Fatal("parent root mutated through a clone")
	}
	if c1.Root() == c2.Root() || c1.Root() == parent.Root() {
		t.Fatal("distinct contents share roots")
	}
	// Untouched pages are shared, not copied.
	if &parent.Page(2)[0] != &c1.Page(2)[0] {
		t.Fatal("untouched page was copied on clone")
	}
	if &parent.Page(0)[0] == &c1.Page(0)[0] {
		t.Fatal("touched page still shared after write")
	}
}

// TestRootFromPageHashes binds a leaf vector back to the identity.
func TestRootFromPageHashes(t *testing.T) {
	state := make([]byte, 5*256+17)
	for i := range state {
		state[i] = byte(i * 7)
	}
	p := FromBytes(state, 256)
	hashes := p.UnitHashes()
	got, err := RootFromUnitHashes(hashes, len(state), 256)
	if err != nil {
		t.Fatal(err)
	}
	if got != p.Root() {
		t.Fatal("reconstructed root mismatch")
	}
	hashes[3][0] ^= 1
	got, err = RootFromUnitHashes(hashes, len(state), 256)
	if err != nil {
		t.Fatal(err)
	}
	if got == p.Root() {
		t.Fatal("corrupt leaf vector still reaches the root")
	}
	if _, err := RootFromUnitHashes(hashes[:4], len(state), 256); err == nil {
		t.Fatal("short leaf vector accepted")
	}
	if _, err := RootFromUnitHashes(nil, 10, 0); err == nil {
		t.Fatal("invalid page size accepted")
	}
}

// TestStateIdentityPinned pins the state identity. Up to MaxPageSize a
// page is one leaf, so those roots are fixed values that must never move;
// above it a page folds its MaxPageSize units, and the unit-hash vector a
// snapshot offer carries must fold back to the same root.
func TestStateIdentityPinned(t *testing.T) {
	// 13 MiB + 4099 bytes: a short last page at every page size below, and
	// at 8 and 16 MiB a short page of several units.
	state := make([]byte, 13<<20+4099)
	x := uint32(2463534242)
	for i := range state {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		state[i] = byte(x)
	}
	for _, c := range []struct {
		pageSize int
		root     string // "": no pinned value; "reject": CheckPageSize refuses it
	}{
		{4 << 10, "5da262cac4b11b34b71adbd3566a9096d9799557d49e053eaddda96b655bc786"},
		{1 << 20, "f313571705dca90f0d015db4f7e162048037c56dc4ca98ce6531f2f190eaf444"},
		{4 << 20, "da644b1d302c64a622bdbed6de2b55974d079c17e1cc1f913870276f41b7c059"},
		{8 << 20, ""},
		{16 << 20, ""},
		{4<<20 + 1, "reject"},
	} {
		t.Run(fmt.Sprint(c.pageSize), func(t *testing.T) {
			if c.root == "reject" {
				if CheckPageSize(c.pageSize) == nil {
					t.Fatal("page size accepted")
				}
				if _, err := RootFromUnitHashes(nil, 0, c.pageSize); err == nil {
					t.Fatal("unit hashes accepted at this page size")
				}
				return
			}
			if err := CheckPageSize(c.pageSize); err != nil {
				t.Fatal(err)
			}
			p := FromBytes(state, c.pageSize)
			root := Root(state, c.pageSize)
			if p.Root() != root {
				t.Fatal("FromBytes and Root disagree")
			}
			if c.root != "" {
				if got := fmt.Sprintf("%x", root); got != c.root {
					t.Fatalf("root %s, pinned %s", got, c.root)
				}
			}
			units := p.UnitHashes()
			unit := UnitSize(c.pageSize)
			if len(units) != PageCount(len(state), unit) {
				t.Fatalf("%d unit hashes, want %d", len(units), PageCount(len(state), unit))
			}
			for i := range units {
				if units[i] != UnitHash(state[i*unit:min((i+1)*unit, len(state))]) {
					t.Fatalf("unit %d hash is not its slice's leaf hash", i)
				}
			}
			got, err := RootFromUnitHashes(units, len(state), c.pageSize)
			if err != nil {
				t.Fatal(err)
			}
			if got != root {
				t.Fatal("unit hashes do not fold back to the root")
			}
			// With a power-of-two count of units per page, folding page by
			// page is folding all units at once.
			if flat := wrapRoot(mthOf(units), len(state), c.pageSize); flat != root {
				t.Fatal("page-by-page fold differs from the fold over all units")
			}
		})
	}
}

// TestWriteAtBounds rejects out-of-range writes.
func TestWriteAtBounds(t *testing.T) {
	p := FromBytes(make([]byte, 100), 64)
	if err := p.WriteAt(90, make([]byte, 20)); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if err := p.WriteAt(-1, []byte{1}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := p.WriteAt(0, nil); err != nil {
		t.Fatalf("empty write: %v", err)
	}
}

// TestStatsCounters: a small write on a large state hashes and copies a few
// pages, not the object.
func TestStatsCounters(t *testing.T) {
	const size = 1 << 20
	p := FromBytes(make([]byte, size), DefaultPageSize)
	c := p.Clone()
	ResetStats()
	if err := c.WriteAt(12345, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	hashed, copied := Stats()
	if hashed > 64<<10 || copied > 64<<10 {
		t.Fatalf("64 B write cost hashed=%d copied=%d bytes — not O(delta)", hashed, copied)
	}
}

// checkRebase rebases base onto flat and asserts the Rebase contract: the
// result is FromBytes(flat) in bytes and root, base is untouched, the result
// does not alias flat, and a page is shared with base exactly when flat
// repeats its content.
func checkRebase(t *testing.T, base *Paged, flat []byte) *Paged {
	t.Helper()
	baseBytes, baseRoot := base.Bytes(), base.Root()
	mine := append([]byte(nil), flat...)
	got := base.Rebase(mine)
	want := FromBytes(flat, base.PageSize())
	if got.Root() != want.Root() || !bytes.Equal(got.Bytes(), flat) {
		t.Fatalf("Rebase(%d bytes) differs from FromBytes", len(flat))
	}
	if base.Root() != baseRoot || !bytes.Equal(base.Bytes(), baseBytes) {
		t.Fatal("Rebase mutated its base")
	}
	for i := 0; i < got.Pages(); i++ {
		shared := i < base.Pages() && &base.Page(i)[0] == &got.Page(i)[0]
		equal := i < base.Pages() && bytes.Equal(base.Page(i), got.Page(i))
		if shared != equal {
			t.Fatalf("page %d/%d: shared=%v but content equal=%v", i, got.Pages(), shared, equal)
		}
	}
	for i := range mine {
		mine[i] ^= 0xff
	}
	if !bytes.Equal(got.Bytes(), flat) {
		t.Fatal("Rebase result aliases its flat input")
	}
	return got
}

// TestRebaseMatchesFromBytes: across page sizes, state shapes and edits,
// rebasing an edited flat copy onto its base yields exactly the FromBytes
// state while sharing every unchanged page, and a one-page edit hashes one
// page plus its root path.
func TestRebaseMatchesFromBytes(t *testing.T) {
	type edit struct {
		name    string
		onePage bool // the edit changes exactly one page and not the size
		apply   func(flat []byte, ps int) []byte
	}
	edits := []edit{
		{"none", false, func(f []byte, _ int) []byte { return f }},
		{"one byte", true, func(f []byte, _ int) []byte {
			if len(f) > 0 {
				f[len(f)/2] ^= 0x5a
			}
			return f
		}},
		{"two-page span", false, func(f []byte, ps int) []byte {
			if len(f) >= ps+3 {
				copy(f[ps-3:], "spans!")
			}
			return f
		}},
		{"every page", false, func(f []byte, ps int) []byte {
			for off := 0; off < len(f); off += ps {
				f[off] ^= 1
			}
			return f
		}},
		{"grow", false, func(f []byte, ps int) []byte { return append(f, bytes.Repeat([]byte{7}, ps+7)...) }},
		{"shrink", false, func(f []byte, _ int) []byte { return f[:len(f)*2/3] }},
	}
	rng := rand.New(rand.NewSource(27))
	for _, ps := range []int{64, 256, 4096} {
		for _, size := range []int{0, ps / 2, 4 * ps, 4*ps + ps/3} {
			state := make([]byte, size)
			rng.Read(state)
			base := FromBytes(state, ps)
			for _, e := range edits {
				t.Run(fmt.Sprintf("page%d/size%d/%s", ps, size, e.name), func(t *testing.T) {
					flat := e.apply(append([]byte(nil), state...), ps)
					checkRebase(t, base, flat)
					if !e.onePage || size == 0 {
						return
					}
					before, _ := Stats()
					got := base.Rebase(flat)
					after, _ := Stats()
					// One leaf, its path to the top, the wrapped root.
					limit := uint64(ps+1) + 65*uint64(len(got.levels)-1) + uint64(len(rootTag)+48)
					if hashed := after - before; hashed > limit {
						t.Errorf("one-page edit hashed %d bytes, want <= %d", hashed, limit)
					}
				})
			}
		}
	}
}

// FuzzRebase checks the Rebase contract on arbitrary base/flat pairs at small
// page sizes, where every page boundary case is a few bytes away.
func FuzzRebase(f *testing.F) {
	f.Add([]byte("abcdefgh"), []byte("abcdefgh"), uint8(3))
	f.Add([]byte("abcdefgh"), []byte("abXdefgh"), uint8(3))
	f.Add([]byte("abcdefgh"), []byte("abcdefghijk"), uint8(4))
	f.Add([]byte("abcdefghijk"), []byte("abcde"), uint8(4))
	f.Add([]byte{}, []byte("new"), uint8(1))
	f.Add([]byte("gone"), []byte{}, uint8(64))
	f.Fuzz(func(t *testing.T, state, flat []byte, ps uint8) {
		got := checkRebase(t, FromBytes(state, int(ps%64)+1), flat)
		// Rebase + Adopt + Bytes round-trips flat, and no two Bytes calls
		// alias: the adopted buffer is handed over once.
		mine := append([]byte(nil), flat...)
		got.Adopt(mine)
		first, second := got.Bytes(), got.Bytes()
		if !bytes.Equal(first, flat) || !bytes.Equal(second, flat) {
			t.Fatal("Rebase + Adopt + Bytes does not round-trip")
		}
		if len(flat) > 0 && &first[0] != &mine[0] {
			t.Fatal("Bytes copied although an adoption was pending")
		}
		if aliases(first, second) {
			t.Fatal("two Bytes calls returned the same buffer")
		}
	})
}

// aliases reports whether two non-empty slices share their first element.
func aliases(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestAdoptHandsOverOnce: the next Bytes after Adopt returns the adopted
// buffer without copying; the one after that copies afresh, and writing
// into the first never shows in the second.
func TestAdoptHandsOverOnce(t *testing.T) {
	state := bytes.Repeat([]byte("0123456789"), 1000)
	p := FromBytes(state, 256)
	flat := p.Bytes()
	p.Adopt(flat)
	ResetStats()
	first := p.Bytes()
	if _, copied := Stats(); copied != 0 || &first[0] != &flat[0] {
		t.Fatalf("Bytes after Adopt copied %d bytes, want the adopted buffer", copied)
	}
	second := p.Bytes()
	if _, copied := Stats(); copied != uint64(len(state)) {
		t.Fatalf("second Bytes copied %d bytes, want %d", copied, len(state))
	}
	if aliases(first, second) || !bytes.Equal(second, state) {
		t.Fatal("second Bytes does not return a distinct buffer with equal content")
	}
	for i := range first {
		first[i] ^= 0xff
	}
	if !bytes.Equal(second, state) || !bytes.Equal(p.Bytes(), state) {
		t.Fatal("writing into the adopted buffer shows elsewhere")
	}
}

// TestAdoptWrongLengthIgnored: an adoption whose length is not the state's
// is dropped, and Bytes copies the real content.
func TestAdoptWrongLengthIgnored(t *testing.T) {
	state := []byte("the agreed state")
	p := FromBytes(state, 4)
	for _, bad := range [][]byte{nil, []byte("short"), []byte("the agreed state, and more")} {
		p.Adopt(bad)
		if got := p.Bytes(); !bytes.Equal(got, state) || aliases(got, bad) {
			t.Fatalf("Adopt(%q) was not ignored: Bytes = %q", bad, got)
		}
	}
}

// TestMutationDropsAdoption: WriteAt, Resize and Append after Adopt return
// the new content, never the stale adoption; Clone and Rebase results never
// carry one (it stays with the original, for one hand-over).
func TestMutationDropsAdoption(t *testing.T) {
	state := bytes.Repeat([]byte("abcdefgh"), 100)
	cases := []struct {
		name   string
		mutate func(*Paged) error
	}{
		{"WriteAt", func(p *Paged) error { return p.WriteAt(10, []byte("XY")) }},
		{"Resize grow", func(p *Paged) error { return p.Resize(len(state) + 33) }},
		{"Resize shrink", func(p *Paged) error { return p.Resize(len(state) - 33) }},
		{"Append", func(p *Paged) error { return p.Append([]byte("tail")) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := FromBytes(state, 64)
			p.Adopt(append([]byte(nil), state...))
			if err := tc.mutate(p); err != nil {
				t.Fatal(err)
			}
			want := p.Clone().Bytes()
			if got := p.Bytes(); !bytes.Equal(got, want) || bytes.Equal(got, state) {
				t.Fatalf("%s after Adopt: Bytes returned stale content", tc.name)
			}
		})
	}
	p := FromBytes(state, 64)
	adopted := append([]byte(nil), state...)
	p.Adopt(adopted)
	for name, q := range map[string]*Paged{"Clone": p.Clone(), "Rebase": p.Rebase(state)} {
		if got := q.Bytes(); aliases(got, adopted) || !bytes.Equal(got, state) {
			t.Fatalf("%s result carried the adoption", name)
		}
	}
	if got := p.Bytes(); &got[0] != &adopted[0] {
		t.Fatal("the adoption did not stay with the original")
	}
}

// TestAdoptConcurrentBytesDistinct: goroutines calling Bytes on one shared
// Paged with an adoption pending each get their own buffer, exactly one of
// them the adopted one. Run it under -race.
func TestAdoptConcurrentBytesDistinct(t *testing.T) {
	state := bytes.Repeat([]byte("shared"), 2000)
	for round := 0; round < 50; round++ {
		p := FromBytes(state, 512)
		adopted := append([]byte(nil), state...)
		p.Adopt(adopted)
		var got [2][]byte
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = p.Bytes()
				got[g][0] ^= byte(g + 1) // each caller owns its buffer
			}()
		}
		wg.Wait()
		if aliases(got[0], got[1]) {
			t.Fatalf("round %d: two concurrent Bytes calls returned one buffer", round)
		}
		if aliases(got[0], adopted) == aliases(got[1], adopted) {
			t.Fatalf("round %d: the adopted buffer was not handed to exactly one caller", round)
		}
		for g, b := range got {
			if b[0] != state[0]^byte(g+1) || !bytes.Equal(b[1:], state[1:]) {
				t.Fatalf("round %d: goroutine %d saw another's write", round, g)
			}
		}
	}
}

// checkBytesFrom materialises p into a spare holding ofModel (of's
// content) and asserts the BytesFrom contract: the result is want (p's
// content); with matching geometry it is the spare, patched by copying
// exactly the pages p does not share with of; otherwise it is a fresh copy
// and the spare is untouched. Writing into the result then changes no page
// and no root of p or of.
func checkBytesFrom(t *testing.T, p, of *Paged, want, ofModel []byte) {
	t.Helper()
	spare := append([]byte(nil), ofModel...)
	same := p.size == of.size && p.pageSize == of.pageSize && len(p.pages) == len(of.pages)
	var unshared uint64
	for i := range p.pages {
		if !same || !aliases(p.pages[i], of.pages[i]) {
			unshared += uint64(len(p.pages[i]))
		}
	}
	roots := [2][32]byte{p.Root(), of.Root()}
	_, before := Stats()
	got := p.BytesFrom(spare, of)
	_, after := Stats()
	if !bytes.Equal(got, want) {
		t.Fatalf("BytesFrom (%d bytes from %d) differs from Bytes", len(want), len(ofModel))
	}
	if copied := after - before; copied != unshared {
		t.Fatalf("BytesFrom copied %d bytes, want the %d unshared", copied, unshared)
	}
	if same && len(want) > 0 && !aliases(got, spare) {
		t.Fatal("BytesFrom copied afresh although the geometry matches")
	}
	if !same && (aliases(got, spare) || !bytes.Equal(spare, ofModel)) {
		t.Fatal("BytesFrom touched the spare on a geometry mismatch")
	}
	for i := range got {
		got[i] ^= 0xff
	}
	if !bytes.Equal(p.Bytes(), want) || !bytes.Equal(of.Bytes(), ofModel) || roots != [2][32]byte{p.Root(), of.Root()} {
		t.Fatal("writing into the BytesFrom result changed a page or root")
	}
}

// TestBytesFromMatchesBytes grows a family of states by random WriteAt,
// Append, Resize, Rebase and Clone steps from one build, plus unrelated
// builds, and materialises every state from a spare of each of its
// ancestors and of random siblings and strangers: the result equals Bytes
// byte for byte, and only the pages the two states do not share are copied.
func TestBytesFromMatchesBytes(t *testing.T) {
	for _, ps := range []int{1, 7, 64, 4096} {
		rng := rand.New(rand.NewSource(int64(ps) + 42))
		model := make([]byte, rng.Intn(5*ps+100))
		rng.Read(model)
		states, models, parents := []*Paged{FromBytes(model, ps)}, [][]byte{model}, []int{-1}
		for step := 0; step < 40; step++ {
			i := rng.Intn(len(states))
			m := append([]byte(nil), models[i]...)
			var q *Paged
			switch op := rng.Intn(4); {
			case op == 0 && len(m) > 0: // an edited flat copy re-enters by Rebase
				for n := rng.Intn(3) + 1; n > 0; n-- {
					m[rng.Intn(len(m))] ^= byte(rng.Intn(255) + 1)
				}
				q = states[i].Rebase(m)
			case op == 1: // a stranger of the same size
				rng.Read(m)
				q = FromBytes(m, ps)
			default:
				q = states[i].Clone()
				m = mutate(t, rng, m, q)
			}
			states, models, parents = append(states, q), append(models, m), append(parents, i)
		}
		for k, p := range states {
			var ofs []int
			for a := parents[k]; a >= 0; a = parents[a] {
				ofs = append(ofs, a)
			}
			for n := 0; n < 4; n++ {
				ofs = append(ofs, rng.Intn(len(states)))
			}
			for _, o := range ofs {
				checkBytesFrom(t, p, states[o], models[k], models[o])
			}
		}
	}
}

// TestBytesFromTakesAdoptionFirst: with an adoption pending, BytesFrom
// returns the adopted buffer and leaves the spare untouched; the next call
// patches the spare.
func TestBytesFromTakesAdoptionFirst(t *testing.T) {
	state := bytes.Repeat([]byte("0123456789"), 1000)
	of := FromBytes(state, 256)
	edited := append([]byte(nil), state...)
	copy(edited[300:], "patched")
	p := of.Rebase(edited)
	adopted := append([]byte(nil), edited...)
	p.Adopt(adopted)
	spare := append([]byte(nil), state...)
	ResetStats()
	if got := p.BytesFrom(spare, of); !aliases(got, adopted) || !bytes.Equal(spare, state) {
		t.Fatal("BytesFrom did not take the pending adoption first")
	}
	if _, copied := Stats(); copied != 0 {
		t.Fatalf("taking the adoption copied %d bytes", copied)
	}
	if got := p.BytesFrom(spare, of); !aliases(got, spare) || !bytes.Equal(got, edited) {
		t.Fatal("BytesFrom after the adoption did not patch the spare")
	}
}

// TestBytesFromGeometryMismatch: a spare of another length, or one said to
// hold a state of another size, page size or page count (or no state),
// falls back to Bytes and leaves the spare untouched.
func TestBytesFromGeometryMismatch(t *testing.T) {
	state := bytes.Repeat([]byte("abcdefgh"), 100)
	p := FromBytes(state, 64)
	cases := map[string]struct {
		spare []byte
		of    *Paged
	}{
		"spare length": {append([]byte(nil), state[:len(state)-1]...), p},
		"size":         {append([]byte(nil), state[:len(state)-1]...), FromBytes(state[:len(state)-1], 64)},
		"page size":    {append([]byte(nil), state...), FromBytes(state, 32)},
		"nil state":    {append([]byte(nil), state...), nil},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			keep := append([]byte(nil), tc.spare...)
			got := p.BytesFrom(tc.spare, tc.of)
			if !bytes.Equal(got, state) || aliases(got, tc.spare) || !bytes.Equal(tc.spare, keep) {
				t.Fatal("BytesFrom did not fall back to Bytes with the spare untouched")
			}
		})
	}
}
