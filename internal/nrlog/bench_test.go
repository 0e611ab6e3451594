package nrlog

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/store"
)

// BenchmarkAppendScaling proves appends stay O(1) in the log length: the
// per-append cost must be flat as the preloaded log grows from 1k to 64k
// entries (the log keeps an in-memory index and the cached tail hash, so an
// append touches no earlier entry).
func BenchmarkAppendScaling(b *testing.B) {
	payload := make([]byte, 256)
	for _, preload := range []int{1 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("memory/preload=%d", preload), func(b *testing.B) {
			l := NewMemory(clock.NewSim(time.Unix(0, 0)))
			for i := 0; i < preload; i++ {
				if _, err := l.Append(fmt.Sprintf("run-%d", i%64), "obj", "k", "p", DirSent, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append("run-bench", "obj", "k", "p", DirSent, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("segmented/preload=%d", preload), func(b *testing.B) {
			pl, err := store.OpenPlane(b.TempDir(), store.Policy{CompactAt: 1 << 40}, nil)
			if err != nil {
				b.Fatal(err)
			}
			l := OpenSegmented(pl, clock.NewSim(time.Unix(0, 0)), nil)
			if err := pl.Start(); err != nil {
				b.Fatal(err)
			}
			defer func() { _ = pl.Close() }()
			for i := 0; i < preload; i++ {
				if _, err := l.AppendDeferred(fmt.Sprintf("run-%d", i%64), 0, "obj", "k", "p", DirSent, payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Barrier(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.AppendDeferred("run-bench", 0, "obj", "k", "p", DirSent, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := l.Barrier(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkByRunIndexed: run lookup through the in-memory index versus the
// log length — O(matches), not O(entries).
func BenchmarkByRunIndexed(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			l := NewMemory(clock.NewSim(time.Unix(0, 0)))
			for i := 0; i < size; i++ {
				if _, err := l.Append(fmt.Sprintf("run-%d", i), "obj", "k", "p", DirSent, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.ByRun("run-42"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPayloadDigest: D on a respond-sized payload (one SHA-256 of the
// payload, like the plain hash beside it) and on a 1 MiB signed body, with
// and without the hint its signature step supplies.
func BenchmarkPayloadDigest(b *testing.B) {
	small, large := signedLike(body(600)), signedLike(body(1<<20))
	field := largeField(b, large)
	hint := []Hint{{Field: field, Sum: sha256.Sum256(field)}}
	b.Run("sha256-small", func(b *testing.B) {
		b.SetBytes(int64(len(small)))
		for i := 0; i < b.N; i++ {
			_ = sha256.Sum256(small)
		}
	})
	b.Run("small", func(b *testing.B) {
		b.SetBytes(int64(len(small)))
		for i := 0; i < b.N; i++ {
			_ = payloadDigest(small, nil)
		}
	})
	b.Run("1MiB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = payloadDigest(large, nil)
		}
	})
	b.Run("1MiB-hinted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = payloadDigest(large, hint)
		}
	})
}
