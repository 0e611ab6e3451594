package lab

import (
	"context"
	"testing"
	"time"

	"b2b/internal/coord"
)

func TestWorldBasicLifecycle(t *testing.T) {
	w, err := NewWorld(Options{Seed: 1}, "x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if got := w.IDs(); len(got) != 3 || got[0] != "x" {
		t.Fatalf("IDs = %v", got)
	}
	if err := w.Bind("obj", func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap("obj", []byte("genesis"), []string{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := w.Party("y").Engine("obj").Propose(ctx, []byte("v1"))
	if err != nil || !out.Valid {
		t.Fatalf("propose: %v", err)
	}
	if err := w.WaitAgreed("obj", []string{"x", "y", "z"}, []byte("v1"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestWorldWaitAgreedTimesOut(t *testing.T) {
	w, err := NewWorld(Options{Seed: 1}, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind("obj", func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap("obj", []byte("v0"), []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitAgreed("obj", []string{"x"}, []byte("never"), 50*time.Millisecond); err == nil {
		t.Fatal("WaitAgreed succeeded for unreachable state")
	}
}

// TestWorldRunsOnProcessTime: a world's clock is the clock a deployment
// runs on, so its grace periods and contention windows expire on their own.
func TestWorldRunsOnProcessTime(t *testing.T) {
	w, err := NewWorld(Options{Seed: 1}, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	before := w.Clk.Now()
	time.Sleep(20 * time.Millisecond)
	if moved := w.Clk.Now().Sub(before); moved < 20*time.Millisecond {
		t.Fatalf("world clock moved %v across a 20ms sleep", moved)
	}
}
