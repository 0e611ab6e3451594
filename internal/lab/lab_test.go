package lab

import (
	"bytes"
	"context"
	"strings"
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

func TestRunFig5Transcript(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig5(&buf); err != nil {
		t.Fatalf("RunFig5: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"Cross claims middle row, centre square",
		"Nought claims top row, left square",
		"Cross claims middle row, right square",
		"mark bottom row, centre square with a zero",
		"REJECTED",
		"Cross forfeits the game",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig7Transcript(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig7(&buf); err != nil {
		t.Fatalf("RunFig7: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"customer orders 2 widget1s",
		"supplier prices widget1 at 10",
		"customer amends the order for 10 widget2s",
		"price widget2 AND change its quantity",
		"REJECTED",
		"supplier retries with only the price change",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("transcript missing %q:\n%s", want, out)
		}
	}
	// The final order must show the agreed values of Fig 7.
	if !strings.Contains(out, "widget2") || !strings.Contains(out, "10") {
		t.Fatalf("final order wrong:\n%s", out)
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
