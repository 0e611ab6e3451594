package clock

import (
	"testing"
	"time"
)

func TestWallAdvances(t *testing.T) {
	var c Wall
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatal("wall clock went backwards")
	}
}

func TestSimDeterministic(t *testing.T) {
	start := time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)
	s := NewSim(start)
	if !s.Now().Equal(start) {
		t.Fatalf("Now = %v", s.Now())
	}
	// Time does not pass on its own.
	time.Sleep(time.Millisecond)
	if !s.Now().Equal(start) {
		t.Fatal("sim clock advanced spontaneously")
	}
	got := s.Advance(90 * time.Minute)
	want := start.Add(90 * time.Minute)
	if !got.Equal(want) || !s.Now().Equal(want) {
		t.Fatalf("after Advance: %v, want %v", s.Now(), want)
	}
}

func TestSimZeroValueUsable(t *testing.T) {
	var s Sim
	_ = s.Now() // must not panic
	s.Advance(time.Second)
	if s.Now().IsZero() {
		t.Fatal("Advance had no effect on zero-value Sim")
	}
}

func TestClockInterfaceCompliance(t *testing.T) {
	var _ Clock = Wall{}
	var _ Clock = (*Sim)(nil)
}
