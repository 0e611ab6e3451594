package clock

import (
	"context"
	"testing"
	"time"
)

func TestSimAfterFuncFiresOnAdvance(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var order []int
	var at []time.Duration
	note := func(i int) func() {
		return func() {
			order = append(order, i)
			at = append(at, s.Now().Sub(time.Unix(0, 0)))
		}
	}
	s.AfterFunc(30*time.Millisecond, note(3))
	s.AfterFunc(10*time.Millisecond, note(1))
	s.AfterFunc(20*time.Millisecond, note(2))

	s.Advance(5 * time.Millisecond)
	if len(order) != 0 {
		t.Fatalf("timer fired before its deadline: %v", order)
	}
	s.Advance(20 * time.Millisecond) // now 25ms: timers 1 and 2 due, in order
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("want [1 2] after 25ms, got %v", order)
	}
	// Each callback sees the clock at its own deadline.
	if at[0] != 10*time.Millisecond || at[1] != 20*time.Millisecond {
		t.Fatalf("callbacks ran at %v, want [10ms 20ms]", at)
	}
	s.Advance(time.Hour)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("want [1 2 3], got %v", order)
	}
}

func TestSimTimersWaitForAdvance(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	fired := make(chan struct{}, 1)
	s.AfterFunc(time.Millisecond, func() { fired <- struct{}{} })
	after := s.After(time.Millisecond)
	tk := s.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-fired:
		t.Fatal("AfterFunc fired without Advance")
	case <-after:
		t.Fatal("After fired without Advance")
	case <-tk.C:
		t.Fatal("ticker ticked without Advance")
	case <-time.After(50 * time.Millisecond):
	}
	s.Advance(time.Millisecond)
	for name, ch := range map[string]<-chan time.Time{"After": after, "ticker": tk.C} {
		select {
		case got := <-ch:
			if !got.Equal(time.Unix(0, 0).Add(time.Millisecond)) {
				t.Fatalf("%s delivered %v", name, got)
			}
		default:
			t.Fatalf("%s did not fire at its deadline", name)
		}
	}
	select {
	case <-fired:
	default:
		t.Fatal("AfterFunc did not fire at its deadline")
	}
}

func TestSimCallbackSchedulesWithinAdvance(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var fired []time.Duration
	s.AfterFunc(10*time.Millisecond, func() {
		s.AfterFunc(10*time.Millisecond, func() {
			fired = append(fired, s.Now().Sub(time.Unix(0, 0)))
		})
	})
	s.Advance(25 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 20*time.Millisecond {
		t.Fatalf("nested timer fired at %v, want [20ms]", fired)
	}
}

func TestSimTickerTicksEveryPeriod(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	tk := s.NewTicker(10 * time.Millisecond)
	var ticks []time.Duration
	for i := 0; i < 3; i++ {
		s.Advance(10 * time.Millisecond)
		select {
		case at := <-tk.C:
			ticks = append(ticks, at.Sub(time.Unix(0, 0)))
		default:
			t.Fatalf("no tick after %d periods", i+1)
		}
	}
	if ticks[0] != 10*time.Millisecond || ticks[2] != 30*time.Millisecond {
		t.Fatalf("ticks at %v", ticks)
	}
	// Ticks a receiver did not take are dropped, not queued.
	s.Advance(50 * time.Millisecond)
	<-tk.C
	select {
	case <-tk.C:
		t.Fatal("ticker queued more than one tick")
	default:
	}
	tk.Stop()
	s.Advance(time.Second)
	select {
	case <-tk.C:
		t.Fatal("stopped ticker ticked")
	default:
	}
}

func TestSimStopPreventsFire(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	fired := false
	tm := s.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop before firing must report true")
	}
	s.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop must report false")
	}
	done := s.AfterFunc(time.Millisecond, func() {})
	s.Advance(time.Millisecond)
	if done.Stop() {
		t.Fatal("Stop after firing must report false")
	}
}

func TestWithTimeoutOnSim(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	ctx, cancel := WithTimeout(context.Background(), s, 50*time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
		t.Fatal("context expired before the simulated clock advanced")
	case <-time.After(60 * time.Millisecond):
	}
	s.Advance(100 * time.Millisecond)
	select {
	case <-ctx.Done():
	default:
		t.Fatal("context not cancelled after the deadline passed")
	}
	if context.Cause(ctx) != context.DeadlineExceeded {
		t.Fatalf("cause = %v, want DeadlineExceeded", context.Cause(ctx))
	}

	// Cancelling first releases the timer: a later Advance fires nothing.
	ctx2, cancel2 := WithTimeout(context.Background(), s, time.Millisecond)
	cancel2()
	s.Advance(time.Second)
	if context.Cause(ctx2) != context.Canceled {
		t.Fatalf("cause after cancel = %v, want Canceled", context.Cause(ctx2))
	}
}

func TestWithTimeoutOnWallIsContextWithTimeout(t *testing.T) {
	before := time.Now()
	ctx, cancel := WithTimeout(context.Background(), Wall{}, 20*time.Millisecond)
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok || dl.Before(before.Add(20*time.Millisecond)) || dl.After(time.Now().Add(20*time.Millisecond)) {
		t.Fatalf("Deadline = %v, %v; want Now()+20ms as context.WithTimeout sets it", dl, ok)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("wall-clock context never expired")
	}
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("Err = %v, want DeadlineExceeded", ctx.Err())
	}
}

func TestWallTimersRunOnProcessTime(t *testing.T) {
	var c Clock = Wall{}
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc never fired")
	}
	for name, ch := range map[string]<-chan time.Time{"After": c.After(time.Millisecond), "ticker": tk.C} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never fired", name)
		}
	}
	if stopped := c.AfterFunc(time.Hour, func() {}); !stopped.Stop() {
		t.Fatal("Stop on a pending wall timer must report true")
	}
}
