// Package clock is the one seam through which the library reads and waits
// on time (TestClockDiscipline keeps the time package's clock functions out
// of every other library package). Wall is the process clock, built on the
// runtime's own timers and tickers. Sim is a simulated clock for tests: it
// stands still until Advance moves it, and its timers fire only when
// Advance reaches them, in deadline order, on the advancing goroutine.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock supplies the current instant and schedules work on its own time.
type Clock interface {
	Now() time.Time
	// AfterFunc runs f once d has elapsed on this clock.
	AfterFunc(d time.Duration, f func()) Timer
	// After sends the clock's time on the returned channel once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTicker sends the clock's time on C every d (d > 0) until Stop,
	// dropping ticks a slow receiver has not taken.
	NewTicker(d time.Duration) *Ticker
}

// Timer is a scheduled callback. Stop reports whether it prevented the
// call (false: it already fired or was stopped before).
type Timer interface {
	Stop() bool
}

// Ticker is a periodic channel timer; see Clock.NewTicker.
type Ticker struct {
	C    <-chan time.Time
	stop func()
}

// Stop turns the ticker off.
func (t *Ticker) Stop() { t.stop() }

// WithTimeout derives a context that is done once d has elapsed on clk.
// On Wall it is exactly context.WithTimeout. On a simulated clock the
// context is done when the clock is advanced past the deadline, with
// context.Cause reporting context.DeadlineExceeded. The returned cancel
// must be called to release the timer.
func WithTimeout(parent context.Context, clk Clock, d time.Duration) (context.Context, context.CancelFunc) {
	if _, ok := clk.(Wall); ok {
		return context.WithTimeout(parent, d)
	}
	ctx, cancel := context.WithCancelCause(parent)
	t := clk.AfterFunc(d, func() { cancel(context.DeadlineExceeded) })
	return ctx, func() {
		t.Stop()
		cancel(context.Canceled)
	}
}

// Wall is the process clock.
type Wall struct{}

// Now returns the current wall-clock time.
func (Wall) Now() time.Time { return time.Now() }

// AfterFunc is time.AfterFunc.
func (Wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// After is time.After.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTicker wraps time.NewTicker.
func (Wall) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, stop: t.Stop}
}

// Sim is a simulated clock. The zero value starts at the zero time.Time;
// use NewSim to pick a starting instant.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	pending []*simTimer // in creation order
}

// NewSim returns a simulated clock starting at t.
func NewSim(t time.Time) *Sim { return &Sim{now: t} }

// Now returns the simulated instant.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AfterFunc schedules f at Now()+d; it runs during the Advance that
// reaches that instant.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	return s.schedule(d, 0, func(time.Time) { f() })
}

// After returns a channel that receives the simulated time during the
// Advance that reaches Now()+d.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.schedule(d, 0, func(now time.Time) { ch <- now })
	return ch
}

// NewTicker returns a ticker whose ticks fall every d of simulated time.
func (s *Sim) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("clock: non-positive interval for NewTicker")
	}
	ch := make(chan time.Time, 1)
	t := s.schedule(d, d, func(now time.Time) {
		select {
		case ch <- now:
		default:
		}
	})
	return &Ticker{C: ch, stop: func() { t.Stop() }}
}

// Advance moves the clock forward by d and returns the new instant. Every
// timer whose deadline it reaches fires on the calling goroutine, in
// deadline order (creation order on ties), with the clock standing at
// that deadline; callbacks run without the clock's lock held, so they may
// read the clock and schedule further timers, which fire in the same
// Advance when they fall within it.
func (s *Sim) Advance(d time.Duration) time.Time {
	s.mu.Lock()
	target := s.now.Add(d)
	for {
		when, fire := s.nextDueLocked(target)
		if fire == nil {
			break
		}
		if when.After(s.now) {
			s.now = when
		}
		now := s.now
		s.mu.Unlock()
		fire(now)
		s.mu.Lock()
	}
	if target.After(s.now) {
		s.now = target
	}
	now := s.now
	s.mu.Unlock()
	return now
}

// nextDueLocked takes the earliest pending timer due by target off the
// schedule (a ticker is re-armed one period on instead) and returns its
// deadline and callback; fire is nil when nothing is due. Scanning in
// creation order with a strict comparison breaks ties by creation.
func (s *Sim) nextDueLocked(target time.Time) (when time.Time, fire func(time.Time)) {
	var next *simTimer
	for _, t := range s.pending {
		if !t.when.After(target) && (next == nil || t.when.Before(next.when)) {
			next = t
		}
	}
	if next == nil {
		return time.Time{}, nil
	}
	when = next.when
	if next.period > 0 {
		next.when = when.Add(next.period)
	} else {
		s.removeLocked(next)
	}
	return when, next.fire
}

func (s *Sim) schedule(d, period time.Duration, fire func(time.Time)) *simTimer {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &simTimer{s: s, when: s.now.Add(d), period: period, fire: fire}
	s.pending = append(s.pending, t)
	return t
}

func (s *Sim) removeLocked(t *simTimer) bool {
	for i, p := range s.pending {
		if p == t {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return true
		}
	}
	return false
}

type simTimer struct {
	s      *Sim
	when   time.Time
	period time.Duration // > 0: a ticker, re-armed after each tick
	fire   func(now time.Time)
}

// Stop takes the timer off the schedule.
func (t *simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.removeLocked(t)
}
