package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFig5Transcript(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
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
