package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFig7Transcript(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
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
