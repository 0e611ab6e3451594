package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFig6Transcript(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"Cross plays centre",
		"Nought plays top-left",
		"overwrite Nought's square",
		"REJECTED AT THE TTP",
		"Nought's board never saw the invalid move",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("transcript missing %q:\n%s", want, out)
		}
	}
}
