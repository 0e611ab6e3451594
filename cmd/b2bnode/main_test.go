package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestBlobObjectConcurrentAccess drives blobObject from the three goroutines
// a running node has: the control interface's set handler and the commit
// executor's install upcall both call ApplyState while Leave calls GetState.
// Under -race an unguarded state field is reported as a data race.
func TestBlobObjectConcurrentAccess(t *testing.T) {
	obj := &blobObject{state: []byte("{}")}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := obj.ApplyState([]byte(fmt.Sprintf(`{"writer":%d,"i":%d}`, w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			state, err := obj.GetState()
			if err != nil {
				t.Error(err)
				return
			}
			if err := obj.ValidateState("peer", state); err != nil {
				t.Errorf("read a torn state %q: %v", state, err)
				return
			}
		}
	}()
	wg.Wait()

	got, err := obj.GetState()
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'x'
	if again, _ := obj.GetState(); bytes.Equal(again, got) {
		t.Fatal("GetState returned the object's own buffer")
	}
}
