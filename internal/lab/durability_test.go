package lab

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/faults"
	"b2b/internal/store"
)

var soak = flag.Bool("soak", false, "TestDurabilityPlaneBars drives 10,000 runs instead of the minimum that anchors both evidence logs")

// dirSize sums the file sizes under dir.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// TestDurabilityPlaneBars drives the write path the durability plane exists
// for: four 1 MiB objects on one shared plane per party, each receiving a
// stream of 64-byte patches through a W=4 pipeline, with a 2 ms delay on
// every fsync so group commit has something to coalesce. Bars:
//
//   - persisted bytes per run (WAL writes, compaction rewrites and evidence
//     archives, both parties) stay under 256 KiB: delta checkpoints make
//     the cost follow the 64 B update, not the 1 MiB object;
//   - fsyncs are at most half the appended records: durability barriers of
//     overlapping runs share fsyncs;
//   - both parties compacted behind a signed evidence anchor, disk usage
//     stays under the retention bound, and every evidence chain verifies.
//
// The run count is the smallest that anchors both logs; -soak raises it to
// 10,000 (go test ./internal/lab -run TestDurabilityPlaneBars -soak).
func TestDurabilityPlaneBars(t *testing.T) {
	const (
		objects         = 4
		objSize         = 1 << 20
		maxBytesPerRun  = 256 << 10
		maxFsyncsPerRec = 0.5
	)
	pol := store.Policy{
		SegmentSize:   512 << 10,
		CompactAt:     4 << 20,
		SnapshotEvery: 64,
		RetainEntries: 256,
	}
	// Every object's delta chain fills and its next run persists a full
	// snapshot; those four snapshots push the plane past the compaction
	// threshold, and by then the evidence log holds far more than
	// RetainEntries, so the compaction cuts it behind an anchor.
	runs := objects * (pol.SnapshotEvery + 1)
	if *soak {
		runs = 10000
	}
	ids := []string{"org00", "org01"}
	dir := t.TempDir()
	fsMap := map[string]store.FS{}
	for _, id := range ids {
		dfs := faults.NewDiskFS(nil)
		dfs.SetSyncDelay(func() { time.Sleep(2 * time.Millisecond) })
		fsMap[id] = dfs
	}
	w, err := NewWorld(Options{Seed: 17, StorageDir: dir, Durability: pol, FS: fsMap}, ids...)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	base := make([]byte, objSize)
	for i := range base {
		base[i] = byte(i)
	}
	name := func(k int) string { return fmt.Sprintf("obj%02d", k) }
	for k := 0; k < objects; k++ {
		if err := w.Bind(name(k), func(string) coord.Validator { return PatchValidator() }, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Bootstrap(name(k), base, ids); err != nil {
			t.Fatal(err)
		}
	}

	planeTotals := func() (bytes, appends, fsyncs uint64) {
		for _, id := range ids {
			st := w.Party(id).Plane.Stats()
			bytes += st.BytesWritten + uint64(dirSize(filepath.Join(dir, id, "archive")))
			appends += st.Appends
			fsyncs += st.Fsyncs
		}
		return
	}
	bytes0, appends0, fsyncs0 := planeTotals()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	errCh := make(chan error, objects)
	for k := 0; k < objects; k++ {
		go func(k int) { errCh <- drivePatchRuns(ctx, w, name(k), objSize, runs/objects, 4) }(k)
	}
	for k := 0; k < objects; k++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	bytes1, appends1, fsyncs1 := planeTotals()
	bytesPerRun := float64(bytes1-bytes0) / float64(runs)
	records, fsyncs := appends1-appends0, fsyncs1-fsyncs0
	t.Logf("%d runs: %.1f KiB persisted/run, %.1f records/run, %.1f fsyncs/run",
		runs, bytesPerRun/1024, float64(records)/float64(runs), float64(fsyncs)/float64(runs))
	if bytesPerRun > maxBytesPerRun {
		t.Errorf("persisted %.0f B/run, want <= %d", bytesPerRun, maxBytesPerRun)
	}
	if float64(fsyncs) > maxFsyncsPerRec*float64(records) {
		t.Errorf("%d fsyncs for %d records, want <= %.1f per record: group commit is not coalescing", fsyncs, records, maxFsyncsPerRec)
	}

	// Policy.CompactAt bounds a plane at max(CompactAt, 2x live set) plus a
	// segment; a party's live set (one snapshot per object, deltas, run
	// records, retained evidence) stays under objects+1 MiB.
	diskBound := int64(len(ids)) * (2*int64(objects+1)*objSize + pol.CompactAt + int64(pol.SegmentSize))
	var disk int64
	for _, id := range ids {
		p := w.Party(id)
		disk += p.Plane.Stats().DiskBytes
		if err := p.Log.Verify(); err != nil {
			t.Errorf("%s evidence chain: %v", id, err)
		}
		a := p.SegLog.Anchor()
		if a == nil {
			t.Errorf("%s: no evidence anchor after %d runs: the plane never compacted its log", id, runs)
			continue
		}
		if err := a.VerifySig(p.Verifier); err != nil {
			t.Errorf("%s anchor signature: %v", id, err)
		}
	}
	t.Logf("disk %d B across %d parties (bound %d B)", disk, len(ids), diskBound)
	if disk > diskBound {
		t.Errorf("disk usage %d B across %d parties exceeds the retention bound %d B", disk, len(ids), diskBound)
	}
}
