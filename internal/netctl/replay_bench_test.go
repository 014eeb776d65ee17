package netctl

import (
	"bytes"
	"path/filepath"
	"testing"

	"taps/internal/obs/declog"
)

// planViews reads the plan state of a replayed log the way tapsctl -replay
// does: accepted tasks, pending flows, occupied links and granted flows.
func planViews(rp *declog.Replayer) (accepted, pending, links, grants int) {
	tree := rp.Tree()
	for i := range tree.Tasks {
		if tree.Tasks[i].Accepted() {
			accepted++
		}
	}
	for _, done := range tree.FlowsInPlay() {
		if !done {
			pending++
		}
	}
	plan, occ := tree.Plan()
	return accepted, pending, len(occ), len(plan)
}

// BenchmarkReplay is one GET /trace or /why on a controller whose log is
// the 2 000-probe recipe log (13 825 records): decode the log, fold it
// into a span tree and read the plan views off it.
func BenchmarkReplay(b *testing.B) {
	stormLogOnce.Do(func() { stormLog = RecipeLog(b, 2000) })
	b.SetBytes(int64(len(stormLog)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		recs, _, err := declog.Read(bytes.NewReader(stormLog))
		if err != nil {
			b.Fatal(err)
		}
		rp := declog.NewReplayer()
		rp.ApplyAll(recs)
		if accepted, _, _, _ := planViews(rp); accepted == 0 {
			b.Fatal("the replayed recipe log accepted no task")
		}
	}
}

// BenchmarkDeclogAppend appends the recipe log's records, decoded once, to
// a fresh log. "memory" is a log in memory: the encoding and framing cost
// of a whole log. "file" is a log file that is synced after each Commit
// record, as the controller's write-ahead syncs once per decision that
// planned, before any agent hears of it: the fsync cost of the log's
// decisions.
func BenchmarkDeclogAppend(b *testing.B) {
	stormLogOnce.Do(func() { stormLog = RecipeLog(b, 2000) })
	recs, _, err := declog.Read(bytes.NewReader(stormLog))
	if err != nil {
		b.Fatal(err)
	}
	var again declog.Writer
	for i := range recs {
		again.Append(&recs[i])
	}
	if got, err := again.Bytes(); err != nil || !bytes.Equal(got, stormLog) {
		b.Fatalf("re-appending the decoded log wrote %d bytes (err %v), the log holds %d", len(got), err, len(stormLog))
	}
	b.Run("memory", func(b *testing.B) {
		b.SetBytes(int64(len(stormLog)))
		b.ReportAllocs()
		for range b.N {
			var w declog.Writer
			for i := range recs {
				if err := w.Append(&recs[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("file", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "ctl.dlg")
		syncs := 0
		b.SetBytes(int64(len(stormLog)))
		b.ReportAllocs()
		for range b.N {
			w, err := declog.Create(path, declog.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := range recs {
				err := w.Append(&recs[i])
				if err == nil && recs[i].Kind == declog.KindCommit {
					err = w.Sync()
					syncs++
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(syncs), "ns/sync")
	})
}
