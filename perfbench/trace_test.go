package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestCovered(t *testing.T) {
	kids := []spanRecord{
		{StartNS: 1, EndNS: 3},
		{StartNS: 2, EndNS: 5},  // overlaps the first
		{StartNS: 8, EndNS: 12}, // runs past the parent's end
		{StartNS: 20, EndNS: 30},
	}
	if got := covered(0, 10, kids); got != 6 {
		t.Errorf("covered = %d, want 6 ([1,5) and [8,10))", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	recs := []spanRecord{
		{Trace: 1, ID: 1, Name: "file", StartNS: 0, EndNS: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "client.write", StartNS: 10, EndNS: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "client.write", StartNS: 40, EndNS: 70},
		{Trace: 1, ID: 4, Parent: 1, Name: "client.close", StartNS: 70, EndNS: 90},
		{Trace: 5, ID: 5, Name: "file", StartNS: 200, EndNS: 300},
	}
	got := make(map[string]layerTime)
	for _, lt := range selfTimes(recs) {
		got[lt.Name] = lt
	}
	want := map[string]struct {
		count       int
		total, self time.Duration
		share       float64
	}{
		"file":         {2, 200, 120, 0.6},
		"client.write": {2, 60, 60, 0.3},
		"client.close": {1, 20, 20, 0.1},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.count || g.Total != w.total || g.Self != w.self || g.ShareOfRoots != w.share {
			t.Errorf("%s: got %+v, want count %d total %v self %v share %v", name, g, w.count, w.total, w.self, w.share)
		}
	}
}

func TestTracerRecordsAndWritesJSONL(t *testing.T) {
	var off *tracer
	if sp := off.begin("file", nil); sp != nil {
		t.Fatal("a nil tracer opened a span")
	}
	if _, err := off.timed("client.create", nil, func() error { return nil }); err != nil {
		t.Fatal(err)
	}

	tr := newTracer()
	root := tr.begin("file", nil)
	if _, err := tr.timed("client.create", root, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	root.end()
	other := tr.begin("file", nil)
	other.end()
	recs := tr.records()
	if len(recs) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(recs))
	}
	child, parent := recs[0], recs[1]
	if child.Parent != parent.ID || child.Trace != parent.Trace || parent.Parent != 0 {
		t.Errorf("child %+v is not linked to root %+v", child, parent)
	}
	if recs[2].Trace == parent.Trace {
		t.Errorf("a second root span shares trace %d", parent.Trace)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeJSONL(path, recs); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []spanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r spanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		back = append(back, r)
	}
	if len(back) != len(recs) || back[0] != recs[0] {
		t.Errorf("JSONL round trip gave %+v, want %+v", back, recs)
	}
}
