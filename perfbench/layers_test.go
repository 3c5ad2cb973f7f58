package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/block"
)

func located(n int64, racks ...string) block.LocatedBlock {
	lb := block.LocatedBlock{Block: block.Block{NumBytes: n}}
	for _, r := range racks {
		lb.Targets = append(lb.Targets, block.DatanodeInfo{Rack: r})
	}
	return lb
}

func TestCrossRackBytes(t *testing.T) {
	blocks := []block.LocatedBlock{
		located(100, "/rack-a", "/rack-b", "/rack-b"), // one crossing
		located(50, "/rack-a", "/rack-a", "/rack-a"),  // none
		located(10, "/rack-b", "/rack-c"),             // two
		located(7),                                    // no replicas known yet
	}
	if got := crossRackBytes(blocks, "/rack-a"); got != 100+2*10 {
		t.Errorf("crossRackBytes = %d, want 120", got)
	}
	if got := crossRackBytes(nil, "/rack-a"); got != 0 {
		t.Errorf("crossRackBytes of no blocks = %d, want 0", got)
	}
}

func TestCrossRackUtil(t *testing.T) {
	// 100 Mbps carries 12.5 MB/s, so 25 MB over 1 s is twice one link.
	if got := crossRackUtil(25e6, 100, time.Second); math.Abs(got-2) > 1e-12 {
		t.Errorf("crossRackUtil = %v, want 2", got)
	}
	if got := crossRackUtil(25e6, 0, time.Second); got != 0 {
		t.Errorf("crossRackUtil without a throttle = %v, want 0", got)
	}
}

func TestPacketsOf(t *testing.T) {
	p := packetsOf(make([]byte, 10), 4)
	if len(p) != 3 || len(p[0]) != 4 || len(p[2]) != 2 {
		t.Errorf("packetsOf(10 bytes, 4) gave lengths %d/%d/%d", len(p), len(p[0]), len(p[len(p)-1]))
	}
}
