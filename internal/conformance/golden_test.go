package conformance

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<scenario>.log from the sim substrate")

// TestConformanceGolden pins every scenario's decision log to a golden
// file under testdata/, so a change that moves both substrates the same
// way (which TestConformance cannot see) still fails. Both the sim and
// the live log must match the golden byte for byte. Regenerate with
//
//	go test ./internal/conformance/ -run TestConformanceGolden -update
//
// only when a protocol decision is meant to change.
func TestConformanceGolden(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			path := filepath.Join("testdata", s.Name+".log")
			simLog, err := RunSim(s)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			if *update {
				if err := os.WriteFile(path, []byte(simLog), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			golden := string(raw)
			if simLog != golden {
				t.Fatalf("sim log differs from %s:%s", path, diff(golden, simLog))
			}

			victim := ""
			if s.Fault != nil {
				victim = pickVictim(t, simLog, s)
			}
			liveLog, err := RunLive(s, victim)
			if err != nil {
				t.Fatalf("live run: %v", err)
			}
			if liveLog != golden {
				t.Fatalf("live log differs from %s:%s", path, diff(golden, liveLog))
			}
		})
	}
}
