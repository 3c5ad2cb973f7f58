package conformance

import (
	"strconv"
	"strings"
	"testing"
)

// TestConformance is the differential harness: each scenario runs once
// through the DES substrate and once through a real in-process cluster,
// and the writesched engine's ordered decision logs must be
// byte-for-byte identical.
func TestConformance(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			simLog, err := RunSim(s)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			again, err := RunSim(s)
			if err != nil {
				t.Fatalf("sim rerun: %v", err)
			}
			if again != simLog {
				t.Fatalf("sim substrate is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", simLog, again)
			}

			victim := ""
			if s.Fault != nil {
				victim = pickVictim(t, simLog, s)
			}
			liveLog, err := RunLive(s, victim)
			if err != nil {
				t.Fatalf("live run: %v", err)
			}
			if liveLog != simLog {
				t.Fatalf("decision logs diverge:%s", diff(simLog, liveLog))
			}
		})
	}
}

// TestConformanceRPCBatchingInvariant pins the control-plane invariant
// on the clean scenarios: the live client sends one plain namenode RPC
// per operation, in the engine's effect order, on its FIFO worker, so
// the live decision log equals the sim's byte-for-byte.
func TestConformanceRPCBatchingInvariant(t *testing.T) {
	for _, s := range Scenarios() {
		if s.Fault != nil {
			continue
		}
		s := s
		t.Run(s.Name, func(t *testing.T) {
			simLog, err := RunSim(s)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			liveLog, err := RunLive(s, "")
			if err != nil {
				t.Fatalf("live run: %v", err)
			}
			if liveLog != simLog {
				t.Fatalf("live log diverges from sim:%s", diff(simLog, liveLog))
			}
		})
	}
}

// pickVictim reads the failing block's first datanode out of the sim log
// and checks the seed keeps it out of every other pipeline's lead: the
// live substrate blackholes the client→victim link for the whole write,
// so a victim leading any other pipeline would fail blocks the sim does
// not (fix by picking a different Scenario.Seed).
func pickVictim(t *testing.T, simLog string, s Scenario) string {
	t.Helper()
	victim := ""
	leads := FirstTargets(simLog)
	for _, l := range leads {
		if l.Idx == s.Fault.Block && !l.Restream {
			victim = l.DN
			break
		}
	}
	if victim == "" {
		t.Fatalf("no launch line for fault block %d in sim log:\n%s", s.Fault.Block, simLog)
	}
	for _, l := range leads {
		if l.DN == victim && (l.Idx != s.Fault.Block || l.Restream) {
			t.Fatalf("victim %s also leads pipeline idx=%d (restream=%v); pick a different seed.\n%s",
				victim, l.Idx, l.Restream, simLog)
		}
	}
	return victim
}

// diff renders the first diverging line with context.
func diff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return strings.Join([]string{
				"", "line " + strconv.Itoa(i+1) + ":",
				"  sim:  " + w[i],
				"  live: " + g[i],
				"--- full sim log ---", want,
				"--- full live log ---", got,
			}, "\n")
		}
	}
	return "\nlogs differ in length (sim " + strconv.Itoa(len(w)) + " lines, live " + strconv.Itoa(len(g)) +
		" lines)\n--- full sim log ---\n" + want + "\n--- full live log ---\n" + got
}

// TestScenarioLogsExerciseTheProtocol pins the structural markers each
// scenario exists to cover, so a regression that silently empties a log
// (both substrates agreeing on nothing) cannot pass as conformance.
func TestScenarioLogsExerciseTheProtocol(t *testing.T) {
	want := map[string][]string{
		"hdfs-single-rack":  {"create path=" + Path + " mode=HDFS repl=3 cap=1", "retire idx=0", "complete path="},
		"smarth-two-rack":   {"mode=SMARTH repl=3 cap=3", "localopt idx=", "fnfa idx=", "retire idx=", "complete path="},
		"smarth-throttled":  {"mode=SMARTH repl=3 cap=3", "fnfa idx=", "complete path="},
		"smarth-failure":    {"fail idx=2 bad=", "recover idx=2 attempt=1", "restream idx=2", "recovered idx=2", "complete path="},
		"smarth-speedaware": {"policy name=speedaware", "fnfa idx=", "retire idx=", "complete path="},
	}
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			markers, ok := want[s.Name]
			if !ok {
				t.Fatalf("scenario %s has no marker list; add one so an empty log cannot pass", s.Name)
			}
			log, err := RunSim(s)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			for _, marker := range markers {
				if !strings.Contains(log, marker) {
					t.Fatalf("log missing %q:\n%s", marker, log)
				}
			}
		})
	}
}
