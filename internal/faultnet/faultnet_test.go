package faultnet

import (
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

func pair(t *testing.T, n *Network, client, server string) (transport.Conn, transport.Conn) {
	t.Helper()
	l, err := n.Listen(server)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial(client, server)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	t.Cleanup(func() { c.Close(); srv.Close() })
	return c, srv
}

func TestHealthyPassthrough(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	cli, srv := pair(t, n, "cli", "srv")
	if _, err := cli.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("got %q", buf)
	}
}

func TestFreezeStallsPeerAndThawReleases(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	cli, srv := pair(t, n, "cli", "srv")

	n.Freeze("srv")
	echoed := make(chan struct{})
	go func() {
		buf := make([]byte, 4)
		if _, err := io.ReadFull(srv, buf); err == nil {
			close(echoed)
		}
	}()
	cli.Write([]byte("data"))
	select {
	case <-echoed:
		t.Fatal("frozen endpoint made progress")
	case <-time.After(50 * time.Millisecond):
	}

	// The healthy side's deadline fires even though nothing broke.
	cli.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := cli.Read(make([]byte, 1)); !transport.IsTimeout(err) {
		t.Fatalf("read err = %v, want timeout", err)
	}

	n.Thaw("srv")
	select {
	case <-echoed:
	case <-time.After(2 * time.Second):
		t.Fatal("thawed endpoint still stalled")
	}
}

func TestLinkHangAndClear(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	cli, srv := pair(t, n, "cli", "srv")

	n.SetLink("cli", "srv", Fault{Hang: true})
	wrote := make(chan struct{})
	go func() {
		cli.Write([]byte("x"))
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("write through hung link returned")
	case <-time.After(50 * time.Millisecond):
	}
	n.ClearLink("cli", "srv")
	select {
	case <-wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("cleared link still hung")
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
}

func TestDropAfterBlackholes(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	cli, srv := pair(t, n, "cli", "srv")

	n.SetLink("cli", "srv", Fault{DropAfter: 4})
	if _, err := cli.Write([]byte("abcdefgh")); err != nil {
		t.Fatal(err) // must report success despite the blackhole
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abcd" {
		t.Fatalf("delivered %q, want %q", buf, "abcd")
	}
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := srv.Read(make([]byte, 1)); !transport.IsTimeout(err) {
		t.Fatalf("read past blackhole err = %v, want timeout", err)
	}
}

func TestDialFaults(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()

	n.SetLink("cli", "srv", Fault{DialFail: true})
	if _, err := n.Dial("cli", "srv"); err == nil {
		t.Fatal("DialFail dial succeeded")
	}

	n.SetLink("cli", "srv", Fault{DialHang: true})
	_, err = transport.DialTimeout(n, "cli", "srv", 50*time.Millisecond, clock.System)
	if !transport.IsTimeout(err) {
		t.Fatalf("hung dial err = %v, want timeout", err)
	}

	n.ClearLink("cli", "srv")
	if _, err := n.Dial("cli", "srv"); err != nil {
		t.Fatalf("dial after clear: %v", err)
	}
}

// recordingClock is the system clock plus a log of every delay handed
// to Sleep. Only the writing goroutine sleeps, so the log needs no lock.
type recordingClock struct {
	clock.Real
	sleeps []time.Duration
}

func (c *recordingClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.Real.Sleep(d)
}

// TestDelayIsDeterministic compares the injected delays themselves, not
// wall-clock write times: two same-seed runs must hand identical delays
// to the clock, and each Write must take at least its recorded delay.
func TestDelayIsDeterministic(t *testing.T) {
	sample := func(seed int64) []time.Duration {
		n := Wrap(transport.NewMemNetwork(nil), seed)
		clk := &recordingClock{}
		n.SetClock(clk)
		cli, srv := pair(t, n, "cli", "srv")
		go io.Copy(io.Discard, srv)
		n.SetLink("cli", "srv", Fault{Delay: time.Millisecond, DelayJitter: 5 * time.Millisecond})
		for i := 0; i < 4; i++ {
			start := time.Now()
			if _, err := cli.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			took := time.Since(start)
			if len(clk.sleeps) != i+1 {
				t.Fatalf("write %d: %d delays recorded, want %d", i, len(clk.sleeps), i+1)
			}
			if d := clk.sleeps[i]; d < time.Millisecond || d >= 6*time.Millisecond {
				t.Fatalf("write %d: delay %v outside [1ms, 6ms)", i, d)
			} else if took < d {
				t.Fatalf("write %d took %v, less than its injected delay %v", i, took, d)
			}
		}
		return clk.sleeps
	}
	a, b := sample(42), sample(42)
	if !slices.Equal(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestWildcardLink(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	cli, srv := pair(t, n, "cli", "srv")
	n.SetLink(Wildcard, "srv", Fault{DropAfter: -1})
	cli.Write([]byte("gone"))
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := srv.Read(make([]byte, 1)); !transport.IsTimeout(err) {
		t.Fatalf("wildcard blackhole not applied: %v", err)
	}
}

func TestCloseUnblocksGatedOps(t *testing.T) {
	n := Wrap(transport.NewMemNetwork(nil), 1)
	cli, _ := pair(t, n, "cli", "srv")
	n.SetLink("cli", "srv", Fault{Hang: true})
	done := make(chan error, 1)
	go func() {
		_, err := cli.Write([]byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cli.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write on closed conn returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock hung write")
	}
}
