package clarens

import (
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"clarens/internal/faultinject"
	"clarens/internal/resilience"
)

// TestRetryRecoversInjectedTransportFaults sends system.ping through a
// dialer that refuses dials, resets connections and drops writes, each
// at a third of a 10% fault rate per check. The injector is seeded, but
// the transport's read and write goroutines draw from it in no fixed
// order, so the attempt budget is sized from the rate, not the seed.
func TestRetryRecoversInjectedTransportFaults(t *testing.T) {
	srv, _ := startFull(t)
	const rate = 0.10 / 3
	dial := func(attempts int) (*Client, *faultinject.Injector) {
		inj := faultinject.New(faultinject.Config{
			Seed:          1905,
			DialErrorRate: rate,
			ResetRate:     rate,
			DropRate:      rate,
		})
		var nd net.Dialer
		c, err := Dial(srv.URL(),
			WithDialer(inj.Dial(nd.Dial)),
			WithRetry(attempts),
			WithTimeout(100*time.Millisecond)) // a dropped write must not stall the test
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c, inj
	}

	// An attempt meets at most five checks (a dial, a reset and a drop on
	// the write, a reset on each of about two reads), so it fails with
	// probability at most 1/6, and all eight attempts of one call with
	// (1/6)^8 ≈ 6e-7: under 1e-4 across the 100 calls.
	const attempts, calls = 8, 100
	c, inj := dial(attempts)
	for i := 0; i < calls; i++ {
		if _, err := c.Call("system.ping"); err != nil {
			t.Fatalf("call %d failed with %d attempts: %v", i, attempts, err)
		}
	}
	if inj.Faults() == 0 {
		t.Fatalf("no faults injected in %d calls", calls)
	}

	// With one attempt a fault reaches the caller. Every call's write
	// meets the drop check, and a drop fails the call, so 500 calls all
	// succeeding has probability below (29/30)^500 ≈ 4e-8.
	c, inj = dial(1)
	failed := false
	for i := 0; i < 500 && !failed; i++ {
		_, err := c.Call("system.ping")
		failed = err != nil
	}
	if !failed {
		t.Fatal("every call succeeded without retries")
	}
	if inj.Faults() == 0 {
		t.Fatal("a call failed with no fault injected")
	}
}

// TestRetryBreakerFailsFastThenProbesClosed drives WithBreaker over a
// dialer that refuses every dial until told otherwise.
func TestRetryBreakerFailsFastThenProbesClosed(t *testing.T) {
	srv, _ := startFull(t)
	const trip, cooldown = 3, 50 * time.Millisecond
	var refuse atomic.Bool
	var dials atomic.Int64
	refuse.Store(true)
	var nd net.Dialer
	c, err := Dial(srv.URL(),
		WithDialer(func(network, addr string) (net.Conn, error) {
			dials.Add(1)
			if refuse.Load() {
				return nil, &net.OpError{Op: "dial", Net: network, Err: syscall.ECONNREFUSED}
			}
			return nd.Dial(network, addr)
		}),
		WithRetry(1),
		WithBreaker(resilience.BreakerConfig{ConsecFailures: trip, OpenFor: cooldown}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	refused := func(when string) {
		t.Helper()
		if _, err := c.Call("system.ping"); err == nil || errors.Is(err, resilience.ErrOpen) {
			t.Fatalf("%s: err = %v, want a refused dial", when, err)
		}
	}

	for i := 0; i < trip; i++ {
		refused("before the trip")
	}
	if n := dials.Load(); n != trip {
		t.Fatalf("%d dials for %d calls with WithRetry(1)", n, trip)
	}
	if _, err := c.Call("system.ping"); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("after the trip: err = %v, want resilience.ErrOpen", err)
	}
	if n := dials.Load(); n != trip {
		t.Fatalf("the open breaker dialed: %d dials, want %d", n, trip)
	}

	refuse.Store(false)
	time.Sleep(cooldown)
	if _, err := c.Call("system.ping"); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	// Closed rather than half-open: a half-open breaker re-trips on its
	// first failure, a closed one only after trip failures in a row.
	refuse.Store(true)
	c.Close() // drop the pooled connection so the next calls dial
	for i := 0; i < trip-1; i++ {
		refused("after the probe")
	}
}
