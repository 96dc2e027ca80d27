package clarens

import (
	"testing"
	"time"
)

func TestAsyncResultRate(t *testing.T) {
	cases := []struct {
		name string
		r    AsyncResult
		want float64
	}{
		{"normal", AsyncResult{Calls: 10, Errors: 2, Elapsed: 2 * time.Second}, 4},
		{"zero elapsed", AsyncResult{Calls: 10, Elapsed: 0}, 0},
		{"negative elapsed", AsyncResult{Calls: 10, Elapsed: -time.Second}, 0},
		{"all errors", AsyncResult{Calls: 5, Errors: 5, Elapsed: time.Second}, 0},
		{"more errors than calls", AsyncResult{Calls: 3, Errors: 4, Elapsed: time.Second}, 0},
		{"empty", AsyncResult{}, 0},
	}
	for _, c := range cases {
		if got := c.r.Rate(); got != c.want {
			t.Errorf("%s: Rate() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCallAsyncClientsExceedCalls(t *testing.T) {
	_, c := startFull(t)
	res := c.CallAsync(50, 3, "system.ping")
	if res.Calls != 3 || res.Errors != 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Elapsed <= 0 {
		t.Error("measured batch must have positive elapsed time")
	}
	if res.Rate() <= 0 {
		t.Errorf("Rate() = %v, want > 0", res.Rate())
	}
}

func TestCallAsyncDegenerateInputs(t *testing.T) {
	_, c := startFull(t)
	for _, calls := range []int{0, -5} {
		res := c.CallAsync(4, calls, "system.ping")
		if res.Calls != 0 || res.Rate() != 0 {
			t.Errorf("totalCalls=%d: result = %+v rate = %v", calls, res, res.Rate())
		}
	}
	// clients < 1 is clamped up, not a crash.
	res := c.CallAsync(0, 2, "system.ping")
	if res.Calls != 2 || res.Errors != 0 {
		t.Errorf("clients=0: result = %+v", res)
	}
}

func TestCallAsyncCountsErrors(t *testing.T) {
	_, c := startFull(t)
	res := c.CallAsync(2, 6, "no.such.method")
	if res.Errors != 6 || res.FirstErr == nil {
		t.Errorf("result = %+v", res)
	}
	if res.Rate() != 0 {
		t.Errorf("Rate() with all errors = %v, want 0", res.Rate())
	}
}
