package stats

import (
	"testing"
	"time"
)

func TestBackoffDefaultsAndJitterSwitch(t *testing.T) {
	def := Backoff{Initial: time.Second, Max: 8 * time.Second, Multiplier: 3, Jitter: 0.25}
	for _, c := range []struct {
		name string
		in   Backoff
		want Backoff
	}{
		{"all unset", Backoff{}, def},
		{"kept", Backoff{Initial: 2, Max: 5, Multiplier: 1.5, Jitter: 0.1},
			Backoff{Initial: 2, Max: 5, Multiplier: 1.5, Jitter: 0.1}},
		{"negative jitter off", Backoff{Jitter: -1}, Backoff{Initial: time.Second, Max: 8 * time.Second, Multiplier: 3}},
		{"jitter of 1 off", Backoff{Jitter: 1}, Backoff{Initial: time.Second, Max: 8 * time.Second, Multiplier: 3}},
	} {
		if got := c.in.WithDefaults(def); got != c.want {
			t.Errorf("%s: WithDefaults = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestBackoffDelayClampsAfterJitter(t *testing.T) {
	b := Backoff{Initial: 100 * time.Millisecond, Max: 400 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
	rng := NewRNG(3)
	sawBelowMax := false
	for i := 0; i < 200; i++ {
		d := b.Delay(6, rng)
		if d > b.Max {
			t.Fatalf("delay %v exceeds Max %v", d, b.Max)
		}
		sawBelowMax = sawBelowMax || d < b.Max
	}
	if !sawBelowMax {
		t.Error("jitter never pulled a capped delay below Max")
	}
	if d := b.Delay(0, NewRNG(3)); d < 50*time.Millisecond || d > 150*time.Millisecond {
		t.Errorf("attempt 0 = %v, want Initial ±50%%", d)
	}
}
