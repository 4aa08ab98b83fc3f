package stats

import "time"

// Backoff shapes seeded exponential retry delays with jitter: every
// reconnect, redial and control-RPC retry in the repository uses it, each
// with its own defaults (see WithDefaults).
type Backoff struct {
	// Initial is the delay of attempt 0.
	Initial time.Duration
	// Max caps every delay, jitter included.
	Max time.Duration
	// Multiplier grows the delay per attempt.
	Multiplier float64
	// Jitter spreads each delay uniformly over ±Jitter of itself. Zero
	// selects the default; a negative value (or one of 1 or more) turns
	// jitter off, for deterministic schedules.
	Jitter float64
}

// WithDefaults returns b with every unset field taken from def: a
// non-positive Initial or Max, a Multiplier below 1, a zero Jitter.
func (b Backoff) WithDefaults(def Backoff) Backoff {
	if b.Initial <= 0 {
		b.Initial = def.Initial
	}
	if b.Max <= 0 {
		b.Max = def.Max
	}
	if b.Multiplier < 1 {
		b.Multiplier = def.Multiplier
	}
	if b.Jitter == 0 {
		b.Jitter = def.Jitter
	}
	if b.Jitter < 0 || b.Jitter >= 1 {
		b.Jitter = 0
	}
	return b
}

// Delay returns the wait before retry attempt (0-based: attempt 0 waits
// Initial). The jitter draw comes from rng, so a fixed seed yields a fixed
// schedule; rng is not touched when jitter is off.
func (b Backoff) Delay(attempt int, rng *RNG) time.Duration {
	d, ceil := float64(b.Initial), float64(b.Max)
	for i := 0; i < attempt && d < ceil; i++ {
		d = min(d*b.Multiplier, ceil)
	}
	if b.Jitter > 0 {
		d *= 1 + b.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(min(d, ceil))
}
