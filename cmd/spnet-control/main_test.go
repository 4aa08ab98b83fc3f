package main

import "testing"

func TestValidateLimits(t *testing.T) {
	for _, c := range []struct {
		capacity, ttl int
		ok            bool
	}{
		{100, 7, true},
		{1, 1, true},
		{32767, 255, true},
		{0, 7, false},
		{-5, 7, false},
		{32768, 7, false},
		{40000, 7, false},
		{100, 0, false},
		{100, 256, false},
		{100, 300, false},
	} {
		err := validateLimits(c.capacity, c.ttl)
		if (err == nil) != c.ok {
			t.Errorf("validateLimits(%d, %d) = %v, want ok=%v", c.capacity, c.ttl, err, c.ok)
		}
	}
}
