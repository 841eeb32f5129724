// Package simtime defines the virtual time base used throughout the
// simulator.
//
// Real time ("τ" in the paper) and clock readings are both measured in
// seconds and represented as float64. Two distinct named types, Time and
// Duration, keep instants and spans from being mixed accidentally. The
// float64 representation is deliberate: hardware clocks apply fractional
// drift rates (1+ρ multipliers), which have no exact integer representation;
// the simulator is single-threaded and seeded, so float64 arithmetic is
// fully deterministic.
package simtime

import (
	"fmt"
	"math"
)

// Time is an instant on the real-time axis (or a clock reading), in seconds.
type Time float64

// Duration is a span of time in seconds.
type Duration float64

// Common durations, in seconds.
const (
	Nanosecond  Duration = 1e-9
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
	Hour        Duration = 3600
)

// Infinity is a Duration larger than any real span; used as the "no bound"
// sentinel (for example the accuracy of a timed-out clock estimate).
var Infinity = Duration(math.Inf(1))

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t (t − u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the instant as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// String formats the instant with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Seconds returns the span as a float64 second count.
func (d Duration) Seconds() float64 { return float64(d) }

// Abs returns the magnitude of the span.
func (d Duration) Abs() Duration { return Duration(math.Abs(float64(d))) }

// IsInf reports whether the span is infinite.
func (d Duration) IsInf() bool { return math.IsInf(float64(d), 0) }

// String formats the span using an adaptive unit.
func (d Duration) String() string {
	s := float64(d)
	abs := math.Abs(s)
	switch {
	case math.IsInf(s, 0):
		return "inf"
	case abs < 1e-6:
		return fmt.Sprintf("%.0fns", s*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case abs < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	case abs < 120:
		return fmt.Sprintf("%.3fs", s)
	default:
		return fmt.Sprintf("%.1fmin", s/60)
	}
}

// MaxDuration returns the larger of a and b.
func MaxDuration(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MinDuration returns the smaller of a and b.
func MinDuration(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// Interval is a closed real-time interval [Lo, Hi].
type Interval struct {
	Lo, Hi Time
}

// Contains reports whether t lies inside the interval.
func (iv Interval) Contains(t Time) bool { return t >= iv.Lo && t <= iv.Hi }

// String formats the interval.
func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v]", iv.Lo, iv.Hi)
}
