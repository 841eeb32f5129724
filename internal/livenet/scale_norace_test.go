//go:build !race

package livenet

import "time"

// chaosTestScale is the wall duration of one virtual second in the chaos
// tests; see scale_race_test.go for the race-instrumented value.
const chaosTestScale = 25 * time.Millisecond

const raceEnabled = false
