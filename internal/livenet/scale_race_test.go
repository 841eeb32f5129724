//go:build race

package livenet

import "time"

// chaosTestScale is the wall duration of one virtual second in the chaos
// tests. Race instrumentation slows the runtime several-fold and adds
// scheduling jitter, so the compressed-time margins (MaxWait, the dark-peer
// grace, recovery checkpoints) get 4× the wall headroom. Verdicts are
// unchanged: the schedules, parameters and bounds all live in virtual time.
const chaosTestScale = 100 * time.Millisecond

const raceEnabled = true
