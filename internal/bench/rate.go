package bench

import "time"

// safeRate returns n per second of d, or 0 when d is not positive.
// Every rate written into a JSON report must pass through here (or an
// equivalent guard): a zero-duration measurement would otherwise yield
// +Inf or NaN, which encoding/json refuses to marshal and which no
// downstream table can render.
func safeRate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}
