//go:build !unix

package main

import "time"

// cpuTime is not available here; core.cpu_us_per_pic reads 0.
func cpuTime() time.Duration { return 0 }
