package main

import (
	"crypto/ed25519"
	goruntime "runtime"
	"sync"
	"time"
)

// refRate is the rate of hostSpeed's reference computation, in
// signature checks per second per core, on the reference host (a 2-core
// x86-64 VM). Only ratios to it matter: it sets the scale of the
// host-normalized metrics.
const refRate = 17_500

// calWindow is how long one window of a host-speed measurement runs.
const calWindow = 100 * time.Millisecond

// calKey signs the reference computation's messages.
var calKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))

// hostSpeed measures how fast this host runs a fixed computation right
// now, relative to the reference host: the standard library's ed25519
// signing and verification, which is most of the program's own CPU
// work, but not code the program can change. It runs on every core at
// once, as the deployments do, and reports the median of three short
// windows. Shared hosts drift in speed by tens of percent over minutes;
// scaling CPU-bound work by the speed measured around it keeps most of
// that drift out of the gated metrics.
func hostSpeed() float64 {
	goruntime.GC() // a collection owed by the run before must not slow the measurement
	var windows []float64
	for i := 0; i < 3; i++ {
		windows = append(windows, speedWindow())
	}
	return median(windows)
}

// speedWindow is one calWindow of hostSpeed.
func speedWindow() float64 {
	procs := goruntime.GOMAXPROCS(0)
	counts := make([]int, procs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range counts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pub := calKey.Public().(ed25519.PublicKey)
			msg := make([]byte, 64)
			for time.Since(t0) < calWindow {
				sig := ed25519.Sign(calKey, msg)
				if ed25519.Verify(pub, msg, sig) {
					counts[i] += 2
				}
				msg[i%len(msg)]++
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / time.Since(t0).Seconds() / float64(procs) / refRate
}

// speedAround returns, for each of n repetitions run between the n+1
// entries of speeds, the mean host speed measured before and after it.
func speedAround(speeds []float64, i int) float64 { return (speeds[i] + speeds[i+1]) / 2 }
