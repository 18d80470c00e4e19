package main

import (
	"testing"
	"time"
)

func TestTailLatency(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(i%100+1) * time.Millisecond
	}
	if got := tailLatency(lat, 0.90); got != 90*time.Millisecond {
		t.Fatalf("steady run: tail %v, want 90ms", got)
	}
	for i := 0; i < 200; i++ { // one fifth of the run stalls
		lat[i] = time.Second
	}
	if got := tailLatency(lat, 0.90); got != 90*time.Millisecond {
		t.Fatalf("one stalled fifth moved the tail to %v", got)
	}
	small := lat[200:240]
	if got, want := tailLatency(small, 0.75), percentile(small, 0.75); got != want {
		t.Fatalf("small run: tail %v, want the whole run's p75 %v", got, want)
	}
}

func TestInterquartileMean(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 1000}
	if got := interquartileMean(lat); got != 4 { // mean of 3, 4, 5, 6 rounds down
		t.Fatalf("interquartile mean %v, want 4", got)
	}
	lat[7], lat[0] = 8, 0 // outliers outside the middle half do not count
	if got := interquartileMean(lat); got != 4 {
		t.Fatalf("interquartile mean %v after moving the outliers, want 4", got)
	}
}
