package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"spinal"
	"spinal/channel"
	"spinal/link"
	"spinal/transport"
)

// bulk-fetch: one caller in a closed loop of sequential transport.Fetch
// calls, each a 16 KiB payload in 1 KiB segments with the default
// Config, over the fetch tests' code (k=4, B=16) and an 8 dB AWGN channel
// with acks delayed four rounds, paced by CapacityRate.
const (
	fetchBytes  = 16 << 10
	fetchSNRdB  = 8
	fetchDelay  = 4
	fetchStream = 2
	// fetchRate sizes a run: fetches per second of --seconds, about what
	// two 2.1 GHz Xeon vCPUs completed when the benchmark was defined.
	fetchRate = 1.5
)

func fetchParams() spinal.Params { return spinal.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8} }

type bulkFetch struct {
	seed    int64
	in      *inputs
	led     *ledger
	started int
	// log, when set, receives every completed fetch (determinism test).
	log func(index int, payload []byte, channelSeed int64, res *transport.Result)
}

func newBulkFetch(seed int64) (workload, error) {
	f := &bulkFetch{seed: seed, in: newInputs(seed, fetchStream), led: newLedger(false)}
	if _, err := f.measure(opsBudget(1), nil); err != nil {
		return nil, fmt.Errorf("bulk-fetch warm-up: %w", err)
	}
	return f, nil
}

func (f *bulkFetch) close() {}

func (f *bulkFetch) measure(b budget, tr *tracer) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	acct0, started0 := f.led.n, f.started
	var steps, retries, losses, segments int
	var stepTime time.Duration
	var srtt, rto, window []float64
	start := time.Now()
	for b.allows(f.started - started0) {
		index, payload, seed := f.started, f.in.payload(fetchBytes), f.in.channelSeed()
		f.started++
		key := uint64(index)
		f.led.start(key)
		s := tr.begin("transport.Fetch", index, -1)
		t0 := time.Now()
		res, err := transport.Fetch(context.Background(), payload, transport.Config{
			Params: fetchParams(),
			Options: []link.Option{
				link.WithChannel(channel.NewAWGN(fetchSNRdB, seed)),
				link.WithRatePolicy(link.CapacityRate{SNREstimateDB: fetchSNRdB}),
				link.WithFeedback(link.FeedbackConfig{DelayRounds: fetchDelay}),
			},
		})
		lat := time.Since(t0)
		tr.end(s)
		if err != nil && !errors.Is(err, transport.ErrSegmentRetries) {
			return nil, fmt.Errorf("fetch %d: %w", index, err)
		}
		claimed := err == nil
		out := f.led.settle(key, claimed, claimed && bytes.Equal(res.Payload, payload), 0)
		ph.latencies = append(ph.latencies, lat)
		if out == wrong {
			fmt.Fprintf(os.Stderr, "perfbench: wrong delivery (err == nil): workload bulk-fetch seed %d op %d: %s\n",
				f.seed, index, diffSummary(res.Payload, payload))
		}
		if res == nil {
			continue
		}
		if out == delivered {
			ph.bytes += int64(len(payload))
		}
		ph.symbols += int64(res.SymbolsSent + res.AckSymbols)
		steps += res.Steps
		stepTime += lat
		retries += res.Retries
		losses += res.Losses
		segments += res.Segments
		srtt = append(srtt, res.SRTT)
		rto = append(rto, float64(res.RTO))
		window = append(window, res.CwndMax)
		if f.log != nil {
			f.log(index, payload, seed, res)
		}
	}
	ph.elapsed = time.Since(start)
	if err := f.led.check(); err != nil {
		return nil, err
	}
	ph.acct = f.led.n.minus(acct0)
	fetches := float64(len(srtt))
	ph.layer[mTransportRounds.name] = float64(steps) / fetches
	ph.layer[mTransportRoundMs.name] = ms(stepTime) / float64(steps)
	ph.layer[mTransportRetries.name] = float64(retries) / fetches
	ph.layer[mTransportLosses.name] = float64(losses) / fetches
	ph.layer[mTransportYield.name] = float64(segments) / float64(segments+retries)
	ph.layer[mTransportSRTT.name] = percentile(srtt, 0.5)
	ph.layer[mTransportRTO.name] = percentile(rto, 0.5)
	ph.layer[mTransportWindow.name] = percentile(window, 0.5)
	return ph, nil
}
